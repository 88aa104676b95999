package main

import (
	"bytes"
	"crypto/sha256"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestMain runs the test binary as the tracegen command when it is started
// under that name (see runTracegen), so the tests exercise the real flag
// parsing, exit codes and stderr.
func TestMain(m *testing.M) {
	if filepath.Base(os.Args[0]) == "tracegen" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runTracegen runs the command with args and returns its exit code and
// stderr.
func runTracegen(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Args[0] = "tracegen"
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if exit, ok := err.(*exec.ExitError); ok {
		return exit.ExitCode(), stderr.String()
	} else if err != nil {
		t.Fatal(err)
	}
	return 0, stderr.String()
}

// The written trace is byte-for-byte the one Generate returns in-process.
func TestSpecWritesGeneratedTrace(t *testing.T) {
	const text = "stationary:files=2000,filekb=8,reqs=20000"
	out := filepath.Join(t.TempDir(), "s.trace")
	if code, stderr := runTracegen(t, "-spec", text, "-out", out); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	file, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := trace.ParseGenSpec(text)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if _, err := trace.MustGenerate(spec).WriteTo(h); err != nil {
		t.Fatal(err)
	}
	if got, want := sha256.Sum256(file), h.Sum(nil); !bytes.Equal(got[:], want) {
		t.Errorf("written trace sha256 %x, Generate %x", got, want)
	}
	if code, stderr := runTracegen(t, "-list"); code != 0 {
		t.Errorf("-list: exit %d, stderr %q", code, stderr)
	}
}

// Bad values exit 1 with one line naming the command.
func TestBadValuesExit1(t *testing.T) {
	for _, args := range [][]string{
		{"-files", "1000", "-avgfile", "NaN"},
		{"-files", "1000", "-avgreq", "Inf"},
		{"-files", "1000", "-locality", "1"},
		{"-spec", "nosuch:files=1"},
		{"-trace", "nosuch"},
	} {
		code, stderr := runTracegen(t, args...)
		if code != 1 || !strings.HasPrefix(stderr, "tracegen: ") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("tracegen %s: exit %d, stderr %q; want exit 1 and one \"tracegen: ...\" line",
				strings.Join(args, " "), code, stderr)
		}
	}
}
