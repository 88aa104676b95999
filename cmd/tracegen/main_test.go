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
		{"-spec", "stationary:files=1000,filekb=NaN"},
		{"-spec", "stationary:files=1000,reqkb=Inf"},
		{"-spec", "stationary:files=1000,localp=1"},
		{"-spec", "nosuch:files=1"},
		{"-spec", "nosuch"},
		{"-spec", "calgary", "-scale", "NaN"},
		{"-spec", "calgary", "-scale", "-1"},
		{"-spec", "calgary", "-scale", "1e300"},
	} {
		code, stderr := runTracegen(t, args...)
		if code != 1 || !strings.HasPrefix(stderr, "tracegen: ") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("tracegen %s: exit %d, stderr %q; want exit 1 and one \"tracegen: ...\" line",
				strings.Join(args, " "), code, stderr)
		}
	}
}

// A churn spec whose expected realization passes the int32 request index
// space exits 1 with one line, before anything is allocated for it, and
// writes no file.
func TestOversizedChurnExit1(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.trace")
	code, stderr := runTracegen(t, "-spec", "churn:files=1000,filekb=16,reqs=1000,lifetime=10,docreqs=1e9", "-out", out)
	if code != 1 || !strings.HasPrefix(stderr, "tracegen: ") || strings.Count(stderr, "\n") != 1 ||
		!strings.Contains(stderr, "expected requests exceed") {
		t.Errorf("exit %d, stderr %q; want exit 1 and one \"tracegen: ...\" line naming the size", code, stderr)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("output file: %v, want none written", err)
	}
}
