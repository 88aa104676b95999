package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestMain runs the test binary as the l2sd command when it is started
// under that name (see runL2SD), so the tests exercise the real flag
// parsing, exit codes and stderr.
func TestMain(m *testing.M) {
	if filepath.Base(os.Args[0]) == "l2sd" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runL2SD runs the command with args and returns its exit code, stdout and
// stderr.
func runL2SD(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Args[0] = "l2sd"
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if exit, ok := err.(*exec.ExitError); ok {
		return exit.ExitCode(), stdout.String(), stderr.String()
	} else if err != nil {
		t.Fatal(err)
	}
	return 0, stdout.String(), stderr.String()
}

func TestL2SOptions(t *testing.T) {
	demo := []string{"-nodes", "2", "-files", "20", "-demo", "200ms"}
	// Every l2s option the simulator accepts runs live: t = T and a zero
	// shrink window included.
	for _, extra := range [][]string{{"-policy", "l2s:t=20"}, {"-policy", "l2s:shrink=0"}} {
		if code, _, stderr := runL2SD(t, append(demo, extra...)...); code != 0 {
			t.Errorf("l2sd %s: exit %d, stderr %q", strings.Join(extra, " "), code, stderr)
		}
	}
	// Bad options exit 1 before any node starts, with one line naming the
	// command.
	for _, extra := range [][]string{
		{"-policy", "chash"}, {"-policy", "l2s:oracle=true"}, {"-policy", "l2s:t=30"}, {"-policy", "l2s:T=0"},
		{"-scale", "NaN", "-replay", "calgary"},
		{"-files", "0"}, {"-files", "-1"},
		{"-avgkb", "NaN"}, {"-avgkb", "Inf"}, {"-avgkb", "0"},
		{"-alpha", "NaN"}, {"-workers", "0"},
		{"-droprate", "NaN"}, {"-droprate", "-0.1"}, {"-duprate", "NaN"}, {"-faultdelay", "-1s"},
	} {
		code, _, stderr := runL2SD(t, append(demo, extra...)...)
		if code != 1 || !strings.HasPrefix(stderr, "l2sd: ") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("l2sd %s: exit %d, stderr %q; want exit 1 and one \"l2sd: ...\" line",
				strings.Join(extra, " "), code, stderr)
		}
	}
}

// TestReplayBanner checks that a replay describes the catalog it serves,
// the trace's and not the synthetic default, and names a spec-built trace
// by its spec.
func TestReplayBanner(t *testing.T) {
	const replay = "stationary:files=300,filekb=4,reqs=2000"
	code, stdout, stderr := runL2SD(t, "-nodes", "2", "-workers", "2", "-replay", replay, "-scale", "0.1")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	spec, err := trace.ParseGenSpec(replay)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.MustGenerate(spec.Scaled(0.1))
	var total int64
	for _, size := range tr.Sizes {
		total += size
	}
	for _, want := range []string{
		fmt.Sprintf("serving %d files (~%.0f KB each)", tr.NumFiles(), float64(total)/float64(tr.NumFiles())/1024),
		fmt.Sprintf("replaying %s (%d requests)", replay, tr.NumRequests()),
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
}
