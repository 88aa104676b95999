package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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

// runL2SD runs the command with args and returns its exit code and stderr.
func runL2SD(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Args[0] = "l2sd"
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

func TestL2SOptions(t *testing.T) {
	demo := []string{"-nodes", "2", "-files", "20", "-demo", "200ms"}
	// Every l2s option the simulator accepts runs live: t = T and a zero
	// shrink window included.
	for _, extra := range [][]string{{"-policy", "l2s:t=20"}, {"-policy", "l2s:shrink=0"}} {
		if code, stderr := runL2SD(t, append(demo, extra...)...); code != 0 {
			t.Errorf("l2sd %s: exit %d, stderr %q", strings.Join(extra, " "), code, stderr)
		}
	}
	// Bad options exit 1 before any node starts, with one line naming the
	// command.
	for _, extra := range [][]string{
		{"-policy", "chash"}, {"-policy", "l2s:oracle=true"}, {"-policy", "l2s:t=30"}, {"-policy", "l2s:T=0"},
		{"-scale", "NaN", "-replay", "calgary"},
	} {
		code, stderr := runL2SD(t, append(demo, extra...)...)
		if code != 1 || !strings.HasPrefix(stderr, "l2sd: ") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("l2sd %s: exit %d, stderr %q; want exit 1 and one \"l2sd: ...\" line",
				strings.Join(extra, " "), code, stderr)
		}
	}
}
