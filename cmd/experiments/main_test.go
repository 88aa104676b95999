package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the test binary as the experiments command when it is
// started under that name (see runExperiments), so the tests exercise the
// real flag parsing, exit codes and stderr.
func TestMain(m *testing.M) {
	if filepath.Base(os.Args[0]) == "experiments" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runExperiments runs the command with args and returns its exit code,
// stdout and stderr.
func runExperiments(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Args[0] = "experiments"
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

func TestOnlyTable1(t *testing.T) {
	code, stdout, stderr := runExperiments(t, "-only", "table1", "-scale", "0.001")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.HasPrefix(stdout, "table1: model parameters") {
		t.Errorf("stdout does not start with table 1:\n%s", stdout)
	}
}

// Bad values exit 1 before any experiment runs, with one line naming the
// command; an unknown -only name lists the valid ones. The deleted flags
// exit 2 (unknown flag): -policy and -profiles, which clustersim's
// comparison mode replaced (-system a,b and -system ... -profiles), and
// -csv and -chart.
func TestBadValuesExit1(t *testing.T) {
	for _, args := range [][]string{
		{"-only", "nosuch"},
		{"-only", "figure7x"},
		{"-scale", "0"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			code, stdout, stderr := runExperiments(t, append([]string{"-scale", "0.001"}, args...)...)
			if code != 1 || !strings.HasPrefix(stderr, "experiments: ") || strings.Count(stderr, "\n") != 1 {
				t.Errorf("exit %d, stderr %q; want exit 1 and one \"experiments: ...\" line", code, stderr)
			}
			if stdout != "" {
				t.Errorf("stdout %q, want nothing", stdout)
			}
			if args[0] == "-only" && !strings.Contains(stderr, "table1, figures3to6") {
				t.Errorf("stderr %q does not list the valid names", stderr)
			}
		})
	}
	for _, args := range [][]string{
		{"-policy", "l2s,lard"},
		{"-profiles", "2x2/8,6x1/1"},
		{"-csv"},
		{"-chart"},
	} {
		if code, _, _ := runExperiments(t, append(args, "-only", "table1", "-scale", "0.001")...); code != 2 {
			t.Errorf("experiments %s: exit %d, want 2 (the flag is gone)", strings.Join(args, " "), code)
		}
	}
}
