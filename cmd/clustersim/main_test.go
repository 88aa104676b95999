package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the test binary as the clustersim command when it is
// started under that name (see runClustersim), so the tests exercise the
// real flag parsing, exit codes and stderr.
func TestMain(m *testing.M) {
	if filepath.Base(os.Args[0]) == "clustersim" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runClustersim runs the command with args and returns its exit code and
// stderr.
func runClustersim(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Args[0] = "clustersim"
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

// Policy tunables travel in the -system spec and workloads in the -trace
// spec; both run at tiny scale.
func TestSpecsExit0(t *testing.T) {
	for _, args := range [][]string{
		{"-system", "l2s:T=30,delta=8"},
		{"-trace", "churn:files=2000,filekb=8,reqs=20000,lifetime=10"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			if code, stderr := runClustersim(t, append(tiny(), args...)...); code != 0 {
				t.Errorf("exit %d, stderr %q", code, stderr)
			}
		})
	}
}

// Bad values exit 1 before any simulation, with one line naming the
// command; the flags the specs replaced are gone (exit 2, unknown flag).
func TestBadValuesExit1(t *testing.T) {
	for _, args := range [][]string{
		{"-system", "no-such-policy"},
		{"-system", "l2s:T=0"},
		{"-scale", "NaN"},
		{"-seriesdt", "0", "-series", os.DevNull},
		{"-persistent", "-rpc", "0"},
		{"-persistent", "-rpc", "0.5"},
		{"-profiles", "2x1/1"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			code, stderr := runClustersim(t, append(tiny(), args...)...)
			if code != 1 || !strings.HasPrefix(stderr, "clustersim: ") || strings.Count(stderr, "\n") != 1 {
				t.Errorf("exit %d, stderr %q; want exit 1 and one \"clustersim: ...\" line", code, stderr)
			}
		})
	}
	if code, _ := runClustersim(t, append(tiny(), "-T", "30")...); code != 2 {
		t.Errorf("clustersim -T 30: exit %d, want 2 (the flag is gone; use -system l2s:T=30)", code)
	}
}

// tiny is a 4-node run over 0.5% of the default trace.
func tiny() []string { return []string{"-nodes", "4", "-scale", "0.005"} }
