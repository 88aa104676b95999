package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the test binary as the qmodel command when it is started
// under that name (see runQmodel), so the tests exercise the real flag
// parsing, exit codes and stderr.
func TestMain(m *testing.M) {
	if filepath.Base(os.Args[0]) == "qmodel" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runQmodel runs the command with args and returns its exit code, stdout
// and stderr.
func runQmodel(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Args[0] = "qmodel"
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

// A point and a surface evaluate and exit 0.
func TestModesExit0(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-point", "-hit", "0.8", "-size", "8", "-util"}, "conscious:"},
		{[]string{"-figure", "3"}, "hit_rate"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			code, stdout, stderr := runQmodel(t, tc.args...)
			if code != 0 || stderr != "" || !strings.Contains(stdout, tc.want) {
				t.Errorf("exit %d, stderr %q, stdout lacks %q", code, stderr, tc.want)
			}
		})
	}
}

// Bad values exit 1 with one line naming the command, never a panic or a
// number.
func TestBadValuesExit1(t *testing.T) {
	for _, args := range [][]string{
		{"-figure", "9"},
		{"-point", "-hit", "2"},
		{"-point", "-hit", "-0.1"},
		{"-point", "-hit", "NaN"},
		{"-point", "-nodes", "-3"},
		{"-point", "-nodes", "0"},
		{"-point", "-size", "NaN"},
		{"-point", "-size", "Inf"},
		{"-point", "-size", "0"},
		{"-point", "-r", "5"},
		{"-point", "-r", "NaN"},
		{"-point", "-mem", "0"},
		{"-point", "-mem", "9000000000000"},
		{"-figure", "3", "-r", "-1"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			code, stdout, stderr := runQmodel(t, args...)
			if code != 1 || stdout != "" || !strings.HasPrefix(stderr, "qmodel: ") ||
				strings.Count(stderr, "\n") != 1 || strings.Contains(stderr, "panic") {
				t.Errorf("exit %d, stdout %q, stderr %q; want exit 1 and one \"qmodel: ...\" line",
					code, stdout, stderr)
			}
		})
	}
}
