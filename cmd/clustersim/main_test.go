package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/policy"
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

// runClustersim runs the command with args and returns its exit code,
// stdout and stderr.
func runClustersim(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Args[0] = "clustersim"
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

// Policy tunables travel in the -system spec and workloads in the -trace
// spec; both run at tiny scale.
func TestSpecsExit0(t *testing.T) {
	for _, args := range [][]string{
		{"-system", "l2s:T=30,delta=8"},
		{"-trace", "churn:files=2000,filekb=8,reqs=20000,lifetime=10"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			if code, _, stderr := runClustersim(t, append(tiny(), args...)...); code != 0 {
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
		{"-rate", "NaN"},
		{"-rate", "-5"},
		{"-warm", "NaN"},
		{"-fail", "1", "-failat", "NaN"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			code, _, stderr := runClustersim(t, append(tiny(), args...)...)
			if code != 1 || !strings.HasPrefix(stderr, "clustersim: ") || strings.Count(stderr, "\n") != 1 {
				t.Errorf("exit %d, stderr %q; want exit 1 and one \"clustersim: ...\" line", code, stderr)
			}
		})
	}
	if code, _, _ := runClustersim(t, append(tiny(), "-T", "30")...); code != 2 {
		t.Errorf("clustersim -T 30: exit %d, want 2 (the flag is gone; use -system l2s:T=30)", code)
	}
}

// Comparison mode labels each row with the spec it was given, so aliases
// and two tunings of one policy stay apart, and it exits 1 after the table
// when a simulation fails.
func TestCompareRowsAndFailures(t *testing.T) {
	for _, tc := range []struct {
		system string
		rows   []string
		code   int
	}{
		{"all", policy.Names(), 0},
		{"chash:vnodes=64,chash:vnodes=128", []string{"chash:vnodes=64", "chash:vnodes=128"}, 0},
		{"l2s,l2s:T=5,t=10", []string{"l2s", "l2s:T=5,t=10"}, 1},
	} {
		t.Run(tc.system, func(t *testing.T) {
			code, stdout, stderr := runClustersim(t, append(tiny(), "-system", tc.system)...)
			if code != tc.code {
				t.Errorf("exit %d, want %d; stderr %q", code, tc.code, stderr)
			}
			if got := rowLabels(stdout); !slices.Equal(got, tc.rows) {
				t.Errorf("rows %q, want %q", got, tc.rows)
			}
		})
	}
}

// Each comparison row carries the numbers of the spec it is labelled with:
// req/s, miss%, fwd%, imbalance and control messages match a single run of
// that spec alone.
func TestCompareMatchesSingleRuns(t *testing.T) {
	specs := []string{"l2s", "lard", "chash:vnodes=64"}
	code, table, stderr := runClustersim(t, append(tiny(), "-system", strings.Join(specs, ","))...)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(table, "\n") {
		if fields := strings.Fields(line); strings.HasPrefix(line, "  ") && len(fields) == 9 {
			rows[fields[0]] = fields
		}
	}
	for _, spec := range specs {
		t.Run(spec, func(t *testing.T) {
			row, ok := rows[spec]
			if !ok {
				t.Fatalf("no %q row in\n%s", spec, table)
			}
			code, single, stderr := runClustersim(t, append(tiny(), "-system", spec)...)
			if code != 0 {
				t.Fatalf("exit %d, stderr %q", code, stderr)
			}
			for _, c := range []struct {
				column int
				re     string
			}{
				{1, `throughput: +(\S+) req/s`},
				{2, `cache miss rate: +(\S+)%`},
				{3, `forwarded: +(\S+)%`},
				{4, `imbalance (\S+)\)`},
				{7, `control msgs: +(\S+) `},
			} {
				m := regexp.MustCompile(c.re).FindStringSubmatch(single)
				if m == nil {
					t.Fatalf("no %q in\n%s", c.re, single)
				}
				if row[c.column] != m[1] {
					t.Errorf("column %d reads %s, the single run %s (%q)", c.column, row[c.column], m[1], c.re)
				}
			}
		})
	}
}

// Comparison mode's table does not depend on how many simulations run at
// once.
func TestCompareWorkersDeterministic(t *testing.T) {
	var tables []string
	for _, workers := range []string{"1", "4"} {
		code, stdout, stderr := runClustersim(t, append(tiny(), "-system", "all", "-workers", workers)...)
		if code != 0 {
			t.Fatalf("-workers %s: exit %d, stderr %q", workers, code, stderr)
		}
		tables = append(tables, stdout)
	}
	if tables[0] != tables[1] {
		t.Errorf("-workers 1 printed\n%s\n-workers 4 printed\n%s", tables[0], tables[1])
	}
}

// rowLabels returns the first column of the comparison table's rows.
func rowLabels(stdout string) []string {
	var labels []string
	for _, line := range strings.Split(stdout, "\n") {
		fields := strings.Fields(line)
		if strings.HasPrefix(line, "  ") && len(fields) > 0 && fields[0] != "system" {
			labels = append(labels, fields[0])
		}
	}
	return labels
}

// tiny is a 4-node run over 0.5% of the default trace.
func tiny() []string { return []string{"-nodes", "4", "-scale", "0.005"} }
