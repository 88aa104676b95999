package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []decl `json:"end_to_end"`
	PerLayer   []decl `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// smokeOptions are one pass at 1/100 size with two repetitions.
func smokeOptions(t *testing.T, traced bool) options {
	return options{seed: defaultSeed, reps: 2, scale: 0.01, traced: traced, outDir: t.TempDir()}
}

// smoke runs such a pass over one workload, or over all when name is empty,
// and returns everything it printed.
func smoke(t *testing.T, o options, name string) (*document, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := execute(o, name, &stdout, &stderr); code != 0 {
		t.Fatalf("bench %+v %q exited %d: %s", o, name, code, stderr.String())
	}
	out := stdout.String()
	var doc document
	if err := json.NewDecoder(strings.NewReader(out)).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return &doc, out
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !reflect.DeepEqual(b.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, b.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	strip := func(ds []decl) []decl {
		out := make([]decl, len(ds))
		for i, d := range ds {
			out[i] = decl{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound}
		}
		return out
	}
	if !reflect.DeepEqual(strip(endToEnd), b.EndToEnd) {
		t.Errorf("end_to_end differs:\nprogram %+v\nfile    %+v", strip(endToEnd), b.EndToEnd)
	}
	if !reflect.DeepEqual(strip(perLayer), b.PerLayer) {
		t.Errorf("per_layer differs:\nprogram %+v\nfile    %+v", strip(perLayer), b.PerLayer)
	}

	e2e := make(map[string]bool)
	seen := make(map[string]bool)
	for _, d := range endToEnd {
		e2e[d.Name] = true
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !e2e["setup_s"] {
		t.Error("setup_s must be an end-to-end metric")
	}
	for _, d := range append(append([]decl{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
		if d.Moves != "" && !e2e[d.Moves] {
			t.Errorf("%s moves %q, which is no end-to-end metric", d.Name, d.Moves)
		}
		if len(d.On) == 0 {
			t.Errorf("%s names no workload", d.Name)
		}
		for _, w := range d.On {
			if _, ok := findWorkload(w); !ok {
				t.Errorf("%s names unknown workload %q", d.Name, w)
			}
		}
	}
}

func TestSmoke(t *testing.T) {
	for _, pass := range []struct {
		trace string
		decls []decl
	}{{"0", endToEnd}, {"1", perLayer}} {
		doc, _ := smoke(t, smokeOptions(t, pass.trace == "1"), "")
		if len(doc.Workloads) != len(workloads) {
			t.Fatalf("trace %s: %d workloads in the document, want %d", pass.trace, len(doc.Workloads), len(workloads))
		}
		for _, w := range workloads {
			res := doc.Workloads[w.name]
			if res == nil {
				t.Fatalf("trace %s: %s missing", pass.trace, w.name)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("trace %s %s: correct=%v attempted=%d failed=%d %v", pass.trace, w.name, res.Correct, res.Attempted, res.Failed, res.Detail.Mismatches)
			}
			if len(res.Metrics) != len(pass.decls) {
				t.Errorf("trace %s %s: %d metrics, want %d", pass.trace, w.name, len(res.Metrics), len(pass.decls))
			}
			for _, d := range pass.decls {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("trace %s %s: metric %s missing or in unit %q, want %q", pass.trace, w.name, d.Name, m.Unit, d.Unit)
				}
				if pass.trace == "0" && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.name, d.Name, m.Value)
				}
			}
		}
		if pass.trace == "1" && len(doc.SpanSelfMs) == 0 {
			t.Error("traced pass reported no span self times")
		}
	}
}

func TestSimStatisticsRepeat(t *testing.T) {
	a, _ := smoke(t, smokeOptions(t, false), paper16)
	b, _ := smoke(t, smokeOptions(t, false), paper16)
	if !reflect.DeepEqual(a.Workloads[paper16].Detail.SimStats, b.Workloads[paper16].Detail.SimStats) {
		t.Errorf("simulated statistics differ between two invocations:\n%+v\n%+v",
			a.Workloads[paper16].Detail.SimStats, b.Workloads[paper16].Detail.SimStats)
	}
}

func TestWorkloadRunEndsWithSummaryLine(t *testing.T) {
	o := smokeOptions(t, false)
	o.seed = 3 // not the default: expected.json does not apply
	_, out := smoke(t, o, chash1024)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[key]; !ok {
			t.Errorf("summary line lacks %q", key)
		}
	}
	if len(last) != 4 {
		t.Errorf("summary line has %d keys, want exactly 4", len(last))
	}
}

// The driver's spelling of the command line parses, and an unknown workload
// is refused with the valid names.
func TestUnknownWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "nonesuch", "--seed", "3", "--seconds", "1", "--trace", "0"}
	if code := run(args, &stdout, &stderr); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	for _, w := range workloads {
		if !strings.Contains(stderr.String(), w.name) {
			t.Errorf("error %q does not list %s", stderr.String(), w.name)
		}
	}
}

func TestStatsMismatchIsReported(t *testing.T) {
	want, ok := expectedStats(miss16, "l2s")
	if !ok {
		t.Fatal("expected.json has no miss16/l2s")
	}
	got := want
	got.Events++
	if d := want.diff(got); !strings.Contains(d, "events") {
		t.Errorf("diff = %q, want it to name events", d)
	}
	if d := want.diff(want); d != "" {
		t.Errorf("identical statistics differ: %s", d)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := decl{Better: "lower", Bound: 0.1}
	higher := decl{Better: "higher", Bound: 0.1}
	exact := decl{Better: "higher", Exact: true}
	once := sampleStat{Samples: []float64{1}}
	twice := sampleStat{Samples: []float64{1, 1.02}, Spread: 0.02}
	for _, c := range []struct {
		d      decl
		a, b   float64
		spread float64
		want   string
	}{
		{lower, 100, 105, 0.02, "within"},
		{lower, 100, 120, 0.02, "worse"},
		{lower, 100, 80, 0.02, "within"},
		{higher, 100, 80, 0.02, "worse"},
		{lower, 100, 105, 0.3, "unresolved"},
		{lower, 100, 120, 0.3, "unresolved"},
		{lower, 100, 120, spreadOf(lower, twice, twice), "worse"},
		{lower, 100, 120, spreadOf(lower, once, twice), "unresolved"},               // one sample shows no noise floor
		{decl{Better: "lower", Bound: 0.25, Floor: 0.25}, 0.4, 0.6, 0.02, "within"}, // +50 % of 0.4 s is under the floor
		{decl{Better: "lower", Bound: 0.25, Floor: 0.25}, 1.0, 1.4, 0.02, "worse"},
		{exact, 100, 100, spreadOf(exact, once, once), "within"},
		{exact, 100, 100.5, spreadOf(exact, once, once), "worse"},
	} {
		if _, v := verdict(c.d, c.a, c.b, c.spread); v != c.want {
			t.Errorf("verdict(%+v, %v -> %v, spread %v) = %s, want %s", c.d, c.a, c.b, c.spread, v, c.want)
		}
	}
}

// Two passes of one commit compare without a worse row; a pass whose
// simulated statistics or failed operations differ is worse, and passes at
// different seeds are refused.
func TestCompareDocuments(t *testing.T) {
	doc, _ := smoke(t, smokeOptions(t, false), miss16)
	dir := t.TempDir()
	write := func(name string, edit func(*document)) string {
		var d document
		data, err := json.Marshal(doc)
		if err == nil {
			err = json.Unmarshal(data, &d) // a deep copy to edit
		}
		if err != nil {
			t.Fatal(err)
		}
		edit(&d)
		if data, err = json.Marshal(&d); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	same := write("same.json", func(*document) {})
	events := write("events.json", func(d *document) {
		st := d.Workloads[miss16].Detail.SimStats["l2s"]
		st.Events++
		d.Workloads[miss16].Detail.SimStats["l2s"] = st
	})
	failed := write("failed.json", func(d *document) { d.Workloads[miss16].Failed = 1 })
	seed := write("seed.json", func(d *document) { d.Env.Seed++ })

	t.Chdir("..") // -compare reads BENCHMARK.json in the working directory
	for _, c := range []struct {
		b    string
		want int
		says string
	}{
		{same, 0, ""},
		{events, 1, "miss16 simulated statistics differ: l2s: events"},
		{failed, 1, ""},
		{seed, 2, "differ in seed"},
	} {
		var stdout, stderr bytes.Buffer
		if code := compareDocs(same, c.b, &stdout, &stderr); code != c.want || !strings.Contains(stderr.String(), c.says) {
			t.Errorf("-compare same.json %s exited %d saying %q, want %d and %q\n%s",
				filepath.Base(c.b), code, stderr.String(), c.want, c.says, stdout.String())
		}
	}
}

func TestTraceFileLinksParents(t *testing.T) {
	o := smokeOptions(t, true)
	smoke(t, o, native4)
	data, err := os.ReadFile(filepath.Join(o.outDir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Args struct{ ID, Parent int }
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	ids := make(map[int]bool)
	requests := 0
	for _, e := range doc.TraceEvents {
		ids[e.Args.ID] = true
		if e.Name == "GET /files" {
			requests++
		}
	}
	for _, e := range doc.TraceEvents {
		if e.Args.Parent != 0 && !ids[e.Args.Parent] {
			t.Fatalf("span %d (%s) names missing parent %d", e.Args.ID, e.Name, e.Args.Parent)
		}
	}
	if requests == 0 {
		t.Error("no per-request client spans in the trace")
	}
}
