package experiments

import (
	"fmt"
	"strings"
	"unicode"

	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/trace"
)

// study is the shape most of the evaluation shares: a few server
// configurations run on one trace, one row each, printed under a title as
// one column per metric.
type study struct {
	title string
	trace *trace.Trace
	rows  []row
	cols  []column
}

// row is one configuration of a study. key names its job: it labels
// progress and errors and, through the runner, derives the run's seed, so
// a row's key fixes its numbers.
type row struct {
	key, label string
	cfg        server.Config
}

// column is one printed metric: verb formats what get reads off a row's
// result. A column without get prints the row's label instead. The header
// takes the verb's width plus any literal suffix, left-aligned for a "%-"
// verb; a study whose first header is empty prints no header line.
type column struct {
	head, verb string
	get        func(server.Result) any
}

// label is the column of row labels, width characters wide.
func label(head string, width int) column {
	return column{head: head, verb: fmt.Sprintf("%%-%ds", width)}
}

// The comparison columns most studies print.
var (
	reqPerSec = column{"req/s", "%10.0f", func(r server.Result) any { return r.Throughput }}
	missPct   = column{"miss%", "%8.1f", func(r server.Result) any { return r.MissRate * 100 }}
	fwdPct    = column{"fwd%", "%8.1f", func(r server.Result) any { return r.ForwardedFrac * 100 }}
	imbalance = column{"imbalance", "%10.2f", func(r server.Result) any { return r.LoadImbalance }}
	idlePct   = column{"idle%", "%8.1f", func(r server.Result) any { return r.CPUIdle * 100 }}
)

// add appends a row whose job key is prefix, a slash and the label.
func (s *study) add(prefix, label string, cfg server.Config) {
	s.rows = append(s.rows, row{prefix + "/" + label, label, cfg})
}

// runStudies runs every row of every study as one pool sweep and returns
// each study's results, aligned with its rows.
func runStudies(p *runner.Pool, studies ...*study) ([][]server.Result, error) {
	var jobs []runner.Job
	for _, s := range studies {
		for _, r := range s.rows {
			jobs = append(jobs, runner.Job{Key: r.key, Config: r.cfg, Trace: s.trace})
		}
	}
	done := p.Run(jobs)
	out := make([][]server.Result, len(studies))
	for i, s := range studies {
		for _, jr := range done[:len(s.rows)] {
			if jr.Err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", jr.Key, jr.Err)
			}
			out[i] = append(out[i], jr.Result)
		}
		done = done[len(s.rows):]
	}
	return out, nil
}

// run runs one study and renders it.
func (s *study) run(p *runner.Pool) ([]server.Result, string, error) {
	res, err := runStudies(p, s)
	if err != nil {
		return nil, "", err
	}
	return res[0], s.render(res[0]), nil
}

// render prints the study's title, header and one line per row.
func (s *study) render(results []server.Result) string {
	var b strings.Builder
	b.WriteString(s.title + "\n")
	if s.cols[0].head != "" {
		b.WriteString(" ")
		for _, c := range s.cols {
			b.WriteString(" " + c.header())
		}
		b.WriteByte('\n')
	}
	for i, r := range s.rows {
		b.WriteString(" ")
		for _, c := range s.cols {
			b.WriteByte(' ')
			if c.get == nil {
				fmt.Fprintf(&b, c.verb, r.label)
			} else {
				fmt.Fprintf(&b, c.verb, c.get(results[i]))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// header pads the column's head to the width of its printed values.
func (c column) header() string {
	var width int
	fmt.Sscanf(c.verb, "%%%d", &width) // negative for a left-aligned verb
	if width > 0 {
		width += len(c.verb) - strings.IndexFunc(c.verb, unicode.IsLetter) - 1
	}
	return fmt.Sprintf("%*s", width, c.head)
}
