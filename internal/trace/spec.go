package trace

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/spec"
)

// This file is the generation-spec grammar: the single string form in which
// CLIs (tracegen -spec, clustersim -trace, l2sd -replay, the experiment
// drivers) name a synthetic workload together with its tunables. A spec
// reads
//
//	mode[:key=value,key=value,...]
//
// where mode is one of stationary, churn, diurnal, flash — or the name of a
// paper trace (calgary, clarknet, nasa, rutgers), which starts from that
// trace's published parameters and applies the overrides on top. Examples:
//
//	churn:files=20000,reqs=500000,lifetime=10,seed=3
//	flash:files=8000,filekb=20,reqs=300000,reqkb=12,alpha=0.9,ffrac=0.7
//	clarknet:reqs=100000
//
// Keys are typed and range-checked per mode in the grammar of package spec,
// which policy.ParseSpec shares; ParseGenSpec never generates a trace, it
// only builds the validated GenSpec. SpecString is the canonical
// inverse: it emits a form that re-parses to the identical spec, which the
// fuzz harness holds as an invariant.

// genParam is one typed key of the grammar.
type genParam = spec.Param[GenSpec]

// commonGenParams are accepted by every mode.
var commonGenParams = []genParam{
	{Key: "files", Kind: spec.Int, Min: 1, Max: 5e7,
		Get: func(s GenSpec) float64 { return float64(s.Files) },
		Set: func(s *GenSpec, v float64) { s.Files = int(v) }},
	{Key: "filekb", Min: 0, MinExcl: true, Max: 1e6,
		Get: func(s GenSpec) float64 { return s.AvgFileKB },
		Set: func(s *GenSpec, v float64) { s.AvgFileKB = v }},
	{Key: "reqs", Kind: spec.Int, Min: 1, Max: 1e9,
		Get: func(s GenSpec) float64 { return float64(s.Requests) },
		Set: func(s *GenSpec, v float64) { s.Requests = int(v) }},
	{Key: "sigma", Min: 0, Max: 10,
		Get: func(s GenSpec) float64 { return s.SizeSigma },
		Set: func(s *GenSpec, v float64) { s.SizeSigma = v }},
	{Key: "clients", Kind: spec.Int, Min: 0, Max: 1e8,
		Get: func(s GenSpec) float64 { return float64(s.Clients) },
		Set: func(s *GenSpec, v float64) { s.Clients = int(v) }},
	{Key: "clientalpha", Min: 0, MinExcl: true, Max: 5,
		Get: func(s GenSpec) float64 { return s.ClientAlpha },
		Set: func(s *GenSpec, v float64) { s.ClientAlpha = v }},
}

// zipfGenParams shape the stationary Zipf content; they apply to every mode
// except churn, whose popularity structure comes from the shot-noise model.
var zipfGenParams = []genParam{
	{Key: "reqkb", Min: 0, MinExcl: true, Max: 1e6,
		Get: func(s GenSpec) float64 { return s.AvgReqKB },
		Set: func(s *GenSpec, v float64) { s.AvgReqKB = v }},
	{Key: "alpha", Min: 0, Max: 5,
		Get: func(s GenSpec) float64 { return s.Alpha },
		Set: func(s *GenSpec, v float64) { s.Alpha = v }},
	{Key: "localp", Min: 0, Max: 1, MaxExcl: true,
		Get: func(s GenSpec) float64 { return s.LocalityP },
		Set: func(s *GenSpec, v float64) { s.LocalityP = v }},
	{Key: "depth", Kind: spec.Int, Min: 1, Max: 1e7,
		Get: func(s GenSpec) float64 { return float64(s.LocalityDepth) },
		Set: func(s *GenSpec, v float64) { s.LocalityDepth = int(v) }},
	{Key: "headboost", Min: 0, Max: 1, MaxExcl: true,
		Get: func(s GenSpec) float64 { return s.HeadBoost },
		Set: func(s *GenSpec, v float64) { s.HeadBoost = v }},
	{Key: "headfiles", Kind: spec.Int, Min: 1, Max: 5e7,
		Get: func(s GenSpec) float64 { return float64(s.HeadFiles) },
		Set: func(s *GenSpec, v float64) { s.HeadFiles = int(v) }},
}

var churnGenParams = []genParam{
	{Key: "horizon", Min: 0, MinExcl: true, Max: 1e9,
		Get: func(s GenSpec) float64 { return s.Horizon },
		Set: func(s *GenSpec, v float64) { s.Horizon = v }},
	{Key: "docrate", Min: 0, MinExcl: true, Max: 1e9,
		Get: func(s GenSpec) float64 { return s.DocRate },
		Set: func(s *GenSpec, v float64) { s.DocRate = v }},
	{Key: "lifetime", Min: 0, MinExcl: true, Max: 1e9,
		Get: func(s GenSpec) float64 { return s.DocLifetime },
		Set: func(s *GenSpec, v float64) { s.DocLifetime = v }},
	{Key: "docreqs", Min: 0, Max: 1e9,
		Get: func(s GenSpec) float64 { return s.DocMeanReqs },
		Set: func(s *GenSpec, v float64) { s.DocMeanReqs = v }},
	{Key: "shape",
		Check: func(v float64) error {
			if v == 0 || (v > 1 && v <= 100) {
				return nil
			}
			return fmt.Errorf("must be 0 (fixed weights) or in (1, 100] (Pareto)")
		},
		Get: func(s GenSpec) float64 { return s.WeightShape },
		Set: func(s *GenSpec, v float64) { s.WeightShape = v }},
}

var diurnalGenParams = []genParam{
	{Key: "amp", Min: 0, MinExcl: true, Max: 1, MaxExcl: true,
		Get: func(s GenSpec) float64 { return s.DiurnalAmp },
		Set: func(s *GenSpec, v float64) { s.DiurnalAmp = v }},
	{Key: "periods", Min: 0, MinExcl: true, Max: 1e4,
		Get: func(s GenSpec) float64 { return s.DiurnalPeriods },
		Set: func(s *GenSpec, v float64) { s.DiurnalPeriods = v }},
}

var flashGenParams = []genParam{
	{Key: "fstart", Min: 0, Max: 1, MaxExcl: true,
		Get: func(s GenSpec) float64 { return s.FlashStart },
		Set: func(s *GenSpec, v float64) { s.FlashStart = v }},
	{Key: "fdur", Min: 0, MinExcl: true, Max: 1,
		Get: func(s GenSpec) float64 { return s.FlashDur },
		Set: func(s *GenSpec, v float64) { s.FlashDur = v }},
	{Key: "ffrac", Min: 0, MinExcl: true, Max: 1, MaxExcl: true,
		Get: func(s GenSpec) float64 { return s.FlashFrac },
		Set: func(s *GenSpec, v float64) { s.FlashFrac = v }},
}

// genParamsFor returns the ordered key set a mode accepts; the order is the
// canonical emission order of SpecString.
func genParamsFor(mode string) []genParam {
	params := append([]genParam(nil), commonGenParams...)
	if mode != ModeChurn {
		params = append(params, zipfGenParams...)
	}
	switch mode {
	case ModeChurn:
		params = append(params, churnGenParams...)
	case ModeDiurnal:
		params = append(params, diurnalGenParams...)
	case ModeFlash:
		params = append(params, flashGenParams...)
	}
	return params
}

// ParseGenSpec parses and validates a generation spec without synthesizing
// a trace. Unknown modes, unknown keys, malformed values, and out-of-range
// values are all errors that name the accepted alternatives.
func ParseGenSpec(s string) (GenSpec, error) {
	head, pairs, err := spec.Split(s)
	if err != nil {
		return GenSpec{}, fmt.Errorf("trace: %w", err)
	}
	var gs GenSpec
	switch head {
	case "stationary":
		gs.Mode = ModeStationary
	case ModeChurn, ModeDiurnal, ModeFlash:
		gs.Mode = head
	default:
		ps, err := PaperTrace(head)
		if err != nil {
			return GenSpec{}, fmt.Errorf("trace: unknown mode %q (valid: stationary, churn, diurnal, flash, or a paper trace: calgary, clarknet, nasa, rutgers)", head)
		}
		gs = ps
	}
	params := genParamsFor(gs.Mode)
	for _, kv := range pairs {
		switch kv.Key {
		case "name":
			if kv.Value == "" {
				return GenSpec{}, fmt.Errorf("trace: empty name in spec %q", s)
			}
			gs.Name = kv.Value
			continue
		case "seed":
			n, err := strconv.ParseInt(kv.Value, 10, 64)
			if err != nil {
				return GenSpec{}, fmt.Errorf("trace: seed %q is not an integer", kv.Value)
			}
			gs.Seed = n
			continue
		}
		p, err := spec.Find(params, kv.Key, "name", "seed")
		if err != nil {
			return GenSpec{}, fmt.Errorf("trace: mode %s has %w", modeLabel(gs.Mode), err)
		}
		v, err := p.Parse(kv.Value)
		if err != nil {
			return GenSpec{}, fmt.Errorf("trace: parameter %w", err)
		}
		p.Set(&gs, v)
	}
	return gs, nil
}

// modeLabel names a mode for display; the stationary mode's storage form is
// the empty string.
func modeLabel(mode string) string {
	if mode == ModeStationary {
		return "stationary"
	}
	return mode
}

// SpecString renders the canonical spec text: mode, then every non-zero
// field in grammar order. ParseGenSpec(s.SpecString()) reconstructs the
// identical spec — the fuzz harness pins this round trip.
func (s GenSpec) SpecString() string {
	var parts []string
	if s.Name != "" {
		parts = append(parts, "name="+s.Name)
	}
	if s.Seed != 0 {
		parts = append(parts, "seed="+strconv.FormatInt(s.Seed, 10))
	}
	for _, p := range genParamsFor(s.Mode) {
		if v := p.Get(s); v != 0 {
			parts = append(parts, p.Key+"="+p.Format(v))
		}
	}
	if len(parts) == 0 {
		return modeLabel(s.Mode)
	}
	return modeLabel(s.Mode) + ":" + strings.Join(parts, ",")
}
