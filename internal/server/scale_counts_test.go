package server

import (
	"fmt"
	"testing"

	"repro/internal/trace"
)

// TestScaleGridCounts pins the simulator's work at scale: the exact number
// of calendar events, control messages and gossip deliveries of a full
// cluster run at N in {16, 128, 1024} x F in {1e4, 1e6, 1e7}, plus the
// consistent-hashing point whose gossip count of exactly zero is the
// zero-coordination property (DESIGN.md section 10). The counts are
// deterministic and machine-independent, so any change is a change in what
// the simulation computes — never noise — and a complexity regression that
// wall-clock drift would hide shows here as a different integer. They are
// constants, not a regenerable baseline: a PR that moves one edits this
// table and says why.
//
// Under -short only the F=1e4 column runs: the F=1e7 trace alone takes
// ~8 s to generate on two vCPUs and the whole grid ~18 s, and `make race`
// (which passes -short here) would pay that many times over.
func TestScaleGridCounts(t *testing.T) {
	type point struct {
		nodes                    int
		policy                   string // "" = the default L2S server
		events, messages, gossip uint64
	}
	grid := []struct {
		files  int
		points []point
	}{
		{10_000, []point{
			{16, "", 5617485, 362928, 198195},
			{128, "", 3657473, 3763887, 3585464},
			{1024, "", 3680134, 36386114, 36201924},
		}},
		{1_000_000, []point{
			{16, "", 12923325, 1178821, 1071390},
			{128, "", 3107653, 12247922, 12134469},
			{1024, "", 3137444, 103640298, 103521462},
		}},
		{10_000_000, []point{
			{16, "", 15614708, 1551470, 1468590},
			{128, "", 2925362, 16417340, 16330041},
			{1024, "", 2942914, 130397342, 130305648},
			{1024, "chash", 3838692, 179837, 0},
		}},
	}
	for _, col := range grid {
		if testing.Short() && col.files > 10_000 {
			continue
		}
		// One trace per catalogue size, shared by every cluster size.
		tr := trace.MustGenerate(trace.GenSpec{
			Name:      fmt.Sprintf("scale-F%d", col.files),
			Files:     col.files,
			AvgFileKB: 6,
			Requests:  300_000,
			AvgReqKB:  5,
			Alpha:     0.8,
			LocalityP: 0.3,
			Seed:      11,
		})
		for _, p := range col.points {
			name := fmt.Sprintf("N%d-F%d", p.nodes, col.files)
			cfg := NewConfig(L2SServer, p.nodes, WithSeed(5))
			if p.policy != "" {
				name += "-" + p.policy
				cfg = NewConfig(CustomServer, p.nodes, WithPolicy(p.policy), WithSeed(5))
			}
			res, err := Run(cfg, tr)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Events != p.events || res.ControlMessages != p.messages || res.GossipMessages != p.gossip {
				t.Errorf("%s: events/messages/gossip = %d/%d/%d, want %d/%d/%d", name,
					res.Events, res.ControlMessages, res.GossipMessages,
					p.events, p.messages, p.gossip)
			}
		}
	}
}
