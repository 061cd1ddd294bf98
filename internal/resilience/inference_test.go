package resilience

import (
	"context"
	"math"
	"testing"

	"repro/internal/topology"
)

// Every inferred case must equal the case computed directly, bit for
// bit: the support reduction is exact, not an approximation.
func TestInferredCasesMatchDirect(t *testing.T) {
	net15, err := topology.Net15()
	if err != nil {
		t.Fatal(err)
	}
	rnp28, err := topology.RNP28()
	if err != nil {
		t.Fatal(err)
	}
	randA, err := topology.FromSpec("rand:12:6:5:3")
	if err != nil {
		t.Fatal(err)
	}
	randB, err := topology.FromSpec("rand:10:4:4:9")
	if err != nil {
		t.Fatal(err)
	}
	all := []string{"none", "hp", "avp", "nip", "dtree"}
	for _, tc := range []struct {
		name string
		g    *topology.Graph
		cfg  Config
	}{
		{"net15-auto", net15, Config{AutoProtect: true, Pairs: 64, PairSeed: 1}},
		{"net15-partial", net15, Config{Protection: topology.Net15PartialProtection, Pairs: 64, PairSeed: 1}},
		{"rnp28-auto", rnp28, Config{AutoProtect: true, Pairs: 64, PairSeed: 1}},
		{"randA-auto", randA, Config{AutoProtect: true, Pairs: 64, PairSeed: 1}},
		{"randB-none", randB, Config{Pairs: 40, PairSeed: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Policies = all
			s, err := prepare(tc.g, allPairRoutes(tc.g), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			inferred := 0
			for r := range s.routes {
				for p := range s.policies {
					b, ok := s.block(context.Background(), r, p)
					if !ok {
						t.Fatal("block cancelled without a cancelled context")
					}
					if b.inferred {
						inferred += len(s.failures) - len(b.computed)
					}
					next := 0
					for f, fl := range s.failures {
						got := b.at(f, &next)
						want := s.compute(r, p, f)
						if got.outcome != want.outcome ||
							math.Float64bits(got.pDeliver) != math.Float64bits(want.pDeliver) ||
							math.Float64bits(got.stretch) != math.Float64bits(want.stretch) ||
							(got.err == nil) != (want.err == nil) {
							t.Fatalf("%s->%s policy=%s failure=%s: block %+v, direct %+v",
								s.routes[r].Src, s.routes[r].Dst, s.policies[p], fl.name, got, want)
						}
					}
				}
			}
			if inferred == 0 {
				t.Fatal("no case was inferred")
			}
		})
	}
}

// The reduction must actually engage: on fattree:4 each (route,
// policy) runs its engine at most once per path link plus once
// failure-free, instead of once per link of the topology.
func TestSweepEngineRunsBoundedByPathLength(t *testing.T) {
	g, err := topology.FromSpec("fattree:4")
	if err != nil {
		t.Fatal(err)
	}
	routes := allPairRoutes(g)
	cfg := Config{Policies: []string{"dtree", "nip"}, AutoProtect: true, ProtectionLabel: "auto"}
	s, err := prepare(g, routes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	maxHops := 0
	for _, rt := range s.routes {
		route, ok := s.ctrl.Route(rt.Src, rt.Dst)
		if !ok {
			t.Fatalf("no route %s->%s", rt.Src, rt.Dst)
		}
		maxHops = max(maxHops, route.Path.Hops())
	}

	rep, err := s.run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	runs := s.engineRuns.Load()
	bound := int64(len(routes) * len(cfg.Policies) * (maxHops + 1))
	if runs > bound {
		t.Fatalf("%d engine runs for %d cases, want at most routes %d × policies %d × (max hops %d + 1) = %d",
			runs, rep.Cases, len(routes), len(cfg.Policies), maxHops, bound)
	}
	if runs == 0 {
		t.Fatal("no engine ran")
	}
}
