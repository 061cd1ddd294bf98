package main

import (
	"testing"

	"repro/internal/resilience"
)

func TestTotalsScope(t *testing.T) {
	for _, tc := range []struct {
		links, pairs int
		want         string
	}{
		{21, 0, "k=1 exhaustive"},
		{21, 64, "k=1 exhaustive, k=2 64 sampled pairs"},
		{21, 209, "k=1 exhaustive, k=2 209 sampled pairs"},
		{21, 210, "k=1 exhaustive, k=2 all 210 pairs"},
		{2, 1, "k=1 exhaustive, k=2 all 1 pairs"},
	} {
		rep := &resilience.Report{Links: tc.links, PairsDrawn: tc.pairs}
		if got := totalsScope(rep); got != tc.want {
			t.Errorf("links=%d pairs=%d: %q, want %q", tc.links, tc.pairs, got, tc.want)
		}
		if got := totalsTable(rep).Title; got != "Per-policy totals ("+tc.want+")" {
			t.Errorf("links=%d pairs=%d: title %q", tc.links, tc.pairs, got)
		}
	}
}
