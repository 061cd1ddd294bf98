package resilience

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/topology"
)

// goldenCases are the sweep's byte-identity guard. Each one's report
// (encoded as `karsim -verify-json` writes it) and kar_verify_* dump
// were produced by an engine that computed every (route, policy,
// failure) case directly, so any reduction the sweep applies must
// reproduce them exactly.
var goldenCases = []struct {
	name       string
	topo       string
	protection string
}{
	{"net15-auto", "net15", "auto"},
	{"net15-full", "net15", "full"},
	{"rnp28-auto", "rnp28", "auto"},
	{"fattree4-auto", "fattree:4", "auto"},
}

// goldenSweep runs one golden case: every ordered edge pair, all five
// policies, 64 sampled failure pairs, seed 1.
func goldenSweep(t testing.TB, topo, protection string, workers int) (report, prom []byte) {
	t.Helper()
	var g *topology.Graph
	var err error
	switch topo {
	case "net15":
		g, err = topology.Net15()
	case "rnp28":
		g, err = topology.RNP28()
	default:
		g, err = topology.FromSpec(topo)
	}
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Policies:        []string{"none", "hp", "avp", "nip", "dtree"},
		ProtectionLabel: protection,
		Pairs:           64,
		PairSeed:        1,
		Workers:         workers,
		Registry:        telemetry.NewRegistry(),
	}
	switch protection {
	case "auto":
		cfg.AutoProtect = true
	case "full":
		cfg.Protection = topology.Net15FullProtection
	default:
		t.Fatalf("no golden protection %q", protection)
	}
	rep, err := Sweep(g, allPairRoutes(g), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var js, pm bytes.Buffer
	enc := json.NewEncoder(&js)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Registry.WritePrometheus(&pm); err != nil {
		t.Fatal(err)
	}
	return js.Bytes(), pm.Bytes()
}

func TestSweepMatchesGolden(t *testing.T) {
	for _, gc := range goldenCases {
		wantReport, err := os.ReadFile(filepath.Join("testdata", gc.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		wantProm, err := os.ReadFile(filepath.Join("testdata", gc.name+".prom"))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", gc.name, workers), func(t *testing.T) {
				report, prom := goldenSweep(t, gc.topo, gc.protection, workers)
				if !bytes.Equal(report, wantReport) {
					t.Errorf("report differs from testdata/%s.json", gc.name)
				}
				if !bytes.Equal(prom, wantProm) {
					t.Errorf("metrics differ from testdata/%s.prom:\n%s", gc.name, prom)
				}
			})
		}
	}
}
