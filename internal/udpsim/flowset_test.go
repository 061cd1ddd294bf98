package udpsim_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"repro/internal/deflect"
	"repro/internal/experiment"
	"repro/internal/topology"
	"repro/internal/udpsim"
)

// closWorld builds a leaf-spine world with routes installed between
// every ordered host pair.
func closWorld(t *testing.T, opts ...experiment.WorldOption) *experiment.World {
	t.Helper()
	g, err := topology.Clos(4, 2)
	if err != nil {
		t.Fatalf("Clos: %v", err)
	}
	policy, ok := deflect.ByName("nip")
	if !ok {
		t.Fatal("policy nip missing")
	}
	w := experiment.NewWorld(g, policy, 11, opts...)
	for _, a := range g.EdgeNodes() {
		for _, b := range g.EdgeNodes() {
			if a == b {
				continue
			}
			if _, err := w.InstallRoute(a.Name(), b.Name(), nil); err != nil {
				t.Fatalf("InstallRoute %s->%s: %v", a.Name(), b.Name(), err)
			}
		}
	}
	return w
}

func allPairs(w *experiment.World) []udpsim.Pair {
	var pairs []udpsim.Pair
	for _, a := range w.Net.Topology().EdgeNodes() {
		for _, b := range w.Net.Topology().EdgeNodes() {
			if a != b {
				pairs = append(pairs, udpsim.Pair{Src: w.Edges[a.Name()], Dst: w.Edges[b.Name()]})
			}
		}
	}
	return pairs
}

// runSet drives one flow-set world and returns (stats, metrics dump).
func runSet(t *testing.T, cfg udpsim.SetConfig, opts ...experiment.WorldOption) (udpsim.SetStats, string) {
	t.Helper()
	w := closWorld(t, opts...)
	fs, err := udpsim.NewFlowSet(w.Net, allPairs(w), cfg)
	if err != nil {
		t.Fatalf("NewFlowSet: %v", err)
	}
	fs.Start()
	w.Run(2 * time.Second)
	var buf bytes.Buffer
	if err := w.Net.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return fs.Stats(), buf.String()
}

// TestFlowSetPoissonDelivery: a 10k-flow Poisson population over a
// healthy fabric delivers everything that was injected by the time the
// network drains.
func TestFlowSetPoissonDelivery(t *testing.T) {
	// 100-byte packets: the population should stress flow-state
	// bookkeeping, not the fabric's queues.
	cfg := udpsim.SetConfig{
		Name: "t", Flows: 10_000, Rate: 10, Size: 100, Seed: 3, Until: time.Second,
	}
	st, _ := runSet(t, cfg)
	if st.Sent == 0 {
		t.Fatal("no packets sent")
	}
	// ~10k flows * 10 pps * 1 s = ~100k arrivals; allow wide slack,
	// the point is that the aggregate process has the right scale.
	if st.Sent < 50_000 || st.Sent > 200_000 {
		t.Errorf("sent = %d, want ~100k", st.Sent)
	}
	if st.Received != st.Sent {
		t.Errorf("received %d of %d on a healthy fabric", st.Received, st.Sent)
	}
	if st.NoRoute != 0 {
		t.Errorf("noroute = %d, want 0", st.NoRoute)
	}
	if st.ActiveFlows == 0 || st.DeliveredFlows != st.ActiveFlows {
		t.Errorf("active %d delivered %d", st.ActiveFlows, st.DeliveredFlows)
	}
	// Leaf-spine: every inter-host path is host->leaf->spine->leaf->host.
	if st.MinHops < 2 || st.MaxHops > 6 {
		t.Errorf("hops [%d, %d] outside leaf-spine bounds", st.MinHops, st.MaxHops)
	}
}

// TestFlowSetOnOffDelivery: the burst process also drains cleanly and
// emits bursts (more packets than distinct arrivals would give).
func TestFlowSetOnOffDelivery(t *testing.T) {
	cfg := udpsim.SetConfig{
		Name: "t", Flows: 5_000, Rate: 10, Arrival: udpsim.ArrivalOnOff,
		BurstMean: 8, Seed: 5, Until: 500 * time.Millisecond,
	}
	st, _ := runSet(t, cfg)
	if st.Sent == 0 {
		t.Fatal("no packets sent")
	}
	if st.Received != st.Sent {
		t.Errorf("received %d of %d on a healthy fabric", st.Received, st.Sent)
	}
}

// TestFlowSetDeterminism: the same config produces byte-identical
// metric dumps on rebuilds and across shard counts — the property the
// check.sh gate enforces on the full scale experiment — and the dump
// matches the digest recorded from the event-per-packet transport that
// packet trains replaced.
func TestFlowSetDeterminism(t *testing.T) {
	cfg := udpsim.SetConfig{
		Name: "t", Flows: 2_000, Rate: 50, Seed: 9, Until: 300 * time.Millisecond,
	}
	stA, dumpA := runSet(t, cfg)
	const wantDump = "382826efdeb6b6c5c1fab6717cbfd83e380b2e13131c500089cc0271b53575eb"
	if sum := sha256.Sum256([]byte(dumpA)); hex.EncodeToString(sum[:]) != wantDump {
		t.Errorf("metric dump digest %x, want %s", sum, wantDump)
	}
	variants := map[string][]experiment.WorldOption{
		"rebuild": nil,
		"shards2": {experiment.WithShards(2)},
		"shards3": {experiment.WithShards(3)},
	}
	for name, opts := range variants {
		stB, dumpB := runSet(t, cfg, opts...)
		if stA != stB {
			t.Errorf("%s: stats diverge:\n  base: %+v\n  %s: %+v", name, stA, name, stB)
		}
		if dumpA != dumpB {
			t.Errorf("%s: metric dumps diverge (len %d vs %d)", name, len(dumpA), len(dumpB))
		}
	}
}

// TestFlowSetConfigErrors: degenerate populations fail loudly.
func TestFlowSetConfigErrors(t *testing.T) {
	w := closWorld(t)
	if _, err := udpsim.NewFlowSet(w.Net, nil, udpsim.SetConfig{Flows: 10}); err == nil {
		t.Error("no pairs: want error")
	}
	if _, err := udpsim.NewFlowSet(w.Net, allPairs(w), udpsim.SetConfig{Flows: 2}); err == nil {
		t.Error("fewer flows than pairs: want error")
	}
	if _, err := udpsim.ParseArrival("bursty"); err == nil {
		t.Error("ParseArrival: want error for unknown name")
	}
}
