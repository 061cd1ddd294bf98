package kswitch

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"
	"time"

	"repro/internal/deflect"
)

// TestBatchSwitchPipelineGolden replays a Fig. 1 NIP run with a
// mid-stream failure — so packets traverse both the batched fast path
// (on-path forwards over cached lines at SW4, SW5 and SW11) and the
// peel-out slow path (SW7's deflections through Decide) — and requires
// the deliveries, per-switch stats and metrics dump recorded from the
// event-per-packet transport that trains replaced.
func TestBatchSwitchPipelineGolden(t *testing.T) {
	policy, _ := deflect.ByName("nip")
	w := newWorld(t, policy, true)
	link, ok := w.net.Topology().LinkBetween("SW7", "SW11")
	if !ok {
		t.Fatal("no SW7-SW11 link")
	}
	// Fail the encoded path before the first packet reaches SW7: every
	// packet deflects SW7→SW5→SW11.
	w.net.ScheduleFailure(link, 500*time.Microsecond, 100*time.Millisecond)
	w.inject(50)
	w.run(time.Second)

	var seqs []uint64
	var hops []int
	for _, p := range w.received {
		seqs = append(seqs, p.Seq)
		hops = append(hops, p.Hops)
	}
	wantSeqs := make([]uint64, 50)
	wantHops := make([]int, 50)
	for i := range wantSeqs {
		wantSeqs[i], wantHops[i] = uint64(i), 5
	}
	if !reflect.DeepEqual(seqs, wantSeqs) {
		t.Errorf("delivered seqs %v, want 0..49 in order", seqs)
	}
	if !reflect.DeepEqual(hops, wantHops) {
		t.Errorf("hop counts %v, want 5 each", hops)
	}

	on := Stats{Received: 50, Forwarded: 50}
	defl := on
	defl.Deflections = 50
	wantStats := map[string]Stats{"SW4": on, "SW5": on, "SW7": defl, "SW11": on}
	stats := make(map[string]Stats)
	for name, sw := range w.switches {
		stats[name] = sw.Stats()
	}
	if !reflect.DeepEqual(stats, wantStats) {
		t.Errorf("switch stats:\n got  %+v\n want %+v", stats, wantStats)
	}

	var buf bytes.Buffer
	if err := w.net.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	const wantDump = "83b9d90948a951c5f8c3aaf55ceb0514442d2b2a3b39271525869b51dd9f2efd"
	if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != wantDump {
		t.Errorf("metrics dump digest %x, want %s:\n%s", sum, wantDump, buf.String())
	}
}
