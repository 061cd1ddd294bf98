package trace_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/deflect"
	"repro/internal/experiment"
	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/udpsim"
)

// These tests drive the recorder as a packet capture: every flow
// sampled (Rate 1), journeys picked out by flow after the run, and
// rendered with WriteJourney — the way the examples watch packets.

func buildWorld(t *testing.T) *experiment.World {
	t.Helper()
	g, err := topology.Fig1()
	if err != nil {
		t.Fatalf("Fig1: %v", err)
	}
	policy, _ := deflect.ByName("nip")
	w := experiment.NewWorld(g, policy, 3)
	if _, err := w.InstallRoute("S", "D", [][2]string{{"SW5", "SW11"}}); err != nil {
		t.Fatalf("InstallRoute: %v", err)
	}
	return w
}

// sendSD starts a count-packet CBR flow S->D, 1 ms apart, and runs the
// world for d.
func sendSD(w *experiment.World, count int, d time.Duration) {
	flow := packet.FlowID{Src: "S", Dst: "D"}
	send, _ := udpsim.NewFlow(w.Net, w.Edges["S"], w.Edges["D"], flow, udpsim.Config{Count: count, Interval: time.Millisecond})
	send.Start()
	w.Run(d)
}

// renderAll renders every journey with WriteJourney.
func renderAll(t *testing.T, js []trace.Journey) string {
	t.Helper()
	var b strings.Builder
	for _, j := range js {
		if err := trace.WriteJourney(&b, j); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// TestCaptureRecordsPathHops: one packet on the healthy Fig. 1 network
// arrives at SW4, SW7, SW11 and D in turn, with the packet's hop count
// at 1, 2, 3 and 4 in the records made there.
func TestCaptureRecordsPathHops(t *testing.T) {
	w := buildWorld(t)
	rec := trace.NewRecorder(w.Net, trace.Config{Rate: 1})
	sendSD(w, 1, time.Second)

	var where []string
	var hops []int
	for _, r := range rec.Records() {
		if r.Kind == trace.RecHop || r.Kind == trace.RecDecap {
			where = append(where, r.Where)
			hops = append(hops, r.Hops)
		}
	}
	wantWhere := []string{"SW4", "SW7", "SW11", "D"}
	if strings.Join(where, " ") != strings.Join(wantWhere, " ") {
		t.Fatalf("arrivals at %v, want %v", where, wantWhere)
	}
	for i, h := range hops {
		if h != i+1 {
			t.Errorf("record at %s: hops = %d, want %d", where[i], h, i+1)
		}
	}
	js := trace.Journeys(rec.Records())
	if len(js) != 1 || js[0].Outcome != "delivered" || js[0].HopCount != 4 {
		t.Fatalf("journeys = %+v, want one delivered in 4 hops", js)
	}
	if rec.Total() != int64(len(rec.Records())) || rec.Evicted() != 0 {
		t.Errorf("total/evicted = %d/%d, want %d/0", rec.Total(), rec.Evicted(), len(rec.Records()))
	}
}

// TestCaptureRecordsDropsAndDeflections fails SW7-SW11 and SW11-D: the
// packet deflects at SW7 through SW5 and, with D cut off, is lost. The
// rendered journey must show both the deflection and the drop.
func TestCaptureRecordsDropsAndDeflections(t *testing.T) {
	w := buildWorld(t)
	rec := trace.NewRecorder(w.Net, trace.Config{Rate: 1})
	for _, l := range [][2]string{{"SW7", "SW11"}, {"SW11", "D"}} {
		if err := w.FailLinkBetween(l[0], l[1], 0, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	sendSD(w, 1, time.Second)

	js := trace.Journeys(rec.Records())
	if len(js) != 1 {
		t.Fatalf("reconstructed %d journeys, want 1", len(js))
	}
	j := js[0]
	if !strings.HasPrefix(j.Outcome, "dropped(") {
		t.Errorf("outcome = %s, want a drop (D is cut off)", j.Outcome)
	}
	var viaSW5 bool
	for _, h := range j.Hops {
		if h.Where == "SW5" {
			viaSW5 = true
		}
	}
	if !viaSW5 || j.Deflections() == 0 {
		t.Errorf("journey never deflected through SW5 (%d deflections)", j.Deflections())
	}
	out := renderAll(t, js)
	for _, want := range []string{"[port-down: encoded port 2]", "SW5", j.Outcome + " at " + j.Where} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered journey missing %q:\n%s", want, out)
		}
	}
}

// TestCaptureFilters runs two flows on the S-D pair and picks one
// flow's journeys, and their hops at one node, out of the run after the
// fact — the filtering the examples do.
func TestCaptureFilters(t *testing.T) {
	w := buildWorld(t)
	rec := trace.NewRecorder(w.Net, trace.Config{Rate: 1})
	for id, count := range []int{3, 5} {
		flow := packet.FlowID{Src: "S", Dst: "D", ID: uint32(id)}
		send, _ := udpsim.NewFlow(w.Net, w.Edges["S"], w.Edges["D"], flow, udpsim.Config{Count: count, Interval: time.Millisecond})
		send.Start()
	}
	w.Run(time.Second)

	want := packet.FlowID{Src: "S", Dst: "D", ID: 1}
	journeys, atSW7 := 0, 0
	for _, j := range trace.Journeys(rec.Records()) {
		if j.Flow != want {
			continue
		}
		journeys++
		for _, h := range j.Hops {
			if h.Where == "SW7" {
				atSW7++
			}
		}
	}
	if journeys != 5 || atSW7 != 5 {
		t.Errorf("flow %v: %d journeys with %d hops at SW7, want 5 and 5 (one per packet)", want, journeys, atSW7)
	}
}

// TestCaptureRingBuffer bounds the recorder to 8 records over a run
// that makes 90 (10 packets × inject, 3 hops, 4 transmissions, decap):
// the ring keeps the newest 8 in time order, ending with seq 9's
// delivery at D, and counts the rest as evicted.
func TestCaptureRingBuffer(t *testing.T) {
	w := buildWorld(t)
	rec := trace.NewRecorder(w.Net, trace.Config{Rate: 1, Max: 8})
	sendSD(w, 10, time.Second)

	recs := rec.Records()
	if len(recs) != 8 {
		t.Fatalf("ring holds %d records, want 8", len(recs))
	}
	if rec.Total() != 90 || rec.Evicted() != 82 {
		t.Errorf("total/evicted = %d/%d, want 90/82", rec.Total(), rec.Evicted())
	}
	if got := w.Net.Metrics().CounterValue("kar_trace_span_evicted_total"); got != 82 {
		t.Errorf("kar_trace_span_evicted_total = %d, want 82", got)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].At < recs[i-1].At {
			t.Fatal("ring records out of order")
		}
	}
	if last := recs[len(recs)-1]; last.Kind != trace.RecDecap || last.Where != "D" || last.Seq != 9 {
		t.Errorf("last record = %+v, want seq 9's decap at D", last)
	}
}

// TestCaptureRingOverflow overfills a 4-record ring with a run whose
// packets are all lost (D cut off) and checks it against a default-sized
// capture of the same run, which evicts nothing: the ring keeps exactly the newest 4 records,
// oldest evicted first, the totals stay exact, and the registry's
// eviction counter agrees with Evicted().
func TestCaptureRingOverflow(t *testing.T) {
	const capSize = 4
	lossyRun := func(max int) (*experiment.World, *trace.Recorder) {
		w := buildWorld(t)
		rec := trace.NewRecorder(w.Net, trace.Config{Rate: 1, Max: max})
		for _, l := range [][2]string{{"SW7", "SW11"}, {"SW11", "D"}} {
			if err := w.FailLinkBetween(l[0], l[1], 0, time.Hour); err != nil {
				t.Fatal(err)
			}
		}
		sendSD(w, 6, time.Second)
		return w, rec
	}
	_, full := lossyRun(0)
	w, rec := lossyRun(capSize)

	all := full.Records()
	if len(all) <= capSize || full.Evicted() != 0 {
		t.Fatalf("default-sized capture holds %d records (%d evicted), want more than %d and none evicted", len(all), full.Evicted(), capSize)
	}
	recs := rec.Records()
	if len(recs) != capSize {
		t.Fatalf("ring holds %d records, want %d", len(recs), capSize)
	}
	for i, r := range recs {
		if want := all[len(all)-capSize+i]; !reflect.DeepEqual(r, want) {
			t.Errorf("record %d = %+v, want %+v (oldest must be evicted first)", i, r, want)
		}
	}
	if last := recs[capSize-1]; last.Kind != trace.RecDrop || last.Seq != 5 {
		t.Errorf("last record = %+v, want seq 5's drop", last)
	}
	if rec.Total() != int64(len(all)) {
		t.Errorf("Total = %d, want %d", rec.Total(), len(all))
	}
	if want := int64(len(all) - capSize); rec.Evicted() != want {
		t.Errorf("Evicted = %d, want %d", rec.Evicted(), want)
	}
	if got := w.Net.Metrics().CounterValue("kar_trace_span_evicted_total"); got != rec.Evicted() {
		t.Errorf("kar_trace_span_evicted_total = %d, Evicted() = %d — registry diverged", got, rec.Evicted())
	}
}

// TestDropEventRendering renders a journey that ends in a TTL drop.
func TestDropEventRendering(t *testing.T) {
	flow := packet.FlowID{Src: "S", Dst: "D"}
	js := trace.Journeys([]trace.Record{
		{At: time.Millisecond, Kind: trace.RecInject, Flow: flow, PktKind: packet.KindData, Seq: 3, Where: "S", Baseline: 4},
		{At: 2 * time.Millisecond, Kind: trace.RecDrop, Flow: flow, PktKind: packet.KindData, Seq: 3, Where: "SW7", Cause: "ttl", Hops: 64},
	})
	out := renderAll(t, js)
	for _, want := range []string{"seq=3", "dropped(ttl) in 1.000ms, 64 hops", "2.000ms  dropped(ttl) at SW7"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered drop missing %q:\n%s", want, out)
		}
	}
}
