package simnet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/rns"
	"repro/internal/topology"
)

// relay forwards everything out a fixed port — a stand-in for a switch
// that keeps these tests free of higher-layer dependencies while still
// exercising re-enqueue-from-delivery (members appended to an active
// train from inside stepTrain).
type relay struct {
	n    *Network
	node *topology.Node
	port int
}

func (r *relay) HandlePacket(pkt *packet.Packet, inPort int) {
	r.n.Send(r.node, r.port, pkt)
}

// chainWorld is a three-node line A—B—C: bursty ingress at A, a relay
// at B, a recording sink at C, and a trace sink capturing every loss of
// the (Sampled) burst packets in drop order. The B—C link has a small
// queue so overload tail-drops.
type chainWorld struct {
	n      *Network
	a      *topology.Node
	linkAB *topology.Link
	linkBC *topology.Link
	sink   *sink
	log    *traceLog
}

func newChainWorld(t *testing.T) *chainWorld {
	t.Helper()
	g := topology.New("chain")
	if _, err := g.AddEdge("A"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddCore("B", 7); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge("C"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect("A", "B", topology.WithRateMbps(100), topology.WithDelay(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect("B", "C", topology.WithRateMbps(20), topology.WithDelay(2*time.Millisecond), topology.WithQueuePackets(16)); err != nil {
		t.Fatal(err)
	}
	n := New(g)
	a, _ := g.Node("A")
	b, _ := g.Node("B")
	c, _ := g.Node("C")
	w := &chainWorld{n: n, a: a, sink: &sink{sched: n.Scheduler()}}
	w.linkAB, _ = a.PortLink(0)
	// B's port toward C is whichever port is not the A link.
	fwd := 1
	if l, _ := b.PortLink(0); l != w.linkAB {
		fwd = 0
	}
	w.linkBC, _ = b.PortLink(fwd)
	n.Bind(b, &relay{n: n, node: b, port: fwd})
	n.Bind(c, w.sink)
	w.log = watch(n)
	return w
}

// burst schedules k back-to-back sends from A at t (a train of k).
func (w *chainWorld) burst(t time.Duration, firstSeq uint64, k int) {
	w.n.Scheduler().At(t, func() {
		for i := 0; i < k; i++ {
			w.n.Send(w.a, 0, &packet.Packet{
				Size:    1250,
				TTL:     16,
				Seq:     firstSeq + uint64(i),
				RouteID: rns.RouteIDFromUint64(0xABCD_0000 + firstSeq + uint64(i)),
				Sampled: true,
			})
		}
	})
}

// runFaultGauntlet drives the same mixed workload — bursts, a failure
// window cutting trains mid-flight, a gray window dropping and
// corrupting members, queue overload — through one world.
func runFaultGauntlet(w *chainWorld, seed int64) {
	sched := w.n.Scheduler()
	w.burst(0, 0, 30) // overloads the 16-slot B—C queue
	w.burst(3*time.Millisecond, 100, 20)
	w.n.ScheduleFailure(w.linkBC, 5*time.Millisecond, 2*time.Millisecond)
	sched.At(10*time.Millisecond, func() {
		w.n.SetImpairment(w.linkAB, &Impairment{
			DropProb: 0.3, CorruptProb: 0.3, Rand: rand.New(rand.NewSource(seed)),
		})
	})
	w.burst(10*time.Millisecond+time.Microsecond, 200, 30)
	sched.At(15*time.Millisecond, func() { w.n.SetImpairment(w.linkAB, nil) })
	w.burst(20*time.Millisecond, 300, 10)
	sched.RunUntil(100 * time.Millisecond)
}

// gauntletTranscript renders a gauntlet run's observable outcome —
// every delivery (seq, hops, instant, route ID), every drop (reason,
// seq, instant, place) in order, then the metrics dump — as text.
func gauntletTranscript(t *testing.T, w *chainWorld) string {
	t.Helper()
	var b strings.Builder
	for i, p := range w.sink.pkts {
		fmt.Fprintf(&b, "deliver seq=%d hops=%d at=%v id=%s\n", p.Seq, p.Hops, w.sink.times[i], p.RouteID)
	}
	for _, d := range w.log.drops {
		fmt.Fprintf(&b, "drop %v seq=%d at=%v %s\n", d.Reason, d.Packet.Seq, d.At, d.Where)
	}
	if err := w.n.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestTrainFaultGauntletGolden is the package-level transport gate:
// the fault gauntlet must reproduce, byte for byte, the deliveries,
// drops and metrics dump recorded from the event-per-packet transport
// that trains replaced.
func TestTrainFaultGauntletGolden(t *testing.T) {
	w := newChainWorld(t)
	runFaultGauntlet(w, 42)
	got := gauntletTranscript(t, w)
	const want = "b21fc4b5ec2f6c4447b30225dc1c2069739edeef962b53ae767a76b40718e3d7"
	if sum := sha256.Sum256([]byte(got)); hex.EncodeToString(sum[:]) != want {
		t.Errorf("gauntlet transcript digest %x, want %s (%d deliveries, %d drops):\n%s",
			sum, want, len(w.sink.pkts), len(w.log.drops), got)
	}
	if p := w.n.Scheduler().Pending(); p != 0 {
		t.Errorf("scheduler leaks %d pending items", p)
	}

	// Guard against a vacuous gauntlet: every fault class must have
	// actually fired, or the digest above pins nothing interesting.
	seen := map[DropReason]bool{}
	for _, d := range w.log.drops {
		seen[d.Reason] = true
	}
	for _, want := range []DropReason{DropInFlight, DropGray, DropQueueFull} {
		if !seen[want] {
			t.Errorf("gauntlet produced no %v drops — fault coverage is vacuous", want)
		}
	}
	if c := w.n.Metrics().CounterValue("kar_fault_corrupted_total", "link", w.linkAB.Name()); c == 0 {
		t.Error("gauntlet corrupted no packets — corruption coverage is vacuous")
	}
}

// TestTrainSplitOnFailure pins the fault-exactness contract with
// hand-computed expectations: five back-to-back packets on a 10 ms
// link (125 µs serialization each) with the link failing at 5 ms. All
// five start transmission before the failure, so every one is killed
// in flight — and the kill happens at each member's own delivery
// instant, not when the train is split.
func TestTrainSplitOnFailure(t *testing.T) {
	n, a, _, sk := twoNodeNet(t, topology.WithRateMbps(80), topology.WithDelay(10*time.Millisecond))
	aNode, _ := n.Topology().Node("A")
	link, _ := aNode.PortLink(0)
	tl := watch(n)

	for i := 0; i < 5; i++ {
		n.Send(a, 0, &packet.Packet{Size: 1250, TTL: 8, Seq: uint64(i), Sampled: true})
	}
	n.Scheduler().At(5*time.Millisecond, func() { n.FailLink(link) })
	n.Scheduler().RunUntil(time.Second)
	drops := tl.drops

	if len(sk.pkts) != 0 {
		t.Errorf("delivered %d packets, want 0 (all in flight at failure)", len(sk.pkts))
	}
	if len(drops) != 5 {
		t.Fatalf("dropped %d packets, want 5", len(drops))
	}
	for i, d := range drops {
		if d.Reason != DropInFlight {
			t.Errorf("drop %d reason = %v, want in-flight", i, d.Reason)
		}
	}
	if st := n.LineStats(link); st.InFlightDrops != 5 {
		t.Errorf("InFlightDrops = %d, want 5", st.InFlightDrops)
	}
}

// TestTrainSurvivorsAfterRepair: members whose transmission starts
// after the repair deliver normally even though earlier members of
// the same burst schedule were killed — the per-member txStart check.
func TestTrainSurvivorsAfterRepair(t *testing.T) {
	n, a, _, sk := twoNodeNet(t, topology.WithRateMbps(80), topology.WithDelay(time.Millisecond))
	aNode, _ := n.Topology().Node("A")
	link, _ := aNode.PortLink(0)
	n.ScheduleFailure(link, 2*time.Millisecond, time.Millisecond)

	// 125 µs serialization each: seq i delivers at (i+1)·125 µs + 1 ms.
	// The failure event at 2 ms outranks seq 7's same-instant delivery
	// (it was scheduled first), so seqs 7..15 are killed in flight and
	// only 0..6 land.
	for i := 0; i < 16; i++ {
		n.Send(a, 0, &packet.Packet{Size: 1250, TTL: 8, Seq: uint64(i)})
	}
	// Sent during the outage: dropped at send.
	n.Scheduler().At(2500*time.Microsecond, func() {
		n.Send(a, 0, &packet.Packet{Size: 1250, TTL: 8, Seq: 90})
	})
	// Sent after repair: delivered.
	n.Scheduler().At(4*time.Millisecond, func() {
		n.Send(a, 0, &packet.Packet{Size: 1250, TTL: 8, Seq: 91})
	})
	n.Scheduler().RunUntil(time.Second)

	wantDelivered := map[uint64]bool{}
	for i := 0; i < 7; i++ {
		wantDelivered[uint64(i)] = true
	}
	wantDelivered[91] = true
	if len(sk.pkts) != len(wantDelivered) {
		t.Fatalf("delivered %d packets, want %d", len(sk.pkts), len(wantDelivered))
	}
	for _, p := range sk.pkts {
		if !wantDelivered[p.Seq] {
			t.Errorf("seq %d delivered, should have been dropped", p.Seq)
		}
	}
	st := n.LineStats(link)
	if st.InFlightDrops != 9 {
		t.Errorf("InFlightDrops = %d, want 9 (seqs 7..15)", st.InFlightDrops)
	}
}

// TestBatchQueueDrainExactness: queue releases are implicit (drained
// lazily from the release ring), so occupancy at the moment of a same-
// instant enqueue must follow the tie-break keys exactly. Control
// callbacks (entity 0) run before any line-direction release of the
// same instant, so a send fired at exactly the release time still sees
// the slot occupied, while a send any later sees it free — for any
// shard count.
func TestBatchQueueDrainExactness(t *testing.T) {
	// The subtest names the packet-train (batch) data plane, the
	// only transport the network carries.
	t.Run("batch", func(t *testing.T) {
		g := topology.New("pair")
		if _, err := g.AddEdge("A"); err != nil {
			t.Fatal(err)
		}
		if _, err := g.AddEdge("B"); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Connect("A", "B",
			topology.WithRateMbps(100), topology.WithDelay(time.Millisecond),
			topology.WithQueuePackets(3)); err != nil {
			t.Fatal(err)
		}
		n := New(g)
		a, _ := g.Node("A")
		b, _ := g.Node("B")
		sk := &sink{sched: n.Scheduler()}
		n.Bind(b, sk)
		tl := watch(n)
		// Fill the queue, then probe both sides of the release boundary
		// (100 µs serialization per packet): a control callback at exactly
		// the release instant dispatches before the release (entity 0 sorts
		// first), so its send still tail-drops; one nanosecond later the
		// slot has freed.
		for i := 0; i < 3; i++ {
			n.Send(a, 0, &packet.Packet{Size: 1250, TTL: 8, Seq: uint64(i), Sampled: true})
		}
		n.Scheduler().At(100*time.Microsecond, func() {
			n.Send(a, 0, &packet.Packet{Size: 1250, TTL: 8, Seq: 10, Sampled: true})
		})
		n.Scheduler().At(100*time.Microsecond+time.Nanosecond, func() {
			n.Send(a, 0, &packet.Packet{Size: 1250, TTL: 8, Seq: 11, Sampled: true})
		})
		n.Scheduler().RunUntil(time.Second)
		qDrops := 0
		for _, d := range tl.drops {
			if d.Reason == DropQueueFull {
				qDrops++
			}
		}
		if len(sk.pkts) != 4 {
			t.Errorf("delivered %d packets, want 4 (seqs 0-2 and the post-release send)", len(sk.pkts))
		}
		for _, p := range sk.pkts {
			if p.Seq == 10 {
				t.Errorf("seq 10 delivered; a send at exactly the release instant must tail-drop")
			}
		}
		if qDrops != 1 {
			t.Errorf("queue drops = %d, want 1 (the at-boundary send)", qDrops)
		}
	})
}

// TestReleaseRingWrapAndGrow: the release ring frees slots strictly in
// (release time, key) order across wrap-around and growth, and an
// entry at exactly the current instant frees only once the current key
// has passed it.
func TestReleaseRingWrapAndGrow(t *testing.T) {
	var r releaseRing
	at := func(i int) time.Duration { return time.Duration(i) * time.Microsecond }
	next := 0
	for ; next < 10; next++ {
		r.push(release{at: at(next), key: uint64(next)})
	}
	r.drain(at(6), 0) // frees 0..5; 6 is at "now" with a larger key
	if r.n != 4 || r.head != 6 {
		t.Fatalf("after first drain: n=%d head=%d, want 4 and 6", r.n, r.head)
	}
	for ; next < 30; next++ { // wraps the 16-slot buffer, then grows it
		r.push(release{at: at(next), key: uint64(next)})
	}
	if r.n != 24 || len(r.buf) != 32 {
		t.Fatalf("after refill: n=%d len=%d, want 24 and 32", r.n, len(r.buf))
	}
	for want := 6; want < 30; want++ {
		if e := r.buf[r.head]; e.at != at(want) || e.key != uint64(want) {
			t.Fatalf("head entry %+v, want release %d", e, want)
		}
		r.drain(at(want), uint64(want)+1)
	}
	if r.n != 0 {
		t.Errorf("%d slots still occupied after draining every release", r.n)
	}
}
