package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/packet"
	"repro/internal/rns"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/trace"
)

// ledgerSample is how long one timed batch of a layer operation runs;
// each layer is timed in ledgerSamples batches and the median is kept.
const (
	ledgerSample  = 20 * time.Millisecond
	ledgerSamples = 7
)

// ledger times each data-plane layer's cost per operation from outside,
// on the route the workload itself installs from src to dst, multiplies
// each cost by how often the run performed that operation per delivered
// hop, and sets the total against the run's CPU ns per delivered hop.
//
// Forwarding already contains the reduction, so the explained cost is
// forward × switch receptions + header marshal × edge encapsulations +
// one scheduler event per delivered hop; the rest is the remainder.
// The switch pipeline (one packet at a time, edge to edge, with and
// without a flight recorder attached) is printed beside it.
func ledger(p *pass, build func() (*topology.Graph, error), src, dst string, prot [][2]string, reg *telemetry.Registry, e2eNsPerHop float64) error {
	g, err := build()
	if err != nil {
		return err
	}
	policy, err := experiment.PolicyByName("nip")
	if err != nil {
		return err
	}
	w := experiment.NewWorld(g, policy, p.seed)
	route, err := w.InstallRoute(src, dst, prot)
	if err != nil {
		return err
	}
	id := p.tr.begin("ledger", src+"->"+dst, 0)
	defer p.tr.end(id)

	var reds []rns.Reducer
	for _, n := range route.Path.Nodes {
		if n.Kind() == topology.KindCore {
			reds = append(reds, rns.NewReducer(n.ID()))
		}
	}
	ids := make([]rns.RouteID, 16)
	for i := range ids {
		ids[i] = route.ID
	}
	out := make([]uint16, len(ids))
	sink := 0
	cost := map[string]float64{}
	// Each timed loop visits the route's switches in turn, as a packet
	// does; n counts reductions, not loop trips.
	cost["rns.reduce_ns"] = perOp(func(n int) {
		for i := 0; i < n; i += len(reds) {
			for _, rd := range reds {
				sink += int(rd.Mod(route.ID))
			}
		}
	})
	cost["rns.reducebatch_ns"] = perOp(func(n int) {
		for i := 0; i < n; i += len(reds) * len(ids) {
			for _, rd := range reds {
				rd.ReduceBatch(ids, out)
			}
		}
	})
	cost["core.forward_ns"] = perOp(func(n int) {
		for i := 0; i < n; i += len(reds) {
			for _, rd := range reds {
				sink += core.ForwardReduced(rd, route.ID)
			}
		}
	})
	hdr := packet.Header{Version: packet.Version1, TTL: 64, RouteID: route.ID}
	var marshalErr error
	cost["packet.marshal_ns"] = perOp(func(n int) {
		for i := 0; i < n; i++ {
			buf := packet.GetBuffer()
			b, err := hdr.Marshal(buf.B)
			if err != nil {
				marshalErr = err
			}
			buf.B = b
			buf.Put()
		}
	})
	if marshalErr != nil {
		return marshalErr
	}
	var sched simnet.Scheduler
	fn := func() {}
	for i := 0; i < 1024; i++ {
		sched.After(time.Duration(i)*time.Microsecond, fn)
	}
	for sched.Step() {
	}
	cost["simnet.sched_ns"] = perOp(func(n int) {
		for i := 0; i < n; i++ {
			sched.After(time.Microsecond, fn)
			sched.Step()
		}
	})
	plain, traced, err := pipelinePerPacket(build, src, dst, prot, p.seed)
	if err != nil {
		return err
	}
	hops := float64(route.Path.Hops())
	cost["kswitch.pipeline_ns_per_hop"] = plain / hops
	cost["kswitch.pipeline_traced_ns_per_hop"] = traced / hops
	if sink == -1 {
		fmt.Println(sink) // keeps the timed loops from being optimised away
	}

	delivered := float64(reg.SumCounter("kar_net_delivered_total"))
	recvPerHop := ratio(float64(reg.SumCounter("kar_switch_received_total")), delivered)
	encapPerHop := ratio(float64(reg.SumCounter("kar_edge_encap_total")), delivered)
	explained := cost["core.forward_ns"]*recvPerHop + cost["packet.marshal_ns"]*encapPerHop + cost["simnet.sched_ns"]
	for name, v := range cost {
		p.res.set("ledger."+name, v)
	}
	p.res.set("ledger.e2e_ns_per_hop", e2eNsPerHop)
	p.res.set("ledger.explained_ns_per_hop", explained)
	p.res.set("ledger.remainder_frac", 1-ratio(explained, e2eNsPerHop))
	p.res.note("ledger.switch_receptions_per_hop", "ratio", recvPerHop, 0)
	p.res.note("ledger.edge_encaps_per_hop", "ratio", encapPerHop, 0)
	return nil
}

// perOp times fn(n) in ledgerSamples batches sized to about
// ledgerSample each and returns the median ns per operation.
func perOp(fn func(n int)) float64 {
	n := calibrate(fn)
	var ns []float64
	for i := 0; i < ledgerSamples; i++ {
		t0 := time.Now()
		fn(n)
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(ns)
}

// calibrate returns how many operations of fn take about ledgerSample.
func calibrate(fn func(n int)) int {
	n := 64
	for {
		t0 := time.Now()
		fn(n)
		if d := time.Since(t0); d >= ledgerSample/4 {
			return max(1, int(float64(n)*float64(ledgerSample)/float64(d)))
		}
		n *= 4
	}
}

type countingReceiver struct{ n *int }

func (c countingReceiver) Deliver(p *packet.Packet) {
	*c.n++
	p.Release()
}

// pipelineWorld is a fresh world of build's topology with one route
// installed, into which packets are pushed one at a time.
type pipelineWorld struct {
	w         *experiment.World
	flow      packet.FlowID
	src       string
	sent      int
	delivered int
	err       error
}

func newPipelineWorld(build func() (*topology.Graph, error), src, dst string, prot [][2]string, seed int64, traced bool) (*pipelineWorld, error) {
	g, err := build()
	if err != nil {
		return nil, err
	}
	policy, err := experiment.PolicyByName("nip")
	if err != nil {
		return nil, err
	}
	pw := &pipelineWorld{w: experiment.NewWorld(g, policy, seed), flow: packet.FlowID{Src: src, Dst: dst}, src: src}
	if traced {
		trace.NewRecorder(pw.w.Net, trace.Config{Rate: 0})
	}
	if _, err := pw.w.InstallRoute(src, dst, prot); err != nil {
		return nil, err
	}
	pw.w.Edges[dst].Attach(pw.flow, countingReceiver{&pw.delivered})
	return pw, nil
}

// push sends n packets, each delivered before the next is injected.
func (pw *pipelineWorld) push(n int) {
	for i := 0; i < n; i++ {
		pkt := packet.Get()
		pkt.Flow = pw.flow
		pkt.Kind = packet.KindData
		pkt.Seq = uint64(pw.sent)
		pkt.Size = 1500
		if err := pw.w.Edges[pw.src].Inject(pkt); err != nil {
			pw.err = err
		}
		pw.sent++
		pw.w.Net.Scheduler().RunUntil(time.Duration(pw.sent) * time.Millisecond)
	}
}

// check drains the world and requires every packet delivered.
func (pw *pipelineWorld) check() error {
	pw.w.Net.Scheduler().RunUntil(time.Duration(pw.sent+100) * time.Millisecond)
	if pw.err != nil {
		return pw.err
	}
	if pw.delivered != pw.sent {
		return fmt.Errorf("ledger: pipeline delivered %d of %d packets", pw.delivered, pw.sent)
	}
	return nil
}

// pipelinePerPacket pushes packets one at a time from src to dst —
// edge encapsulation, every switch, links and scheduler, edge delivery
// — through two fresh worlds, one with a flight recorder sampling no
// flows (the cost every unsampled packet pays). Samples of the two
// alternate, so host drift falls on both alike; it returns the median
// ns per packet of each.
func pipelinePerPacket(build func() (*topology.Graph, error), src, dst string, prot [][2]string, seed int64) (plain, traced float64, err error) {
	var worlds [2]*pipelineWorld
	for i := range worlds {
		if worlds[i], err = newPipelineWorld(build, src, dst, prot, seed, i == 1); err != nil {
			return 0, 0, err
		}
	}
	n := calibrate(worlds[0].push)
	var ns [2][]float64
	for s := 0; s < ledgerSamples; s++ {
		for i, pw := range worlds {
			t0 := time.Now()
			pw.push(n)
			ns[i] = append(ns[i], float64(time.Since(t0).Nanoseconds())/float64(n))
		}
	}
	for _, pw := range worlds {
		if err := pw.check(); err != nil {
			return 0, 0, err
		}
	}
	return median(ns[0]), median(ns[1]), nil
}
