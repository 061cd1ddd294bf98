package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/coprime"
	"repro/internal/experiment"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/udpsim"
)

const (
	scaleTopo   = "fattree:28" // 980 switches, 392 hosts
	scalePairs  = 256
	scaleShards = 2
	scaleSetups = 6 // set-up-only Scale calls, besides the timed runs
)

func scaleConfig(seed int64, coll *telemetry.Collector) experiment.ScaleConfig {
	return experiment.ScaleConfig{
		Topo:     scaleTopo,
		Shards:   scaleShards,
		Flows:    1_000_000,
		Pairs:    scalePairs,
		Duration: 500 * time.Millisecond,
		Seed:     seed,
		Metrics:  coll,
	}
}

// scaleWorkload repeats experiment.Scale on the 1k-switch fat-tree.
// Each repetition's set-up is the graph build plus Scale's own
// BuildWall (world and route installs). Its work is
// kar_net_delivered_total, over the CPU time of the whole Scale call
// and, as the wall-clock hop rate, over Scale's RunWall.
func scaleWorkload(p *pass) error {
	var setups, rates, runsMs, runWalls, gcs, cpuPerHop, cpuRates []float64
	var wantStats, wantDump string
	var last *telemetry.Collector
	var lookahead time.Duration
	var stats udpsim.SetStats
	if p.tr != nil {
		if err := scaleSetupProbe(p); err != nil {
			return err
		}
	}
	// Set-up: a timed Scale call builds its world once, so more builds
	// are timed here. Each is a Scale call with a 1 ns injection window:
	// the same graph, world, route installs and flow set as a timed
	// run, followed by an almost empty run.
	for i := 0; i < scaleSetups; i++ {
		runtime.GC()
		t0 := time.Now()
		if _, err := topology.FromSpec(scaleTopo); err != nil {
			return err
		}
		graphWall := time.Since(t0)
		cfg := scaleConfig(p.seed, nil)
		cfg.Duration = time.Nanosecond
		res, err := experiment.Scale(cfg)
		if err != nil {
			return err
		}
		setups = append(setups, (graphWall + res.BuildWall).Seconds())
	}
	// A run takes about 6 s; at least three give a median.
	err := p.repeat(3, func(rep int) error {
		run := fmt.Sprintf("scale-%d", rep)
		t0 := time.Now()
		gen := p.tr.begin("topology.gen", run, 0)
		if _, err := topology.FromSpec(scaleTopo); err != nil {
			return err
		}
		p.tr.end(gen)
		graphWall := time.Since(t0)

		coll := telemetry.NewCollector()
		var ms0 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		c0 := cpuTime()
		id := p.tr.begin("experiment.scale", run, 0)
		res, err := experiment.Scale(scaleConfig(p.seed, coll))
		p.tr.end(id)
		cpu := cpuTime() - c0
		total := time.Since(t0)
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		var hops float64
		if err == nil {
			hops = float64(coll.Registry().SumCounter("kar_net_delivered_total"))
			err = checkScale(p, rep, res.Stats, coll, hops, &wantStats, &wantDump)
		}
		if !p.res.record("scale run "+run, err) {
			return nil
		}
		setups = append(setups, (graphWall + res.BuildWall).Seconds())
		rates = append(rates, hops/res.RunWall.Seconds())
		runsMs = append(runsMs, float64(total.Nanoseconds())/1e6)
		runWalls = append(runWalls, res.RunWall.Seconds())
		gcs = append(gcs, float64(ms1.NumGC-ms0.NumGC))
		cpuPerHop = append(cpuPerHop, cpu*1e9/hops)
		cpuRates = append(cpuRates, hops/cpu)
		last, lookahead, stats = coll, res.Lookahead, res.Stats
		return nil
	})
	if err != nil {
		return err
	}
	if last == nil {
		return fmt.Errorf("scale: no run succeeded: %v", p.res.problems)
	}
	p.res.setMedian("setup_s", setups)
	p.res.setMedian("work_per_cpu_s", cpuRates)
	p.res.setMedian("wall.work_per_s", rates)
	p.res.setMedian("wall.latency_ms", runsMs)
	p.res.note("hops_per_s", "hops/s", median(rates), len(rates))
	p.res.note("run_ms", "ms", median(runsMs), len(runsMs))
	p.res.note("fail_frac", "ratio", p.res.failFrac(), p.res.attempted)
	p.res.note("scale.sent", "count", float64(stats.Sent), 0)
	p.res.note("scale.received", "count", float64(stats.Received), 0)
	if p.tr == nil {
		return nil
	}

	reg := last.Registry()
	setCounters(p.res, reg)
	p.res.setMedian("simnet.run_s", runWalls)
	p.res.set("simnet.lookahead_us", float64(lookahead.Nanoseconds())/1e3)
	p.res.set("udpsim.sent", float64(stats.Sent))
	p.res.set("udpsim.delivery_frac", stats.DeliveryRatio())
	p.res.setMedian("runtime.gc_cycles", gcs)

	g, err := topology.FromSpec(scaleTopo)
	if err != nil {
		return err
	}
	first := scalePairList(g, p.seed)[0]
	build := func() (*topology.Graph, error) { return topology.FromSpec(scaleTopo) }
	return ledger(p, build, first[0], first[1], nil, reg, median(cpuPerHop))
}

// checkScale requires SetStats and the metrics dump to repeat the first
// run's exactly, no more packets received or unroutable than sent, and
// some hops delivered.
func checkScale(p *pass, rep int, st udpsim.SetStats, coll *telemetry.Collector, hops float64, wantStats, wantDump *string) error {
	var dump bytes.Buffer
	if err := coll.WriteJSON(&dump); err != nil {
		return err
	}
	sum := sha256.Sum256(dump.Bytes())
	dumpDigest, statsDigest := hex.EncodeToString(sum[:8]), digestOf(st)
	if rep == 0 {
		*wantStats, *wantDump = statsDigest, dumpDigest
		p.res.digest("scale.set_stats", statsDigest)
		p.res.digest("scale.metrics_dump", dumpDigest)
	}
	switch {
	case statsDigest != *wantStats:
		return fmt.Errorf("SetStats digest %s, first run %s", statsDigest, *wantStats)
	case dumpDigest != *wantDump:
		return fmt.Errorf("metrics-dump digest %s, first run %s", dumpDigest, *wantDump)
	case st.Received+st.NoRoute > st.Sent:
		return fmt.Errorf("received %d + noroute %d > sent %d", st.Received, st.NoRoute, st.Sent)
	case hops <= 0:
		return fmt.Errorf("no hops delivered")
	}
	return nil
}

// scalePairList draws the (src, dst) host pairs experiment.Scale draws
// for seed.
func scalePairList(g *topology.Graph, seed int64) [][2]string {
	hosts := g.EdgeNodes()
	rng := rand.New(rand.NewSource(seed*1_000_003 + 17))
	seen := make(map[[2]int]bool, scalePairs)
	var out [][2]string
	for len(out) < scalePairs {
		a, b := rng.Intn(len(hosts)), rng.Intn(len(hosts))
		if a == b || seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		out = append(out, [2]string{hosts[a].Name(), hosts[b].Name()})
	}
	return out
}

// scaleSetupProbe repeats experiment.Scale's set-up steps one call at
// a time, so each layer's share of set_up shows: the fat-tree
// generator, the coprime switch IDs it assigns, the world, and the
// route installs. It also reads the heap once set-up is done.
func scaleSetupProbe(p *pass) error {
	const run = "scale-setup"
	root := p.tr.begin("scale.setup", run, 0)
	id := p.tr.begin("topology.gen", run, root)
	g, err := topology.FromSpec(scaleTopo)
	p.tr.end(id)
	if err != nil {
		return err
	}
	// The generator assigns IDs from each switch's port count; assign
	// them again on their own to time the allocator.
	var mins []uint64
	for _, n := range g.CoreNodes() {
		mins = append(mins, uint64(n.PortSpan())+1)
	}
	id = p.tr.begin("coprime.assign", run, root)
	_, err = coprime.Assign(mins)
	p.tr.end(id)
	if err != nil {
		return err
	}
	policy, err := experiment.PolicyByName("nip")
	if err != nil {
		return err
	}
	id = p.tr.begin("experiment.world", run, root)
	w := experiment.NewWorld(g, policy, p.seed,
		experiment.WithShards(scaleShards),
		experiment.WithWorldEventCapacity(max(65536, 8*scalePairs)))
	p.tr.end(id)
	id = p.tr.begin("controller.install", run, root)
	for _, pair := range scalePairList(g, p.seed) {
		if _, err := w.InstallRoute(pair[0], pair[1], nil); err != nil {
			return err
		}
	}
	p.tr.end(id)
	p.tr.end(root)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(w)
	p.res.set("runtime.heap_after_setup_mb", float64(ms.HeapAlloc)/(1<<20))
	for _, name := range []string{"topology.gen", "coprime.assign", "experiment.world", "controller.install"} {
		d := p.tr.durations(name)
		p.res.set(name+"_s", d[0])
	}
	return nil
}
