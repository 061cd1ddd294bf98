package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/experiment"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// fig5Cell is one bar of the paper's Fig. 5.
type fig5Cell struct {
	fail   [2]string
	prot   string
	policy string
}

// fig5Cells lists the sweep's 18 cells in experiment.Fig5's own order,
// so cell i runs with the seed Fig5 gives its i-th row.
func fig5Cells() []fig5Cell {
	var cells []fig5Cell
	for _, fail := range [][2]string{{"SW10", "SW7"}, {"SW7", "SW13"}, {"SW13", "SW29"}} {
		for _, prot := range []string{"unprotected", "partial", "full"} {
			for _, policy := range []string{"avp", "nip"} {
				cells = append(cells, fig5Cell{fail, prot, policy})
			}
		}
	}
	return cells
}

// fig5Config is the sweep as the paper runs it, scaled to this
// benchmark: 2 runs of 6 s virtual time per cell on 2 workers.
func fig5Config(seed int64, coll *telemetry.Collector) experiment.Fig5Config {
	return experiment.Fig5Config{Runs: 2, Workers: 2, Seed: seed, Metrics: coll}
}

const (
	tcpMSS           = 1400 // tcpsim's default segment payload, which Fig. 5 runs use
	fig5SetupBatches = 60   // timed batches of Fig. 5 world builds
	fig5SetupBatch   = 10   // builds per batch
)

// fig5Workload runs one whole experiment.Fig5 sweep, untimed, to read
// the delivered-hop count and the reference row digest, then times
// repeated sweeps. These call Fig5 one cell at a time (cell i seeded as
// Fig5 seeds row i), so a traced pass can time each cell; the row
// digest shows they compute the same figure.
func fig5Workload(p *pass) error {
	cells := fig5Cells()
	warm := telemetry.NewCollector()
	rows, err := experiment.Fig5(fig5Config(p.seed, warm))
	if !p.res.record("fig5 reference sweep", err, checkFig5Rows(rows, len(cells))) {
		return fmt.Errorf("fig5: %s", p.res.problems[0])
	}
	want := digestOf(rows)
	p.res.digest("fig5.rows", want)
	hops := float64(warm.Registry().SumCounter("kar_net_delivered_total"))
	if hops <= 0 {
		return fmt.Errorf("fig5: reference sweep delivered no hops")
	}
	p.res.note("fig5.hops_per_sweep", "count", hops, 0)

	// Set-up: the worlds a Fig. 5 run builds before it simulates — the
	// Net15 graph, its switches and edges, and the AS1→AS3 route at
	// each protection level. Each build takes under 2 ms and the small
	// heap is collected every other build, so a sample is the mean of a
	// batch of builds, which shares the collections out evenly, and
	// many batches are timed, after a collection that keeps the sweep's
	// garbage out.
	runtime.GC()
	var setups []float64
	for i := 0; i < fig5SetupBatches; i++ {
		t0 := time.Now()
		for j := 0; j < fig5SetupBatch; j++ {
			if err := fig5Setup(p.seed); err != nil {
				return err
			}
		}
		setups = append(setups, time.Since(t0).Seconds()/fig5SetupBatch)
	}
	p.res.setMedian("setup_s", setups)

	var rates, sweepMs, cpuPerHop, cpuRates []float64
	var last *telemetry.Collector
	err = p.repeat(1, func(rep int) error {
		var coll *telemetry.Collector
		if p.tr != nil {
			coll = telemetry.NewCollector()
		}
		sweep := p.tr.begin("experiment.sweep", fmt.Sprintf("sweep-%d", rep), 0)
		t0, c0 := time.Now(), cpuTime()
		var got []experiment.Fig5Row
		for i, c := range cells {
			cfg := fig5Config(p.seed+int64(i)*7_777_777, coll)
			cfg.Failures, cfg.Protections, cfg.Policies = [][2]string{c.fail}, []string{c.prot}, []string{c.policy}
			id := p.tr.begin("experiment.cell", fmt.Sprintf("sweep-%d/cell-%d", rep, i), sweep)
			row, err := experiment.Fig5(cfg)
			p.tr.end(id)
			if !p.res.record(fmt.Sprintf("fig5 sweep %d cell %d", rep, i), err, checkFig5Rows(row, 1)) {
				continue
			}
			got = append(got, row...)
		}
		wall, cpu := time.Since(t0).Seconds(), cpuTime()-c0
		p.tr.end(sweep)
		var mismatch error
		if d := digestOf(got); d != want {
			mismatch = fmt.Errorf("row digest %s, reference sweep %s", d, want)
		}
		p.res.record(fmt.Sprintf("fig5 sweep %d rows", rep), mismatch)
		rates = append(rates, hops/wall)
		sweepMs = append(sweepMs, wall*1e3)
		cpuPerHop = append(cpuPerHop, cpu*1e9/hops)
		cpuRates = append(cpuRates, hops/cpu)
		last = coll
		return nil
	})
	if err != nil {
		return err
	}
	p.res.setMedian("work_per_cpu_s", cpuRates)
	p.res.setMedian("wall.work_per_s", rates)
	p.res.setMedian("wall.latency_ms", sweepMs)
	p.res.note("hops_per_s", "hops/s", median(rates), len(rates))
	p.res.note("sweep_ms", "ms", median(sweepMs), len(sweepMs))
	p.res.note("fail_frac", "ratio", p.res.failFrac(), p.res.attempted)
	if p.tr == nil {
		return nil
	}

	cellSecs := p.tr.durations("experiment.cell")
	p.res.set("experiment.cell_s.p50", median(cellSecs), cellSecs...)
	p.res.set("experiment.cell_s.max", maxOf(cellSecs))
	reg := last.Registry()
	setCounters(p.res, reg)
	recv := float64(reg.SumCounter("kar_switch_received_total"))
	p.res.set("kswitch.deflect_frac", ratio(float64(reg.SumCounter("kar_switch_deflections_total")), recv))
	p.res.set("tcpsim.segments_sent", float64(reg.SumCounter("kar_tcp_segments_sent_total")))
	p.res.set("tcpsim.retransmits", float64(reg.SumCounter("kar_tcp_retransmits_total")))
	p.res.set("tcpsim.timeouts", float64(reg.SumCounter("kar_tcp_timeouts_total")))
	p.res.set("tcpsim.goodput_frac", ratio(float64(reg.SumCounter("kar_tcp_goodput_bytes_total")),
		float64(reg.SumCounter("kar_tcp_segments_sent_total"))*tcpMSS))
	p.res.set("edge.reencode", float64(reg.SumCounter("kar_edge_reencode_total")))
	p.res.set("controller.reencode", float64(reg.SumCounter("kar_ctrl_reencode_total")))

	return ledger(p, topology.Net15, "AS1", "AS3", topology.Net15FullProtection, reg, median(cpuPerHop))
}

// fig5Setup builds the worlds every Fig. 5 run starts from.
func fig5Setup(seed int64) error {
	policy, err := experiment.PolicyByName("nip")
	if err != nil {
		return err
	}
	for _, prot := range [][][2]string{nil, topology.Net15PartialProtection, topology.Net15FullProtection} {
		g, err := topology.Net15()
		if err != nil {
			return err
		}
		w := experiment.NewWorld(g, policy, seed)
		if _, err := w.InstallRoute("AS1", "AS3", prot); err != nil {
			return err
		}
	}
	return nil
}

// checkFig5Rows requires n rows, each with a finite goodput within the
// 200 Mb/s the Net15 links allow.
func checkFig5Rows(rows []experiment.Fig5Row, n int) error {
	if len(rows) != n {
		return fmt.Errorf("%d rows, want %d", len(rows), n)
	}
	for _, r := range rows {
		for _, v := range []float64{r.Goodput.Mean, r.Goodput.Min, r.Goodput.Max} {
			if math.IsNaN(v) || v < 0 || v > 200 {
				return fmt.Errorf("%s/%s/%s goodput %v Mb/s outside [0, 200]", r.Failure, r.Protection, r.Policy, v)
			}
		}
	}
	return nil
}

// setCounters reports the simulator counters the Fig. 5 and scale
// workloads share: switch receptions and deflections and drops by
// reason.
func setCounters(res *result, reg *telemetry.Registry) {
	res.set("kswitch.received", float64(reg.SumCounter("kar_switch_received_total")))
	res.set("kswitch.deflections", float64(reg.SumCounter("kar_switch_deflections_total")))
	for r := simnet.DropNoPort; r <= simnet.DropGray; r++ {
		res.set("simnet.drops."+r.String(), float64(reg.SumCounter("kar_net_drops_total", "reason", r.String())))
	}
}

// digestOf hashes v's printed form; equal digests mean equal values.
func digestOf(v any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", v)))
	return hex.EncodeToString(sum[:8])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
