package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

const (
	verifyTopo   = "fattree:8"
	verifySetups = 12 // sweeps stopped at their first case, besides the timed ones
)

// sweepTimes splits one sweep at its Progress callbacks: build runs
// from the call to the first callback, cases from the first to the
// last, merge from the last callback to the return.
type sweepTimes struct {
	mu                 sync.Mutex
	start, first, last time.Time
	end                time.Time
	cancelOnFirst      context.CancelFunc
}

func (s *sweepTimes) progress(done, total int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	if s.first.IsZero() {
		s.first = now
		if s.cancelOnFirst != nil {
			s.cancelOnFirst()
		}
	}
	if done == total {
		s.last = now
	}
}

// verifySweep runs one sweep over routes with the given policies and
// returns its report and timings.
func verifySweep(ctx context.Context, g *topology.Graph, routes []resilience.RouteSpec, policies []string, st *sweepTimes) (*resilience.Report, *telemetry.Registry, error) {
	reg := telemetry.NewRegistry()
	st.start = time.Now()
	rep, err := resilience.SweepContext(ctx, g, routes, resilience.Config{
		Policies:        policies,
		AutoProtect:     true,
		ProtectionLabel: "auto",
		Workers:         2,
		Registry:        reg,
		Progress:        st.progress,
	})
	st.end = time.Now()
	return rep, reg, err
}

// verifyWorkload sweeps every single-link failure of every ordered edge
// pair of fattree:8 under dtree and nip. The inputs are exhaustive and
// in AllPairRoutes order, so they do not depend on the seed: shuffling
// the routes moved the case rate by up to 12%, which would be measured
// as noise.
func verifyWorkload(p *pass) error {
	g, err := topology.FromSpec(verifyTopo)
	if err != nil {
		return err
	}
	routes, err := resilience.AllPairRoutes(g)
	if err != nil {
		return err
	}
	policies := []string{"dtree", "nip"}

	// Set-up: more builds than the timed sweeps give, each stopped at
	// its first analysed case.
	var setups []float64
	for i := 0; i < verifySetups; i++ {
		runtime.GC()
		ctx, cancel := context.WithCancel(context.Background())
		st := &sweepTimes{cancelOnFirst: cancel}
		_, _, err := verifySweep(ctx, g, routes, policies, st)
		cancel()
		if !errors.Is(err, context.Canceled) {
			return fmt.Errorf("verify: set-up probe: %v", err)
		}
		setups = append(setups, st.first.Sub(st.start).Seconds())
	}

	var rates, sweepMs, gcs, cpuRates []float64
	var want string
	var lastRep *resilience.Report
	var lastReg *telemetry.Registry
	err = p.repeat(1, func(rep int) error {
		run := fmt.Sprintf("sweep-%d", rep)
		st := &sweepTimes{}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		c0 := cpuTime()
		report, reg, err := verifySweep(context.Background(), g, routes, policies, st)
		cpu := cpuTime() - c0
		runtime.ReadMemStats(&ms1)
		if err == nil {
			err = checkReport(report, len(routes), len(policies))
		}
		if err == nil {
			d := reportDigest(report)
			if rep == 0 {
				want = d
				p.res.digest("verify.report", d)
			} else if d != want {
				err = fmt.Errorf("report digest %s, first sweep %s", d, want)
			}
		}
		if !p.res.record("verify "+run, err) {
			return nil
		}
		wall := st.end.Sub(st.start)
		setups = append(setups, st.first.Sub(st.start).Seconds())
		rates = append(rates, float64(report.Cases)/wall.Seconds())
		cpuRates = append(cpuRates, float64(report.Cases)/cpu)
		sweepMs = append(sweepMs, float64(wall.Nanoseconds())/1e6)
		gcs = append(gcs, float64(ms1.NumGC-ms0.NumGC))
		p.traceSweep(run, st)
		lastRep, lastReg = report, reg
		return nil
	})
	if err != nil {
		return err
	}
	if lastRep == nil {
		return fmt.Errorf("verify: no sweep succeeded: %v", p.res.problems)
	}
	p.res.setMedian("setup_s", setups)
	p.res.setMedian("work_per_cpu_s", cpuRates)
	p.res.setMedian("wall.work_per_s", rates)
	p.res.setMedian("wall.latency_ms", sweepMs)
	p.res.note("cases_per_s", "cases/s", median(rates), len(rates))
	p.res.note("sweep_ms", "ms", median(sweepMs), len(sweepMs))
	p.res.note("fail_frac", "ratio", p.res.failFrac(), p.res.attempted)
	p.res.note("verify.cases", "count", float64(lastRep.Cases), 0)
	for _, t := range lastRep.Totals {
		p.res.note("verify.survived."+t.Policy, "count", float64(t.Survived), t.Singles)
	}
	if p.tr == nil {
		return nil
	}

	p.res.setMedian("resilience.build_s", p.tr.durations("resilience.build"))
	p.res.setMedian("resilience.cases_s", p.tr.durations("resilience.cases"))
	p.res.setMedian("resilience.merge_s", p.tr.durations("resilience.merge"))
	p.res.set("resilience.disconnected_frac", ratio(
		float64(lastReg.SumCounter("kar_verify_disconnected_total")), float64(lastReg.SumCounter("kar_verify_cases_total"))))
	p.res.setMedian("runtime.gc_cycles", gcs)

	// One engine at a time: dtree's deterministic walk, then nip's
	// Markov chain.
	for _, e := range []struct{ policy, metric string }{
		{"dtree", "resilience.walk_us_per_case"},
		{"nip", "analysis.chain_us_per_case"},
	} {
		st := &sweepTimes{}
		report, _, err := verifySweep(context.Background(), g, routes, []string{e.policy}, st)
		if !p.res.record("verify "+e.policy+" only", err, checkReport(report, len(routes), 1)) {
			continue
		}
		p.traceSweep(e.policy+"-only", st)
		p.res.set(e.metric, float64(st.last.Sub(st.first).Nanoseconds())/1e3/float64(report.Cases))
	}
	return nil
}

// traceSweep records a sweep's span and its three phases.
func (p *pass) traceSweep(run string, st *sweepTimes) {
	root := p.tr.add("resilience.sweep", run, 0, st.start, st.end)
	p.tr.add("resilience.build", run, root, st.start, st.first)
	p.tr.add("resilience.cases", run, root, st.first, st.last)
	p.tr.add("resilience.merge", run, root, st.last, st.end)
}

// checkReport requires every case to be accounted for: per policy,
// survived + degraded + lost + disconnected equals routes × failures,
// and the report's case count equals routes × failures × policies.
func checkReport(r *resilience.Report, routes, policies int) error {
	if r == nil {
		return errors.New("no report")
	}
	if r.Routes != routes {
		return fmt.Errorf("report has %d routes, want %d", r.Routes, routes)
	}
	if want := routes * r.Links * policies; r.Cases != want {
		return fmt.Errorf("%d cases, want routes %d × failures %d × policies %d = %d", r.Cases, routes, r.Links, policies, want)
	}
	perPolicy := map[string]int{}
	for _, s := range r.Scores {
		perPolicy[s.Policy] += s.Survived + s.Degraded + s.Lost + s.Disconnected
	}
	for _, pol := range r.Policies {
		if got := perPolicy[pol]; got != routes*r.Links {
			return fmt.Errorf("policy %s accounts for %d cases, want %d", pol, got, routes*r.Links)
		}
	}
	return nil
}

func reportDigest(r *resilience.Report) string {
	data, err := json.Marshal(r)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return digestOf(string(data))
}
