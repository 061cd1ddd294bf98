package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/measure"
	"repro/internal/scenario"
)

// runScenario executes a declarative fault scenario file and prints
// its verdict: one row per seeded run with traffic totals, fault
// counters and any expectation violations. The caller turns a failing
// verdict into a non-zero exit after telemetry is written.
func runScenario(opts options) (*scenario.Verdict, error) {
	spec, err := scenario.Load(opts.scenario)
	if err != nil {
		return nil, err
	}
	v, err := scenario.Run(spec, scenario.RunOptions{
		Workers: opts.workers,
		Metrics: opts.collector,
		Trace:   opts.tracer,
	})
	if err != nil {
		return nil, err
	}

	fmt.Printf("scenario %s (%s/%s", v.Scenario, v.Topology, v.Policy)
	if spec.Description != "" {
		fmt.Printf(": %s", spec.Description)
	}
	fmt.Println(")")
	emit(opts, verdictTable(v))

	if vr := v.Verify; vr != nil {
		fmt.Printf("\nresilience sweep (protection=%s, %d routes x %d links, %d cases)\n",
			vr.Report.Protection, vr.Report.Routes, vr.Report.Links, vr.Report.Cases)
		emit(opts, scoreTable(vr.Report))
		for _, viol := range vr.Violations {
			fmt.Println("violation:", viol)
		}
	}

	for _, r := range v.Runs {
		if len(r.Phases) > 0 {
			fmt.Printf("\n# run %d phases\n", r.Run)
			emit(opts, phaseTable(&r))
		}
		for _, viol := range r.Violations {
			fmt.Printf("run %d violation: %s\n", r.Run, viol)
		}
	}
	if v.Pass {
		fmt.Println("\nverdict: PASS")
	} else {
		fmt.Println("\nverdict: FAIL")
	}

	// The encoder settings here define the batch half of the
	// daemon/CLI byte-identity contract (internal/serve uses the
	// same); scripts/serve_smoke.sh compares the two documents.
	if opts.verdictJSON != "" {
		f, err := os.Create(opts.verdictJSON)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			return nil, err
		}
	}
	return v, nil
}

func verdictTable(v *scenario.Verdict) *measure.Table {
	tbl := &measure.Table{
		Title: "Scenario runs",
		Headers: []string{"run", "seed", "sent", "delivered", "loss",
			"gray", "corrupted", "deflections", "verdict"},
	}
	for _, r := range v.Runs {
		verdict := "pass"
		if !r.Pass {
			verdict = fmt.Sprintf("FAIL (%d)", len(r.Violations))
		}
		tbl.AddRow(
			fmt.Sprintf("%d", r.Run),
			fmt.Sprintf("%d", r.Seed),
			fmt.Sprintf("%d", r.Sent),
			fmt.Sprintf("%d", r.Delivered),
			fmt.Sprintf("%.4f", r.LossFraction()),
			fmt.Sprintf("%d", r.GrayDrops),
			fmt.Sprintf("%d", r.Corrupted),
			fmt.Sprintf("%d", r.Deflections),
			verdict,
		)
	}
	return tbl
}

func phaseTable(r *scenario.RunResult) *measure.Table {
	tbl := &measure.Table{
		Headers: []string{"phase", "until", "sent", "received", "loss"},
	}
	for _, p := range r.Phases {
		loss := 0.0
		if p.Sent > 0 {
			loss = 1 - float64(p.Received)/float64(p.Sent)
		}
		tbl.AddRow(p.Name, p.Until.D().String(),
			fmt.Sprintf("%d", p.Sent),
			fmt.Sprintf("%d", p.Received),
			fmt.Sprintf("%.4f", loss))
	}
	return tbl
}
