package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/measure"
	"repro/internal/resilience"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// runVerify drives the exhaustive failure-sweep resilience verifier:
// enumerate every single-link failure (plus optional seeded two-link
// samples) on the chosen topology and score every (route, policy)
// against it. The caller turns a -verify-min violation into a
// non-zero exit after telemetry is written.
func runVerify(opts options) (*resilience.Report, error) {
	g, err := buildVerifyTopology(opts.verify)
	if err != nil {
		return nil, err
	}
	routes, err := parseVerifyRoutes(g, opts.verifyRoutes)
	if err != nil {
		return nil, err
	}
	protection, err := verifyProtectionPairs(opts.verify, opts.verifyProtection)
	if err != nil {
		return nil, err
	}
	var policies []string
	for _, p := range strings.Split(opts.verifyPolicies, ",") {
		if p = strings.TrimSpace(p); p != "" {
			policies = append(policies, p)
		}
	}

	reg := telemetry.NewRegistry()
	rep, err := resilience.Sweep(g, routes, resilience.Config{
		Policies:        policies,
		Protection:      protection,
		AutoProtect:     scenario.AutoProtection(opts.verifyProtection),
		ProtectionLabel: opts.verifyProtection,
		Pairs:           opts.verifyPairs,
		PairSeed:        opts.seed,
		Workers:         opts.workers,
		Registry:        reg,
	})
	if err != nil {
		return nil, err
	}
	if opts.collector != nil {
		opts.collector.Add("verify/"+rep.Topology, reg, nil)
	}

	fmt.Printf("verify %s (protection=%s, %d routes x %d links", rep.Topology, rep.Protection, rep.Routes, rep.Links)
	if rep.PairsDrawn > 0 {
		fmt.Printf(" + %d pair samples", rep.PairsDrawn)
	}
	fmt.Printf(", %d cases)\n", rep.Cases)
	emit(opts, scoreTable(rep))
	if len(rep.Totals) > 0 {
		fmt.Println()
		emit(opts, totalsTable(rep))
	}
	if len(rep.Impacts) > 0 {
		fmt.Println()
		emit(opts, impactTable(rep))
	}

	if opts.verifyJSON != "" {
		f, err := os.Create(opts.verifyJSON)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// buildVerifyTopology accepts the scenario topology names plus every
// topology.FromSpec generator spec ("rand:...", "fattree:<k>",
// "clos:<leaves>:<spines>", "isp:<cores>:<m>:<hosts>:<seed>") —
// scenario.BuildTopology resolves both through the shared graph cache.
func buildVerifyTopology(name string) (*topology.Graph, error) {
	return scenario.BuildTopology(name)
}

// verifyProtectionPairs resolves a protection level against the canned
// per-topology sets. "auto" works on any topology (the controller
// plans per-destination trees, no static pair list); generated
// topologies support only "none" and "auto".
func verifyProtectionPairs(topo, level string) ([][2]string, error) {
	if level == "" || level == "none" || scenario.AutoProtection(level) {
		return nil, nil
	}
	if topology.IsSpec(topo) {
		return nil, fmt.Errorf("verify: generated topologies have no canned %q protection set (use \"auto\")", level)
	}
	return scenario.ProtectionPairs(topo, level)
}

// parseVerifyRoutes parses "src:dst[,src:dst...]"; empty means every
// ordered edge pair. Both grammars live in internal/resilience, shared
// with the serve daemon's /v1/verify endpoint.
func parseVerifyRoutes(g *topology.Graph, spec string) ([]resilience.RouteSpec, error) {
	if spec == "" {
		return resilience.AllPairRoutes(g)
	}
	return resilience.ParseRoutes(spec)
}

func scoreTable(rep *resilience.Report) *measure.Table {
	tbl := &measure.Table{
		Title: "Resilience scores (single-link failures)",
		Headers: []string{"route", "policy", "cases", "survived", "degraded",
			"lost", "disc", "survive", "worst-p", "worst-fail", "stretch"},
	}
	for _, sc := range rep.Scores {
		row := []string{
			sc.Src + "->" + sc.Dst,
			sc.Policy,
			fmt.Sprintf("%d", sc.Singles),
			fmt.Sprintf("%d", sc.Survived),
			fmt.Sprintf("%d", sc.Degraded),
			fmt.Sprintf("%d", sc.Lost),
			fmt.Sprintf("%d", sc.Disconnected),
			fmt.Sprintf("%.4f", sc.SurviveFraction),
			fmt.Sprintf("%.4f", sc.WorstPDeliver),
			sc.WorstPDeliverFailure,
			fmt.Sprintf("%.3f", sc.WorstStretch),
		}
		if rep.PairsDrawn > 0 {
			row = append(row, fmt.Sprintf("%d/%d", sc.PairSurvived, sc.PairCases))
		}
		tbl.AddRow(row...)
	}
	if rep.PairsDrawn > 0 {
		tbl.Headers = append(tbl.Headers, "pairs")
	}
	return tbl
}

func totalsTable(rep *resilience.Report) *measure.Table {
	tbl := &measure.Table{
		Title:   "Per-policy totals (" + totalsScope(rep) + ")",
		Headers: []string{"policy", "k1-cases", "k1-survived", "k1-fraction"},
	}
	for _, tot := range rep.Totals {
		row := []string{
			tot.Policy,
			fmt.Sprintf("%d", tot.Singles),
			fmt.Sprintf("%d", tot.Survived),
			fmt.Sprintf("%.4f", tot.SurviveFraction),
		}
		if rep.PairsDrawn > 0 {
			row = append(row, fmt.Sprintf("%d/%d", tot.PairSurvived, tot.PairCases),
				fmt.Sprintf("%.4f", tot.PairSurviveFraction))
		}
		tbl.AddRow(row...)
	}
	if rep.PairsDrawn > 0 {
		tbl.Headers = append(tbl.Headers, "k2-pairs", "k2-fraction")
	}
	return tbl
}

// totalsScope names what the totals cover: the exhaustive k=1 sweep,
// plus either every two-link pair or the number of pairs sampled.
func totalsScope(rep *resilience.Report) string {
	switch n := rep.PairsDrawn; {
	case n == 0:
		return "k=1 exhaustive"
	case n == rep.Links*(rep.Links-1)/2:
		return fmt.Sprintf("k=1 exhaustive, k=2 all %d pairs", n)
	default:
		return fmt.Sprintf("k=1 exhaustive, k=2 %d sampled pairs", n)
	}
}

func impactTable(rep *resilience.Report) *measure.Table {
	tbl := &measure.Table{
		Title:   "Unprotected links by blast radius",
		Headers: []string{"link", "affected-cases", "min-p-deliver"},
	}
	for _, im := range rep.Impacts {
		tbl.AddRow(im.Link, fmt.Sprintf("%d", im.Affected), fmt.Sprintf("%.4f", im.MinPDeliver))
	}
	return tbl
}
