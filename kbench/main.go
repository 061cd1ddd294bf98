// Command kbench is the repository benchmark. It drives one workload
// through the public functions of internal/experiment,
// internal/resilience and internal/serve, checks every output, and
// prints the metrics BENCHMARK.json declares:
//
//	kbench --workload fig5-net15 --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the last line carries the end-to-end metrics. With
// --trace 1 the workload runs twice, untraced and then traced, for
// half the time each; the last line carries the per-layer metrics and
// the tracing overhead of each end-to-end metric. Every sample, the
// host fingerprint and (when traced) every span go to --out. See
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"
)

// deadline bounds a run: the benchmark must finish well inside the
// three minutes it is allowed.
const deadline = 170 * time.Second

// pass is one run of a workload, traced or not.
type pass struct {
	seed   int64
	budget time.Duration // how long the timed phase runs
	tr     *tracer       // nil: untraced
	res    *result
	rss    []float64 // peak resident set of each measured unit, MiB
	ref    []float64 // hostRefNs before each measured unit
}

// measure runs fn from a collected heap returned to the system, so one
// repetition's (or serve-mix step's) garbage neither slows the next nor
// raises its peak resident set, and records the process's peak
// resident set while fn ran.
func (p *pass) measure(fn func() error) error {
	debug.FreeOSMemory()
	p.ref = append(p.ref, hostRefNs())
	if err := resetPeakRSS(); err != nil {
		return err
	}
	if err := fn(); err != nil {
		return err
	}
	mib, err := peakRSSMiB()
	if err != nil {
		return err
	}
	p.rss = append(p.rss, mib)
	return nil
}

// repeat measures fn until the pass's budget has elapsed and it has run
// at least minReps times.
func (p *pass) repeat(minReps int, fn func(i int) error) error {
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < p.budget; i++ {
		if err := p.measure(func() error { return fn(i) }); err != nil {
			return err
		}
	}
	return nil
}

// runPass runs one pass of wl and reports the median over its measured
// units of the peak resident set each reached.
func runPass(wl func(*pass) error, p *pass) error {
	if err := wl(p); err != nil {
		return err
	}
	p.res.setMedian("peak_rss_mb", p.rss)
	return nil
}

var workloads = map[string]func(*pass) error{
	"fig5-net15":      fig5Workload,
	"scale-fattree28": scaleWorkload,
	"verify-fattree8": verifyWorkload,
	"serve-mix":       serveWorkload,
}

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "kbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 15, "length of the timed phase")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	outDir := flag.String("out", ".bench_build/kbench-out", "directory for result documents and spans")
	flag.Parse()

	wl, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "kbench: %s did not finish within %v\n", *workload, deadline)
		os.Exit(1)
	})

	budget := time.Duration(*seconds) * time.Second
	// Steal time is how much CPU the host's other tenants took: the
	// result document keeps it so a slow run can be told from a slow
	// program.
	steal0, start := stealTicks(), time.Now()
	doc := resultDoc{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *traced == 1, Host: fingerprint()}
	var final *result
	var defs []metricDef
	var tr *tracer
	var refs []float64
	if *traced != 1 {
		final = newResult()
		p := &pass{seed: *seed, budget: budget, res: final}
		if err := runPass(wl, p); err != nil {
			return err
		}
		refs = p.ref
		defs = spec.EndToEnd
		doc.add("untraced", final, spec.EndToEnd)
	} else {
		untraced := newResult()
		p := &pass{seed: *seed, budget: budget / 2, res: untraced}
		if err := runPass(wl, p); err != nil {
			return err
		}
		tr = newTracer()
		final = newResult()
		pt := &pass{seed: *seed, budget: budget / 2, tr: tr, res: final}
		if err := runPass(wl, pt); err != nil {
			return err
		}
		refs = append(p.ref, pt.ref...)
		// Tracing overhead: how much worse each end-to-end metric read
		// in the traced pass, as a share of the untraced value.
		for _, d := range spec.EndToEnd {
			u, t := untraced.values[d.Name], final.values[d.Name]
			worse := t - u
			if d.Better == "higher" {
				worse = -worse
			}
			final.set("trace.overhead."+d.Name, ratio(worse, u))
		}
		defs = spec.PerLayer
		doc.add("untraced", untraced, spec.EndToEnd)
		doc.add("traced", final, append(append([]metricDef(nil), spec.EndToEnd...), spec.PerLayer...))
		final.attempted += untraced.attempted
		final.failed += untraced.failed
		final.problems = append(untraced.problems, final.problems...)
	}

	// A per-layer metric of a layer this workload never enters reads 0;
	// every end-to-end metric must be measured.
	line := finalLine{Correct: final.failed == 0, Attempted: final.attempted, Failed: final.failed, Metrics: map[string]lineMetric{}}
	for _, d := range defs {
		v, ok := final.values[d.Name]
		if !ok && *traced != 1 {
			return fmt.Errorf("workload %s did not measure %s", *workload, d.Name)
		}
		if err := finite(d.Name, v); err != nil {
			return err
		}
		line.Metrics[d.Name] = lineMetric{Value: v, Unit: d.Unit}
	}
	if line.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	doc.Correct, doc.Attempted, doc.Failed, doc.Problems = line.Correct, line.Attempted, line.Failed, final.problems
	const ticksPerSecond = 100 // USER_HZ on Linux
	doc.HostStealFrac = (stealTicks() - steal0) / ticksPerSecond / (time.Since(start).Seconds() * float64(doc.Host.NProc))
	doc.HostRefNs = median(refs)

	base := fmt.Sprintf("%s-seed%d-trace%d", *workload, *seed, *traced)
	if err := writeJSON(filepath.Join(*outDir, base+".json"), doc); err != nil {
		return err
	}
	if tr != nil {
		if err := tr.write(filepath.Join(*outDir, base+"-spans.json")); err != nil {
			return err
		}
	}
	printHuman(os.Stdout, &doc)
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalLine is the last line of standard output.
type finalLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

// resultDoc is the per-run result document: every sample of every
// metric, the checks' digests, and the host and seed behind them.
type resultDoc struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   int      `json:"seconds"`
	Trace     bool     `json:"trace"`
	Host      host     `json:"host"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// HostStealFrac is the share of the machine's CPU time the
	// hypervisor gave to other tenants during the run.
	HostStealFrac float64 `json:"host_steal_frac"`
	// HostRefNs is how long a fixed reference loop took per iteration
	// before each measured unit, median over the units: the same work
	// on every run, so a slower reading means a slower host, not a
	// slower program.
	HostRefNs float64   `json:"host_ref_ns"`
	Passes    []passDoc `json:"passes"`
}

type passDoc struct {
	Name      string      `json:"name"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	FailFrac  float64     `json:"fail_frac"`
	Metrics   []metricDoc `json:"metrics"`
	Notes     []note      `json:"notes,omitempty"`
	Digests   []note      `json:"digests,omitempty"`
}

type metricDoc struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Q1      float64   `json:"q1,omitempty"`
	Median  float64   `json:"median,omitempty"`
	Q3      float64   `json:"q3,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

func (d *resultDoc) add(name string, r *result, defs []metricDef) {
	p := passDoc{Name: name, Attempted: r.attempted, Failed: r.failed, FailFrac: r.failFrac(), Notes: r.notes, Digests: r.digests}
	for _, def := range defs {
		v, ok := r.values[def.Name]
		if !ok {
			continue
		}
		m := metricDoc{Name: def.Name, Unit: def.Unit, Value: v, Samples: r.samples[def.Name]}
		if len(m.Samples) > 0 {
			m.Q1, m.Median, m.Q3 = quartiles(m.Samples)
		}
		p.Metrics = append(p.Metrics, m)
	}
	d.Passes = append(d.Passes, p)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printHuman(w *os.File, d *resultDoc) {
	fmt.Fprintf(w, "# %s seed=%d seconds=%d trace=%v host=%q nproc=%d gomaxprocs=%d %s commit=%s steal=%.3f ref=%.3fns\n",
		d.Workload, d.Seed, d.Seconds, d.Trace, d.Host.CPU, d.Host.NProc, d.Host.GOMAXPROCS, d.Host.Go, d.Host.Commit, d.HostStealFrac, d.HostRefNs)
	for _, p := range d.Passes {
		fmt.Fprintf(w, "## %s pass: attempted=%d failed=%d fail_frac=%g\n", p.Name, p.Attempted, p.Failed, p.FailFrac)
		for _, m := range p.Metrics {
			fmt.Fprintf(w, "%-44s %16.6g %-8s", m.Name, m.Value, m.Unit)
			if len(m.Samples) > 0 {
				fmt.Fprintf(w, " n=%d q1=%.6g q3=%.6g", len(m.Samples), m.Q1, m.Q3)
			}
			fmt.Fprintln(w)
		}
		for _, n := range p.Notes {
			fmt.Fprintf(w, "%-44s %16.6g %-8s", n.Name, n.Value, n.Unit)
			if n.N > 0 {
				fmt.Fprintf(w, " n=%d", n.N)
			}
			if n.Text != "" {
				fmt.Fprintf(w, " %s", n.Text)
			}
			fmt.Fprintln(w)
		}
		for _, dg := range p.Digests {
			fmt.Fprintf(w, "digest %-37s %s\n", dg.Name, dg.Text)
		}
	}
	for _, pr := range d.Problems {
		fmt.Fprintln(w, "FAIL", pr)
	}
}
