package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/resilience"
	"repro/internal/scenario"
	"repro/internal/serve"
)

// flapSpec is karload's default load scenario: a Net15 flow across a
// 5 ms link flap, about 2–3 ms of work per job.
const flapSpec = `{
  "name": "karload",
  "topology": "net15",
  "policy": "nip",
  "seed": 1,
  "runs": 1,
  "duration": "20ms",
  "drain": "10ms",
  "flows": [
    {"src": "AS1", "dst": "AS3", "interval": "1ms"}
  ],
  "phases": [
    {"name": "steady", "until": "10ms"},
    {"name": "tail", "until": "20ms"}
  ],
  "injections": [
    {"kind": "link_cut", "link": ["SW7", "SW13"], "start": "5ms", "duration": "5ms"}
  ]
}`

const (
	serveConns     = 2  // HTTP connections the generator may open
	scenarioBodies = 32 // distinct scenario requests, by seed
	verifyBodies   = 4  // distinct verify requests, by pair seed
	verifyPairs    = 200
	minJobsPerStep = 1200 // enough that 9 in 10 supports a p99
	setupRepeats   = 40
	verifyEveryNth = 10 // job i is a verify job when i%10 == 9
)

// serveStep is one open-loop rate of the serve-mix workload.
type serveStep struct {
	name string
	rate float64 // jobs per second
}

var serveSteps = []serveStep{{"r100", 100}, {"r200", 200}}

// request is one distinct job body and the result the daemon must
// return for it, computed in-process during set-up.
type request struct {
	kind string // "scenario" or "verify"
	path string
	body []byte
	want []byte
}

// serveJob is one submitted job and what the daemon reported for it.
type serveJob struct {
	req    *request
	send   sendTimes
	status serveStatus
}

type serveStatus struct {
	ID         string    `json:"id"`
	State      string    `json:"state"`
	Error      string    `json:"error"`
	CreatedAt  time.Time `json:"created_at"`
	StartedAt  time.Time `json:"started_at"`
	FinishedAt time.Time `json:"finished_at"`
}

func (j *serveJob) latencyMs() float64 { return msBetween(j.send.Due, j.status.FinishedAt) }

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }

// serveWorkload drives an in-process daemon (2 executors, 1 worker per
// job) over loopback with a seeded Poisson schedule at 100 and then
// 200 jobs/s. Nine jobs in ten are the flap scenario, the tenth a
// Net15 verify sweep, so long and short jobs share the executors. Its
// work rate is jobs per CPU second of the process from a step's start
// until the daemon is idle again, generator included.
func serveWorkload(p *pass) error {
	rng := rand.New(rand.NewSource(p.seed))
	reqs, err := serveRequests(rng)
	if err != nil {
		return err
	}
	jobsPerStep := make([]int, len(serveSteps))
	total, most := 0, 0
	for i, s := range serveSteps {
		jobsPerStep[i] = max(minJobsPerStep, int(s.rate*p.budget.Seconds()/float64(len(serveSteps))))
		total += jobsPerStep[i]
		most = max(most, jobsPerStep[i])
	}
	// The queue holds every job of a step, so the daemon never refuses
	// one: at its default of 64 it refused jobs in 2 of 10 runs while
	// the host's hypervisor stalled both CPUs, and a stall must show as
	// latency, not as failed operations. The store keeps every job of
	// the run, warm-ups included, until its result is collected.
	cfg := serve.Config{Workers: 2, JobWorkers: 1, QueueCap: most, StoreCap: total + 2}

	// Set-up: daemon start to /readyz, then one job of each kind so the
	// shared graph cache is filled. The warm-up jobs do not depend on
	// the seed, because a verify job's cost depends on which pairs it
	// samples (16–20 ms over four seeds in-process), and set-up should
	// not. The last daemon serves the steps.
	warm, err := warmRequests()
	if err != nil {
		return err
	}
	var setups []float64
	var d *daemon
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		id := p.tr.begin("serve.setup", fmt.Sprintf("setup-%d", i), 0)
		d, err = startDaemon(cfg)
		if err != nil {
			return err
		}
		for _, r := range warm {
			if err := d.warm(r); err != nil {
				d.close()
				return fmt.Errorf("serve: warm-up %s job: %w", r.kind, err)
			}
		}
		p.tr.end(id)
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.close()
	p.res.setMedian("setup_s", setups)

	pick := func(i int) *request {
		if i%verifyEveryNth == verifyEveryNth-1 {
			return reqs[scenarioBodies+rng.Intn(verifyBodies)]
		}
		return reqs[rng.Intn(scenarioBodies)]
	}
	var all []float64
	var jobsDone int
	var stepWall time.Duration
	var stepCPU float64
	for si, step := range serveSteps {
		offsets := poissonSchedule(rng, jobsPerStep[si], step.rate)
		jobs := make([]*serveJob, len(offsets))
		for i := range jobs {
			jobs[i] = &serveJob{req: pick(i)}
		}
		stepID := p.tr.begin("loadgen.step", step.name, 0)
		var sends []sendTimes
		var backlog float64
		var start time.Time
		err := p.measure(func() error {
			c0 := cpuTime()
			start = time.Now().Add(10 * time.Millisecond)
			sends = openLoop(context.Background(), start, offsets, serveConns, func(i int) error {
				st, err := d.submit(jobs[i].req)
				jobs[i].status = st
				return err
			})
			backlog = d.srv.Registry().Gauge("kar_serve_queue_depth").Value()
			d.waitIdle()
			stepCPU += cpuTime() - c0
			return nil
		})
		if err != nil {
			return err
		}
		for i := range sends {
			jobs[i].send = sends[i]
		}
		// Collect every job's final status and result once all are sent.
		var lastFinish time.Time
		for i, j := range jobs {
			err := j.send.Err
			if err == nil {
				err = d.collect(j)
			}
			if !p.res.record(fmt.Sprintf("%s job %d (%s)", step.name, i, j.status.ID), err) {
				continue
			}
			if j.status.FinishedAt.After(lastFinish) {
				lastFinish = j.status.FinishedAt
			}
			p.traceJob(stepID, j)
		}
		p.tr.end(stepID)
		stepWall += lastFinish.Sub(start)
		var ok []*serveJob
		for _, j := range jobs {
			if j.status.State == "done" {
				ok = append(ok, j)
			}
		}
		jobsDone += len(ok)
		all = append(all, stepLatencies(p, step.name, ok, backlog)...)
	}
	if jobsDone == 0 {
		return fmt.Errorf("serve: no job succeeded: %v", p.res.problems)
	}
	p.res.set("work_per_cpu_s", float64(jobsDone)/stepCPU)
	p.res.set("wall.work_per_s", float64(jobsDone)/stepWall.Seconds())
	p.res.setMedian("wall.latency_ms", all)
	p.res.note("job_p50_ms", "ms", median(all), len(all))
	p.res.note("fail_frac", "ratio", p.res.failFrac(), p.res.attempted)
	rejected := float64(d.srv.Registry().CounterValue("kar_serve_rejected_total"))
	p.res.note("serve.rejected", "count", rejected, 0)
	if p.tr != nil {
		p.res.set("serve.rejected", rejected)
	}
	return nil
}

// stepLatencies notes one step's latency percentiles and, when traced,
// its per-layer figures; it returns the step's job latencies.
func stepLatencies(p *pass, step string, jobs []*serveJob, backlog float64) []float64 {
	var lat, submit, queue, late, execScen, execVer, latScen, latVer []float64
	for _, j := range jobs {
		l := j.latencyMs()
		lat = append(lat, l)
		submit = append(submit, msBetween(j.send.Start, j.send.End))
		queue = append(queue, msBetween(j.status.CreatedAt, j.status.StartedAt))
		late = append(late, float64(j.send.late().Nanoseconds())/1e6)
		exec := msBetween(j.status.StartedAt, j.status.FinishedAt)
		if j.req.kind == "verify" {
			execVer, latVer = append(execVer, exec), append(latVer, l)
		} else {
			execScen, latScen = append(execScen, exec), append(latScen, l)
		}
	}
	p.res.note("job_p50_ms."+step, "ms", median(lat), len(lat))
	p.res.tail("job_p99_ms."+step, lat, 0.99)
	p.res.tail("loadgen.late_p99_ms."+step, late, 0.99)
	if p.tr == nil {
		return lat
	}
	setTail := func(name string, xs []float64, q float64) {
		v, _ := percentile(xs, q)
		p.res.set(name+"."+step, v, xs...)
	}
	p.res.set("serve.job_p50_ms."+step, median(lat), lat...)
	setTail("serve.job_p99_ms", lat, 0.99)
	p.res.set("serve.submit_ms.p50."+step, median(submit), submit...)
	setTail("serve.submit_ms.p99", submit, 0.99)
	p.res.set("serve.queue_wait_ms.p50."+step, median(queue), queue...)
	setTail("serve.queue_wait_ms.p99", queue, 0.99)
	p.res.set("serve.exec_ms.scenario.p50."+step, median(execScen), execScen...)
	setTail("serve.exec_ms.scenario.p99", execScen, 0.99)
	p.res.set("serve.exec_ms.verify.p50."+step, median(execVer), execVer...)
	setTail("serve.exec_ms.verify.p90", execVer, 0.90)
	setTail("serve.scenario_p99_ms", latScen, 0.99)
	setTail("serve.verify_p90_ms", latVer, 0.90)
	setTail("loadgen.late_p99_ms", late, 0.99)
	p.res.set("serve.backlog_end."+step, backlog)
	return lat
}

// traceJob records a job's life as spans: the send, then the daemon's
// queue wait and execution, under one span from due time to finish.
func (p *pass) traceJob(parent int, j *serveJob) {
	id := j.status.ID
	root := p.tr.add("serve.job", id, parent, j.send.Due, j.status.FinishedAt)
	p.tr.add("loadgen.late", id, root, j.send.Due, j.send.Start)
	p.tr.add("serve.submit", id, root, j.send.Start, j.send.End)
	p.tr.add("serve.queue_wait", id, root, j.status.CreatedAt, j.status.StartedAt)
	p.tr.add("serve.exec."+j.req.kind, id, root, j.status.StartedAt, j.status.FinishedAt)
}

// serveRequests builds the distinct request bodies and computes each
// one's reference result in-process, with the engines the daemon uses.
func serveRequests(rng *rand.Rand) ([]*request, error) {
	var reqs []*request
	for i := 0; i < scenarioBodies; i++ {
		seed := rng.Int63n(1 << 30)
		spec, err := scenario.Parse(strings.NewReader(flapSpec))
		if err != nil {
			return nil, err
		}
		spec.Seed = seed
		v, err := scenario.Run(spec, scenario.RunOptions{Workers: 1})
		if err != nil {
			return nil, err
		}
		want, err := encodeIndented(v)
		if err != nil {
			return nil, err
		}
		req, err := scenarioRequest(seed)
		if err != nil {
			return nil, err
		}
		req.want = want
		reqs = append(reqs, req)
	}
	g, err := scenario.BuildTopology("net15")
	if err != nil {
		return nil, err
	}
	routes, err := resilience.AllPairRoutes(g)
	if err != nil {
		return nil, err
	}
	for i := 0; i < verifyBodies; i++ {
		seed := rng.Int63n(1 << 30)
		rep, err := resilience.Sweep(g, routes, resilience.Config{
			Policies: verifyPolicies, AutoProtect: true, ProtectionLabel: "auto",
			Pairs: verifyPairs, PairSeed: seed, Workers: 1,
		})
		if err != nil {
			return nil, err
		}
		want, err := encodeIndented(rep)
		if err != nil {
			return nil, err
		}
		req, err := verifyRequest(seed)
		if err != nil {
			return nil, err
		}
		req.want = want
		reqs = append(reqs, req)
	}
	return reqs, nil
}

// warmRequests are the set-up's warm-up jobs, one of each kind, with
// fixed seeds.
func warmRequests() ([]*request, error) {
	s, err := scenarioRequest(1)
	if err != nil {
		return nil, err
	}
	v, err := verifyRequest(1)
	if err != nil {
		return nil, err
	}
	return []*request{s, v}, nil
}

var verifyPolicies = []string{"nip", "dtree"}

// scenarioRequest is the flap scenario with the given seed.
func scenarioRequest(seed int64) (*request, error) {
	body, err := json.Marshal(map[string]any{"spec": json.RawMessage(flapSpec), "seed": seed, "collect": false})
	return &request{kind: "scenario", path: "/v1/scenarios", body: body}, err
}

// verifyRequest is a Net15 verify over verifyPairs pairs drawn by seed.
func verifyRequest(seed int64) (*request, error) {
	body, err := json.Marshal(map[string]any{
		"topology": "net15", "protection": "auto", "policies": verifyPolicies,
		"pairs": verifyPairs, "seed": seed, "collect": false,
	})
	return &request{kind: "verify", path: "/v1/verify", body: body}, err
}

// encodeIndented renders v as the daemon and the CLI do: two-space
// indent and a trailing newline.
func encodeIndented(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// daemon is an in-process serve.Server on a loopback listener and the
// client the generator talks to it with.
type daemon struct {
	srv    *serve.Server
	http   *http.Server
	served chan error
	base   string
	client *http.Client
}

func startDaemon(cfg serve.Config) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:    serve.New(cfg),
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     serveConns,
			MaxIdleConnsPerHost: serveConns,
		}},
	}
	d.http = &http.Server{Handler: d.srv.Handler()}
	go func() { d.served <- d.http.Serve(ln) }()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		resp, err := d.client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
	}
	return nil, errors.Join(errors.New("serve: daemon not ready after 10s"), d.close())
}

// close drains the daemon, stops the listener and waits for both.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if herr := d.http.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.client.CloseIdleConnections()
	return err
}

func (d *daemon) do(method, path string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// waitIdle returns once the daemon holds no queued or running job.
func (d *daemon) waitIdle() {
	reg := d.srv.Registry()
	queued, running := reg.Gauge("kar_serve_jobs", "state", "queued"), reg.Gauge("kar_serve_jobs", "state", "running")
	for queued.Value() > 0 || running.Value() > 0 {
		time.Sleep(time.Millisecond)
	}
}

// submit posts one job. A refusal (429 when the queue is full) is a
// failed job, never retried.
func (d *daemon) submit(r *request) (serveStatus, error) {
	var st serveStatus
	data, code, err := d.do(http.MethodPost, r.path, r.body)
	if err != nil {
		return st, err
	}
	if code != http.StatusAccepted {
		return st, fmt.Errorf("submit: HTTP %d: %s", code, strings.TrimSpace(string(data)))
	}
	return st, json.Unmarshal(data, &st)
}

// warm runs one job to completion through ?wait=1.
func (d *daemon) warm(r *request) error {
	data, code, err := d.do(http.MethodPost, r.path+"?wait=1", r.body)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", code, strings.TrimSpace(string(data)))
	}
	var st serveStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if st.State != "done" {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return nil
}

// collect waits for j to finish, then fetches its result and compares
// it byte for byte with the in-process reference.
func (d *daemon) collect(j *serveJob) error {
	path := "/v1/jobs/" + j.status.ID
	for {
		data, code, err := d.do(http.MethodGet, path, nil)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("status: HTTP %d: %s", code, strings.TrimSpace(string(data)))
		}
		if err := json.Unmarshal(data, &j.status); err != nil {
			return err
		}
		if j.status.State != "queued" && j.status.State != "running" {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if j.status.State != "done" {
		return fmt.Errorf("job ended %s: %s", j.status.State, j.status.Error)
	}
	got, code, err := d.do(http.MethodGet, path+"/result", nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("result: HTTP %d", code)
	}
	if !bytes.Equal(got, j.req.want) {
		return fmt.Errorf("%s result differs from the in-process reference (%d vs %d bytes)", j.req.kind, len(got), len(j.req.want))
	}
	return nil
}
