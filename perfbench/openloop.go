package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/schedd"
	"repro/internal/sim"
	"repro/internal/swf"
	"repro/internal/workload"
)

const (
	// olName tags the daemon's runs.
	olName = "schedd-open-loop"
	// olTraceJobs is the size of the generated KTH-SP2 trace; phases
	// replay prefixes of it.
	olTraceJobs = 26000
	// refRate is the reference arrival rate (per second) decide_* are
	// measured at, a quarter of what one command connection sustains on
	// a 2-core host or less.
	refRate = 1000.0
	// refReps is how many times the reference phase runs, each on a
	// fresh daemon. The host's scheduling hiccups set the p99 of a
	// 1000-job window anywhere from 1 to 16 ms (see runOpenLoop).
	refReps = 3
	// refShare is the share of --seconds each reference repetition lasts.
	refShare = 0.3
	// intakeShare is the share of --seconds the in-process intake
	// measurement (jobs_per_s) lasts.
	intakeShare = 0.1
	// floodShare is the share of --seconds the flood passes
	// (max_rate_per_s) last, and floodArrivals the size of one pass.
	floodShare    = 0.35
	floodArrivals = 5000
	// minIters is how many intake and flood passes a run makes at least.
	minIters = 3
	// warmArrivals are sent closed loop before each phase's timed part.
	warmArrivals = 200
	// whatIfQueries is the size of each reference repetition's read phase.
	whatIfQueries = 20
	// abortLagMs stops a phase whose generator has fallen this far behind.
	abortLagMs = 1000.0
	// windowJobs is the size of the windows a p99 is taken over: the
	// smallest that supports a p99.
	windowJobs = 1000
	// windowStride is how far apart windows start.
	windowStride = 100
	// refHeapProbes is how many forced-collection probes of the live heap a
	// reference repetition takes, evenly spaced over its timed part.
	refHeapProbes = 8
)

// arrival is one distinct submit instant of the trace and its jobs: the
// open loop sends them together, then advances the session past them.
type arrival struct {
	t    int64
	jobs []swf.Job
}

// openLoopTrace generates the seeded KTH-SP2 trace, cleaned the way the
// replay client cleans it, grouped into arrivals.
func openLoopTrace(seed uint64) ([]arrival, int64, error) {
	cfg, err := workload.Preset("KTH-SP2")
	if err != nil {
		return nil, 0, err
	}
	cfg.Jobs = olTraceJobs
	w, err := workload.Generate(cfg)
	if err != nil {
		return nil, 0, err
	}
	r := rng.New(seed)
	for i := range w.Jobs {
		jitter(&w.Jobs[i], r)
	}
	jobs, err := workload.Collect(workload.NewCleanSource(workload.FromWorkload(w), w.MaxProcs))
	if err != nil {
		return nil, 0, err
	}
	var out []arrival
	for _, j := range jobs {
		if n := len(out); n > 0 && out[n-1].t == j.SubmitTime {
			out[n-1].jobs = append(out[n-1].jobs, j)
			continue
		}
		out = append(out, arrival{t: j.SubmitTime, jobs: []swf.Job{j}})
	}
	return out, w.MaxProcs, nil
}

// jobClock stores one wall-clock instant (ns since the phase epoch) per
// job number; each slot is written by one goroutine and read after the
// phase, so atomics are enough. 0 means never set.
type jobClock []atomic.Int64

// set stores t for job unless job is out of range or already set, and
// reports whether it stored it.
func (c jobClock) set(job, t int64) bool {
	if job <= 0 || job >= int64(len(c)) || c[job].Load() != 0 {
		return false
	}
	c[job].Store(t)
	return true
}

func (c jobClock) get(job int64) int64 { return c[job].Load() }

// phaseOpts configures one daemon phase.
type phaseOpts struct {
	rate     float64   // arrivals per second; 0 floods
	arrivals []arrival // warm-up ones first
	maxProcs int64
	traced   bool
	readPath bool // probe the heap, run the what-if read phase and the served ≡ streamed gate
	// stall, when set, runs inside the daemon's handler before every
	// job submission (the test of the open-loop accounting).
	stall func(job int64)
	// meter, when set, times the yardstick right before the read phase.
	meter *speedMeter
	// eventJob, when set, rewrites the job number of every submit event
	// the subscriber receives (the test of the delivery gate).
	eventJob func(job int64) int64
}

// phaseResult is what one phase measured; times are nanoseconds.
type phaseResult struct {
	setup     time.Duration
	wall      time.Duration // first due instant to last submit event received
	decide    []float64     // per timed job: due -> subscriber sees its submit
	lag       []float64     // per timed arrival: due -> send
	saturated bool          // the generator fell abortLagMs behind and stopped
	submitted []swf.Job     // every job sent, in order
	heapBytes float64       // peak live heap during the timed part minus the value before it
	served    string        // the daemon's final summary (readPath)
	perf      sim.Perf      // the daemon engine's counters (readPath)
	whatIf    []float64
	history   int
	attempted int64
	failed    int64

	// Traced phases only.
	jobLag, rtt, http, pickup, fanout, transport []float64
	httpBusy                                     time.Duration
	events                                       int64
	spans                                        []span
	bodies                                       [][]byte
}

// tracerFunc adapts a function to obs.Tracer.
type tracerFunc func(ev *obs.Event)

func (f tracerFunc) Trace(ev *obs.Event) { f(ev) }

// timedHandler wraps the daemon's handler: it times every command
// request (the event stream excepted) and notes when each job
// submission's handler returned.
type timedHandler struct {
	h        http.Handler
	epoch    time.Time
	traced   bool
	stall    func(job int64)
	start    jobClock
	returned jobClock
	busy     atomic.Int64 // nanoseconds
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/events" || (!t.traced && t.stall == nil) {
		t.h.ServeHTTP(w, r)
		return
	}
	job, _ := strconv.ParseInt(r.Header.Get("X-Job"), 10, 64)
	t0 := time.Now()
	if job > 0 && t.stall != nil {
		t.stall(job)
	}
	t.h.ServeHTTP(w, r)
	t1 := time.Now()
	if job > 0 {
		t.start.set(job, int64(t0.Sub(t.epoch)))
		t.returned.set(job, int64(t1.Sub(t.epoch)))
	}
	t.busy.Add(int64(t1.Sub(t0)))
}

// client posts JSON over one kept-alive connection.
type client struct {
	hc   *http.Client
	base string
	ops  int64
	bad  int64
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, base: base}
}

func (c *client) post(path string, body []byte, job int64, out any) error {
	c.ops++
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		c.bad++
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if job > 0 {
		req.Header.Set("X-Job", strconv.FormatInt(job, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.bad++
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		c.bad++
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *client) postJSON(path string, v any, out any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return c.post(path, b, 0, out)
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// submitBody renders a POST /v1/jobs body.
func submitBody(session string, j *swf.Job) []byte {
	b, _ := json.Marshal(schedd.SubmitRequest{Session: session, Job: schedd.JobSpec{
		Number: j.JobNumber, Submit: j.SubmitTime, Procs: j.Procs(),
		Request: j.Request(), Runtime: j.RunTime, User: j.UserID, Partition: j.Partition,
	}})
	return b
}

// subscriber reads the JSONL event stream and notes when each job's
// submit event arrived.
type subscriber struct {
	recv    jobClock
	events  atomic.Int64
	submits atomic.Int64
	// strays counts submit events for a job never sent or already seen.
	strays atomic.Int64
	done   chan error
}

var submitKind = []byte(`"kind":"submit"`)

func subscribe(base string, epoch *time.Time, recv jobClock, eventJob func(int64) int64) (*subscriber, func(), error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/events", nil)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	tr := &http.Transport{DisableCompression: true}
	resp, err := (&http.Client{Transport: tr}).Do(req)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, nil, fmt.Errorf("GET /v1/events: HTTP %d", resp.StatusCode)
	}
	s := &subscriber{recv: recv, done: make(chan error, 1)}
	go func() {
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		var ev struct {
			Job int64 `json:"job"`
		}
		for sc.Scan() {
			line := sc.Bytes()
			s.events.Add(1)
			if !bytes.Contains(line, submitKind) {
				continue
			}
			t := int64(time.Since(*epoch))
			ev.Job = 0
			if err := json.Unmarshal(line, &ev); err != nil {
				s.done <- err
				return
			}
			if eventJob != nil {
				ev.Job = eventJob(ev.Job)
			}
			if !s.recv.set(ev.Job, t) {
				s.strays.Add(1)
			}
			s.submits.Add(1)
		}
		err := sc.Err()
		if errors.Is(err, context.Canceled) {
			err = nil
		}
		s.done <- err
	}()
	stop := func() {
		cancel()
		tr.CloseIdleConnections()
	}
	return s, stop, nil
}

// waitSubmits waits until the subscriber has seen n submit events.
func (s *subscriber) waitSubmits(n int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for s.submits.Load() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("event stream delivered %d of %d submit events within %s", s.submits.Load(), n, timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// runPhase starts a fresh daemon on a loopback listener, warms it up,
// sends the timed arrivals open loop at opts.rate, and (readPath) runs
// the what-if read phase and the served ≡ streamed gate.
func runPhase(opts phaseOpts) (res phaseResult, err error) {
	maxJob, jobs := int64(0), 0
	for _, a := range opts.arrivals {
		for _, j := range a.jobs {
			jobs++
			if j.JobNumber > maxJob {
				maxJob = j.JobNumber
			}
		}
	}
	warm := warmArrivals
	if warm > len(opts.arrivals)/2 {
		warm = len(opts.arrivals) / 2
	}
	timed := opts.arrivals[warm:]

	// The benchmark's own per-job records are allocated up front, before
	// the heap baseline is read, so live_heap_mib does not count them.
	var epoch time.Time
	recv := make(jobClock, maxJob+1)
	emitted := make(jobClock, maxJob+1)
	th := &timedHandler{traced: opts.traced, stall: opts.stall,
		start: make(jobClock, maxJob+1), returned: make(jobClock, maxJob+1)}
	res.submitted = make([]swf.Job, 0, jobs)
	res.decide = make([]float64, 0, jobs)
	res.lag = make([]float64, 0, len(timed))
	due := make([]int64, len(timed))
	if opts.traced {
		res.bodies = make([][]byte, 0, jobs)
		res.rtt = make([]float64, 0, jobs)
	}

	// Set-up: daemon, listener, command connection, event subscriber,
	// session, then a closed-loop warm-up.
	setupStart := time.Now()
	dopts := schedd.Options{Workload: olName, MaxProcs: opts.maxProcs, Triple: core.EASYPlusPlus()}
	if opts.traced {
		dopts.Tracer = tracerFunc(func(ev *obs.Event) {
			if ev.Kind == obs.KindSubmit {
				emitted.set(ev.Job, int64(time.Since(epoch)))
			}
		})
	}
	d, err := schedd.New(dopts)
	if err != nil {
		return res, err
	}
	th.h = d.Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Shutdown()
		return res, err
	}
	srv := &http.Server{Handler: th}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	c := newClient(base)
	epoch = time.Now()
	th.epoch = epoch
	sub, stopSub, err := subscribe(base, &epoch, recv, opts.eventJob)
	defer func() {
		// Tear down in order: the daemon drains and closes the event
		// stream, the subscriber ends, the server stops.
		d.Shutdown()
		if sub != nil {
			stopSub()
			if serr := <-sub.done; serr != nil && err == nil {
				err = fmt.Errorf("event stream: %w", serr)
			}
		}
		c.close()
		srv.Close()
		<-served
	}()
	if err != nil {
		return res, err
	}
	const session = "loadgen"
	if err := c.postJSON("/v1/sessions", map[string]string{"session": session}, nil); err != nil {
		return res, err
	}
	send := func(i int) error {
		a := &opts.arrivals[i]
		for k := range a.jobs {
			j := &a.jobs[k]
			body := submitBody(session, j)
			if opts.traced {
				res.bodies = append(res.bodies, body)
			}
			t0 := time.Now()
			if err := c.post("/v1/jobs", body, j.JobNumber, nil); err != nil {
				return fmt.Errorf("job %d: %w", j.JobNumber, err)
			}
			if opts.traced {
				res.rtt = append(res.rtt, float64(time.Since(t0)))
			}
			res.submitted = append(res.submitted, *j)
		}
		next := a.t + 1
		if i+1 < len(opts.arrivals) {
			next = opts.arrivals[i+1].t
		}
		adv, _ := json.Marshal(map[string]any{"session": session, "t": next})
		return c.post("/v1/advance", adv, 0, nil)
	}
	for i := 0; i < warm; i++ {
		if err := send(i); err != nil {
			return res, fmt.Errorf("warm-up: %w", err)
		}
	}
	if err := sub.waitSubmits(int64(len(res.submitted)), 10*time.Second); err != nil {
		return res, fmt.Errorf("warm-up: %w", err)
	}
	res.setup = time.Since(setupStart)
	var heapBase uint64
	heapPeak := func() uint64 { return 0 }
	if opts.readPath {
		heapBase = liveHeapBytes()
		heapPeak = pollHeap(time.Duration(float64(len(timed)) / opts.rate * float64(time.Second) / refHeapProbes))
		defer heapPeak()
	}

	// Timed part. Open loop (rate > 0): arrival i is due at start + i/rate
	// whether or not the previous one has been answered; everything is
	// timed from due. Flood (rate 0): each arrival is due, and sent, as
	// soon as the previous one has been answered.
	var gap time.Duration
	if opts.rate > 0 {
		gap = time.Duration(float64(time.Second) / opts.rate)
	}
	start := time.Now()
	firstJob := len(res.submitted)
	for i := range timed {
		at := start.Add(time.Duration(i) * gap)
		if opts.rate == 0 {
			at = time.Now()
		}
		due[i] = int64(at.Sub(epoch))
		sleepUntil(at)
		lag := float64(int64(time.Since(epoch)) - due[i])
		res.lag = append(res.lag, lag)
		if err := send(warm + i); err != nil {
			return res, err
		}
		if lag > abortLagMs*1e6 {
			// Saturated: the backlog only grows from here.
			res.saturated = true
			timed, due = timed[:i+1], due[:i+1]
			break
		}
	}
	if err := sub.waitSubmits(int64(len(res.submitted)), 20*time.Second); err != nil {
		return res, err
	}
	res.wall = time.Since(start)
	if opts.readPath {
		peak := heapPeak()
		if v := liveHeapBytes(); v > peak {
			peak = v
		}
		res.heapBytes = float64(peak) - float64(heapBase)
	}

	// Delivery gate: every job sent, warm-up included, has its own submit
	// event, and no event names a job twice or one never sent.
	for _, j := range res.submitted {
		if recv.get(j.JobNumber) == 0 {
			return res, fmt.Errorf("job %d's submit event never reached the subscriber", j.JobNumber)
		}
	}
	if n := sub.strays.Load(); n > 0 {
		return res, fmt.Errorf("event stream delivered %d submit events for jobs never sent or already seen", n)
	}

	// Per-job decomposition of the decide path.
	k := firstJob
	for i, a := range timed {
		for range a.jobs {
			job := res.submitted[k].JobNumber
			k++
			got := recv.get(job)
			res.decide = append(res.decide, float64(got-due[i]))
			if !opts.traced {
				continue
			}
			hs, hr, em := th.start.get(job), th.returned.get(job), emitted.get(job)
			if hs == 0 || hr == 0 || em == 0 {
				return res, fmt.Errorf("job %d: handler start %d, handler return %d, engine submit event %d ns: a timestamp is missing", job, hs, hr, em)
			}
			sendAt := due[i] + int64(res.lag[i])
			segs := [...]float64{res.lag[i], float64(hs - sendAt), float64(hr - hs), float64(em - hr), float64(got - em)}
			for s, v := range segs {
				if v < 0 {
					return res, fmt.Errorf("job %d: decide-path segment %d is negative (%.0f ns)", job, s, v)
				}
			}
			res.jobLag = append(res.jobLag, segs[0])
			res.transport = append(res.transport, segs[1])
			res.http = append(res.http, segs[2])
			res.pickup = append(res.pickup, segs[3])
			res.fanout = append(res.fanout, segs[4])
			if len(res.spans) < 5*maxSpansPerLayer {
				id := int64(len(res.spans) + 1)
				res.spans = append(res.spans,
					span{ID: id, Name: "loadgen.arrival", Start: due[i], End: got},
					span{ID: id + 1, Parent: id, Name: "client.transport", Start: sendAt, End: hs},
					span{ID: id + 2, Parent: id, Name: "schedd.http", Start: hs, End: hr},
					span{ID: id + 3, Parent: id, Name: "schedd.pickup", Start: hr, End: em},
					span{ID: id + 4, Parent: id, Name: "schedd.fanout", Start: em, End: got})
			}
		}
	}
	res.httpBusy = time.Duration(th.busy.Load())
	res.events = sub.events.Load()

	if opts.readPath {
		if opts.meter != nil {
			opts.meter.sample()
		}
		hyp := []schedd.WhatIfEvent{
			{Kind: "drain", T: timed[len(timed)-1].t, Procs: opts.maxProcs / 10},
			{Kind: "restore", T: timed[len(timed)-1].t + 3600, Procs: opts.maxProcs / 10},
		}
		var first *schedd.Projection
		for q := 0; q < whatIfQueries; q++ {
			var p schedd.Projection
			t0 := time.Now()
			if err := c.postJSON("/v1/whatif", map[string]any{"events": hyp}, &p); err != nil {
				return res, fmt.Errorf("what-if: %w", err)
			}
			res.whatIf = append(res.whatIf, float64(time.Since(t0)))
			if first == nil {
				first = &p
			} else if p != *first {
				return res, fmt.Errorf("what-if %d projected %+v, the first projected %+v", q, p, *first)
			}
		}
		if first.Commands != len(res.submitted) || first.Finished != len(res.submitted) {
			return res, fmt.Errorf("what-if replayed %d commands and finished %d jobs, %d were submitted", first.Commands, first.Finished, len(res.submitted))
		}
		res.history = first.Commands
	}
	if err := c.postJSON("/v1/sessions/close", map[string]string{"session": session}, nil); err != nil {
		return res, err
	}
	res.attempted, res.failed = c.ops, c.bad
	if !opts.readPath {
		return res, nil
	}
	final, err := d.Shutdown()
	if err != nil {
		return res, err
	}
	var servedSummary bytes.Buffer
	report.StreamSummary(&servedSummary, report.CollectStreamRun(olName, opts.maxProcs, core.EASYPlusPlus().Name(), final.Makespan, final.Corrections, d.Overall()))
	res.served = servedSummary.String()
	res.perf = final.Perf
	return res, servedEqualsStreamed(opts.maxProcs, res.submitted, res.served)
}

// servedEqualsStreamed is the daemon's correctness gate: the summary it
// served must equal sim.RunStream's over exactly the jobs submitted.
func servedEqualsStreamed(maxProcs int64, submitted []swf.Job, served string) error {
	cfg := core.EASYPlusPlus().Config()
	col := metrics.NewCollector()
	cfg.Sink = col
	res, err := sim.RunStream(olName, maxProcs, workload.NewSliceSource(submitted), cfg)
	if err != nil {
		return fmt.Errorf("streamed reference: %w", err)
	}
	var want bytes.Buffer
	report.StreamSummary(&want, report.CollectStreamRun(olName, maxProcs, res.Triple, res.Makespan, res.Corrections, col))
	if want.String() != served {
		return fmt.Errorf("served summary differs from the streamed one over the same %d jobs:\nserved:\n%s\nstreamed:\n%s", len(submitted), served, want.String())
	}
	return nil
}

// windowP99s returns the p99 of every window of windowJobs consecutive
// per-job decide latencies, in arrival order, the windows starting
// windowStride jobs apart: every second of traffic at the reference
// rate, wherever it starts. A stall the program causes at least once a
// second sets the p99 of every window; a host stall sets the p99 of the
// windows that hold it and leaves the others.
func windowP99s(decide []float64) ([]float64, error) {
	if len(decide) < windowJobs {
		return nil, fmt.Errorf("decide latency: %d samples make no window of %d", len(decide), windowJobs)
	}
	var per []float64
	for start := 0; start+windowJobs <= len(decide); start += windowStride {
		v, err := pctAtLeast(sorted(decide[start:start+windowJobs]), 99, "decide latency window")
		if err != nil {
			return nil, err
		}
		per = append(per, v)
	}
	return per, nil
}

// prefix returns the first n arrivals plus the warm-up ones.
func prefix(all []arrival, n int) ([]arrival, error) {
	if n+warmArrivals > len(all) {
		return nil, fmt.Errorf("trace has %d arrivals, a phase needs %d", len(all), n+warmArrivals)
	}
	return all[:n+warmArrivals], nil
}

// runOpenLoop drives the schedd-open-loop workload: refReps reference
// phases, the in-process intake passes, then the flood passes, timing
// the yardstick before each.
func runOpenLoop(seed uint64, seconds float64, traced bool) (*benchReport, error) {
	rep := newReport()
	t0 := time.Now()
	all, maxProcs, err := openLoopTrace(seed)
	if err != nil {
		return rep, err
	}
	gen := time.Since(t0).Seconds()
	refArr, err := prefix(all, int(refRate*seconds*refShare))
	if err != nil {
		return rep, err
	}
	account := func(p *phaseResult) {
		rep.attempted += p.attempted
		rep.failed += p.failed
	}
	if traced {
		return rep, traceOpenLoop(rep, refArr, maxProcs, account)
	}

	// The reference phase runs refReps times on fresh daemons, each with
	// the read phase and the served ≡ streamed gate. decide_p50 is the
	// median of the repetitions' p50, live_heap the median of their
	// peaks, whatif_p50 the median of every query. decide_p99 is the
	// least p99 over the 1000-job windows of every repetition, wherever
	// they start (see windowP99s): the tail of the calmest second of
	// traffic. A stall the program causes (a collection, lock contention,
	// fan-out backpressure) recurs in every second and sets that p99 too;
	// a host hiccup delays the ten or so arrivals due while it lasts,
	// which is 1% of a window, so it sets the p99 of every window that
	// holds it, and on a busy 2-core host few seconds hold none.
	var setups, p50s, p99s, heaps, whatIf []float64
	var ref phaseResult
	var meter speedMeter
	for r := 0; r < refReps; r++ {
		meter.sample()
		p, err := runPhase(phaseOpts{rate: refRate, arrivals: refArr, maxProcs: maxProcs, readPath: true, meter: &meter})
		account(&p)
		if err != nil {
			return rep, fmt.Errorf("reference phase %d: %w", r, err)
		}
		if p.saturated {
			return rep, fmt.Errorf("reference phase %d: the generator fell %.0f ms behind %.0f arrivals/s", r, abortLagMs, refRate)
		}
		ws, err := windowP99s(p.decide)
		if err != nil {
			return rep, fmt.Errorf("reference phase %d: %w", r, err)
		}
		if r == 0 {
			ref = p
		}
		setups = append(setups, p.setup.Seconds())
		heaps = append(heaps, p.heapBytes)
		p50s = append(p50s, quantile(sorted(p.decide), 0.5))
		p99s = append(p99s, ws...)
		whatIf = append(whatIf, p.whatIf...)
		sw := sorted(ws)
		rep.note("reference %.0f/s #%d: %d jobs over %.3f s; decide p50 %.3f ms; p99 over %d windows: least %.3f ms, median %.3f ms, most %.3f ms; lag p99 %.3f ms; heap peak %+.3f MiB",
			refRate, r, len(p.decide), p.wall.Seconds(), p50s[r]/1e6, len(ws), sw[0]/1e6, quantile(sw, 0.5)/1e6, sw[len(sw)-1]/1e6, quantile(sorted(p.lag), 0.99)/1e6, p.heapBytes/(1<<20))
	}
	rep.note("decide: p50 median of %d repetitions, p99 least of %d windows; what-if: %d queries over a history of %d commands", refReps, len(p99s), len(whatIf), ref.history)

	rates, intake, err := intakeRate(all, maxProcs, seconds*intakeShare, &meter)
	if err != nil {
		return rep, fmt.Errorf("intake: %w", err)
	}
	rep.note("intake (in-process Submit+Advance until decided), jobs/s per pass: %s; pooled %.1f", fmtList(rates), intake)

	// max_rate_per_s: floods of the same arrivals, each sent as soon as
	// the previous one is answered, timed from the first send until the
	// subscriber has every submit event. An open loop at a higher rate
	// falls behind, so this is the highest rate it can sustain.
	floodArr, err := prefix(all, floodArrivals)
	if err != nil {
		return rep, err
	}
	var floods []float64
	var flooding time.Duration
	flooded := 0
	for len(floods) < minIters || flooding.Seconds() < seconds*floodShare {
		meter.sample()
		p, err := runPhase(phaseOpts{arrivals: floodArr, maxProcs: maxProcs})
		account(&p)
		if err != nil {
			return rep, fmt.Errorf("flood %d: %w", len(floods), err)
		}
		setups = append(setups, p.setup.Seconds())
		flooding += p.wall
		flooded += len(p.lag)
		floods = append(floods, float64(len(p.lag))/p.wall.Seconds())
	}
	flood := float64(flooded) / flooding.Seconds()
	rep.note("flood passes of %d arrivals, arrivals/s: %s; pooled %.1f", floodArrivals, fmtList(floods), flood)

	// Every time and rate is in reference seconds (see speedMeter).
	f := meter.factor()
	m := rep.metrics
	m["setup_s"] = (gen + median(setups)) / f
	m["jobs_per_s"] = intake * f
	m["live_heap_mib"] = median(heaps) / (1 << 20)
	m["decide_p50_ms"] = median(p50s) / 1e6 / f
	m["decide_p99_ms"] = sorted(p99s)[0] / 1e6 / f
	m["max_rate_per_s"] = flood * f
	m["whatif_p50_ms"] = median(whatIf) / 1e6 / f
	rep.note("setup: trace generation %.4f s + median daemon set-up of %s s", gen, fmtList(setups))
	rep.note("host speed factor %.4f (yardstick mean %.3f ms over %d samples, reference %s); wall figures: setup %.4f s, jobs/s %.1f, decide p50 %.4f ms, p99 %.4f ms, max rate %.1f/s, what-if p50 %.3f ms",
		f, f*refYardstick.Seconds()*1e3, len(meter.samples), refYardstick, gen+median(setups), intake, median(p50s)/1e6, sorted(p99s)[0]/1e6, flood, median(whatIf)/1e6)
	rep.note("yardstick samples (ms): %s", fmtList(scale(meter.samples, 1e3)))
	return rep, nil
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// traceOpenLoop runs the reference phase untraced and traced and
// reports the daemon's per-layer rows.
func traceOpenLoop(rep *benchReport, refArr []arrival, maxProcs int64, account func(*phaseResult)) error {
	plain, err := runPhase(phaseOpts{rate: refRate, arrivals: refArr, maxProcs: maxProcs, readPath: true})
	account(&plain)
	if err != nil {
		return fmt.Errorf("untraced phase: %w", err)
	}
	tr, err := runPhase(phaseOpts{rate: refRate, arrivals: refArr, maxProcs: maxProcs, readPath: true, traced: true})
	account(&tr)
	if err != nil {
		return fmt.Errorf("traced phase: %w", err)
	}
	m := rep.metrics
	ms := func(xs []float64, q float64) float64 { return quantile(sorted(xs), q) / 1e6 }
	m["loadgen.lag_p99_ms"] = ms(tr.lag, 0.99)
	m["client.rtt_p50_us"] = ms(tr.rtt, 0.5) * 1e3
	m["client.rtt_p99_us"] = ms(tr.rtt, 0.99) * 1e3
	m["schedd.http_s"] = tr.httpBusy.Seconds()
	m["schedd.http_p99_us"] = ms(tr.http, 0.99) * 1e3
	m["schedd.pickup_p50_ms"] = ms(tr.pickup, 0.5)
	m["schedd.pickup_p99_ms"] = ms(tr.pickup, 0.99)
	m["schedd.fanout_p50_ms"] = ms(tr.fanout, 0.5)
	m["schedd.fanout_p99_ms"] = ms(tr.fanout, 0.99)
	m["schedd.stream_events_per_job"] = float64(tr.events) / float64(len(tr.submitted))
	m["schedd.whatif_history"] = float64(tr.history)
	m["schedd.whatif_us_per_cmd"] = median(tr.whatIf) / 1e3 / float64(tr.history)
	m["trace.wall_s"] = tr.wall.Seconds()
	m["trace.overhead_s"] = tr.wall.Seconds() - plain.wall.Seconds()
	m["schedd.decode_us"] = decodeCost(tr.bodies)
	el, n, err := intakePass(refArr, maxProcs)
	if err != nil {
		return err
	}
	m["schedd.submit_us"] = float64(el.Nanoseconds()) / 1e3 / float64(n)

	m["sim.events"] = float64(tr.perf.Events)
	m["sim.pick_calls"] = float64(tr.perf.PickCalls)

	// Accounting: per job, lateness + transport + handler + pickup +
	// fan-out is the decide latency, by construction (the segments are
	// differences of consecutive timestamps). What can fail is a
	// timestamp, and runPhase has already rejected a missing one or a
	// negative segment. Transport is the only part no program layer
	// owns, so it is the unattributed row.
	total := 0.0
	for _, x := range tr.decide {
		total += x
	}
	sum := 0.0
	for _, seg := range []struct {
		name string
		xs   []float64
	}{{"loadgen.lag", tr.jobLag}, {"schedd.http", tr.http}, {"schedd.pickup", tr.pickup}, {"schedd.fanout", tr.fanout}, {"client.transport", tr.transport}} {
		s := 0.0
		for _, x := range seg.xs {
			s += x
		}
		sum += s
		rep.rows = append(rep.rows, layerRow{seg.name, s / 1e9})
	}
	m["sim.unattributed_s"] = rep.rows[len(rep.rows)-1].seconds
	rep.note("decide path over %d jobs, %.3f s summed (traced phase wall %.3f s, untraced %.3f s):", len(tr.decide), total/1e9, tr.wall.Seconds(), plain.wall.Seconds())
	for _, r := range rep.rows {
		rep.note("  %-18s %9.4f s %6.1f%%", r.name, r.seconds, 1e11*r.seconds/total)
	}
	rep.note("  %-18s %9.4f s %6.1f%%", "sum", sum/1e9, 100*sum/total)
	rep.spans = tr.spans
	return nil
}

// decodeCost times schedd.ParseSubmitRequest over the bodies the traced
// phase sent, in microseconds per body.
func decodeCost(bodies [][]byte) float64 {
	if len(bodies) == 0 {
		return 0
	}
	t0 := time.Now()
	for _, b := range bodies {
		if _, err := schedd.ParseSubmitRequest(b); err != nil {
			return 0
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(bodies))
}

// intakeRate replays the whole trace into fresh in-process daemons, one
// pass after another until budget seconds have passed and at least
// minIters passes are done, timing the yardstick before each. It returns
// each pass's jobs decided per second and their pooled rate, all jobs
// over all passes' time, which is jobs_per_s: with the caller and the
// engine on two cores, one pass in a few runs 30% faster than the
// others.
func intakeRate(arr []arrival, maxProcs int64, budget float64, meter *speedMeter) (rates []float64, pooled float64, err error) {
	var spent time.Duration
	jobs := 0
	for len(rates) < minIters || spent.Seconds() < budget {
		meter.sample()
		el, n, err := intakePass(arr, maxProcs)
		if err != nil {
			return nil, 0, err
		}
		spent += el
		jobs += n
		rates = append(rates, float64(n)/el.Seconds())
	}
	return rates, float64(jobs) / spent.Seconds(), nil
}

// intakePass sends the arrivals to a fresh daemon through Daemon.Submit
// and Advance and times from the first Submit until the engine has
// emitted every job's submit event, as an Options.Tracer sees them: the
// daemon's intake without HTTP and without event fan-out.
func intakePass(arr []arrival, maxProcs int64) (time.Duration, int, error) {
	n := 0
	for _, a := range arr {
		n += len(a.jobs)
	}
	var seen atomic.Int64
	all := make(chan struct{})
	count := tracerFunc(func(ev *obs.Event) {
		if ev.Kind == obs.KindSubmit && seen.Add(1) == int64(n) {
			close(all)
		}
	})
	d, err := schedd.New(schedd.Options{Workload: olName, MaxProcs: maxProcs, Triple: core.EASYPlusPlus(), Tracer: count})
	if err != nil {
		return 0, 0, err
	}
	defer d.Shutdown()
	if err := d.OpenSession("replay", ""); err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	for i, a := range arr {
		for _, j := range a.jobs {
			if err := d.Submit("replay", j); err != nil {
				return 0, 0, err
			}
		}
		next := a.t + 1
		if i+1 < len(arr) {
			next = arr[i+1].t
		}
		if err := d.Advance("replay", next); err != nil {
			return 0, 0, err
		}
	}
	select {
	case <-all:
	case <-d.Done():
		return 0, 0, fmt.Errorf("the engine stopped after %d of %d submit events", seen.Load(), n)
	case <-time.After(30 * time.Second):
		return 0, 0, fmt.Errorf("the engine emitted %d of %d submit events within 30 s", seen.Load(), n)
	}
	el := time.Since(t0)
	if err := d.CloseSession("replay"); err != nil {
		return 0, 0, err
	}
	_, err = d.Shutdown()
	return el, n, err
}
