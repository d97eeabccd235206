package main

import (
	"time"

	"repro/internal/correct"
	"repro/internal/job"
	"repro/internal/platform"
	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/swf"
	"repro/internal/workload"
)

// layer names one engine boundary the decorators time.
type layer int

const (
	lPick layer = iota
	lSchedHooks
	lPredict
	lLearn
	lPredHooks
	lCorrect
	lNext
	lObserve
	numLayers
)

var layerNames = [numLayers]string{
	lPick:       "sched.pick",
	lSchedHooks: "sched.hooks",
	lPredict:    "predict.predict",
	lLearn:      "predict.learn",
	lPredHooks:  "predict.hooks",
	lCorrect:    "correct.correct",
	lNext:       "workload.next",
	lObserve:    "metrics.observe",
}

// maxSpansPerLayer bounds the span sample kept per layer.
const maxSpansPerLayer = 2048

// span is one timed call: its layer, the span that caused it, and its
// interval in nanoseconds since the recorder's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder collects what the decorators see during one simulation. The
// decision clock (admissions and scheduling-pass ends) is always on; the
// per-layer counts, busy times and span sample only when traced.
type recorder struct {
	traced bool
	epoch  time.Time
	wall   time.Duration // the simulation span's length

	calls   [numLayers]int64
	busy    [numLayers]int64
	pickNS  []float64
	started int64 // Pick calls that returned a job

	runSpan int64 // id of the enclosing simulation span
	nextID  int64
	spans   []span
	perSpan [numLayers]int

	// Decision clock: decide[k] is how long after the engine began to
	// admit the k-th submission (its Predict call, which the engine makes
	// once per submitted job, before the predictor's and the policy's
	// OnSubmit) the scheduling pass that followed it ended.
	submits int
	decide  []float64
	pending []int64

	// probe, when set, runs after every observed finish (the live-heap
	// probe of the warm-up iteration).
	probe func(finished int)
	seen  int
}

func newRecorder(traced bool, expectJobs int) *recorder {
	r := &recorder{
		traced: traced,
		decide: make([]float64, 0, expectJobs),
	}
	if traced {
		r.pickNS = make([]float64, 0, 8*expectJobs)
	}
	return r
}

// begin opens the simulation span, right before the engine is called;
// every layer span is its child.
func (r *recorder) begin() {
	r.nextID++
	r.runSpan = r.nextID
	r.epoch = time.Now()
}

// end closes the simulation span, right after the engine returns.
func (r *recorder) end() { r.wall = time.Since(r.epoch) }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// done charges one call of layer l that started at t0 and returns its
// duration.
func (r *recorder) done(l layer, t0 int64) int64 {
	t1 := r.now()
	r.calls[l]++
	r.busy[l] += t1 - t0
	if r.perSpan[l] < maxSpansPerLayer {
		r.perSpan[l]++
		r.nextID++
		r.spans = append(r.spans, span{ID: r.nextID, Parent: r.runSpan, Name: layerNames[l], Start: t0, End: t1})
	}
	return t1 - t0
}

func (r *recorder) submitted() {
	r.submits++
	r.pending = append(r.pending, r.now())
}

func (r *recorder) passEnded() {
	if len(r.pending) == 0 {
		return
	}
	t := r.now()
	for _, t0 := range r.pending {
		r.decide = append(r.decide, float64(t-t0))
	}
	r.pending = r.pending[:0]
}

// start opens a timed call: zero, and no clock read, when untraced.
func (r *recorder) start() int64 {
	if !r.traced {
		return 0
	}
	return r.now()
}

// stop closes a call opened by start.
func (r *recorder) stop(l layer, t0 int64) {
	if r.traced {
		r.done(l, t0)
	}
}

// layerPolicy decorates a sched.Policy. Its Pick also drives the
// decision clock, untraced too: a pass ends when Pick declines.
type layerPolicy struct {
	p sched.Policy
	r *recorder
}

func (d *layerPolicy) Name() string { return d.p.Name() }

func (d *layerPolicy) Pick(now int64, m *platform.Machine, q []*job.Job) *job.Job {
	r := d.r
	t0 := r.start()
	j := d.p.Pick(now, m, q)
	if r.traced {
		r.pickNS = append(r.pickNS, float64(r.done(lPick, t0)))
		if j != nil {
			r.started++
		}
	}
	if j == nil {
		r.passEnded()
	}
	return j
}

func (d *layerPolicy) OnSubmit(j *job.Job, now int64) {
	t0 := d.r.start()
	d.p.OnSubmit(j, now)
	d.r.stop(lSchedHooks, t0)
}

func (d *layerPolicy) OnStart(j *job.Job, now int64) {
	t0 := d.r.start()
	d.p.OnStart(j, now)
	d.r.stop(lSchedHooks, t0)
}

func (d *layerPolicy) OnFinish(j *job.Job, now int64) {
	t0 := d.r.start()
	d.p.OnFinish(j, now)
	d.r.stop(lSchedHooks, t0)
}

func (d *layerPolicy) OnExpiry(j *job.Job, now int64) {
	t0 := d.r.start()
	d.p.OnExpiry(j, now)
	d.r.stop(lSchedHooks, t0)
}

func (d *layerPolicy) OnCancel(j *job.Job, now int64) {
	t0 := d.r.start()
	d.p.OnCancel(j, now)
	d.r.stop(lSchedHooks, t0)
}

func (d *layerPolicy) OnCapacityChange(now int64, m *platform.Machine) {
	t0 := d.r.start()
	d.p.OnCapacityChange(now, m)
	d.r.stop(lSchedHooks, t0)
}

// layerPredictor decorates a predict.Predictor; OnFinish is the
// learning update and is charged apart from the other hooks. Its
// Predict also starts the decision clock, untraced too.
type layerPredictor struct {
	p predict.Predictor
	r *recorder
}

func (d *layerPredictor) Name() string { return d.p.Name() }

func (d *layerPredictor) Predict(j *job.Job, now int64) int64 {
	d.r.submitted()
	t0 := d.r.start()
	v := d.p.Predict(j, now)
	d.r.stop(lPredict, t0)
	return v
}

func (d *layerPredictor) OnSubmit(j *job.Job, now int64) {
	t0 := d.r.start()
	d.p.OnSubmit(j, now)
	d.r.stop(lPredHooks, t0)
}

func (d *layerPredictor) OnStart(j *job.Job, now int64) {
	t0 := d.r.start()
	d.p.OnStart(j, now)
	d.r.stop(lPredHooks, t0)
}

func (d *layerPredictor) OnFinish(j *job.Job, now int64) {
	t0 := d.r.start()
	d.p.OnFinish(j, now)
	d.r.stop(lLearn, t0)
}

// layerCorrector decorates a correct.Corrector.
type layerCorrector struct {
	c correct.Corrector
	r *recorder
}

func (d *layerCorrector) Name() string { return d.c.Name() }

func (d *layerCorrector) Correct(elapsed, request int64, corrections int) int64 {
	t0 := d.r.start()
	v := d.c.Correct(elapsed, request, corrections)
	d.r.stop(lCorrect, t0)
	return v
}

// layerSource decorates a workload.Source.
type layerSource struct {
	s workload.Source
	r *recorder
}

func (d *layerSource) NextJob() (swf.Job, error) {
	t0 := d.r.start()
	j, err := d.s.NextJob()
	d.r.stop(lNext, t0)
	return j, err
}

// layerSink decorates a sim.JobSink.
type layerSink struct {
	s sim.JobSink
	r *recorder
}

func (d *layerSink) Observe(j *job.Job) {
	r := d.r
	t0 := r.start()
	d.s.Observe(j)
	r.stop(lObserve, t0)
	r.seen++
	if r.probe != nil {
		r.probe(r.seen)
	}
}

// decorate wraps every layer of cfg with r's decorators.
func decorate(cfg sim.Config, r *recorder) sim.Config {
	cfg.Policy = &layerPolicy{p: cfg.Policy, r: r}
	cfg.Predictor = &layerPredictor{p: cfg.Predictor, r: r}
	if cfg.Corrector == nil {
		cfg.Corrector = correct.RequestedTime{}
	}
	cfg.Corrector = &layerCorrector{c: cfg.Corrector, r: r}
	if cfg.Sink != nil {
		cfg.Sink = &layerSink{s: cfg.Sink, r: r}
	}
	cfg.Profile = r.traced
	return cfg
}
