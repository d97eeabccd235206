package sim

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/correct"
	"repro/internal/eventq"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/swf"
)

// payload is the event-queue payload: a job for job events, a processor
// count for capacity events. Streaming cancellations carry the target's
// job ID instead of a pointer (the job may not have been pulled from the
// source yet); the handler resolves it through the engine's target map.
// cluster aims a Drain or Restore at one member of a federated platform
// (always 0 on single-machine runs).
type payload struct {
	j       *job.Job
	procs   int64
	id      int64
	cluster int
}

// cancelTarget is the bounded bookkeeping a streaming run keeps for each
// job named by the scenario's cancellation events — the only jobs whose
// identity must be tracked across the whole run. The map is sized by the
// script, not the trace, so it is part of the O(window) envelope.
type cancelTarget struct {
	// j is the live job once submitted, nil before submission and after
	// the job leaves the system (so retired jobs stay collectable).
	j *job.Job
	// bound marks that the stream delivered the job.
	bound bool
	// canceled / finished mirror the job's terminal state.
	canceled bool
	finished bool
}

// clusterState is the live state of one member of the platform: its
// machine, its waiting queue, and its own policy/predictor session. A
// classic single-machine run is exactly one clusterState — no name, no
// speed scaling, no per-cluster result slot — which is how the federated
// engine stays byte-identical to the historical single-machine one.
type clusterState struct {
	name  string
	speed float64

	machine   *platform.Machine
	queue     []*job.Job
	policy    sched.Policy
	predictor predict.Predictor

	// sub points at this cluster's slot on Result.Clusters, nil on
	// single-machine runs (whose counters live on the Result alone).
	sub *ClusterResult
}

// dequeue removes j from the cluster's waiting queue, reporting whether
// it was there.
func (c *clusterState) dequeue(j *job.Job) bool {
	for i, qj := range c.queue {
		if qj == j {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return true
		}
	}
	return false
}

// engine is the shared event core all drivers run: every entry point
// initializes one (single, FederatedConfig.setup), seeds its event queue
// (preload, pushScript) and hands it to run, which tops the queue up
// from the run's intake (a submission source or live commands) and
// feeds popped events to handle. All scheduling semantics live here so
// the paths cannot drift. The engine drives one event loop over N
// independent cluster states; every event affects exactly one cluster,
// and only that cluster's policy is offered start decisions at the
// event's instant.
type engine struct {
	corrector correct.Corrector
	clusters  []*clusterState
	// router picks the destination cluster at submit time. Non-nil only
	// on federated runs; single-machine runs dispatch every job to
	// clusters[0] without consulting anything.
	router sched.Router
	// views is the router's reusable read-only snapshot of the clusters.
	views []sched.ClusterState
	q     eventq.Queue[payload]
	sink  JobSink
	res   *Result
	// targets is non-nil only on live runs and on streaming runs with a
	// cancellation script (a lookup in the nil map finds nothing, so
	// preloading runs track no job); see cancelTarget.
	targets map[int64]*cancelTarget
	// arena, when non-nil (streaming runs), recycles a job's slot after
	// its natural completion retires it. Only the Finish path recycles:
	// a killed job may still have its original Finish event (and stale
	// expiries) queued, so its slot must stay untouched until the run
	// ends. A naturally finished job has no queued events left — every
	// expiry instant is strictly before the completion instant — and by
	// the JobSink contract no observer retains the pointer.
	arena *job.Arena
	// widest is the widest cluster's processor count: the admission
	// bound for any job.
	widest int64
	// intake names a pulled run's intake ("stream" or "live") in its
	// errors; lastSubmit is the admission-order watermark (see admit).
	intake     string
	lastSubmit int64
	// cutoff is a live run's advance promise (see run and RunLive); it
	// stays at math.MinInt64 on every other run.
	cutoff int64
	// start is the run's wall-clock start, for Perf.WallNanos.
	start time.Time

	// Flight-recorder state (trace.go). tracer and prof are nil on
	// unobserved runs; timed caches whether either is live so the hot
	// loop pays one branch, no clock reads and no allocations when off.
	tracer  obs.Tracer
	prof    *obs.StageProfile
	timed   bool
	eligIdx []int
	elig    []string
}

// init starts a run's engine with no clusters yet; addCluster builds
// the platform. A nil router makes the run single-machine. Drivers keep
// the engine in their own frame (it never escapes to the heap).
func (e *engine) init(res *Result, router sched.Router, sink JobSink, tracer obs.Tracer, profile bool) {
	*e = engine{
		router:     router,
		sink:       sink,
		res:        res,
		lastSubmit: math.MinInt64,
		cutoff:     math.MinInt64,
		start:      time.Now(),
	}
	e.instrument(tracer, profile)
}

// addCluster appends one member to the platform, running cfg's policy
// and predictor. sub is the member's slot on Result.Clusters, nil on
// single-machine runs.
func (e *engine) addCluster(c platform.Cluster, cfg Config, sub *ClusterResult) {
	e.clusters = append(e.clusters, &clusterState{
		name:      c.Name,
		speed:     c.SpeedFactor(),
		machine:   platform.New(c.Procs),
		queue:     make([]*job.Job, 0, 64),
		policy:    cfg.Policy,
		predictor: cfg.Predictor,
		sub:       sub,
	})
	if c.Procs > e.widest {
		e.widest = c.Procs
	}
}

// tooWide is the admission error for a job no cluster can ever hold.
func (e *engine) tooWide(rec *swf.Job) error {
	if e.router == nil {
		return fmt.Errorf("sim: job %d wider (%d) than machine (%d)", rec.JobNumber, rec.Procs(), e.widest)
	}
	return fmt.Errorf("sim: job %d wider (%d) than every cluster (widest %d)", rec.JobNumber, rec.Procs(), e.widest)
}

// run pops events until the queue drains and the intake closes, then
// checks that every job left the system and closes the Result. A nil
// next means a preloaded run: every event is queued already. Otherwise,
// before each pop, run tops the queue up from the intake — next pulls
// the next item and returns the instant it takes effect, apply pushes
// its events — so everything taking effect at or before the next
// event's instant is in the queue before that event pops (the kind
// order then serializes the instant correctly).
func (e *engine) run(next func() (int64, error), apply func() error) (*Result, error) {
	var at int64
	pending, closed := false, next == nil
	for {
		for !closed {
			if !pending {
				// Pull only when the queue cannot safely progress
				// without the next item: the head sits at or past the
				// advance cutoff (always, except on live runs).
				if t, ok := e.q.PeekTime(); ok && t < e.cutoff {
					break
				}
				t, err := next()
				if err == io.EOF {
					closed = true
					break
				}
				if err != nil {
					return nil, fmt.Errorf("sim: %s %q: %w", e.intake, e.res.Workload, err)
				}
				at, pending = t, true
			}
			if t, ok := e.q.PeekTime(); ok && at > t {
				break
			}
			if err := apply(); err != nil {
				return nil, err
			}
			pending = false
		}

		// The top-up loop only stops early with a non-empty queue, so
		// an empty queue here means the intake is closed too.
		ev, ok := e.pop()
		if !ok {
			break
		}
		e.res.Perf.Events++
		e.handle(ev)
	}

	for _, c := range e.clusters {
		if n := len(c.queue); n != 0 {
			return nil, fmt.Errorf("sim: %d jobs never started (first: %d) — was every drain restored?", n, c.queue[0].ID)
		}
		if n := c.machine.RunningCount(); n != 0 {
			return nil, fmt.Errorf("sim: %d jobs still running after the event queue drained", n)
		}
	}
	// A single-cluster federation surfaces its sole capacity timeline at
	// the Result level, exactly where a single-machine run records it.
	if res := e.res; len(res.Clusters) == 1 && len(res.Clusters[0].CapacitySteps) > 0 {
		res.CapacitySteps = append([]CapacityStep(nil), res.Clusters[0].CapacitySteps...)
	}
	e.finishProfile()
	e.res.Perf.WallNanos = time.Since(e.start).Nanoseconds()
	return e.res, nil
}

// scaleTime converts a reference-speed duration to a cluster running at
// the given speed factor: ceil(x/speed), never rounding a positive
// duration down to zero.
func scaleTime(x int64, speed float64) int64 {
	if x <= 0 {
		return x
	}
	s := int64(math.Ceil(float64(x) / speed))
	if s < 1 {
		s = 1
	}
	return s
}

// recordCapacity appends to the cluster's realized capacity timeline,
// collapsing multiple changes at one instant into the last. Federated
// runs record onto the per-cluster result; single-machine runs onto the
// Result's own timeline, as they always have.
func (e *engine) recordCapacity(c *clusterState, now int64) {
	steps := &e.res.CapacitySteps
	if c.sub != nil {
		steps = &c.sub.CapacitySteps
	}
	cp := c.machine.Capacity()
	if n := len(*steps); n > 0 && (*steps)[n-1].At == now {
		(*steps)[n-1].Capacity = cp
		return
	}
	*steps = append(*steps, CapacityStep{At: now, Capacity: cp})
}

// route picks the destination cluster for a submission. Single-machine
// runs (nil router) dispatch to the sole cluster with the job untouched
// — the identity the differential tests pin. Federated runs consult the
// router over a fresh snapshot, stamp the job with its destination, and
// scale its runtime and kill bound by the cluster's speed factor.
func (e *engine) route(j *job.Job, now int64) *clusterState {
	if e.router == nil {
		return e.clusters[0]
	}
	for i, cs := range e.clusters {
		e.views[i] = sched.ClusterState{Name: cs.name, Machine: cs.machine, QueueLen: len(cs.queue)}
	}
	pick := e.router.Route(j, now, e.views)
	if pick < 0 || pick >= len(e.clusters) || e.clusters[pick].machine.Total() < j.Procs {
		panic(fmt.Sprintf("sim: router %s sent job %d (%d procs) to invalid cluster %d",
			e.router.Name(), j.ID, j.Procs, pick))
	}
	c := e.clusters[pick]
	j.Cluster = pick
	if c.sub != nil {
		c.sub.Routed++
	}
	if e.tracer != nil {
		e.traceRoute(c, j, now)
	}
	if c.speed != 1 {
		j.Runtime = scaleTime(j.Runtime, c.speed)
		j.Request = scaleTime(j.Request, c.speed)
	}
	return c
}

func (e *engine) startJob(c *clusterState, j *job.Job, now int64) {
	j.Started = true
	j.Start = now
	c.machine.Start(j)
	c.predictor.OnStart(j, now)
	c.policy.OnStart(j, now)
	if e.tracer != nil {
		e.traceStart(c, j, now)
	}
	e.q.Push(now+j.Runtime, eventq.Finish, payload{j: j})
	if j.Prediction < j.Runtime {
		e.q.Push(now+j.Prediction, eventq.Expiry, payload{j: j})
	}
}

func (e *engine) schedulePass(c *clusterState, now int64) {
	for {
		e.res.Perf.PickCalls++
		if c.sub != nil {
			c.sub.PickCalls++
		}
		var next *job.Job
		if !e.timed {
			next = c.policy.Pick(now, c.machine, c.queue)
		} else {
			t0 := time.Now()
			next = c.policy.Pick(now, c.machine, c.queue)
			ns := time.Since(t0).Nanoseconds()
			if e.prof != nil {
				e.prof.Observe(obs.StagePick, ns)
			}
			if e.tracer != nil {
				e.tracePick(c, now, next, len(c.queue), ns)
			}
		}
		if next == nil {
			return
		}
		if !c.dequeue(next) {
			panic(fmt.Sprintf("sim: policy %s picked job %d not in queue", c.policy.Name(), next.ID))
		}
		e.startJob(c, next, now)
	}
}

// complete takes a running job out of the system at now: it frees the
// processors, records the realized schedule and folds it into the
// global and per-cluster makespans, notifies the predictor and the
// policy, and retires the job. A killed job (a cancellation) ran
// for exactly now-Start seconds, which becomes its realized runtime, and
// reaches the policy through OnCancel instead of OnFinish.
func (e *engine) complete(c *clusterState, j *job.Job, now int64, killed bool) {
	before := c.machine.Capacity()
	c.machine.Finish(j)
	j.Finished = true
	j.End = now
	if killed {
		j.Runtime = now - j.Start
	}
	if now > e.res.Makespan {
		e.res.Makespan = now
	}
	if c.sub != nil && now > c.sub.Makespan {
		c.sub.Makespan = now
	}
	e.observeFinish(c, j, now)
	if killed {
		c.policy.OnCancel(j, now)
	} else {
		c.policy.OnFinish(j, now)
	}
	if e.tracer != nil {
		// A killed job still retires with a realized schedule; the
		// finish event carries it, like the sink observation does.
		e.traceFinish(c, j, now)
	}
	// A pending drain absorbing part of the release is a capacity change.
	if c.machine.Capacity() != before {
		e.recordCapacity(c, now)
		if e.tracer != nil {
			e.traceCapacity(c, now, 0)
		}
		c.policy.OnCapacityChange(now, c.machine)
	}
	// Retire: count the exit, close the cancel bookkeeping (if any) so
	// the pointer can be collected, and let the sink observe the
	// realized schedule.
	e.res.Finished++
	if c.sub != nil {
		c.sub.Finished++
	}
	if tgt := e.targets[j.ID]; tgt != nil {
		tgt.finished = true
		tgt.j = nil
	}
	if e.sink != nil {
		e.sink.Observe(j)
	}
}

// handle processes one popped event and, unless the event was stale,
// runs the affected cluster's scheduling pass at its instant. The branch
// structure mirrors the paper's same-instant semantics; see the package
// comment.
func (e *engine) handle(ev eventq.Event[payload]) {
	now := ev.Time
	var c *clusterState
	switch ev.Kind {
	case eventq.Submit:
		j := ev.Payload.j
		if j.Canceled {
			return // canceled before submission: never enters the system
		}
		c = e.route(j, now)
		j.Prediction = j.ClampPrediction(c.predictor.Predict(j, now))
		j.SubmitPrediction = j.Prediction
		c.predictor.OnSubmit(j, now)
		c.queue = append(c.queue, j)
		c.policy.OnSubmit(j, now)
		if e.tracer != nil {
			e.traceSubmit(c, j, now)
		}
	case eventq.Finish:
		j := ev.Payload.j
		if j.Finished {
			return // stale: the job was killed by a cancellation
		}
		c = e.clusters[j.Cluster]
		e.complete(c, j, now, false)
		if e.arena != nil {
			e.arena.Recycle(j)
		}
	case eventq.Cancel:
		var runPass bool
		c, runPass = e.handleCancel(ev.Payload, now)
		if !runPass {
			return
		}
	case eventq.Drain, eventq.Restore:
		c = e.clusters[ev.Payload.cluster]
		before := c.machine.Capacity()
		delta := ev.Payload.procs
		if ev.Kind == eventq.Drain {
			c.machine.Drain(delta)
			delta = -delta
		} else {
			c.machine.Restore(delta)
		}
		if c.machine.Capacity() != before {
			e.recordCapacity(c, now)
		}
		if e.tracer != nil {
			// Traced even when a drain is fully pending: the eventual
			// capacity changed, which is what planning views react to.
			e.traceCapacity(c, now, delta)
		}
		// Even a fully pending drain changes the eventual capacity
		// every availability view plans against.
		c.policy.OnCapacityChange(now, c.machine)
	case eventq.Expiry:
		j := ev.Payload.j
		if j.Finished || !j.Started {
			return // stale: the job completed at this same instant or earlier
		}
		if j.PredictedEnd() > now {
			return // stale: a correction already extended the prediction
		}
		c = e.clusters[j.Cluster]
		elapsed := now - j.Start
		next := e.corrector.Correct(elapsed, j.Request, j.Corrections)
		next = j.ClampPrediction(next)
		if next <= elapsed {
			// Progress guard: a correction that does not extend the
			// prediction would loop; push it just past the present.
			next = elapsed + 1
			if next > j.Request {
				next = j.Request
			}
		}
		j.Prediction = next
		j.Corrections++
		e.res.Corrections++
		if c.sub != nil {
			c.sub.Corrections++
		}
		c.policy.OnExpiry(j, now)
		if e.tracer != nil {
			e.traceCorrect(c, j, now)
		}
		if j.PredictedEnd() < j.Start+j.Runtime {
			e.q.Push(j.PredictedEnd(), eventq.Expiry, payload{j: j})
		}
	}
	if c.sub != nil {
		c.sub.Events++
	}
	e.schedulePass(c, now)
}

// handleCancel removes a job from the system — before submission, from
// its cluster's queue, or killing it mid-run — and reports the affected
// cluster and whether the scheduling pass should run (false only for
// stale cancellations).
func (e *engine) handleCancel(p payload, now int64) (c *clusterState, runPass bool) {
	j := p.j
	if j == nil {
		// Streaming: resolve the target by ID. An unbound entry is a job
		// the source has not delivered yet (or never will): mark it so a
		// later submission is dropped on arrival — the preloading path's
		// "canceled before submission".
		tgt := e.targets[p.id]
		if tgt == nil || tgt.finished || tgt.canceled {
			return nil, false
		}
		if tgt.j == nil {
			tgt.canceled = true
			// The job was never routed, so no cluster state changed; the
			// pass runs where a single-machine run would run it.
			return e.clusters[0], true
		}
		j = tgt.j
	}
	if j.Finished || j.Canceled {
		return nil, false // stale: already completed or already canceled
	}
	j.Canceled = true
	e.res.Canceled++
	if tgt := e.targets[j.ID]; tgt != nil {
		tgt.canceled = true
	}
	c = e.clusters[j.Cluster]
	if e.tracer != nil && j.Started {
		e.traceCancel(c, j, now)
	}
	if j.Started {
		// Kill the running job: it occupied the machine for exactly
		// now-Start seconds, which becomes its realized runtime.
		if c.sub != nil {
			c.sub.Canceled++
		}
		e.complete(c, j, now, true)
		return c, true
	}
	// Still waiting (or, if absent from the queue, not yet submitted —
	// the Submit event will observe Canceled). A queued job was routed,
	// so its cluster index is authoritative; an unrouted one leaves no
	// per-cluster trace.
	removed := c.dequeue(j)
	if removed {
		c.policy.OnCancel(j, now)
		if c.sub != nil {
			c.sub.Canceled++
		}
	}
	if e.tracer != nil {
		// A queued job's cluster is authoritative; an unsubmitted one
		// belongs to none yet.
		if removed {
			e.traceCancel(c, j, now)
		} else {
			e.traceCancel(nil, j, now)
		}
	}
	if tgt := e.targets[j.ID]; tgt != nil {
		tgt.j = nil // never runs; release the pointer
	}
	return c, true
}
