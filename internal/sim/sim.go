// Package sim is the discrete-event scheduling simulator (the Go
// equivalent of the pyss fork the paper used). It replays a workload
// through a scheduling policy wired to a prediction technique and a
// correction mechanism — one "heuristic triple" — and records the
// realized schedule for metric computation.
//
// Event semantics follow Section 5: predictions are made once at
// submission; when a running job outlives its prediction, an expiry
// event fires and the correction mechanism supplies a new total-runtime
// estimate (bounded by the requested time); completions, disruptions,
// expiries and submissions at the same instant are processed in that
// order; after every event the policy is offered start decisions until
// it declines. The policy is driven through its lifecycle hooks
// (OnSubmit/OnStart/OnFinish/OnExpiry/OnCancel/OnCapacityChange) in
// lockstep with the machine so stateful policies can maintain
// incremental acceleration structures across decisions.
//
// Beyond the paper's static testbed, a Config may carry a
// scenario.Script of timed disruptions: node drains and restores make
// the available capacity a step function of time (drains are graceful —
// running jobs are never killed by a capacity change), and cancellations
// remove jobs wherever they are — before submission, in the queue, or
// running. The realized capacity timeline is recorded on the Result so
// validation can check the schedule against it.
//
// Five entry points share one event core and one run loop (engine.go),
// differing only in how they build and feed it. Run preloads a
// trace.Workload and retains every job on the Result — the validating,
// table-producing path — while RunStream (stream.go) pulls submissions
// lazily from a workload.Source and retires finished jobs into a
// JobSink, keeping peak memory O(live jobs + window) regardless of trace
// length; RunFederated and RunFederatedStream (federated.go) are the
// same two paths over N cluster states behind a sched.Router consulted
// once per job at submission, a single machine being the one-cluster
// case without a router; and RunLive (live.go) feeds the loop an
// external command stream — submissions, cancellations and capacity
// changes from live clients, sequenced by internal/schedd — with advance
// promises standing in for the script's complete knowledge of the
// future. A differential test harness (stream_diff_test.go,
// federated_diff_test.go, live_diff_test.go) holds every driver to
// decision-identical schedules.
//
// # Determinism invariants
//
// Every driver is deterministic given (workload, config, script): no
// map iteration order, goroutine schedule or wall clock leaks into a
// decision. The invariants that guarantee it:
//
//   - Same-instant ordering. Events at one instant are processed in
//     eventq's fixed kind order (completions, cancellations, capacity
//     changes, expiries, submissions) and, within a kind, insertion
//     order — see the eventq package comment.
//   - Canonical tie-breaks. Wherever the engine or a policy must order
//     jobs, ties fall back to the unique job ID (e.g. the machine's
//     predicted-release order is (instant, ID)), so no two orderings
//     are ever "equal".
//   - Router sequencing. Federated drivers consult the router once per
//     job in trace submission order, against cluster states that have
//     advanced exactly to that job's submission instant.
package sim

import (
	"fmt"
	"time"

	"repro/internal/correct"
	"repro/internal/eventq"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/predict"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Config is one heuristic triple plus the workload-independent knobs.
type Config struct {
	// Policy is the backfilling variant.
	Policy sched.Policy
	// Predictor is the running-time prediction technique.
	Predictor predict.Predictor
	// Corrector handles expired predictions. Nil defaults to
	// correct.RequestedTime (fall back to the user estimate).
	Corrector correct.Corrector
	// Script optionally injects timed disruptions (node drains and
	// restores, job cancellations) into the event loop. Nil or empty
	// reproduces the static machine exactly.
	Script *scenario.Script
	// Sink, when non-nil, observes every job that finishes (normally or
	// killed by a cancellation), exactly once, in event order, with its
	// realized schedule filled in. It is how streaming runs compute
	// metrics without retaining jobs; the preloading driver honors it
	// too, so the two paths feed identical observation sequences.
	Sink JobSink
	// Tracer, when non-nil, receives a structured flight-recorder event
	// for every scheduling decision (see internal/obs). Tracing is pure
	// observation: a traced run makes byte-identical decisions to an
	// untraced one (trace_diff_test.go), and a nil Tracer costs nothing
	// on the hot path.
	Tracer obs.Tracer
	// Profile, when true, collects per-stage latency histograms (event
	// pop, policy Pick, predictor profile update) into
	// Result.Perf.Stages using bounded quantile sketches.
	Profile bool
}

// JobSink receives finished jobs as the simulation retires them. Jobs a
// scenario canceled before they ever ran are not observed (they have no
// realized schedule), matching the population the batch metrics use.
type JobSink interface {
	Observe(j *job.Job)
}

// Name renders the triple as "policy/predictor/corrector".
func (c Config) Name() string {
	corr := c.Corrector
	if corr == nil {
		corr = correct.RequestedTime{}
	}
	return c.Policy.Name() + "/" + c.Predictor.Name() + "/" + corr.Name()
}

// CapacityStep is one breakpoint of the realized capacity timeline: the
// in-service processor count from At onward.
type CapacityStep struct {
	At       int64
	Capacity int64
}

// Perf aggregates cheap per-run performance counters. They cost two
// increments per event on the hot loop and one clock read per run, and
// they turn every campaign into a performance record: carried through
// campaign.RunResult into the result journal, they give CI and
// operators a per-cell view of how much work the engine did and how
// fast. Events and PickCalls are deterministic for a given (workload,
// config); WallNanos is wall-clock and varies run to run.
type Perf struct {
	// Events is the number of events popped from the event queue.
	Events int64 `json:"events"`
	// PickCalls is the number of policy Pick invocations (the
	// scheduler hot path).
	PickCalls int64 `json:"pick_calls"`
	// WallNanos is the wall-clock duration of the simulation in
	// nanoseconds.
	WallNanos int64 `json:"wall_nanos"`
	// Stages holds per-stage latency summaries when profiling was
	// enabled (Config.Profile), nil otherwise — so journals from
	// unprofiled runs are byte-for-byte what they always were.
	Stages []obs.StagePerf `json:"stages,omitempty"`
}

// Wall returns the simulation wall time as a Duration.
func (p Perf) Wall() time.Duration { return time.Duration(p.WallNanos) }

// Result is the realized schedule of one simulation.
type Result struct {
	// Triple names the heuristic triple that produced the schedule.
	Triple string
	// Workload names the input workload.
	Workload string
	// Scenario names the disruption script, if any.
	Scenario string
	// MaxProcs is the nominal machine size.
	MaxProcs int64
	// Jobs holds every job with Start/End/Prediction state filled in,
	// in submission order. Canceled jobs that never ran keep
	// Started == false. Nil on a streamed run (Streamed is true):
	// bounded-memory runs observe jobs through Config.Sink instead of
	// retaining them.
	Jobs []*job.Job
	// Streamed marks a bounded-memory RunStream result: Jobs is nil and
	// per-job analyses must come from the Config.Sink observer.
	Streamed bool
	// Finished counts the jobs that completed (including jobs killed
	// mid-run by a cancellation).
	Finished int
	// Corrections is the total number of prediction-expiry corrections.
	Corrections int
	// Canceled is the number of jobs removed by scenario cancellations.
	Canceled int
	// CapacitySteps records the realized capacity step function: one
	// entry per instant the in-service processor count changed. Empty
	// means the capacity stayed at MaxProcs throughout. On a federated
	// run this is set only for single-cluster platforms (where it equals
	// the sole cluster's timeline); multi-cluster timelines live on
	// Clusters.
	CapacitySteps []CapacityStep
	// Makespan is the completion time of the last job.
	Makespan int64
	// Routing names the routing policy of a federated run, "" on classic
	// single-machine runs.
	Routing string
	// Clusters holds the per-cluster results of a federated run in
	// platform order, nil on classic single-machine runs. MaxProcs is
	// then the federation's total processor count.
	Clusters []ClusterResult
	// Perf holds the run's performance counters.
	Perf Perf
}

// ClusterResult is one cluster's slice of a federated Result: the
// counters and capacity timeline of the jobs routed to it.
type ClusterResult struct {
	// Name labels the cluster (platform.Cluster.Name).
	Name string
	// MaxProcs is the cluster's nominal processor count.
	MaxProcs int64
	// Speed is the cluster's resolved speed factor.
	Speed float64
	// Routed counts the jobs the router dispatched to this cluster.
	Routed int
	// Finished counts the routed jobs that completed (including jobs
	// killed mid-run by a cancellation).
	Finished int
	// Canceled counts scenario cancellations of jobs routed here (jobs
	// canceled before routing belong to no cluster).
	Canceled int
	// Corrections is the number of prediction-expiry corrections on
	// this cluster.
	Corrections int
	// Events counts the handled events that ran this cluster's
	// scheduling pass (deterministic, like Perf.Events).
	Events int64
	// PickCalls counts policy Pick invocations on this cluster — the
	// per-cluster slice of Perf.PickCalls.
	PickCalls int64
	// CapacitySteps is the cluster's realized capacity step function.
	CapacitySteps []CapacityStep
	// Makespan is the completion time of the cluster's last job.
	Makespan int64
}

// Run simulates the workload under the given configuration, preloading
// every job and retaining the full realized schedule on the Result. It
// returns an error only for structurally impossible inputs;
// scheduling-logic violations (overbooking, double starts) panic, since
// they are bugs. For bounded-memory replay of huge traces see RunStream.
func Run(w *trace.Workload, cfg Config) (*Result, error) {
	var e engine
	if err := e.single(w.Name, w.MaxProcs, cfg); err != nil {
		return nil, err
	}
	return e.preload(w, cfg.Script)
}

// single initializes the engine of a single-machine run: the
// one-cluster special case of FederatedConfig.setup, with no router, no
// cluster name and no per-cluster result slot.
func (e *engine) single(name string, maxProcs int64, cfg Config) error {
	corrector, err := checkConfig(cfg)
	if err != nil {
		return err
	}
	e.init(&Result{Triple: cfg.Name(), Workload: name, MaxProcs: maxProcs}, nil, cfg.Sink, cfg.Tracer, cfg.Profile)
	e.corrector = corrector
	e.addCluster(platform.Cluster{Procs: maxProcs}, cfg, nil)
	return nil
}

// preload queues every job of w and the script up front and runs to
// completion, retaining the jobs on Result.Jobs in submission order.
func (e *engine) preload(w *trace.Workload, script *scenario.Script) (*Result, error) {
	// One slab holds every runtime job: the preloading path retains them
	// all on the Result anyway, so allocating them individually only
	// fragments the heap and costs one allocation per job. (The
	// recycling arena is for streamed runs only: a retained job must
	// never be reused.)
	slab := make([]job.Job, len(w.Jobs))
	jobs := make([]*job.Job, len(w.Jobs))
	e.res.Jobs = jobs
	// The queue holds all n submissions up front plus the live jobs'
	// finish/expiry events; reserving once avoids every growth copy.
	e.q.Reserve(len(w.Jobs) + 64)
	for i := range w.Jobs {
		r := &w.Jobs[i]
		if r.Procs() > e.widest {
			return nil, e.tooWide(r)
		}
		j := &slab[i]
		job.FromSWFInto(j, r)
		jobs[i] = j
		e.q.Push(j.Submit, eventq.Submit, payload{j: j})
	}
	// Cancellations resolve against the workload's IDs at setup; the ID
	// index is built only when there is a script to name a job.
	var byID map[int64]*job.Job
	if !script.Empty() {
		byID = make(map[int64]*job.Job, len(jobs))
		for _, j := range jobs {
			byID[j.ID] = j
		}
	}
	if err := e.pushScript(script, byID); err != nil {
		return nil, err
	}
	return e.run(nil, nil)
}

// checkConfig validates the triple and resolves the default corrector.
func checkConfig(cfg Config) (correct.Corrector, error) {
	if cfg.Policy == nil || cfg.Predictor == nil {
		return nil, fmt.Errorf("sim: policy and predictor are required")
	}
	if cfg.Corrector == nil {
		return correct.RequestedTime{}, nil
	}
	return cfg.Corrector, nil
}
