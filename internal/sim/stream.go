package sim

import (
	"fmt"

	"repro/internal/eventq"
	"repro/internal/job"
	"repro/internal/scenario"
	"repro/internal/swf"
	"repro/internal/workload"
)

// RunStream simulates a lazily pulled workload in bounded memory: peak
// heap is O(live jobs + window) — queued and running jobs, their pending
// events, the scenario script and per-user predictor state — instead of
// O(trace). Submissions are pulled from src exactly when the event clock
// reaches them, and finished jobs are handed to cfg.Sink and forgotten,
// so Result.Jobs stays nil (Result.Streamed is set).
//
// The source must yield jobs in nondecreasing SubmitTime order (all
// workload.Source implementations do); an out-of-order record is an
// error. Decisions, metrics observations and the Result counters are
// identical to Run on the same job sequence — the property
// stream_diff_test.go enforces across presets, policies and disruption
// scripts. One deliberate exception: a script cancellation naming a job
// the source never delivers (possible for scripts derived from a raw
// log) still pops here — the stream cannot know the ID is absent, while
// Run drops it at setup — so Perf.Events/PickCalls may exceed Run's by
// those benign pops; decisions and metrics are unaffected (the extra
// scheduling pass sees unchanged state and starts nothing).
func RunStream(name string, maxProcs int64, src workload.Source, cfg Config) (*Result, error) {
	if maxProcs <= 0 {
		return nil, fmt.Errorf("sim: stream %q: machine size %d must be positive", name, maxProcs)
	}
	var e engine
	if err := e.single(name, maxProcs, cfg); err != nil {
		return nil, err
	}
	return e.stream(src, cfg.Script)
}

// stream runs the engine over a lazily pulled source. Scenario events
// enter the queue up front, exactly as on the preloading path —
// same-instant ordering between same-kind events is script order either
// way. Cancellations are keyed by job ID and resolved against the
// bounded target map when they fire.
func (e *engine) stream(src workload.Source, script *scenario.Script) (*Result, error) {
	if src == nil {
		return nil, fmt.Errorf("sim: stream %q: nil source", e.res.Workload)
	}
	e.res.Streamed = true
	e.intake = "stream"
	e.arena = new(job.Arena)
	if err := e.pushScript(script, nil); err != nil {
		return nil, err
	}
	var rec swf.Job
	next := func() (int64, error) {
		var err error
		rec, err = src.NextJob()
		return rec.SubmitTime, err
	}
	return e.run(next, func() error {
		_, err := e.admit(&rec)
		return err
	})
}

// admit turns the next source record into a live job and schedules its
// submission. It runs when the event clock is about to reach the
// record's submit instant, so every pushed event is in the future.
func (e *engine) admit(rec *swf.Job) (*job.Job, error) {
	if rec.Procs() > e.widest {
		return nil, e.tooWide(rec)
	}
	if rec.SubmitTime < e.lastSubmit {
		return nil, fmt.Errorf("sim: %s %q not submit-ordered: job %d at %d after %d", e.intake, e.res.Workload, rec.JobNumber, rec.SubmitTime, e.lastSubmit)
	}
	e.lastSubmit = rec.SubmitTime
	// The arena copies the record into the job's slot; the slot is
	// recycled when the job retires, so a steady-state stream allocates
	// nothing per admission.
	j := e.arena.New(rec)
	if tgt := e.targets[j.ID]; tgt != nil {
		if tgt.bound {
			return nil, fmt.Errorf("sim: %s %q: duplicate job id %d targeted by a cancellation", e.intake, e.res.Workload, j.ID)
		}
		tgt.bound = true
		if tgt.canceled {
			// Canceled before submission: count it now (the cancel
			// event fired before the job existed) and let the Submit
			// event drop it, as the preloading path does.
			j.Canceled = true
			e.res.Canceled++
		} else {
			tgt.j = j
		}
	}
	e.q.Push(j.Submit, eventq.Submit, payload{j: j})
	return j, nil
}
