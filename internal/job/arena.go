package job

import "repro/internal/swf"

// arenaChunk is how many slots an Arena allocates at a time. Large
// enough that chunk allocation is negligible against the jobs simulated,
// small enough that an idle arena wastes little.
const arenaChunk = 1024

// slot pairs a runtime job with the SWF record it was built from, so one
// arena allocation covers both: the streaming admit path needs the
// record to outlive the source's buffer (Job.Record points at it), and
// keeping the pair adjacent preserves the pairing across recycling.
type slot struct {
	job Job
	rec swf.Job
}

// Arena is a slab allocator with a free list for the streaming engine's
// live-job window: New hands out a job built from an SWF record, Recycle
// returns a retired job's slot for reuse. After the warm-up chunks are
// in place a steady-state stream allocates nothing per job — peak arena
// size is the peak live-job count, not the trace length.
//
// The contract mirrors any free list: a recycled job must be completely
// out of the system — no queued event, no scheduler or predictor
// structure, and no sink may still hold the pointer — because its slot
// (including the paired SWF record) is overwritten by a later New. The
// sim package only recycles a job after its natural completion has
// retired it and its last queued event has been popped; see
// sim.JobSink's no-retention rule.
//
// The zero value is ready to use. An Arena is not safe for concurrent
// use.
type Arena struct {
	free  []*Job
	chunk []slot
	next  int
}

// New returns a job initialized from r. The record is copied into the
// job's slot and dst.Record points at that copy, so r may be reused by
// the caller immediately.
func (a *Arena) New(r *swf.Job) *Job {
	var j *Job
	var rec *swf.Job
	if n := len(a.free); n > 0 {
		j = a.free[n-1]
		a.free = a.free[:n-1]
		// A job built by New keeps pointing at its slot's record for
		// life (nothing reassigns Job.Record), so the paired record is
		// recoverable from the job itself.
		rec = j.Record
	} else {
		if a.next == len(a.chunk) {
			a.chunk = make([]slot, arenaChunk)
			a.next = 0
		}
		s := &a.chunk[a.next]
		a.next++
		j, rec = &s.job, &s.rec
	}
	*rec = *r
	FromSWFInto(j, rec)
	return j
}

// Recycle returns a job obtained from New to the free list. The caller
// asserts nothing in the system references j (or j.Record) anymore.
func (a *Arena) Recycle(j *Job) {
	a.free = append(a.free, j)
}
