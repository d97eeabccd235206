package sched

import (
	"slices"
	"testing"

	"repro/internal/job"
	"repro/internal/platform"
)

// The tests here pin the lazy conservative scan: a queued job is placed
// only when it or a job behind it could start now, and OnSubmit defers,
// extends or invalidates the per-instant cache. Every decision is
// checked against ReferenceConservative, which places every queued job.

// lockstep drives an incremental Conservative through the engine's hook
// protocol — append then OnSubmit, remove then OnStart — and checks
// every Pick against ReferenceConservative on the same machine and
// queue.
type lockstep struct {
	t *testing.T
	m *platform.Machine
	c *Conservative
	q []*job.Job
}

func newLockstep(t *testing.T, m *platform.Machine) *lockstep {
	return &lockstep{t: t, m: m, c: NewConservative()}
}

func jobID(j *job.Job) int64 {
	if j == nil {
		return -1
	}
	return j.ID
}

func (l *lockstep) submit(j *job.Job, now int64) {
	l.q = append(l.q, j)
	l.c.OnSubmit(j, now)
}

// pass runs one scheduling pass at now and returns the IDs it started,
// in start order.
func (l *lockstep) pass(now int64) []int64 {
	l.t.Helper()
	var started []int64
	for {
		got := l.c.Pick(now, l.m, l.q)
		want := ReferenceConservative{}.Pick(now, l.m, l.q)
		if got != want {
			l.t.Fatalf("t=%d after starting %v: incremental picks job %d, reference job %d",
				now, started, jobID(got), jobID(want))
		}
		if got == nil {
			return started
		}
		l.q = slices.DeleteFunc(l.q, func(j *job.Job) bool { return j == got })
		got.Started, got.Start = true, now
		l.m.Start(got)
		l.c.OnStart(got, now)
		started = append(started, got.ID)
	}
}

func (l *lockstep) finish(j *job.Job, now int64) {
	before := l.m.Capacity()
	l.m.Finish(j)
	j.Finished, j.End = true, now
	l.c.OnFinish(j, now)
	if l.m.Capacity() != before {
		l.c.OnCapacityChange(now, l.m) // a pending drain absorbed processors
	}
}

// lazyState asserts the scan bookkeeping after a hook.
func (l *lockstep) lazyState(step string, cacheOK bool, placed, seen int) {
	l.t.Helper()
	c := l.c
	if c.cacheOK != cacheOK || (cacheOK && (c.placed != placed || c.seen != seen)) {
		l.t.Fatalf("%s: cacheOK=%v placed=%d seen=%d, want cacheOK=%v placed=%d seen=%d",
			step, c.cacheOK, c.placed, c.seen, cacheOK, placed, seen)
	}
}

// lazyWorld is a 10-processor machine state at instant now whose
// running jobs all release by rel. Unless the world is degraded, 4
// processors are free at now, so a 4-wide job of length rel-now starts
// now beside an 8-wide job reserved from rel, while a longer one
// overlaps that reservation. Under a pending drain nothing is free
// (platform guarantees PendingDrain() > 0 implies Free() == 0), so every
// job fails the fits-now test and the lazy paths reduce to deferral.
type lazyWorld struct {
	name  string
	build func(m *platform.Machine) (now, rel int64, runners []*job.Job)
	fits  bool
}

var lazyWorlds = []lazyWorld{
	{"plain", func(m *platform.Machine) (int64, int64, []*job.Job) {
		return 0, 100, []*job.Job{running(m, 99, 6, 0, 100)}
	}, true},
	// The runner's prediction (end 50) is overdue at 60: the scan holds
	// its processors for the overlay [60, 61) only.
	{"overdue-overlay", func(m *platform.Machine) (int64, int64, []*job.Job) {
		return 60, 61, []*job.Job{running(m, 99, 6, 0, 50)}
	}, true},
	// A 4-processor drain takes the 2 idle processors and waits for 2
	// busy ones: the policy runs degraded, rebuilding at every Pick.
	{"degraded", func(m *platform.Machine) (int64, int64, []*job.Job) {
		a := running(m, 98, 6, 0, 100)
		b := running(m, 99, 2, 0, 300)
		m.Drain(4)
		return 0, 100, []*job.Job{a, b}
	}, false},
}

// runLazyScenario builds the world, runs the scenario at its instant,
// then finishes the runners at rel and checks the pass there too.
func runLazyScenario(t *testing.T, w lazyWorld, scenario func(l *lockstep, now, rel int64)) {
	m := platform.New(10)
	now, rel, runners := w.build(m)
	l := newLockstep(t, m)
	scenario(l, now, rel)
	if !w.fits && !l.c.degraded {
		t.Fatal("the degraded world did not put the policy in degraded mode")
	}
	for _, r := range runners {
		l.finish(r, rel)
	}
	l.pass(rel)
}

// TestConservativeLazySubmitDeferred: behind a deferred tail, a
// same-instant submission that cannot start now joins the tail without
// touching the cache.
func TestConservativeLazySubmitDeferred(t *testing.T) {
	for _, w := range lazyWorlds {
		t.Run(w.name, func(t *testing.T) {
			runLazyScenario(t, w, func(l *lockstep, now, rel int64) {
				l.submit(waiting(1, 8, now, 1000), now)
				if got := l.pass(now); len(got) != 0 {
					t.Fatalf("the 8-wide head started at %d: %v", now, got)
				}
				l.lazyState("head scanned", true, 0, 1)
				l.submit(waiting(2, 8, now, 10), now)
				l.lazyState("second wide job submitted", true, 0, 2)
				if got := l.pass(now); len(got) != 0 {
					t.Fatalf("a deferred job started: %v", got)
				}
			})
		})
	}
}

// TestConservativeLazySubmitBehindTail: a same-instant submission that
// fits now behind a deferred tail discards the cache, so the next Pick
// places the tail first. Whether the new job then starts depends on the
// tail's reservation.
func TestConservativeLazySubmitBehindTail(t *testing.T) {
	for _, w := range lazyWorlds {
		for _, tc := range []struct {
			name   string
			extra  int64 // prediction beyond rel-now
			starts bool
		}{{"starts", 0, true}, {"blocked", 100, false}} {
			t.Run(w.name+"/"+tc.name, func(t *testing.T) {
				runLazyScenario(t, w, func(l *lockstep, now, rel int64) {
					l.submit(waiting(1, 8, now, 1000), now)
					l.pass(now)
					l.lazyState("head scanned", true, 0, 1)
					l.submit(waiting(2, 4, now, rel-now+tc.extra), now)
					if !w.fits {
						l.lazyState("narrow job submitted", true, 0, 2)
					} else {
						l.lazyState("narrow job submitted", false, 0, 0)
					}
					got := l.pass(now)
					if want := w.fits && tc.starts; (len(got) == 1) != want {
						t.Fatalf("narrow job started: %v, want start %v", got, want)
					}
				})
			})
		}
	}
}

// TestConservativeLazyBlockedCandidate: a job that fits now on the
// partial profile makes the scan place the deferred jobs before it, and
// their reservation then blocks it — the case the fits-now test alone
// would get wrong.
func TestConservativeLazyBlockedCandidate(t *testing.T) {
	for _, w := range lazyWorlds {
		t.Run(w.name, func(t *testing.T) {
			runLazyScenario(t, w, func(l *lockstep, now, rel int64) {
				l.submit(waiting(1, 8, now, 1000), now)
				l.submit(waiting(2, 4, now, rel-now+100), now)
				l.submit(waiting(3, 8, now, 10), now)
				if got := l.pass(now); len(got) != 0 {
					t.Fatalf("the blocked candidate started: %v", got)
				}
				if w.fits {
					l.lazyState("scan", true, 2, 3) // head placed, candidate placed, tail deferred
				} else {
					l.lazyState("scan", true, 0, 3)
				}
			})
		})
	}
}

// TestConservativeLazySubmitExtends: with nothing deferred, a
// same-instant submission that fits now is placed at once and the cache
// stays valid.
func TestConservativeLazySubmitExtends(t *testing.T) {
	for _, w := range lazyWorlds {
		t.Run(w.name, func(t *testing.T) {
			runLazyScenario(t, w, func(l *lockstep, now, rel int64) {
				l.submit(waiting(1, 2, now, rel-now), now)
				got := l.pass(now)
				if w.fits {
					l.lazyState("first job started", true, 0, 0)
				} else {
					l.lazyState("first job deferred", true, 0, 1)
				}
				l.submit(waiting(2, 2, now, rel-now), now)
				if w.fits {
					l.lazyState("second job submitted", true, 1, 1)
				} else {
					l.lazyState("second job submitted", true, 0, 2)
				}
				got = append(got, l.pass(now)...)
				if w.fits != (len(got) == 2) {
					t.Fatalf("started %v at %d", got, now)
				}
			})
		})
	}
}

// TestConservativeLazyMatchesReferenceRandom drives random event
// sequences — same-instant bursts of submissions interleaved with
// passes, early and overdue completions, corrections, cancellations,
// drains and restores — and checks every decision against the
// reference.
func TestConservativeLazyMatchesReferenceRandom(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		state := uint64(seed) * 0x9e3779b97f4a7c15
		rnd := func(n int64) int64 {
			state = state*6364136223846793005 + 1442695040888963407
			return int64((state >> 33) % uint64(n))
		}
		m := platform.New(32)
		l := newLockstep(t, m)
		ends := map[int64]int64{} // running job -> realized end
		var now, nextID int64
		for step := 0; step < 400; step++ {
			now += rnd(3) * rnd(40) // a third of the steps stay at the same instant
			for _, j := range m.Running() {
				switch end := ends[j.ID]; {
				case end <= now:
					delete(ends, j.ID)
					l.finish(j, now)
				case j.PredictedEnd() <= now && rnd(2) == 0:
					j.Prediction = now - j.Start + 1 + rnd(50)
					l.c.OnExpiry(j, now)
				}
			}
			switch r := rnd(20); {
			case r == 0 && m.EventualCapacity() > 8:
				m.Drain(1 + rnd(8))
				l.c.OnCapacityChange(now, m)
			case r == 1 && m.Capacity() < m.Total():
				m.Restore(1 + rnd(8))
				l.c.OnCapacityChange(now, m)
			case r == 2 && len(l.q) > 0:
				i := rnd(int64(len(l.q)))
				j := l.q[i]
				l.q = slices.Delete(l.q, int(i), int(i)+1)
				j.Canceled = true
				l.c.OnCancel(j, now)
			}
			var started []int64
			for n := rnd(4); n > 0; n-- {
				nextID++
				l.submit(waiting(nextID, 1+rnd(16)*rnd(3), now, rnd(200)), now) // a zero prediction still reserves one second
				if rnd(2) == 0 {
					started = append(started, l.pass(now)...)
				}
			}
			for _, id := range append(started, l.pass(now)...) {
				ends[id] = now + 1 + rnd(300) // early, on time or overdue
			}
		}
	}
}

// TestConservativeLazyScanWork pins the work the lazy scan saves, in
// exact counts rather than time. The state is the saturated backlog of
// BenchmarkSchedPickConservative: a machine loaded to within 2% of
// capacity by jobs predicted to run far beyond the instants the test
// reaches, and a 1000-job queue in which nothing fits now. One narrow
// long job at queue position 10 fits the residual idle processors now
// but overlaps the reservations behind the running jobs, so a rescan
// one instant later must place exactly the 11 jobs up to it and leave
// the other 989 unplaced. A full-queue scan places all 1000.
func TestConservativeLazyScanWork(t *testing.T) {
	const (
		total    = 128
		queued   = 1000
		narrowAt = 10
		far      = int64(1) << 40
	)
	state := uint64(12345)
	rnd := func(n int64) int64 {
		state = state*6364136223846793005 + 1442695040888963407
		return int64((state >> 33) % uint64(n))
	}
	m := platform.New(total)
	var id int64
	for m.Free()*50 > m.Total() {
		id++
		procs := 1 + rnd(8)
		if procs > m.Free()-1 {
			procs = m.Free() - 1
		}
		running(m, id, procs, 0, far+rnd(100000))
	}
	free := m.Free()
	queue := make([]*job.Job, 0, queued)
	for len(queue) < queued {
		id++
		j := waiting(id, free+1+rnd(total-free), 0, 1+rnd(50000))
		switch len(queue) {
		case 0:
			j.Procs = total // reserved once every running job releases
		case narrowAt:
			j = waiting(id, free, 0, 2*far) // overlaps the head's reservation
		}
		queue = append(queue, j)
	}
	c := NewConservative()
	if got := c.Pick(1, m, queue); got != nil {
		t.Fatalf("job %d started in a saturated state", got.ID)
	}
	if got, want := c.Pick(2, m, queue), (ReferenceConservative{}).Pick(2, m, queue); got != want {
		t.Fatalf("incremental picks job %d, reference job %d", jobID(got), jobID(want))
	}
	if c.cacheNow != 2 || c.placed != narrowAt+1 || c.seen != queued {
		t.Fatalf("rescan at t=2 placed %d and decided %d of %d queued jobs, want %d and %d",
			c.placed, c.seen, queued, narrowAt+1, queued)
	}
}
