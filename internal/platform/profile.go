package platform

import (
	"fmt"
	"sort"
)

// Profile is a piecewise-constant availability timeline: available[i]
// processors are free during [times[i], times[i+1]). The last segment
// extends to infinity. It supports the find-earliest-hole and reserve
// operations conservative backfilling needs, plus the incremental
// operations (Release, Advance, CopyFrom) that let a scheduler keep one
// profile alive across events instead of rebuilding it from scratch.
//
// All mutating operations reuse the profile's backing arrays: Advance
// compacts in place and CopyFrom/Reset recycle previously grown capacity,
// so a long-lived profile reaches a steady state where the hot path
// allocates nothing.
type Profile struct {
	times     []int64
	available []int64
	total     int64
}

// NewProfile creates a profile with all processors free from the given
// instant onward. A zero capacity is legal — it models a machine fully
// drained for maintenance, on which nothing can be placed — but a
// negative one is a bug.
func NewProfile(start int64, totalProcs int64) *Profile {
	if totalProcs < 0 {
		panic(fmt.Sprintf("platform: negative profile capacity %d", totalProcs))
	}
	return &Profile{times: []int64{start}, available: []int64{totalProcs}, total: totalProcs}
}

// ProfileFromMachine builds the availability profile implied by the
// machine's running jobs and their predicted completion times (overdue
// predictions release at ReleaseInstant), net of pending-drain
// absorption. See Machine.FillAvailability for the construction.
func ProfileFromMachine(m *Machine, now int64) *Profile {
	p := &Profile{}
	m.FillAvailability(p, now)
	return p
}

// Total returns the profile's capacity.
func (p *Profile) Total() int64 { return p.total }

// Start returns the first breakpoint (the profile's current origin).
func (p *Profile) Start() int64 { return p.times[0] }

// Reset reinitializes the profile to fully-free from start, keeping the
// backing arrays. Like NewProfile, a zero capacity is legal.
func (p *Profile) Reset(start, totalProcs int64) {
	if totalProcs < 0 {
		panic(fmt.Sprintf("platform: negative profile capacity %d", totalProcs))
	}
	p.times = append(p.times[:0], start)
	p.available = append(p.available[:0], totalProcs)
	p.total = totalProcs
}

// CopyFrom makes p an exact copy of src, reusing p's backing arrays. It
// is the cheap way to derive a scratch profile from a persistent one:
// one memcpy per call instead of one Reserve per running job.
func (p *Profile) CopyFrom(src *Profile) {
	p.times = append(p.times[:0], src.times...)
	p.available = append(p.available[:0], src.available...)
	p.total = src.total
}

// segmentAt returns the index of the segment containing t (t must be >=
// the profile start).
func (p *Profile) segmentAt(t int64) int {
	// Schedulers query the current instant, which Advance makes the
	// origin: answer segment 0 without a search.
	if t >= p.times[0] && (len(p.times) == 1 || t < p.times[1]) {
		return 0
	}
	// The first segment with times[i] > t, minus one.
	i := sort.Search(len(p.times), func(i int) bool { return p.times[i] > t })
	if i == 0 {
		panic(fmt.Sprintf("platform: time %d precedes profile start %d", t, p.times[0]))
	}
	return i - 1
}

// AvailableAt returns the free processors at instant t.
func (p *Profile) AvailableAt(t int64) int64 {
	return p.available[p.segmentAt(t)]
}

// split ensures a breakpoint exists exactly at t and returns its segment
// index.
func (p *Profile) split(t int64) int {
	i := p.segmentAt(t)
	if p.times[i] == t {
		return i
	}
	p.times = append(p.times, 0)
	p.available = append(p.available, 0)
	copy(p.times[i+2:], p.times[i+1:])
	copy(p.available[i+2:], p.available[i+1:])
	p.times[i+1] = t
	p.available[i+1] = p.available[i]
	return i + 1
}

// coalesce merges runs of equal-availability segments in the index range
// [lo, hi], keeping the profile minimal so scan costs do not grow with
// reservation churn. Indices are clamped to the valid range.
func (p *Profile) coalesce(lo, hi int) {
	if lo < 1 {
		lo = 1 // segment 0 is the origin and is never merged away
	}
	if hi >= len(p.times) {
		hi = len(p.times) - 1
	}
	if lo > hi {
		return
	}
	w := lo
	for r := lo; r <= hi; r++ {
		if p.available[r] == p.available[w-1] {
			continue // drop breakpoint r: same availability as its left neighbor
		}
		p.times[w] = p.times[r]
		p.available[w] = p.available[r]
		w++
	}
	if w <= hi {
		n := copy(p.times[w:], p.times[hi+1:])
		copy(p.available[w:], p.available[hi+1:])
		p.times = p.times[:w+n]
		p.available = p.available[:w+n]
	}
}

// Advance drops the part of the timeline strictly before now, moving the
// profile origin forward. History can never be queried again (the
// simulator's clock is monotone), so advancing keeps the segment count
// proportional to live reservations instead of total reservations ever
// made. The compaction reuses the backing arrays in place.
func (p *Profile) Advance(now int64) {
	if now <= p.times[0] {
		return
	}
	i := p.segmentAt(now)
	if i > 0 {
		n := copy(p.times, p.times[i:])
		copy(p.available, p.available[i:])
		p.times = p.times[:n]
		p.available = p.available[:n]
	}
	p.times[0] = now
}

// FindStart returns the earliest instant >= earliest at which procs
// processors are continuously free for duration seconds.
func (p *Profile) FindStart(earliest, duration, procs int64) int64 {
	if procs > p.total {
		return InfiniteTime
	}
	if duration <= 0 {
		duration = 1
	}
	start := earliest
	if start < p.times[0] {
		start = p.times[0]
	}
	i := p.segmentAt(start)
	for {
		// Check whether [start, start+duration) fits from segment i on.
		fits := true
		end := start + duration
		for k := i; k < len(p.times) && p.times[k] < end; k++ {
			if p.available[k] < procs {
				fits = false
				// Restart after this segment.
				if k+1 < len(p.times) {
					i = k + 1
					start = p.times[i]
				} else {
					// Last segment lacks capacity and lasts forever: only
					// possible if procs > total, excluded above.
					return InfiniteTime
				}
				break
			}
		}
		if fits {
			return start
		}
	}
}

// FitsAt reports whether procs processors are continuously free for
// duration seconds from t (t must be >= the profile start). It is
// FindStart(t, duration, procs) == t without the search for a later
// start, so it is the cheap test for "can this start at t?".
func (p *Profile) FitsAt(t, duration, procs int64) bool {
	if duration <= 0 {
		duration = 1
	}
	end := t + duration
	for k := p.segmentAt(t); k < len(p.times) && p.times[k] < end; k++ {
		if p.available[k] < procs {
			return false
		}
	}
	return true
}

// Reserve subtracts procs processors during [from, to). It panics if the
// reservation would drive availability negative — callers must use
// FindStart first.
func (p *Profile) Reserve(from, to, procs int64) {
	if from >= to {
		panic(fmt.Sprintf("platform: empty reservation [%d,%d)", from, to))
	}
	i := p.split(from)
	j := p.split(to)
	for k := i; k < j; k++ {
		p.available[k] -= procs
		if p.available[k] < 0 {
			panic(fmt.Sprintf("platform: reservation [%d,%d)x%d overbooks segment %d", from, to, procs, k))
		}
	}
	p.coalesce(i, j)
}

// Release adds procs processors back during [from, to) — the inverse of
// Reserve. It is how a persistent profile learns that a job completed
// earlier than predicted: releasing the tail of its reservation
// compresses the availability timeline without a rebuild. It panics if
// the release would exceed the profile capacity (releasing processors
// that were never reserved is a scheduler bug).
func (p *Profile) Release(from, to, procs int64) {
	if from >= to {
		panic(fmt.Sprintf("platform: empty release [%d,%d)", from, to))
	}
	i := p.split(from)
	j := p.split(to)
	for k := i; k < j; k++ {
		p.available[k] += procs
		if p.available[k] > p.total {
			panic(fmt.Sprintf("platform: release [%d,%d)x%d exceeds capacity at segment %d", from, to, procs, k))
		}
	}
	p.coalesce(i, j)
}

// SegmentCount returns the number of live segments (for tests and
// instrumentation).
func (p *Profile) SegmentCount() int { return len(p.times) }

// Segments returns a copy of the profile breakpoints, mainly for tests
// and debugging.
func (p *Profile) Segments() (times []int64, available []int64) {
	times = append(times, p.times...)
	available = append(available, p.available...)
	return times, available
}
