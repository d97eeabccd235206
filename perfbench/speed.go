package main

import (
	"container/heap"
	"runtime"
	"sort"
	"time"
)

// The host's speed drifts: on a 2-core virtual machine shared with other
// tenants the same simulation replay ran anywhere from 0.19 to 0.31 s
// within a minute, and drifted by a sixth between one 20-second stretch
// and the next. A run therefore times a fixed yardstick kernel between
// its units of work and reports its times in reference seconds: wall
// seconds scaled by refYardstick / (the yardstick's mean time over the
// run). The kernel is the benchmark's own code and runs while the
// program is idle, so a change to the program cannot move it.
//
// The kernel is a priority-queue churn and a sort, the kind of work an
// event-driven scheduler does. Over fifteen 20-second stretches of
// back-to-back replays of one kth-conservative input (and one churn
// input) it tracked their mean time with a correlation of 0.93 (0.96),
// and dividing by it cut the quartile spread of that mean from 0.16 to
// 0.06 (0.14 to 0.03). A multiply-add chain tracked at 0.86 (0.85), a
// random walk over a 2 MiB table at 0.77 (0.61).

// refYardstick is the yardstick's nominal time, about its median on a
// 2-core development host; a run there reports reference seconds close
// to wall seconds.
const refYardstick = 30 * time.Millisecond

const (
	// yardSort is how many keys the kernel sorts.
	yardSort = 60_000
	// yardQueue is how many keys the kernel's queue holds, and yardChurn
	// how many pop-and-push rounds it makes, each pushing the popped key
	// a random distance later, as an event queue does.
	yardQueue = 1 << 15
	yardChurn = 60_000
)

// yardQ is a min-heap of keys for container/heap.
type yardQ []int64

func (q yardQ) Len() int           { return len(q) }
func (q yardQ) Less(i, j int) bool { return q[i] < q[j] }
func (q yardQ) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *yardQ) Push(v any)        { *q = append(*q, v.(int64)) }
func (q *yardQ) Pop() any {
	old := *q
	v := old[len(old)-1]
	*q = old[:len(old)-1]
	return v
}

// The kernel's buffers are allocated once, before any heap baseline is
// read.
var (
	yardKeys = make([]int, yardSort)
	yardPQ   = make(yardQ, 0, yardQueue)
)

// yardstick runs the kernel once and returns how long it took.
func yardstick() time.Duration {
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	lcg := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x
	}
	for i := range yardKeys {
		yardKeys[i] = int(lcg() >> 33)
	}
	sort.Ints(yardKeys)
	q := yardPQ[:0]
	for i := 0; i < yardQueue; i++ {
		heap.Push(&q, int64(lcg()>>20))
	}
	for i := 0; i < yardChurn; i++ {
		v := heap.Pop(&q).(int64)
		heap.Push(&q, v+int64(lcg()>>44))
	}
	return time.Since(t0)
}

// speedMeter collects yardstick samples over one run.
type speedMeter struct {
	samples []float64 // seconds
}

// sample times the kernel once, with collections before and after it so
// that neither the program's garbage nor the kernel's reaches the other.
func (m *speedMeter) sample() {
	runtime.GC()
	m.samples = append(m.samples, yardstick().Seconds())
	runtime.GC()
}

// factor is the run's host speed relative to the reference: the
// yardstick's mean time over the run divided by refYardstick. Dividing a
// wall time by it gives reference seconds; multiplying a rate by it gives
// a rate per reference second. The mean, not the median, because a
// workload's time over the run is likewise a sum over the host's fast and
// slow moments.
func (m *speedMeter) factor() float64 {
	if len(m.samples) == 0 {
		return 1
	}
	sum := 0.0
	for _, s := range m.samples {
		sum += s
	}
	return sum / float64(len(m.samples)) / refYardstick.Seconds()
}
