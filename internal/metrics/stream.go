package metrics

import (
	"math"

	"repro/internal/job"
	"repro/internal/ml"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Collector is the streaming counterpart of this package's batch
// functions: a sim.JobSink that folds every finished job into one-pass
// accumulators, so a bounded-memory run produces the same metric table
// without retaining a single job. Integer-summed metrics (MeanWait,
// Utilization) and max-based ones (MaxBsld) match the batch functions
// bit-for-bit; float-summed ones (AVEbsld, MAE, MeanELoss) match them up
// to summation order. Fed the same event sequence — as the preloading
// and streaming engines are, by construction — two Collectors agree
// exactly.
//
// Beyond the scalar metrics, the collector keeps bounded-memory quantile
// sketches (stats.Sketch) of the bounded-slowdown and waiting-time
// distributions — the streaming stand-in for the exact ECDFs of the
// batch path.
type Collector struct {
	finished int
	sumBsld  float64
	maxBsld  float64
	sumWait  int64
	work     int64
	sumAbs   float64
	sumELoss float64
	bsld     *stats.Sketch
	wait     *stats.Sketch
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{bsld: stats.NewSketch(), wait: stats.NewSketch()}
}

// Observe implements sim.JobSink.
func (c *Collector) Observe(j *job.Job) {
	c.finished++
	w := j.Wait()
	b := Bsld(w, j.Runtime)
	c.sumBsld += b
	if b > c.maxBsld {
		c.maxBsld = b
	}
	c.sumWait += w
	c.work += j.Runtime * j.Procs
	c.sumAbs += math.Abs(float64(j.SubmitPrediction - j.Runtime))
	c.sumELoss += ml.ELoss.Eval(float64(j.SubmitPrediction), float64(j.Runtime), float64(j.Procs))
	c.bsld.Add(b)
	c.wait.Add(float64(w))
}

// Merge folds another collector into c: integer counters and work sums
// add, MaxBsld takes the maximum, float accumulators add in call order,
// and the quantile sketches merge weight-preservingly (stats.Sketch's
// Merge). Merging the same collectors in the same order is fully
// deterministic, which is how a federated sink assembles its global view
// from per-cluster collectors with bit-identical results. o is left
// untouched.
func (c *Collector) Merge(o *Collector) {
	c.finished += o.finished
	c.sumBsld += o.sumBsld
	if o.maxBsld > c.maxBsld {
		c.maxBsld = o.maxBsld
	}
	c.sumWait += o.sumWait
	c.work += o.work
	c.sumAbs += o.sumAbs
	c.sumELoss += o.sumELoss
	c.bsld.Merge(o.bsld)
	c.wait.Merge(o.wait)
}

// Finished returns how many jobs were observed.
func (c *Collector) Finished() int { return c.finished }

// AVEbsld returns the streaming average bounded slowdown.
func (c *Collector) AVEbsld() float64 {
	if c.finished == 0 {
		return 0
	}
	return c.sumBsld / float64(c.finished)
}

// MaxBsld returns the worst bounded slowdown observed.
func (c *Collector) MaxBsld() float64 { return c.maxBsld }

// MeanWait returns the streaming mean waiting time in seconds.
func (c *Collector) MeanWait() float64 {
	if c.finished == 0 {
		return 0
	}
	return float64(c.sumWait) / float64(c.finished)
}

// Utilization returns consumed work over nominal capacity across the
// given makespan, as the batch Utilization does.
func (c *Collector) Utilization(makespan, maxProcs int64) float64 {
	if makespan <= 0 || maxProcs <= 0 {
		return 0
	}
	return float64(c.work) / (float64(makespan) * float64(maxProcs))
}

// MAE returns the streaming mean absolute prediction error in seconds.
func (c *Collector) MAE() float64 {
	if c.finished == 0 {
		return 0
	}
	return c.sumAbs / float64(c.finished)
}

// MeanELoss returns the streaming mean E-Loss of submission predictions.
func (c *Collector) MeanELoss() float64 {
	if c.finished == 0 {
		return 0
	}
	return c.sumELoss / float64(c.finished)
}

// BsldSketch returns the bounded-slowdown distribution sketch.
func (c *Collector) BsldSketch() *stats.Sketch { return c.bsld }

// WaitSketch returns the waiting-time distribution sketch.
func (c *Collector) WaitSketch() *stats.Sketch { return c.wait }

// WaitStats renders the sketch-backed waiting-time summary, the
// streaming analogue of ComputeWaitStats (percentiles are approximate,
// mean and max exact).
func (c *Collector) WaitStats() WaitStats {
	if c.finished == 0 {
		return WaitStats{}
	}
	return WaitStats{
		Mean: c.MeanWait(),
		Max:  int64(c.wait.Max()),
		P50:  int64(c.wait.Quantile(0.50)),
		P95:  int64(c.wait.Quantile(0.95)),
		P99:  int64(c.wait.Quantile(0.99)),
	}
}

// statically assert the sink contract.
var _ sim.JobSink = (*Collector)(nil)
