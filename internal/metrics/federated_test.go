package metrics

import (
	"math"
	"testing"

	"repro/internal/job"
)

// fedJob builds a minimal finished job routed to the given cluster.
func fedJob(id int64, cluster int, submit, start, runtime, procs int64) *job.Job {
	return &job.Job{
		ID:               id,
		Submit:           submit,
		Runtime:          runtime,
		Procs:            procs,
		Cluster:          cluster,
		Start:            start,
		End:              start + runtime,
		Started:          true,
		Finished:         true,
		SubmitPrediction: runtime + 60,
	}
}

// TestFederatedObserveIsClusterLocal pins the split contract: Observe
// touches only the destination cluster's collector.
func TestFederatedObserveIsClusterLocal(t *testing.T) {
	f := NewFederated(3)
	f.Observe(fedJob(1, 1, 0, 10, 100, 4))
	f.Observe(fedJob(2, 1, 5, 20, 50, 2))
	f.Observe(fedJob(3, 2, 0, 0, 200, 8))
	if got := []int{f.Clusters[0].Finished(), f.Clusters[1].Finished(), f.Clusters[2].Finished()}; got[0] != 0 || got[1] != 2 || got[2] != 1 {
		t.Fatalf("per-cluster finished = %v, want [0 2 1]", got)
	}
	// Out-of-range stamps (never produced by a correct run) are dropped,
	// not observed into some arbitrary collector.
	f.Observe(fedJob(4, -1, 0, 0, 10, 1))
	f.Observe(fedJob(5, 3, 0, 0, 10, 1))
	if f.Global().Finished() != 3 {
		t.Fatalf("out-of-range cluster stamps leaked into the global view")
	}
}

// TestFederatedGlobalMergesDeterministically holds Global() to the
// bit-identical-merge contract: the same per-cluster observations give
// the same global accumulators no matter how many times the fold runs,
// and the integer/max metrics equal a single collector over all jobs.
func TestFederatedGlobalMergesDeterministically(t *testing.T) {
	f := NewFederated(2)
	whole := NewCollector()
	for i := int64(0); i < 500; i++ {
		j := fedJob(i, int(i%2), i, i+10*(i%7), 30+i%300, 1+i%16)
		f.Observe(j)
		whole.Observe(j)
	}
	a, b := f.Global(), f.Global()
	if a.Finished() != b.Finished() || a.AVEbsld() != b.AVEbsld() || a.MaxBsld() != b.MaxBsld() ||
		a.MeanWait() != b.MeanWait() || a.MAE() != b.MAE() || a.MeanELoss() != b.MeanELoss() {
		t.Fatal("Global() is not deterministic across calls")
	}
	if a.Finished() != whole.Finished() {
		t.Fatalf("merged Finished = %d, want %d", a.Finished(), whole.Finished())
	}
	// Integer-summed and max-based metrics survive any regrouping
	// exactly; float sums only up to summation order.
	if a.MeanWait() != whole.MeanWait() || a.MaxBsld() != whole.MaxBsld() ||
		a.Utilization(1000, 64) != whole.Utilization(1000, 64) {
		t.Fatal("integer/max metrics differ between merged and direct collectors")
	}
	for _, m := range [][2]float64{
		{a.AVEbsld(), whole.AVEbsld()},
		{a.MAE(), whole.MAE()},
		{a.MeanELoss(), whole.MeanELoss()},
	} {
		if math.Abs(m[0]-m[1]) > 1e-9*(1+math.Abs(m[1])) {
			t.Fatalf("float metric drifted beyond summation-order tolerance: %v vs %v", m[0], m[1])
		}
	}
	if a.BsldSketch().Count() != whole.BsldSketch().Count() ||
		a.WaitSketch().Count() != whole.WaitSketch().Count() {
		t.Fatal("merged sketches lost samples")
	}
}
