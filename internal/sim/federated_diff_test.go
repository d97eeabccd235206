package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The differential-testing layer of the federated engine: a one-cluster
// federation (unit speed) must reproduce the single-machine engines byte
// for byte — same retirement sequence, same counters, same capacity
// timeline, same deterministic Perf counters, same metric sums — under
// every policy triple, preset and disruption script. Multi-cluster runs
// are then held to the physical invariants per cluster.

// fedOf wraps a triple as a one-session-per-cluster federated config.
func fedOf(tr core.Triple, clusters []platform.Cluster, router sched.Router, script *scenario.Script, sink sim.JobSink) sim.FederatedConfig {
	return sim.FederatedConfig{
		Clusters: clusters,
		Router:   router,
		Session:  func() sim.Config { return tr.Config() },
		Script:   script,
		Sink:     sink,
	}
}

// assertSameSchedule is assertIdentical for two preloading results: the
// same strict comparison minus the streamed-shape check (both sides
// retain their jobs here).
func assertSameSchedule(t *testing.T, label string, mem, fed *sim.Result, memSink, fedSink *recordingSink) {
	t.Helper()
	if len(memSink.seq) != len(fedSink.seq) {
		t.Fatalf("%s: retirement counts differ: %d vs %d", label, len(memSink.seq), len(fedSink.seq))
	}
	for i := range memSink.seq {
		if memSink.seq[i] != fedSink.seq[i] {
			t.Fatalf("%s: retirement %d differs:\n mem: %+v\n fed: %+v", label, i, memSink.seq[i], fedSink.seq[i])
		}
	}
	if mem.Makespan != fed.Makespan || mem.Corrections != fed.Corrections ||
		mem.Canceled != fed.Canceled || mem.Finished != fed.Finished {
		t.Fatalf("%s: counters differ: makespan %d/%d corrections %d/%d canceled %d/%d finished %d/%d",
			label, mem.Makespan, fed.Makespan, mem.Corrections, fed.Corrections,
			mem.Canceled, fed.Canceled, mem.Finished, fed.Finished)
	}
	if len(mem.CapacitySteps) != len(fed.CapacitySteps) {
		t.Fatalf("%s: capacity timelines differ in length: %d vs %d", label, len(mem.CapacitySteps), len(fed.CapacitySteps))
	}
	for i := range mem.CapacitySteps {
		if mem.CapacitySteps[i] != fed.CapacitySteps[i] {
			t.Fatalf("%s: capacity step %d differs: %+v vs %+v", label, i, mem.CapacitySteps[i], fed.CapacitySteps[i])
		}
	}
	if mem.Perf.Events != fed.Perf.Events || mem.Perf.PickCalls != fed.Perf.PickCalls {
		t.Fatalf("%s: perf counters differ: events %d/%d picks %d/%d",
			label, mem.Perf.Events, fed.Perf.Events, mem.Perf.PickCalls, fed.Perf.PickCalls)
	}
	mc, fc := memSink.col, fedSink.col
	if mc.AVEbsld() != fc.AVEbsld() || mc.MaxBsld() != fc.MaxBsld() ||
		mc.MeanWait() != fc.MeanWait() || mc.MAE() != fc.MAE() || mc.MeanELoss() != fc.MeanELoss() ||
		mc.Utilization(mem.Makespan, mem.MaxProcs) != fc.Utilization(fed.Makespan, fed.MaxProcs) {
		t.Fatalf("%s: streaming metric collectors diverged", label)
	}
}

// runLegacyAndFederated runs the single-machine preloading engine and a
// one-cluster federation over the same workload.
func runLegacyAndFederated(t *testing.T, w *trace.Workload, tr core.Triple, router sched.Router, script *scenario.Script) (mem, fed *sim.Result, memSink, fedSink *recordingSink) {
	t.Helper()
	memSink = newRecordingSink()
	cfg := tr.Config()
	cfg.Script = script
	cfg.Sink = memSink
	mem, err := sim.Run(w, cfg)
	if err != nil {
		t.Fatalf("Run(%s): %v", tr.Name(), err)
	}

	fedSink = newRecordingSink()
	one := []platform.Cluster{{Name: "only", Procs: w.MaxProcs}}
	fed, err = sim.RunFederated(w, fedOf(tr, one, router, script, fedSink))
	if err != nil {
		t.Fatalf("RunFederated(%s): %v", tr.Name(), err)
	}
	return mem, fed, memSink, fedSink
}

// assertFederatedShape checks the federated-only observables: routing
// name set, per-cluster counters summing to the global ones, and the
// per-cluster physical invariants.
func assertFederatedShape(t *testing.T, label string, res *sim.Result) {
	t.Helper()
	if res.Routing == "" {
		t.Fatalf("%s: federated result has no routing name", label)
	}
	if len(res.Clusters) == 0 {
		t.Fatalf("%s: federated result has no cluster results", label)
	}
	var finished, corrections, routed int
	for _, cr := range res.Clusters {
		finished += cr.Finished
		corrections += cr.Corrections
		routed += cr.Routed
		if cr.Makespan > res.Makespan {
			t.Fatalf("%s: cluster %s makespan %d exceeds global %d", label, cr.Name, cr.Makespan, res.Makespan)
		}
	}
	if finished != res.Finished || corrections != res.Corrections {
		t.Fatalf("%s: per-cluster sums diverge from global: finished %d/%d corrections %d/%d",
			label, finished, res.Finished, corrections, res.Corrections)
	}
	if routed < res.Finished {
		t.Fatalf("%s: %d routed jobs cannot finish %d", label, routed, res.Finished)
	}
	if !res.Streamed {
		if errs := sim.ValidateResult(res); len(errs) != 0 {
			t.Fatalf("%s: federated schedule invalid: %v", label, errs[0])
		}
	}
}

// TestFederatedOneClusterIdentical sweeps every preset across the full
// policy-triple grid: a one-cluster round-robin federation must be
// byte-identical to Run.
func TestFederatedOneClusterIdentical(t *testing.T) {
	triples := diffConfigs()
	for _, preset := range workload.PresetNames() {
		cfg, err := workload.Scaled(preset, 220)
		if err != nil {
			t.Fatal(err)
		}
		w, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range triples {
			label := fmt.Sprintf("%s/%s", preset, tr.Name())
			mem, fed, ms, fs := runLegacyAndFederated(t, w, tr, &sched.RoundRobin{}, nil)
			assertSameSchedule(t, label, mem, fed, ms, fs)
			assertFederatedShape(t, label, fed)
		}
	}
}

// TestFederatedOneClusterIdenticalPerRouter holds the identity for every
// routing policy: with one cluster there is only one destination, so the
// router must be invisible.
func TestFederatedOneClusterIdenticalPerRouter(t *testing.T) {
	cfg, err := workload.Scaled("SDSC-SP2", 250)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := core.EASYPlusPlus()
	for _, name := range []string{"round-robin", "least-loaded", "queue-depth", "spillover"} {
		router, err := sched.NewRouter(name)
		if err != nil {
			t.Fatal(err)
		}
		mem, fed, ms, fs := runLegacyAndFederated(t, w, tr, router, nil)
		assertSameSchedule(t, name, mem, fed, ms, fs)
		if fed.Routing != name {
			t.Fatalf("routing recorded as %q, want %q", fed.Routing, name)
		}
	}
}

// TestFederatedOneClusterIdenticalUnderDisruption replays randomized
// disruption scripts through both engines. Script events carry no
// cluster name, which on a federation means its first cluster — the
// sole one here.
func TestFederatedOneClusterIdenticalUnderDisruption(t *testing.T) {
	cfg, err := workload.Scaled("KTH-SP2", 300)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	triples := []core.Triple{core.EASY(), core.EASYPlusPlus(), core.ConservativeBF()}
	src := rng.New(0xfed)
	for _, in := range scenario.Intensities {
		if in.Name == "none" {
			continue
		}
		seed := src.Uint64()
		script := scenario.Generate(w, in, seed)
		for _, tr := range triples {
			label := fmt.Sprintf("%s/seed%x/%s", in.Name, seed, tr.Name())
			mem, fed, ms, fs := runLegacyAndFederated(t, w, tr, nil, script)
			assertSameSchedule(t, label, mem, fed, ms, fs)
			assertFederatedShape(t, label, fed)
		}
	}
}

// TestFederatedStreamOneClusterIdentical holds RunFederatedStream to
// RunStream on the same lazily pulled workload, with and without a
// disruption script.
func TestFederatedStreamOneClusterIdentical(t *testing.T) {
	cfg, err := workload.Scaled("CTC-SP2", 300)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	script := scenario.Generate(w, scenario.Intensities[1], 0xabc)
	for _, tr := range []core.Triple{core.EASYPlusPlus(), core.PaperBest()} {
		for _, sc := range []*scenario.Script{nil, script} {
			label := tr.Name()
			if sc != nil {
				label += "/disrupted"
			}
			strSink := newRecordingSink()
			scfg := tr.Config()
			scfg.Script = sc
			scfg.Sink = strSink
			str, err := sim.RunStream(w.Name, w.MaxProcs, workload.FromWorkload(w), scfg)
			if err != nil {
				t.Fatalf("RunStream(%s): %v", label, err)
			}

			fedSink := newRecordingSink()
			one := []platform.Cluster{{Procs: w.MaxProcs}}
			fed, err := sim.RunFederatedStream(w.Name, workload.FromWorkload(w), fedOf(tr, one, nil, sc, fedSink))
			if err != nil {
				t.Fatalf("RunFederatedStream(%s): %v", label, err)
			}
			assertIdentical(t, label, str, fed, strSink, fedSink)
			assertFederatedShape(t, label, fed)
		}
	}
}

// clusterSplitSink records the global retirement sequence and, beside
// it, one sequence per destination cluster.
type clusterSplitSink struct {
	all *recordingSink
	per []*recordingSink
}

func newClusterSplitSink(n int) *clusterSplitSink {
	s := &clusterSplitSink{all: newRecordingSink(), per: make([]*recordingSink, n)}
	for i := range s.per {
		s.per[i] = newRecordingSink()
	}
	return s
}

func (s *clusterSplitSink) Observe(j *job.Job) {
	s.all.Observe(j)
	s.per[j.Cluster].Observe(j)
}

// TestFederatedStreamMultiClusterIdentical holds RunFederatedStream to
// RunFederated on a heterogeneous four-cluster platform (mixed widths,
// speeds 0.5 to 1.5) for every router, undisrupted, under a hand-built
// script of cluster-targeted drains/restores and cancellations of
// routed and not-yet-routed jobs, and under a generated script. The
// Result counters, the per-cluster results and the per-cluster
// retirement sequences must all agree exactly.
func TestFederatedStreamMultiClusterIdentical(t *testing.T) {
	cfg, err := workload.Scaled("KTH-SP2", 300)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clusters := []platform.Cluster{
		{Name: "big", Procs: w.MaxProcs},
		{Name: "mid", Procs: w.MaxProcs / 2, Speed: 1.5},
		{Name: "slow", Procs: w.MaxProcs, Speed: 0.5},
		{Name: "aux", Procs: w.MaxProcs / 2, Speed: 0.75},
	}
	edges := &scenario.Script{Name: "edges", Events: []scenario.Event{
		// Unrouted: one cancel well before the job's submission, one at
		// its exact submit instant (cancellations pop before submissions).
		{Time: 0, Action: scenario.Cancel, JobID: w.Jobs[60].JobNumber},
		{Time: w.Jobs[5].SubmitTime, Action: scenario.Cancel, JobID: w.Jobs[5].JobNumber},
		// Routed: queued or running by the time the cancel fires; the
		// repeat is stale.
		{Time: w.Jobs[40].SubmitTime + 50, Action: scenario.Cancel, JobID: w.Jobs[40].JobNumber},
		{Time: w.Jobs[40].SubmitTime + 50, Action: scenario.Cancel, JobID: w.Jobs[40].JobNumber},
		{Time: w.Jobs[100].SubmitTime + 3600, Action: scenario.Cancel, JobID: w.Jobs[100].JobNumber},
		{Time: 1000, Action: scenario.Drain, Procs: clusters[1].Procs / 2, Cluster: "mid"},
		{Time: 50000, Action: scenario.Restore, Procs: clusters[1].Procs / 2, Cluster: "mid"},
		{Time: 20000, Action: scenario.Drain, Procs: clusters[2].Procs / 4, Cluster: "slow"},
		{Time: 80000, Action: scenario.Restore, Procs: clusters[2].Procs / 4, Cluster: "slow"},
	}}
	moderate, ok := scenario.IntensityByName("moderate")
	if !ok {
		t.Fatal("no moderate intensity")
	}
	scripts := []*scenario.Script{nil, edges, scenario.Generate(w, moderate, 0x4c)}
	for _, routerName := range []string{"round-robin", "least-loaded", "queue-depth", "spillover"} {
		for _, tr := range []core.Triple{core.EASYPlusPlus(), core.ConservativeBF()} {
			for _, script := range scripts {
				label := routerName + "/" + tr.Name()
				if script != nil {
					label += "/" + script.Name
				}
				run := func(stream bool) (*sim.Result, *clusterSplitSink) {
					router, err := sched.NewRouter(routerName)
					if err != nil {
						t.Fatal(err)
					}
					sink := newClusterSplitSink(len(clusters))
					fed := fedOf(tr, clusters, router, script, sink)
					var res *sim.Result
					if stream {
						res, err = sim.RunFederatedStream(w.Name, workload.FromWorkload(w), fed)
					} else {
						res, err = sim.RunFederated(w, fed)
					}
					if err != nil {
						t.Fatalf("%s (stream=%v): %v", label, stream, err)
					}
					return res, sink
				}
				mem, memSink := run(false)
				str, strSink := run(true)
				assertIdentical(t, label, mem, str, memSink.all, strSink.all)
				assertFederatedShape(t, label, mem)
				if !reflect.DeepEqual(mem.Clusters, str.Clusters) {
					t.Fatalf("%s: per-cluster results differ:\n mem: %+v\n str: %+v", label, mem.Clusters, str.Clusters)
				}
				for ci := range clusters {
					ms, ss := memSink.per[ci].seq, strSink.per[ci].seq
					if !reflect.DeepEqual(ms, ss) {
						t.Fatalf("%s: cluster %s retirement sequences differ (%d vs %d jobs)", label, clusters[ci].Name, len(ms), len(ss))
					}
				}
			}
		}
	}
}

// TestFederatedMultiClusterValid runs real multi-cluster federations —
// heterogeneous sizes and speeds, every router — and holds each cluster
// to the physical scheduling invariants, with the federated metrics sink
// splitting cleanly by destination.
func TestFederatedMultiClusterValid(t *testing.T) {
	cfg, err := workload.Scaled("KTH-SP2", 400)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clusters := []platform.Cluster{
		{Name: "big", Procs: w.MaxProcs},
		{Name: "mid", Procs: w.MaxProcs / 2, Speed: 1.5},
		{Name: "slow", Procs: w.MaxProcs, Speed: 0.5},
	}
	for _, name := range []string{"round-robin", "least-loaded", "queue-depth", "spillover"} {
		for _, tr := range []core.Triple{core.EASY(), core.EASYPlusPlus()} {
			label := name + "/" + tr.Name()
			router, err := sched.NewRouter(name)
			if err != nil {
				t.Fatal(err)
			}
			col := metrics.NewFederated(len(clusters))
			res, err := sim.RunFederated(w, fedOf(tr, clusters, router, nil, col))
			if err != nil {
				t.Fatalf("RunFederated(%s): %v", label, err)
			}
			assertFederatedShape(t, label, res)
			if res.Finished != len(w.Jobs) {
				t.Fatalf("%s: finished %d of %d jobs", label, res.Finished, len(w.Jobs))
			}
			total := 0
			for ci, c := range col.Clusters {
				if c.Finished() != res.Clusters[ci].Finished {
					t.Fatalf("%s: cluster %d sink saw %d jobs, result says %d",
						label, ci, c.Finished(), res.Clusters[ci].Finished)
				}
				total += c.Finished()
			}
			if total != col.Global().Finished() {
				t.Fatalf("%s: cluster sinks saw %d jobs, global saw %d", label, total, col.Global().Finished())
			}
		}
	}
}

// TestFederatedSpeedScaling pins the speed semantics: on a federation
// whose single cluster runs at speed s, every job's realized runtime is
// ceil of the reference runtime over s.
func TestFederatedSpeedScaling(t *testing.T) {
	cfg, err := workload.Scaled("SDSC-SP2", 150)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[int64]int64, len(w.Jobs))
	for i := range w.Jobs {
		ref[w.Jobs[i].JobNumber] = w.Jobs[i].RunTime
	}
	res, err := sim.RunFederated(w, fedOf(core.EASY(), []platform.Cluster{{Procs: w.MaxProcs, Speed: 2}}, nil, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.Jobs {
		r := ref[j.ID]
		want := (r + 1) / 2 // ceil(r/2)
		if r > 0 && want < 1 {
			want = 1
		}
		if j.Runtime != want {
			t.Fatalf("job %d runtime %d, want ceil(%d/2)=%d", j.ID, j.Runtime, r, want)
		}
	}
	if errs := sim.ValidateResult(res); len(errs) != 0 {
		t.Fatalf("scaled schedule invalid: %v", errs[0])
	}
}

// TestFederatedClusterTargetedScript pins cluster-targeted drains: a
// drain aimed at one cluster must only dent that cluster's capacity
// timeline.
func TestFederatedClusterTargetedScript(t *testing.T) {
	cfg, err := workload.Scaled("KTH-SP2", 200)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clusters := []platform.Cluster{
		{Name: "a", Procs: w.MaxProcs},
		{Name: "b", Procs: w.MaxProcs},
	}
	script := scenario.NewBuilder("dent-b").
		DrainOn("b", 1000, w.MaxProcs/2).
		RestoreOn("b", 100000, w.MaxProcs/2).
		MustBuild()
	res, err := sim.RunFederated(w, fedOf(core.EASY(), clusters, nil, script, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters[0].CapacitySteps) != 0 {
		t.Fatalf("cluster a capacity changed: %+v", res.Clusters[0].CapacitySteps)
	}
	if len(res.Clusters[1].CapacitySteps) == 0 {
		t.Fatal("cluster b capacity never changed despite the drain")
	}
	if errs := sim.ValidateResult(res); len(errs) != 0 {
		t.Fatalf("schedule invalid: %v", errs[0])
	}
	// An unknown cluster name is a setup error, not a silent no-op.
	bad := scenario.NewBuilder("ghost").DrainOn("nope", 10, 4).MustBuild()
	if _, err := sim.RunFederated(w, fedOf(core.EASY(), clusters, nil, bad, nil)); err == nil {
		t.Fatal("unknown script cluster must be rejected")
	}
}

// TestFederatedRejectsTooWideJob pins the admission bound: a job wider
// than every cluster is an input error on both federated drivers.
func TestFederatedRejectsTooWideJob(t *testing.T) {
	cfg, err := workload.Scaled("KTH-SP2", 60)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	small := []platform.Cluster{{Procs: 2}, {Procs: 3}}
	if _, err := sim.RunFederated(w, fedOf(core.EASY(), small, nil, nil, nil)); err == nil {
		t.Fatal("preloading federated run accepted an over-wide job")
	}
	if _, err := sim.RunFederatedStream(w.Name, workload.FromWorkload(w), fedOf(core.EASY(), small, nil, nil, nil)); err == nil {
		t.Fatal("streaming federated run accepted an over-wide job")
	}
}
