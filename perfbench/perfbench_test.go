package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestDecoratorsTransparent: a triple wrapped in the benchmark's
// decorators, timed or not, schedules a small preset exactly as the bare
// triple does, on the preloading and the streaming engine, with and
// without churn.
func TestDecoratorsTransparent(t *testing.T) {
	cfg, err := workload.Scaled("KTH-SP2", 600)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	heavy, _ := scenario.IntensityByName("heavy")
	churn := scenario.Generate(w, heavy, 1)
	triples := map[string]core.Triple{"paper-best": core.PaperBest(), "easy++": core.EASYPlusPlus(), "conservative": kthTriple()}
	for name, tr := range triples {
		for _, script := range []*scenario.Script{nil, churn} {
			run := func(rec *recorder) string {
				c := tr.Config()
				c.Script = script
				col := metrics.NewCollector()
				c.Sink = col
				if rec != nil {
					rec.begin()
					c = decorate(c, rec)
				}
				res, err := sim.Run(w, c)
				if err != nil {
					t.Fatal(err)
				}
				return summarize(res, col, scheduleDigest(res))
			}
			stream := func(rec *recorder) string {
				c := tr.Config()
				c.Script = script
				col := metrics.NewCollector()
				c.Sink = col
				var src workload.Source = workload.FromWorkload(w)
				if rec != nil {
					rec.begin()
					c = decorate(c, rec)
					src = &layerSource{s: src, r: rec}
				}
				res, err := sim.RunStream(w.Name, w.MaxProcs, src, c)
				if err != nil {
					t.Fatal(err)
				}
				return summarize(res, col, "")
			}
			want, wantStream := run(nil), stream(nil)
			for _, traced := range []bool{false, true} {
				if got := run(newRecorder(traced, len(w.Jobs))); got != want {
					t.Errorf("%s churn=%v traced=%v: decorated run differs:\n%s\nwant:\n%s", name, script != nil, traced, got, want)
				}
				if got := stream(newRecorder(traced, len(w.Jobs))); got != wantStream {
					t.Errorf("%s churn=%v traced=%v: decorated stream differs:\n%s\nwant:\n%s", name, script != nil, traced, got, wantStream)
				}
			}
		}
	}
}

// TestTail: the helper reports the highest percentile with at least ten
// samples beyond it.
func TestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false}, {19, 0, false}, {20, 50, true}, {99, 75, true}, {100, 90, true},
		{199, 90, true}, {200, 95, true}, {999, 95, true}, {1000, 99, true}, {9999, 99, true}, {10000, 99.9, true},
	} {
		s := make([]float64, c.n)
		for i := range s {
			s[i] = float64(i)
		}
		p, _, ok := tail(s)
		if ok != c.ok || (ok && p != c.want) {
			t.Errorf("tail of %d samples = p%g (ok=%v), want p%g (ok=%v)", c.n, p, ok, c.want, c.ok)
		}
	}
	s := make([]float64, 999)
	if _, err := pctAtLeast(s, 99, "x"); err == nil {
		t.Error("p99 of 999 samples accepted")
	}
	if v, err := pctAtLeast(make([]float64, 1000), 99, "x"); err != nil || v != 0 {
		t.Errorf("p99 of 1000 samples: %v, %v", v, err)
	}
}

// TestSpeedFactor: the host speed factor is the yardstick's mean time
// over the run relative to refYardstick, and 1 before any sample.
func TestSpeedFactor(t *testing.T) {
	var m speedMeter
	if f := m.factor(); f != 1 {
		t.Errorf("factor with no samples = %g, want 1", f)
	}
	ref := refYardstick.Seconds()
	m.samples = []float64{ref, 2 * ref, 6 * ref}
	if f := m.factor(); math.Abs(f-3) > 1e-12 {
		t.Errorf("factor of samples 1, 2 and 6 references = %g, want their mean, 3", f)
	}
	var live speedMeter
	live.sample()
	if len(live.samples) != 1 || live.samples[0] <= 0 {
		t.Errorf("one sample recorded %v", live.samples)
	}
}

// TestWindowP99s: windows start every windowStride jobs, and a stall
// sets the p99 of exactly the windows that hold it.
func TestWindowP99s(t *testing.T) {
	d := make([]float64, 5*windowJobs)
	for i := range d {
		d[i] = float64(i % 100)
	}
	const stallAt, stallLen = 2 * windowJobs, 100
	for i := stallAt; i < stallAt+stallLen; i++ {
		d[i] = 1e9
	}
	ws, err := windowP99s(d)
	if err != nil {
		t.Fatal(err)
	}
	if want := (len(d)-windowJobs)/windowStride + 1; len(ws) != want {
		t.Fatalf("%d windows, want %d", len(ws), want)
	}
	for k, v := range ws {
		start := k * windowStride
		holds := start <= stallAt && start+windowJobs >= stallAt+stallLen
		if holds != (v >= 1e9) {
			t.Errorf("window at %d (holds the stall: %v) has p99 %g", start, holds, v)
		}
	}
	if _, err := windowP99s(d[:windowJobs-1]); err == nil {
		t.Error("a partial window accepted")
	}
}

// TestOpenLoopTimesFromDue: a handler that stalls once must show up as
// latency for every arrival that fell due during the stall, not just for
// the request that hit it — the open loop times from the due instant.
func TestOpenLoopTimesFromDue(t *testing.T) {
	all, maxProcs, err := openLoopTrace(1)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := prefix(all, 400)
	if err != nil {
		t.Fatal(err)
	}
	const stall = 40 * time.Millisecond
	victim := arr[warmArrivals+100].jobs[0].JobNumber
	p, err := runPhase(phaseOpts{rate: 1000, arrivals: arr, maxProcs: maxProcs, stall: func(job int64) {
		if job == victim {
			time.Sleep(stall)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	slow := 0
	for _, d := range p.decide {
		if d >= float64(stall/2) {
			slow++
		}
	}
	if slow < 10 {
		t.Errorf("%d submissions saw half the %s stall; an open loop timed from due must charge it to every arrival queued behind it", slow, stall)
	}
	if lag := sorted(p.lag); lag[len(lag)-1] < float64(stall/2) {
		t.Errorf("generator lateness peaked at %.1f ms during a %s stall", lag[len(lag)-1]/1e6, stall)
	}
}

// TestDeliveryGate: a phase whose event stream loses one job's submit
// event is rejected, also when a duplicate or a stray event keeps the
// count of submit events right.
func TestDeliveryGate(t *testing.T) {
	all, maxProcs, err := openLoopTrace(3)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := prefix(all, 300)
	if err != nil {
		t.Fatal(err)
	}
	lost, other := arr[warmArrivals+50].jobs[0].JobNumber, arr[warmArrivals+10].jobs[0].JobNumber
	for name, to := range map[string]int64{"duplicate": other, "stray": 0} {
		_, err := runPhase(phaseOpts{rate: 2000, arrivals: arr, maxProcs: maxProcs, eventJob: func(job int64) int64 {
			if job == lost {
				return to
			}
			return job
		}})
		want := fmt.Sprintf("job %d's submit event never reached the subscriber", lost)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: lost submit event of job %d: err = %v", name, lost, err)
		}
	}
}

// TestServedStreamedGate: the daemon's served summary passes the gate
// against the jobs it was sent, and fails it once one job is dropped.
func TestServedStreamedGate(t *testing.T) {
	all, maxProcs, err := openLoopTrace(2)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := prefix(all, 300)
	if err != nil {
		t.Fatal(err)
	}
	p, err := runPhase(phaseOpts{rate: 2000, arrivals: arr, maxProcs: maxProcs, readPath: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := servedEqualsStreamed(maxProcs, p.submitted, p.served); err != nil {
		t.Fatal(err)
	}
	dropped := append(append(p.submitted[:0:0], p.submitted[:50]...), p.submitted[51:]...)
	err = servedEqualsStreamed(maxProcs, dropped, p.served)
	if err == nil || !strings.Contains(err.Error(), "served summary differs") {
		t.Fatalf("a dropped job passed the served ≡ streamed gate: %v", err)
	}
}

// TestTracedSimAccounting: the traced run's layer rows and the
// unattributed row add up to the traced wall, the decorator saw every
// Pick the engine made, and traced ≡ untraced holds (runSim fails
// otherwise).
func TestTracedSimAccounting(t *testing.T) {
	rep, err := runSim(simWorkloads["kth-conservative-churn"], 1, 0.1, true)
	if err != nil {
		t.Fatal(err)
	}
	m := rep.metrics
	if m["sched.pick_calls"] != m["sim.pick_calls"] || m["sched.pick_calls"] == 0 {
		t.Errorf("decorator counted %v picks, the engine %v", m["sched.pick_calls"], m["sim.pick_calls"])
	}
	var sum float64
	for _, r := range rep.rows {
		sum += r.seconds
	}
	if wall := m["trace.wall_s"]; math.Abs(sum-wall) > 1e-9*wall+1e-12 || m["sim.unattributed_s"] < 0 {
		t.Errorf("rows add up to %v s, traced wall %v s (unattributed %v)", sum, wall, m["sim.unattributed_s"])
	}
	if m["correct.calls"] == 0 || m["sched.hooks_calls"] == 0 {
		t.Errorf("churn run made no corrections (%v) or hook calls (%v)", m["correct.calls"], m["sched.hooks_calls"])
	}
}

// TestBenchmarkJSON: BENCHMARK.json declares exactly the workloads and
// metrics the program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(names)
	sort.Strings(have)
	if strings.Join(names, " ") != strings.Join(have, " ") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, have)
	}
	check := func(what string, decl []struct{ Name, Unit string }, prog []struct{ name, unit string }) {
		if len(decl) != len(prog) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", what, len(decl), len(prog))
			return
		}
		for i := range decl {
			if decl[i].Name != prog[i].name || decl[i].Unit != prog[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", what, i, decl[i].Name, decl[i].Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

// TestBadFlags: an unknown workload is refused without a verdict line.
func TestBadFlags(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"--workload", "nope"}, &out, io.Discard); code == 0 || out.Len() != 0 {
		t.Errorf("exit %d, output %q", code, out.String())
	}
}
