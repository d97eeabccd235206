package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/correct"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/swf"
	"repro/internal/trace"
	"repro/internal/workload"
)

const (
	// streamJobs is the stream-paper prefix of huge-synthetic.
	streamJobs = 50_000
	// kthJobs is the size of the kth-* traces.
	kthJobs = 3000
	// maxVariants bounds the variants one seed can name.
	maxVariants = 1 << 12
	// checkReplays is how many variants a simulation run replays a second
	// time after its timed phase, to check that the replay reproduces the
	// first byte for byte.
	checkReplays = 2
	// runtimeJitter is the seeded relative perturbation of every job's
	// actual runtime (see jitter).
	runtimeJitter = 0.01
	// churnScriptSeed fixes the kth-conservative-churn disruption script.
	churnScriptSeed = 0x5eed
	// heapProbes is how many forced-collection probes the warm-up
	// iteration takes to find the peak live heap.
	heapProbes = 16
)

// jitter perturbs a job's actual runtime by a seeded factor in
// [1-runtimeJitter, 1+runtimeJitter], never above its request. The
// preset's own generator seed stays fixed: it sets the workload's
// regime (users, bursts, backlog), and re-drawing it moves jobs/s by a
// factor of four on huge-synthetic, which would swamp any change to the
// code. The jitter still gives every seed its own schedule.
func jitter(j *swf.Job, r *rng.Source) {
	rt := int64(float64(j.RunTime)*(1+runtimeJitter*(2*r.Float64()-1)) + 0.5)
	if rt < 1 {
		rt = 1
	}
	if req := j.Request(); req > 0 && rt > req {
		rt = req
	}
	j.RunTime = rt
}

// prefixSource yields the first n jobs of src, jittered.
type prefixSource struct {
	src workload.Source
	n   int
	r   *rng.Source
}

func (p *prefixSource) NextJob() (swf.Job, error) {
	if p.n <= 0 {
		return swf.Job{}, io.EOF
	}
	j, err := p.src.NextJob()
	if err != nil {
		return j, err
	}
	p.n--
	jitter(&j, p.r)
	return j, nil
}

// simInput is one iteration's input, built during set-up.
type simInput interface {
	// jobs is how many jobs the run must finish.
	jobs() int
	// run simulates the input once through r's decorators.
	run(r *recorder) (simOutcome, error)
}

// simOutcome is what a run produced: its result and a rendering of
// everything it decided, which must be identical between iterations of
// one input and between traced and untraced runs.
type simOutcome struct {
	res     *sim.Result
	summary string
}

// simWorkload is a simulation workload: how many variants of its input
// one run replays at least, and how to build one from a variant's seed.
type simWorkload struct {
	minVariants int
	build       func(seed uint64) (simInput, error)
}

// simWorkloads maps workload names to their inputs. A 1% runtime
// jitter is enough to send a schedule down another path: on a 2-core
// host one replay of a 3000-job kth-conservative trace varies by 16%
// (coefficient of variation) over seeds, of a churn trace by 12%, of a
// 50,000-job stream-paper prefix by 5%. A run therefore replays a new
// variant each time, as many as fit in its timed phase (about 70 kth
// traces in 20 s), so that its figures do not hang on one seed's path.
var simWorkloads = map[string]simWorkload{
	"stream-paper":           {4, buildStream},
	"kth-conservative":       {16, func(seed uint64) (simInput, error) { return buildKTH(seed, false) }},
	"kth-conservative-churn": {16, func(seed uint64) (simInput, error) { return buildKTH(seed, true) }},
}

// streamInput is a fresh huge-synthetic generator (its pass 1 already
// done) cut to the stream-paper prefix.
type streamInput struct {
	gen  *workload.GenSource
	seed uint64
}

func buildStream(seed uint64) (simInput, error) {
	cfg, err := workload.Preset("huge-synthetic")
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenSource(cfg)
	if err != nil {
		return nil, err
	}
	return &streamInput{gen: gen, seed: seed}, nil
}

func (in *streamInput) jobs() int { return streamJobs }

func (in *streamInput) run(r *recorder) (simOutcome, error) {
	cfg := core.PaperBest().Config()
	col := metrics.NewCollector()
	cfg.Sink = col
	cfg = decorate(cfg, r)
	src := &layerSource{s: &prefixSource{src: in.gen, n: streamJobs, r: rng.New(in.seed)}, r: r}
	r.begin()
	res, err := sim.RunStream(in.gen.Name(), in.gen.MaxProcs(), src, cfg)
	r.end()
	if err != nil {
		return simOutcome{}, err
	}
	return simOutcome{res: res, summary: summarize(res, col, "")}, nil
}

// kthInput is a jittered KTH-SP2 trace, plus the heavy churn script
// when churn is on.
type kthInput struct {
	w      *trace.Workload
	script *scenario.Script
}

func buildKTH(seed uint64, churn bool) (simInput, error) {
	cfg, err := workload.Preset("KTH-SP2")
	if err != nil {
		return nil, err
	}
	cfg.Jobs = kthJobs
	w, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	r := rng.New(seed)
	for i := range w.Jobs {
		jitter(&w.Jobs[i], r)
	}
	in := &kthInput{w: w}
	if churn {
		heavy, _ := scenario.IntensityByName("heavy")
		in.script = scenario.Generate(w, heavy, churnScriptSeed)
	}
	return in, nil
}

func (in *kthInput) jobs() int { return len(in.w.Jobs) }

// kthTriple is conservative backfilling with AVE2 and Incremental.
func kthTriple() core.Triple {
	return core.Triple{Predictor: core.PredAve2, Corrector: correct.Incremental{}, Conservative: true}
}

func (in *kthInput) run(r *recorder) (simOutcome, error) {
	cfg := kthTriple().Config()
	cfg.Script = in.script
	col := metrics.NewCollector()
	cfg.Sink = col
	cfg = decorate(cfg, r)
	r.begin()
	res, err := sim.Run(in.w, cfg)
	r.end()
	if err != nil {
		return simOutcome{}, err
	}
	if errs := sim.ValidateResult(res); len(errs) > 0 {
		return simOutcome{}, fmt.Errorf("invalid schedule (%d violations), first: %v", len(errs), errs[0])
	}
	return simOutcome{res: res, summary: summarize(res, col, scheduleDigest(res))}, nil
}

// summarize renders a run's report.StreamSummary block and its
// deterministic counters; digest, when set, pins every job's schedule.
func summarize(res *sim.Result, col *metrics.Collector, digest string) string {
	var b bytes.Buffer
	report.StreamSummary(&b, report.CollectStreamRun(res.Workload, res.MaxProcs, res.Triple, res.Makespan, res.Corrections, col))
	fmt.Fprintf(&b, "finished %d canceled %d makespan %d events %d picks %d\n",
		res.Finished, res.Canceled, res.Makespan, res.Perf.Events, res.Perf.PickCalls)
	if digest != "" {
		fmt.Fprintf(&b, "schedule %s\n", digest)
	}
	return b.String()
}

// scheduleDigest hashes every job's realized schedule.
func scheduleDigest(res *sim.Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, j := range res.Jobs {
		put(j.ID)
		put(j.Start)
		put(j.End)
		put(j.Prediction)
		if j.Canceled {
			put(1)
		} else {
			put(0)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// simRun is one simulated iteration as the benchmark saw it.
type simRun struct {
	out  simOutcome
	wall time.Duration
	rec  *recorder
}

// simulate runs in once through a fresh recorder and checks that every
// job finished or was canceled by the script. With a meter, it times the
// yardstick right before the run.
func simulate(in simInput, traced bool, probe func(*recorder, int), meter *speedMeter) (simRun, error) {
	rec := newRecorder(traced, in.jobs())
	if probe != nil {
		probe(rec, in.jobs())
	}
	runtime.GC()
	if meter != nil {
		meter.sample()
	}
	out, err := in.run(rec)
	if err != nil {
		return simRun{}, err
	}
	res := out.res
	if (res.Canceled == 0 && res.Finished != in.jobs()) || res.Finished+res.Canceled < in.jobs() {
		return simRun{}, fmt.Errorf("%d of %d jobs finished (%d canceled)", res.Finished, in.jobs(), res.Canceled)
	}
	return simRun{out: out, wall: rec.wall, rec: rec}, nil
}

// probeHeap arms rec with forced-collection probes spaced over the run
// and returns a function reporting the peak live heap growth in bytes.
func probeHeap() (arm func(r *recorder, jobs int), peak func() float64) {
	var base, top uint64
	arm = func(r *recorder, jobs int) {
		every := jobs / heapProbes
		if every < 1 {
			every = 1
		}
		base = liveHeapBytes()
		top = base
		r.probe = func(seen int) {
			if seen%every == 0 {
				if v := liveHeapBytes(); v > top {
					top = v
				}
			}
		}
	}
	peak = func() float64 {
		if v := liveHeapBytes(); v > top {
			top = v
		}
		return float64(top) - float64(base)
	}
	return arm, peak
}

// variantSeed derives variant v's jitter seed from the run's seed.
func variantSeed(seed uint64, v int) uint64 { return seed*maxVariants + uint64(v) }

// runSim drives one simulation workload. Untraced, it warms up on
// variant 0 (probing the live heap on the way), then builds and replays
// variants 0, 1, 2, ... of the seed's input, each once, timing the
// yardstick before every replay, until the timed phase has lasted
// seconds and at least minVariants have run. After it, untimed, it
// replays checkReplays more of them again. Traced, it runs the warm-up,
// one untraced and one traced replay of variant 0. Every replay of a
// variant must reproduce that variant's first summary byte for byte.
//
// Throughput is the mean over the timed phase, every replay counted: a
// stall from outside the program slows some replays, but the host's fast
// and slow moments come and go within seconds, a run averages over many
// of them, and the yardstick averages over the same moments. The decide
// percentiles and rate are taken within each replay and reported as the
// median over all replays: a minimum per submission would hide a
// slowdown the program causes at some moment of every replay but not at
// the same job. Every time is in reference seconds (see speedMeter); the
// notes give the wall figures too.
func runSim(w simWorkload, seed uint64, seconds float64, traced bool) (*benchReport, error) {
	rep := newReport()
	var setups []float64
	next := func(v int, traced bool, probe func(*recorder, int), meter *speedMeter) (simRun, error) {
		if v >= maxVariants {
			return simRun{}, fmt.Errorf("seed %d names only %d variants", seed, maxVariants)
		}
		t0 := time.Now()
		in, err := w.build(variantSeed(seed, v))
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return simRun{}, err
		}
		rep.attempted += int64(in.jobs())
		r, err := simulate(in, traced, probe, meter)
		if err != nil {
			rep.failed += int64(in.jobs())
		}
		return r, err
	}
	refs := map[int]string{}
	same := func(v int, r simRun, what string) error {
		ref, ok := refs[v]
		if !ok {
			refs[v] = r.out.summary
			return nil
		}
		if r.out.summary != ref {
			rep.failed += int64(r.out.res.Finished)
			return fmt.Errorf("%s diverged from variant %d's first replay:\n%s\nwant:\n%s", what, v, r.out.summary, ref)
		}
		return nil
	}

	arm, peak := probeHeap()
	warm, err := next(0, false, arm, nil)
	if err != nil {
		return rep, fmt.Errorf("warm-up: %w", err)
	}
	heap := peak()
	same(0, warm, "warm-up")
	rep.note("warm-up %.3f s (untimed); variant 0 summary:\n%s", warm.wall.Seconds(), indent(refs[0]))
	if traced {
		return rep, traceSim(rep, func(traced bool) (simRun, error) { return next(0, traced, nil, nil) },
			func(r simRun, what string) error { return same(0, r, what) })
	}
	setups = setups[:0]

	// Per replay: the decide p50 and p99, and the submission rate the
	// scheduling passes that decide them could absorb if the engine did
	// nothing else (submissions ÷ summed decide time), the intake
	// ceiling of the decision path.
	var meter speedMeter
	var p50s, p99s, rates, walls []float64
	var timed time.Duration
	jobs := 0.0
	v := 0
	for ; timed.Seconds() < seconds || v < w.minVariants; v++ {
		r, err := next(v, false, nil, &meter)
		if err != nil {
			return rep, fmt.Errorf("variant %d: %w", v, err)
		}
		if err := same(v, r, fmt.Sprintf("variant %d", v)); err != nil {
			return rep, err
		}
		decide := r.rec.decide
		if len(decide) != r.rec.submits {
			return rep, fmt.Errorf("variant %d submitted %d jobs and decided %d", v, r.rec.submits, len(decide))
		}
		s := sorted(decide)
		p99, err := pctAtLeast(s, 99, "decide latency")
		if err != nil {
			return rep, err
		}
		deciding := 0.0
		for _, d := range decide {
			deciding += d
		}
		p50s = append(p50s, quantile(s, 0.5))
		p99s = append(p99s, p99)
		rates = append(rates, float64(len(decide))/deciding*1e9)
		jobs += float64(len(decide))
		timed += r.wall
		walls = append(walls, r.wall.Seconds())
	}
	timedSetups := setups
	for k := 1; k <= checkReplays && k < v; k++ {
		r, err := next(v-k, false, nil, nil)
		if err != nil {
			return rep, fmt.Errorf("variant %d check replay: %w", v-k, err)
		}
		if err := same(v-k, r, fmt.Sprintf("variant %d check replay", v-k)); err != nil {
			return rep, err
		}
	}

	f := meter.factor()
	m := rep.metrics
	m["setup_s"] = median(timedSetups) / f
	m["jobs_per_s"] = jobs / timed.Seconds() * f
	m["live_heap_mib"] = heap / (1 << 20)
	m["decide_p50_ms"] = median(p50s) / 1e6 / f
	m["decide_p99_ms"] = median(p99s) / 1e6 / f
	m["max_rate_per_s"] = median(rates) * f
	m["whatif_p50_ms"] = median(walls) * 1e3 / f
	rep.note("timed %.3f s: variants 0..%d (jitter seeds %d..%d), one replay each; %d replayed again to check; input builds: median %.4f s",
		timed.Seconds(), v-1, variantSeed(seed, 0), variantSeed(seed, v-1), checkReplays, median(timedSetups))
	rep.note("replay walls (s): %s", fmtList(walls))
	rep.note("yardstick samples (ms): %s", fmtList(scale(meter.samples, 1e3)))
	rep.note("host speed factor %.4f (yardstick mean %.3f ms over %d samples, reference %s); wall figures: setup %.4f s, jobs/s %.1f, decide p50 %.5f ms, p99 %.5f ms, replay p50 %.2f ms",
		f, f*refYardstick.Seconds()*1e3, len(meter.samples), refYardstick, median(timedSetups), jobs/timed.Seconds(), median(p50s)/1e6, median(p99s)/1e6, median(walls)*1e3)
	rep.note("decide: medians over %d replays of each replay's p50 and p99", len(p99s))
	return rep, nil
}

// traceSim runs one untraced and one traced iteration and reports the
// per-layer rows of the traced one.
func traceSim(rep *benchReport, next func(traced bool) (simRun, error), same func(simRun, string) error) error {
	plain, err := next(false)
	if err != nil {
		return fmt.Errorf("untraced run: %w", err)
	}
	if err := same(plain, "untraced run"); err != nil {
		return err
	}
	tr, err := next(true)
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	if err := same(tr, "traced run"); err != nil {
		return err
	}
	r, res := tr.rec, tr.out.res
	wall := tr.wall.Seconds()
	sec := func(l layer) float64 { return float64(r.busy[l]) / 1e9 }
	var pop float64
	for _, st := range res.Perf.Stages {
		if st.Stage == "eventq-pop" {
			pop = float64(st.TotalNanos) / 1e9
		}
	}
	m := rep.metrics
	m["sched.pick_calls"] = float64(r.calls[lPick])
	m["sched.pick_s"] = sec(lPick)
	if p99, err := pctAtLeast(sorted(r.pickNS), 99, "pick latency"); err == nil {
		m["sched.pick_p99_us"] = p99 / 1e3
	}
	if r.calls[lPick] > 0 {
		m["sched.pick_start_ratio"] = float64(r.started) / float64(r.calls[lPick])
	}
	m["sched.hooks_calls"] = float64(r.calls[lSchedHooks])
	m["sched.hooks_s"] = sec(lSchedHooks)
	m["predict.predict_calls"] = float64(r.calls[lPredict])
	m["predict.predict_s"] = sec(lPredict)
	m["predict.learn_calls"] = float64(r.calls[lLearn])
	m["predict.learn_s"] = sec(lLearn)
	m["predict.hooks_s"] = sec(lPredHooks)
	m["correct.calls"] = float64(r.calls[lCorrect])
	m["workload.next_calls"] = float64(r.calls[lNext])
	m["workload.next_s"] = sec(lNext)
	m["metrics.observe_calls"] = float64(r.calls[lObserve])
	m["metrics.observe_s"] = sec(lObserve)
	m["sim.events"] = float64(res.Perf.Events)
	m["sim.pick_calls"] = float64(res.Perf.PickCalls)
	m["sim.eventq_pop_s"] = pop
	m["trace.wall_s"] = wall
	m["trace.overhead_s"] = wall - plain.wall.Seconds()

	// Layer accounting: the layers' self times (no decorated call runs
	// inside another, so self time is busy time), the event-queue pops
	// and the unattributed rest add up to the traced wall. A negative
	// rest means some time was counted twice.
	var attributed float64
	for l := layer(0); l < numLayers; l++ {
		rep.rows = append(rep.rows, layerRow{layerNames[l], sec(l)})
		attributed += sec(l)
	}
	rep.rows = append(rep.rows, layerRow{"sim.eventq_pop", pop})
	attributed += pop
	rest := wall - attributed
	m["sim.unattributed_s"] = rest
	rep.rows = append(rep.rows, layerRow{"sim.unattributed", rest})
	rep.note("layer self time over traced wall %.3f s (untraced %.3f s, tracing overhead %+.3f s; clock reads cost ~%.0f ns per timed call):",
		wall, plain.wall.Seconds(), wall-plain.wall.Seconds(), clockCost())
	var sum float64
	for _, row := range rep.rows {
		sum += row.seconds
		rep.note("  %-22s %9.4f s %6.1f%%", row.name, row.seconds, 100*row.seconds/wall)
	}
	rep.note("  %-22s %9.4f s %6.1f%%", "sum", sum, 100*sum/wall)
	rep.spans = append([]span{{ID: r.runSpan, Name: "sim.run", End: tr.wall.Nanoseconds()}}, r.spans...)
	if rest < 0 {
		return fmt.Errorf("layer accounting: layers add up to %.4f s, more than the traced wall %.4f s", attributed, wall)
	}
	if r.calls[lPick] != res.Perf.PickCalls {
		return fmt.Errorf("the policy decorator saw %d Pick calls, the engine made %d", r.calls[lPick], res.Perf.PickCalls)
	}
	return nil
}

// clockCost estimates what one timed decorator call adds: a recorder
// start/stop pair around nothing.
func clockCost() float64 {
	r := newRecorder(true, 0)
	r.begin()
	const n = 100_000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r.stop(lCorrect, r.start())
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n  ")
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
