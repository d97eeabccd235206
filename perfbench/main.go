// Command perfbench is the repository's benchmark. It runs one workload
// per invocation and prints, as its last line, one JSON object with the
// run's correctness verdict and metrics:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: stream-paper, kth-conservative, kth-conservative-churn and
// schedd-open-loop (see README.md). With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 a separate traced run reports the
// per-layer ones. The program under test receives only the inputs the
// benchmark generates from --seed; every number is taken outside it, by
// decorators over the interfaces it accepts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// resultsDir, relative to the checkout root the benchmark runs from,
// receives the result and span files.
var resultsDir = filepath.Join(".bench_build", "perfbench")

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics every untraced run reports.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"live_heap_mib", "MiB"},
	{"decide_p50_ms", "ms"},
	{"decide_p99_ms", "ms"},
	{"max_rate_per_s", "1/s"},
	{"whatif_p50_ms", "ms"},
}

// perLayer lists the per-layer metrics every traced run reports; a
// layer a workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"sched.pick_calls", "count"},
	{"sched.pick_s", "s"},
	{"sched.pick_p99_us", "us"},
	{"sched.pick_start_ratio", "ratio"},
	{"sched.hooks_calls", "count"},
	{"sched.hooks_s", "s"},
	{"predict.predict_calls", "count"},
	{"predict.predict_s", "s"},
	{"predict.learn_calls", "count"},
	{"predict.learn_s", "s"},
	{"predict.hooks_s", "s"},
	{"correct.calls", "count"},
	{"workload.next_calls", "count"},
	{"workload.next_s", "s"},
	{"metrics.observe_calls", "count"},
	{"metrics.observe_s", "s"},
	{"sim.events", "count"},
	{"sim.pick_calls", "count"},
	{"sim.eventq_pop_s", "s"},
	{"sim.unattributed_s", "s"},
	{"trace.wall_s", "s"},
	{"trace.overhead_s", "s"},
	{"loadgen.lag_p99_ms", "ms"},
	{"client.rtt_p50_us", "us"},
	{"client.rtt_p99_us", "us"},
	{"schedd.http_s", "s"},
	{"schedd.http_p99_us", "us"},
	{"schedd.decode_us", "us"},
	{"schedd.submit_us", "us"},
	{"schedd.pickup_p50_ms", "ms"},
	{"schedd.pickup_p99_ms", "ms"},
	{"schedd.fanout_p50_ms", "ms"},
	{"schedd.fanout_p99_ms", "ms"},
	{"schedd.stream_events_per_job", "ratio"},
	{"schedd.whatif_history", "count"},
	{"schedd.whatif_us_per_cmd", "us"},
}

// benchReport is what one workload run hands back to main.
type benchReport struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	// notes are extra human-readable lines (sample counts, the tail
	// percentile each timing supports, the layer table).
	notes []string
	// spans is the bounded span sample of a traced run.
	spans []span
	// rows is a traced run's time accounting: each layer's self time
	// and the unattributed rest, adding up to the traced wall.
	rows []layerRow
}

// layerRow is one line of the accounting table.
type layerRow struct {
	name    string
	seconds float64
}

func newReport() *benchReport { return &benchReport{metrics: map[string]float64{}} }

func (r *benchReport) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(seed uint64, seconds float64, traced bool) (*benchReport, error){
	"schedd-open-loop": runOpenLoop,
}

func init() {
	for name, w := range simWorkloads {
		workloads[name] = func(seed uint64, seconds float64, traced bool) (*benchReport, error) {
			return runSim(w, seed, seconds, traced)
		}
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 10, "how long the timed phase measures")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	traced := *trace == 1
	host := hostFacts()
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%d  %s\n", *name, *seed, *seconds, *trace, host)

	rep, err := runWorkload(*seed, *seconds, traced)
	res := result{Correct: err == nil, Metrics: map[string]metric{}}
	if rep != nil {
		res.Attempted, res.Failed = rep.attempted, rep.failed
		for _, l := range rep.notes {
			fmt.Fprintln(stdout, l)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		if res.Attempted == 0 {
			res.Attempted = 1
		}
		if res.Failed == 0 {
			res.Failed = 1
		}
	} else {
		list := endToEnd
		if traced {
			list = perLayer
		}
		for _, m := range list {
			v := rep.metrics[m.name]
			res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
			fmt.Fprintf(stdout, "  %-30s %16.6g %s\n", m.name, v, m.unit)
		}
		fmt.Fprintf(stdout, "  %-30s %16.6g (failed %d of %d attempted)\n", "failed_frac", failedFrac(res), res.Failed, res.Attempted)
		if err := save(resultsDir, *name, *seed, *trace, host, res, rep); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func failedFrac(r result) float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// hostFacts records what the numbers depend on besides the code.
func hostFacts() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s %s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// save writes the run's result, host facts and notes, and the span
// sample of a traced run, under dir.
func save(dir, name string, seed uint64, trace int, host string, res result, rep *benchReport) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", name, seed, trace))
	doc := map[string]any{
		"workload": name, "seed": seed, "trace": trace, "host": host,
		"time": time.Now().UTC().Format(time.RFC3339), "result": res, "notes": rep.notes,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	if len(rep.spans) == 0 {
		return nil
	}
	f, err := os.Create(stem + ".spans.jsonl")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range rep.spans {
		if err := enc.Encode(&rep.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// liveHeapBytes collects garbage and reads the live heap.
func liveHeapBytes() uint64 {
	runtime.GC()
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// pollHeap collects garbage and reads the live heap every interval
// until the returned function is first called; every call waits for
// the poller to stop and returns the highest reading.
func pollHeap(every time.Duration) (peak func() uint64) {
	done := make(chan struct{})
	var top uint64
	var stopped sync.WaitGroup
	stopped.Add(1)
	go func() {
		defer stopped.Done()
		tk := time.NewTicker(every)
		defer tk.Stop()
		for {
			select {
			case <-done:
				return
			case <-tk.C:
				if v := liveHeapBytes(); v > top {
					top = v
				}
			}
		}
	}()
	var once sync.Once
	return func() uint64 {
		once.Do(func() { close(done) })
		stopped.Wait()
		return top
	}
}
