// Command campaign runs the paper's full experiment campaign — every
// heuristic triple over the six Table-4 preset workloads — and prints the
// requested tables and figure series. With -robustness it instead runs
// the disruption sweep: a compact triple set under randomized node
// drains, maintenance windows and job cancellations at every intensity
// level, rendered as the robustness table.
//
// Usage:
//
//	campaign -jobs 3000                  # everything
//	campaign -jobs 3000 -table 1        # just Table 1
//	campaign -jobs 3000 -figure 4       # just Figure 4 (Curie ECDFs)
//	campaign -jobs 3000 -robustness     # disruption sweep
//
// With -clusters the campaign runs on a federated multi-cluster
// platform: each workload is routed across the listed clusters by every
// -routing policy, and the report gains per-cluster columns (AVEbsld
// and finished jobs per cluster) next to the global metrics:
//
//	campaign -clusters 100,64x1.5,slow=32x0.5 -routing least-loaded,queue-depth
//	campaign -spec specs/federated.yaml          # the same, declaratively
//
// Experiments can also be described declaratively: -spec runs the
// experiment in a versioned spec file (workloads, triples, disruption
// scenarios, grid dimensions, output settings — see specs/ for the
// canonical paper grid, the robustness sweep and the nightly CI
// campaign, and docs/WORKLOADS.md for the workload and clients
// schema). Flags given alongside -spec
// override the spec's fields; -validate parses and resolves a spec,
// prints its shape, and exits without simulating:
//
//	campaign -spec specs/paper.yaml             # the paper grid
//	campaign -spec specs/paper.yaml -jobs 500   # ...at reduced scale
//	campaign -spec specs/nightly.yaml -validate # dry-run check
//
// Long campaigns are durable and cancellable: -out streams every
// completed cell to an append-only JSONL result journal, Ctrl-C stops
// the grid gracefully (in-flight simulations finish and are journaled),
// and -resume reloads the journal on restart so only the missing cells
// run — the final tables are identical to an uninterrupted run:
//
//	campaign -jobs 0 -out grid.jsonl            # interrupted with ^C...
//	campaign -jobs 0 -out grid.jsonl -resume    # ...picks up where it left off
//
// Big grids on small machines: -stream runs every cell on the
// bounded-memory streaming engine (identical decisions and tables,
// proven by the differential tests in internal/sim) so in-flight cells
// hold only their live-job window instead of trace-sized runtime state
// and retained schedules; the generated input traces themselves stay in
// memory, and the Table 8 / Figures 4-5 prediction analysis is a
// preloading path regardless. -memlimit MiB puts a soft runtime cap on
// the whole process:
//
//	campaign -jobs 0 -stream -memlimit 4096 -table 6   # full Table-4 sizes, capped
//
// Table/figure numbers follow the paper: tables 1, 6, 7, 8 and figures
// 3, 4, 5. Progress and an ETA are reported on stderr while the grid
// runs; -perf additionally prints the per-workload performance counters
// (events, Pick calls, sim wall time) every cell records.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/workload"
)

// exitCode is the process's eventual exit status: cleanup hooks (the
// trace flush) can fail the run after the tables already printed.
var exitCode int

func main() {
	run()
	runAtExit()
	os.Exit(exitCode)
}

func run() {
	jobs := flag.Int("jobs", 3000, "jobs per preset workload (0 = full Table-4 sizes; slow)")
	table := flag.Int("table", 0, "print only this table (1, 6, 7 or 8; 0 = all)")
	figure := flag.Int("figure", 0, "print only this figure (3, 4 or 5; 0 = all)")
	par := flag.Int("p", 0, "parallel simulations (0 = GOMAXPROCS)")
	robustness := flag.Bool("robustness", false, "run the disruption sweep instead of the paper tables")
	seed := flag.Uint64("seed", 1, "base seed: derives per-cell seeds, and the -robustness disruption scripts")
	out := flag.String("out", "", "append every completed cell to this JSONL result journal")
	resume := flag.Bool("resume", false, "skip cells already recorded in the -out journal")
	perf := flag.Bool("perf", false, "print per-workload performance counters to stderr")
	stream := flag.Bool("stream", false, "run every cell on the bounded-memory streaming engine (same tables, O(live jobs) per cell)")
	memLimit := flag.Int("memlimit", 0, "soft memory cap in MiB for the whole process (0 = none); pairs with -stream for big grids on small machines")
	specPath := flag.String("spec", "", "run the experiment described by this spec file (see specs/ and docs/WORKLOADS.md); other flags override its fields")
	validate := flag.Bool("validate", false, "with -spec: parse and resolve the spec, print its shape, and exit without simulating")
	clustersFlag := flag.String("clusters", "", "federated platform: comma-separated NAME=PROCS[xSPEED] entries (e.g. \"100,64x1.5,slow=32x0.5\"); the campaign grids over -routing policies and renders the federated table")
	routingFlag := flag.String("routing", "", "comma-separated routing policies in front of -clusters: "+sched.RouterNames+" (default round-robin)")
	traceFile := flag.String("trace", "", "append the structured decision trace (JSONL; summarize with tracestat) to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while the grid runs")
	flag.Parse()

	// Negative values used to be silently mapped to the defaults; they
	// are almost certainly typos, so reject them loudly.
	if *jobs < 0 {
		usageError("-jobs must be >= 0 (0 = full Table-4 sizes), got %d", *jobs)
	}
	if *par < 0 {
		usageError("-p must be >= 0 (0 = GOMAXPROCS), got %d", *par)
	}
	if *resume && *out == "" && *specPath == "" {
		usageError("-resume requires -out (the journal to resume from)")
	}
	if *validate && *specPath == "" {
		usageError("-validate requires -spec")
	}
	if *memLimit < 0 {
		usageError("-memlimit must be >= 0 MiB, got %d", *memLimit)
	}
	if msg := traceConflict(*traceFile, *cpuProfile, *memProfile); msg != "" {
		usageError("%s", msg)
	}
	if *routingFlag != "" && *clustersFlag == "" && *specPath == "" {
		usageError("-routing needs -clusters (a single-machine grid has nothing to route)")
	}
	var clusters []platform.Cluster
	var routings []string
	if *clustersFlag != "" {
		var err error
		if clusters, err = platform.ParseClusters(*clustersFlag); err != nil {
			usageError("%v", err)
		}
	}
	if *routingFlag != "" {
		routings = parseRoutings(*routingFlag)
	}
	if *clustersFlag != "" {
		if *robustness {
			usageError("-clusters conflicts with -robustness (the disruption sweep is single-machine)")
		}
		if *table != 0 || *figure != 0 {
			usageError("-table/-figure do not apply to a federated campaign (it renders the federated table)")
		}
	}
	if *memLimit > 0 {
		// A soft cap: the runtime GCs harder as the heap approaches it
		// instead of overshooting into the OOM killer. The streaming
		// engine is what makes a tight cap feasible — preloaded grids
		// hold O(trace) per in-flight cell.
		debug.SetMemoryLimit(int64(*memLimit) << 20)
	}
	startProfiling(*cpuProfile, *memProfile, *pprofAddr)

	// Ctrl-C (or SIGTERM) cancels the grid gracefully: in-flight cells
	// finish and are journaled, then the run reports how to resume.
	// After the first signal the handler is unregistered, so a second
	// Ctrl-C force-quits via the default disposition instead of being
	// swallowed while in-flight cells drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	if *specPath != "" {
		// Flags the user actually passed become the outermost override
		// layer: flags > spec > include.
		var ov spec.Overrides
		tablesSet, figuresSet := false, false
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "jobs":
				ov.Jobs = jobs
			case "seed":
				ov.Seed = seed
			case "p":
				ov.Parallelism = par
			case "out":
				ov.Journal = out
			case "resume":
				ov.Resume = resume
			case "perf":
				ov.Perf = perf
			case "stream":
				ov.Stream = stream
			case "table":
				if *table != 0 {
					ov.Tables = []int{*table}
				}
				tablesSet = true
			case "figure":
				if *figure != 0 {
					ov.Figures = []int{*figure}
				}
				figuresSet = true
			case "clusters":
				ov.Clusters = clusters
			case "routing":
				ov.Routings = routings
			case "trace":
				ov.Trace = traceFile
			case "robustness":
				usageError("-robustness conflicts with -spec (the spec's kind decides the grid)")
			}
		})
		runSpec(ctx, *specPath, *validate, ov, tablesSet, figuresSet)
		return
	}

	// -perf implies stage profiling: the summary it prints is where the
	// per-stage latency histograms render.
	tracer := openTrace(*traceFile)

	if *robustness {
		r := &campaign.Robustness{Seed: *seed, Parallelism: *par, Stream: *stream,
			Tracer: tracer, Profile: *perf}
		runRobustnessGrids(ctx, []*campaign.Robustness{r}, *jobs, nil, *out, *resume, *perf)
		return
	}

	if len(clusters) > 0 {
		if len(routings) == 0 {
			routings = []string{"round-robin"}
		}
		feds := make([]campaign.Federation, len(routings))
		for i, r := range routings {
			feds[i] = campaign.Federation{Clusters: clusters, Routing: r}
		}
		fc := &campaign.FederatedCampaign{Federations: feds, Seed: *seed, Parallelism: *par, Stream: *stream,
			Tracer: tracer, Profile: *perf}
		runFederatedGrid(ctx, fc, nil, *jobs, *out, *resume, *perf)
		return
	}

	var tables, figures []int
	if *table != 0 {
		tables = []int{*table}
	}
	if *figure != 0 {
		figures = []int{*figure}
	}
	if *table == 0 && *figure == 0 {
		tables, figures = allTables, allFigures
	}
	c := &campaign.Campaign{Seed: *seed, Parallelism: *par, Stream: *stream,
		Tracer: tracer, Profile: *perf}
	runCampaignGrid(ctx, c, nil, *jobs, tables, figures, *out, *resume, *perf)
}

var (
	allTables  = []int{1, 6, 7, 8}
	allFigures = []int{3, 4, 5}
)

// runSpec loads a spec, applies the flag overrides, and dispatches to
// the kind's grid runner — or just prints the resolved shape under
// -validate.
func runSpec(ctx context.Context, path string, validateOnly bool, ov spec.Overrides, tablesSet, figuresSet bool) {
	s, err := spec.Load(path)
	if err != nil {
		fatal(err)
	}
	s.Apply(ov)
	if s.Output.Resume && s.Output.Journal == "" {
		usageError("resume needs a journal: set output.journal in the spec or pass -out")
	}
	if len(s.Routings) > 0 && !s.Federated() {
		usageError("routing needs clusters: set clusters in the spec or pass -clusters")
	}
	// -table/-figure are selections, not additions: naming one
	// suppresses the spec's other axis, exactly as in flag-only mode.
	if tablesSet && !figuresSet {
		s.Output.Figures = nil
	}
	if figuresSet && !tablesSet {
		s.Output.Tables = nil
	}

	if validateOnly {
		printSpecShape(s)
		return
	}

	ws, err := s.GenerateWorkloads()
	if err != nil {
		fatal(err)
	}
	o := s.Output
	tracer := openTrace(s.Trace.File)
	profile := o.Perf || s.Trace.Profile
	switch s.Kind {
	case "robustness":
		grids := make([]*campaign.Robustness, s.Repeats)
		for r := range grids {
			grids[r] = s.Robustness(ws, r)
			grids[r].Tracer = tracer
			grids[r].Profile = profile
		}
		runRobustnessGrids(ctx, grids, -1, ws, o.Journal, o.Resume, o.Perf)
	default:
		if s.Federated() {
			if len(o.Tables) > 0 || len(o.Figures) > 0 {
				usageError("tables/figures do not apply to a federated campaign (it renders the federated table)")
			}
			fc := s.FederatedCampaign(ws)
			fc.Tracer = tracer
			fc.Profile = profile
			runFederatedGrid(ctx, fc, ws, s.Jobs, o.Journal, o.Resume, o.Perf)
			return
		}
		tables, figures := o.Tables, o.Figures
		if len(tables) == 0 && len(figures) == 0 {
			tables, figures = allTables, allFigures
		}
		c := s.Campaign(ws)
		c.Tracer = tracer
		c.Profile = profile
		runCampaignGrid(ctx, c, ws, s.Jobs, tables, figures, o.Journal, o.Resume, o.Perf)
	}
}

// printSpecShape is the -validate dry run: the spec resolved and
// summarized, with nothing simulated.
func printSpecShape(s *spec.Spec) {
	cfgs, err := s.WorkloadConfigs()
	if err != nil {
		fatal(err)
	}
	names := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		names[i] = fmt.Sprintf("%s(%d jobs)", cfg.Name, cfg.Jobs)
	}
	fmt.Printf("spec %s: OK\n", s.Path)
	fmt.Printf("  kind        %s\n", s.Kind)
	fmt.Printf("  seed        %d\n", s.Seed)
	if s.Stream {
		fmt.Printf("  stream      true\n")
	}
	fmt.Printf("  workloads   %d: %s\n", len(cfgs), strings.Join(names, ", "))
	fmt.Printf("  triples     %d\n", s.TripleCount())
	if s.Kind == "robustness" {
		fmt.Printf("  scenarios   %d\n", s.ScenarioCount())
		fmt.Printf("  repeats     %d\n", s.Repeats)
	}
	nfed := 1
	if s.Federated() {
		feds := s.Federations()
		nfed = len(feds)
		entries := make([]string, len(s.Clusters))
		for i, c := range s.Clusters {
			entries[i] = c.String()
		}
		policies := make([]string, len(feds))
		for i, f := range feds {
			policies[i] = f.Routing
		}
		fmt.Printf("  clusters    %d (%d procs): %s\n", len(s.Clusters), platform.ClustersTotal(s.Clusters), strings.Join(entries, ", "))
		fmt.Printf("  routing     %s\n", strings.Join(policies, ", "))
	}
	fmt.Printf("  grid        %d cells\n", len(cfgs)*nfed*s.TripleCount()*s.ScenarioCount()*s.Repeats)
	if s.Output.Journal != "" {
		mode := ""
		if s.Output.Resume {
			mode = " (resume)"
		}
		fmt.Printf("  journal     %s%s\n", s.Output.Journal, mode)
	}
	if s.Trace.File != "" {
		mode := ""
		if s.Trace.Profile {
			mode = " (profiled)"
		}
		fmt.Printf("  trace       %s%s\n", s.Trace.File, mode)
	}
}

// runCampaignGrid runs the paper-table campaign (generating the default
// workloads when ws is nil) and renders the selected tables and
// figures. jobs is the preset scaling, used for default workloads and
// for the Curie prediction series of Table 8 / Figures 4-5.
func runCampaignGrid(ctx context.Context, c *campaign.Campaign, ws []*trace.Workload, jobs int, tables, figures []int, out string, resume, perf bool) {
	needGrid := hasAny(tables, 1, 6, 7) || hasAny(figures, 3)
	var results []campaign.RunResult
	if needGrid {
		if ws == nil {
			var err error
			ws, err = campaign.DefaultWorkloads(jobs)
			if err != nil {
				fatal(err)
			}
		}
		c.Workloads = ws
		c.Progress = progressReporter("campaign")
		journal, done := openJournal(out, resume)
		c.Journal = journal
		c.Resume = done
		ntr := len(c.Triples)
		if ntr == 0 {
			ntr = len(core.CampaignTriples())
		}
		fmt.Fprintf(os.Stderr, "campaign: running %d simulations (%d workloads x %d triples)...\n", len(ws)*ntr, len(ws), ntr)
		var err error
		results, err = c.Run(ctx)
		closeJournal(journal)
		if err != nil {
			gridFailed(err, len(results), out)
		}
		if perf {
			fmt.Fprintln(os.Stderr, report.PerfSummary(results))
		}
	}

	if hasAny(tables, 1) {
		fmt.Println(report.Table1(results))
	}
	if hasAny(tables, 6) {
		fmt.Println(report.Table6(results))
	}
	if hasAny(tables, 7) {
		cv, err := campaign.LeaveOneOut(results)
		if err != nil {
			fatal(err)
		}
		fmt.Println(report.Table7(cv, results))
	}
	if hasAny(figures, 3) {
		fmt.Println(report.Figure3(results, "SDSC-BLUE", "Metacentrum"))
	}
	// Multi-client workloads (a spec with clients: blocks) get their
	// per-client decomposition next to the global tables; single-
	// population grids render nothing extra.
	if t := report.ClientTable(results); t != "" {
		fmt.Println(t)
	}

	if hasAny(tables, 8) || hasAny(figures, 4, 5) {
		cfg, err := workload.Scaled("Curie", jobs)
		if err != nil {
			fatal(err)
		}
		w, err := workload.Generate(cfg)
		if err != nil {
			fatal(err)
		}
		series, err := report.AnalyzePredictions(w)
		if err != nil {
			fatal(err)
		}
		if hasAny(tables, 8) {
			fmt.Println(report.Table8(series))
		}
		if hasAny(figures, 4) {
			fmt.Println(report.Figure4(series))
		}
		if hasAny(figures, 5) {
			fmt.Println(report.Figure5(series))
		}
	}
}

// parseRoutings splits and validates the -routing flag.
func parseRoutings(s string) []string {
	var out []string
	seen := map[string]bool{}
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if _, err := sched.NewRouter(name); err != nil {
			usageError("%v", err)
		}
		if seen[name] {
			usageError("-routing lists %q twice", name)
		}
		seen[name] = true
		out = append(out, name)
	}
	return out
}

// runFederatedGrid runs the federated campaign — workloads x routing
// policies x triples on a multi-cluster platform — and renders the
// federated table with its per-cluster columns.
func runFederatedGrid(ctx context.Context, fc *campaign.FederatedCampaign, ws []*trace.Workload, jobs int, out string, resume, perf bool) {
	if ws == nil {
		var err error
		ws, err = campaign.DefaultWorkloads(jobs)
		if err != nil {
			fatal(err)
		}
	}
	fc.Workloads = ws
	fc.Progress = progressReporter("federated")
	journal, done := openJournal(out, resume)
	fc.Journal = journal
	fc.Resume = done
	ntr := len(fc.Triples)
	if ntr == 0 {
		ntr = len(core.CampaignTriples())
	}
	fmt.Fprintf(os.Stderr, "campaign: running %d federated simulations (%d workloads x %d federations x %d triples)...\n",
		len(ws)*len(fc.Federations)*ntr, len(ws), len(fc.Federations), ntr)
	results, err := fc.Run(ctx)
	closeJournal(journal)
	if err != nil {
		gridFailed(err, len(results), out)
	}
	if perf {
		fmt.Fprintln(os.Stderr, report.FederatedPerfSummary(results))
	}
	fmt.Println(report.FederatedTable(results))
}

// runRobustnessGrids runs one disruption sweep per repeat (sharing the
// journal), cell-averages them, and renders the robustness table. When
// ws is nil the default preset workloads are generated at the given
// jobs scaling.
func runRobustnessGrids(ctx context.Context, grids []*campaign.Robustness, jobs int, ws []*trace.Workload, out string, resume, perf bool) {
	if ws == nil {
		var err error
		ws, err = campaign.DefaultWorkloads(jobs)
		if err != nil {
			fatal(err)
		}
	}
	journal, done := openJournal(out, resume)
	triples := len(grids[0].Triples)
	if triples == 0 {
		triples = len(campaign.DefaultRobustnessTriples())
	}
	cols := len(grids[0].Scenarios)
	if cols == 0 {
		cols = len(scenario.Intensities)
	}
	total := len(ws) * triples * cols * len(grids)
	fmt.Fprintf(os.Stderr, "campaign: running %d disrupted simulations (%d workloads x %d triples x %d scenarios x %d repeats)...\n",
		total, len(ws), triples, cols, len(grids))

	var runs [][]campaign.RobustnessResult
	var flat []campaign.RunResult
	for i, r := range grids {
		r.Workloads = ws
		r.Journal = journal
		r.Resume = done
		r.Progress = progressReporter(fmt.Sprintf("robustness %d/%d", i+1, len(grids)))
		results, err := r.Run(ctx)
		if err != nil {
			closeJournal(journal)
			gridFailed(err, len(results), out)
		}
		runs = append(runs, results)
		for _, res := range results {
			flat = append(flat, res.RunResult)
		}
	}
	closeJournal(journal)
	if perf {
		fmt.Fprintln(os.Stderr, report.PerfSummary(flat))
	}
	merged, err := campaign.AverageRobustness(runs)
	if err != nil {
		fatal(err)
	}
	fmt.Println(report.RobustnessTable(merged))
}

// hasAny reports whether the selection contains any of the wanted ids.
func hasAny(selected []int, wanted ...int) bool {
	for _, s := range selected {
		for _, w := range wanted {
			if s == w {
				return true
			}
		}
	}
	return false
}

// openJournal opens the -out journal (if any) and loads the completed
// cells of a previous run when -resume is set.
func openJournal(out string, resume bool) (*campaign.Journal, map[string]campaign.CellRecord) {
	if out == "" {
		return nil, nil
	}
	var done map[string]campaign.CellRecord
	if resume {
		var dropped bool
		var err error
		done, dropped, err = campaign.LoadJournal(out)
		switch {
		case errors.Is(err, os.ErrNotExist):
			// First run of an always-resume wrapper: nothing journaled
			// yet is a fresh start, not a failure.
			fmt.Fprintf(os.Stderr, "campaign: resume: no journal at %s yet, starting fresh\n", out)
		case err != nil:
			fatal(err)
		default:
			msg := fmt.Sprintf("campaign: resume: %d journaled cells loaded from %s", len(done), out)
			if dropped {
				msg += " (dropped a truncated final line)"
			}
			fmt.Fprintln(os.Stderr, msg)
		}
	}
	j, err := campaign.OpenJournal(out)
	if err != nil {
		fatal(err)
	}
	return j, done
}

func closeJournal(j *campaign.Journal) {
	if j == nil {
		return
	}
	if err := j.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "campaign: journal:", err)
	}
}

// gridFailed reports a cancelled or partially-failed grid and exits.
// Completed cells are already in the journal (when -out is set), so the
// message points at -resume.
func gridFailed(err error, completed int, out string) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "campaign: interrupted after %d completed cells\n", completed)
	} else {
		fmt.Fprintf(os.Stderr, "campaign: %v (%d cells completed)\n", err, completed)
	}
	if out != "" {
		fmt.Fprintf(os.Stderr, "campaign: completed cells are journaled in %s; rerun with -resume to continue\n", out)
	}
	runAtExit()
	os.Exit(1)
}

func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "campaign: "+format+"\n", args...)
	flag.Usage()
	runAtExit()
	os.Exit(2)
}

// progressReporter returns a goroutine-safe Progress callback that
// writes throttled progress/ETA lines to stderr — minutes-long grids
// should not be silent until the final tables print.
func progressReporter(label string) func(done, total int) {
	var mu sync.Mutex
	start := time.Now()
	lastPrint := start
	return func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		now := time.Now()
		if done != total && now.Sub(lastPrint) < 2*time.Second {
			return
		}
		lastPrint = now
		elapsed := now.Sub(start)
		msg := fmt.Sprintf("%s: %d/%d (%.0f%%) elapsed %s", label, done, total,
			100*float64(done)/float64(total), elapsed.Round(time.Second))
		if done > 0 && done < total {
			eta := time.Duration(float64(elapsed) * float64(total-done) / float64(done))
			msg += fmt.Sprintf(" eta %s", eta.Round(time.Second))
		}
		fmt.Fprintln(os.Stderr, msg)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "campaign:", err)
	runAtExit()
	os.Exit(1)
}
