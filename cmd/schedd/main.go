// Command schedd runs the live scheduling daemon, or a replay client
// against one.
//
// Server mode listens for HTTP+JSON traffic (submissions,
// cancellations, drain/restore announcements, what-if queries — see
// internal/schedd) and schedules it on the shared event core:
//
//	schedd -maxprocs 128 -triple easy++                  # virtual time
//	schedd -maxprocs 128 -scale 100 -clients a,b         # 100 virtual s per wall s
//	schedd -spec specs/serve.yaml                        # config from a serve: block
//	schedd -maxprocs 128 -trace decisions.jsonl          # flight recorder to disk
//
// The daemon prints "listening on" to stderr once the socket is open,
// drains gracefully on SIGINT/SIGTERM or POST /v1/shutdown (queued
// commands still run; new intake gets 409), and prints the same final
// metric block simsched -stream prints — so an offline replay of the
// same trace can be diffed against the served run.
//
// Client mode replays an SWF trace into a running daemon, one
// submission per job through the same cleaning rules simsched -stream
// applies, and optionally drains the daemon and prints its summary:
//
//	schedd -connect http://localhost:8080 -replay trace.swf -shutdown
//
// Contradictory flag combinations exit 2 with a message naming the
// conflict: server flags conflict with -connect, client flags need it,
// -spec supplies the server configuration so it excludes
// -maxprocs/-triple/-scale/-clients, and -trace cannot write to stdout
// (the final summary owns it).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/schedd"
	"repro/internal/spec"
	"repro/internal/swf"
	"repro/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: parse, validate the flag surface,
// dispatch. Exit status 2 is a usage error, 1 a runtime failure.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("schedd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "localhost:8080", "HTTP listen address (server mode)")
	specPath := fs.String("spec", "", "read the server configuration from this spec file's serve: block")
	maxProcs := fs.Int64("maxprocs", 0, "machine size (server mode; required unless -spec)")
	tripleName := fs.String("triple", "easy++", "named triple: easy | easy++ | best | clairvoyant | clairvoyant-sjbf | conservative")
	scale := fs.Float64("scale", 0, "time mode: 0 = virtual time (clients state instants), >0 = scaled wall time (virtual seconds per wall second)")
	clientsFlag := fs.String("clients", "", "comma-separated client names for the per-client metric split")
	workloadName := fs.String("workload", "live", "run name tagging metrics and trace events")
	traceFile := fs.String("trace", "", "append the structured decision trace (JSONL; summarize with tracestat) to this file")
	connect := fs.String("connect", "", "client mode: base URL of a running daemon (e.g. http://localhost:8080)")
	replayFile := fs.String("replay", "", "client mode: SWF trace to submit job by job")
	session := fs.String("session", "replay", "client mode: session name for the replayed submissions")
	clientName := fs.String("client", "", "client mode: client name the session reports as (selects the metric split)")
	doShutdown := fs.Bool("shutdown", false, "client mode: drain the daemon after the replay and print its final summary")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "schedd: "+format+"\n", a...)
		fs.Usage()
		return 2
	}

	if *connect != "" {
		if *replayFile == "" {
			return usage("-connect needs -replay (the trace to submit)")
		}
		for _, f := range []string{"addr", "spec", "maxprocs", "triple", "scale", "clients", "workload", "trace"} {
			if set[f] {
				return usage("-%s configures the server; it conflicts with -connect", f)
			}
		}
		if err := runClient(*connect, *replayFile, *session, *clientName, *doShutdown, stdout); err != nil {
			fmt.Fprintln(stderr, "schedd:", err)
			return 1
		}
		return 0
	}
	for _, f := range []string{"replay", "session", "client", "shutdown"} {
		if set[f] {
			return usage("-%s drives a replay client; it needs -connect", f)
		}
	}
	if *traceFile == "-" || *traceFile == "/dev/stdout" {
		return usage("-trace cannot write to stdout (the final summary owns it); give it a file path")
	}

	opts := schedd.Options{Workload: *workloadName, MaxProcs: *maxProcs, Scale: *scale}
	if *clientsFlag != "" {
		opts.Clients = strings.Split(*clientsFlag, ",")
	}
	if *specPath != "" {
		for _, f := range []string{"maxprocs", "triple", "scale", "clients"} {
			if set[f] {
				return usage("-spec supplies the server configuration; drop -%s", f)
			}
		}
		s, err := spec.Load(*specPath)
		if err != nil {
			fmt.Fprintln(stderr, "schedd:", err)
			return 1
		}
		if s.Serve == nil {
			return usage("%s has no serve: block", *specPath)
		}
		opts.MaxProcs, opts.Scale, opts.Triple, opts.Clients = s.Serve.MaxProcs, s.Serve.Scale, s.Serve.Triple, s.Serve.Clients
		if !set["addr"] {
			*addr = s.Serve.Addr
		}
	} else {
		if opts.MaxProcs <= 0 {
			return usage("-maxprocs must be positive (or pass -spec with a serve: block)")
		}
		tr, err := parseTriple(*tripleName)
		if err != nil {
			return usage("%v", err)
		}
		opts.Triple = tr
	}
	return runServer(ctx, *addr, opts, *traceFile, stdout, stderr)
}

func parseTriple(name string) (core.Triple, error) {
	switch strings.ToLower(name) {
	case "easy":
		return core.EASY(), nil
	case "easy++":
		return core.EASYPlusPlus(), nil
	case "best":
		return core.PaperBest(), nil
	case "clairvoyant":
		return core.ClairvoyantEASY(), nil
	case "clairvoyant-sjbf":
		return core.ClairvoyantSJBF(), nil
	case "conservative":
		return core.ConservativeBF(), nil
	}
	return core.Triple{}, fmt.Errorf("unknown triple %q (have easy, easy++, best, clairvoyant, clairvoyant-sjbf, conservative)", name)
}

// runServer opens the socket, serves until a signal, a server error or
// a wire-side /v1/shutdown, then drains the daemon and prints the final
// streaming summary.
func runServer(ctx context.Context, addr string, opts schedd.Options, traceFile string, stdout, stderr io.Writer) int {
	var trace *obs.JSONL
	if traceFile != "" {
		t, err := obs.OpenJSONL(traceFile)
		if err != nil {
			fmt.Fprintln(stderr, "schedd:", err)
			return 1
		}
		trace = t
		opts.Tracer = t
		fmt.Fprintf(stderr, "schedd: tracing decisions to %s\n", traceFile)
	}
	d, err := schedd.New(opts)
	if err != nil {
		fmt.Fprintln(stderr, "schedd:", err)
		return 1
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		d.Shutdown()
		fmt.Fprintln(stderr, "schedd:", err)
		return 1
	}
	fmt.Fprintf(stderr, "schedd: listening on http://%s\n", ln.Addr())
	code := serve(ctx, d, ln, d.Handler(), stderr)
	res, runErr := d.Shutdown() // serve drained it; this returns the result
	if runErr != nil {
		fmt.Fprintln(stderr, "schedd:", runErr)
		return 1
	}
	report.StreamSummary(stdout, report.CollectStreamRun(opts.Workload, opts.MaxProcs, opts.Triple.Name(), res.Makespan, res.Corrections, d.Overall()))
	if len(opts.Clients) > 0 {
		report.ClientSplit(stdout, d.PerClient())
	}
	if trace != nil {
		if err := trace.Close(); err != nil {
			fmt.Fprintln(stderr, "schedd: trace:", err)
			return 1
		}
	}
	return code
}

// shutdownGrace bounds how long a stopping server waits for in-flight
// requests to complete before it closes their connections.
const shutdownGrace = 10 * time.Second

// serve serves h on ln until ctx is canceled, the daemon is drained or
// serving fails, drains the daemon, and then stops the server
// gracefully and returns the exit code. A wire-side drain closes
// d.Done() inside the POST /v1/shutdown handler before that handler
// writes its reply, so the server must let in-flight requests finish
// rather than close their connections; event streams end on their own
// once the daemon has drained.
func serve(ctx context.Context, d *schedd.Daemon, ln net.Listener, h http.Handler, stderr io.Writer) int {
	srv := &http.Server{Handler: h}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	code := 0
	select {
	case <-ctx.Done():
		fmt.Fprintln(stderr, "schedd: signal received, draining")
	case <-d.Done():
		// A client drained the daemon over the wire.
	case err := <-serveErr:
		fmt.Fprintln(stderr, "schedd:", err)
		code = 1
	}
	d.Shutdown()
	// ctx may be the canceled signal context; the grace period outlives it.
	stop, cancel := context.WithTimeout(context.WithoutCancel(ctx), shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(stop); err != nil {
		fmt.Fprintln(stderr, "schedd: closing connections still open after the grace period:", err)
		srv.Close()
	}
	return code
}

// shutdownReport is the POST /v1/shutdown response body.
type shutdownReport struct {
	Finished    int                    `json:"finished"`
	Canceled    int                    `json:"canceled"`
	Makespan    int64                  `json:"makespan"`
	Corrections int                    `json:"corrections"`
	Metrics     schedd.MetricsSnapshot `json:"metrics"`
}

// runClient replays an SWF trace into a running daemon: open a
// session, submit each cleaned job at its logged instant, close the
// session, and (with -shutdown) drain the daemon and print its final
// summary — the block simsched -stream prints for the same trace.
func runClient(base, path, session, client string, shutdown bool, stdout io.Writer) error {
	base = strings.TrimSuffix(base, "/")
	hc := http.DefaultClient

	// The daemon's machine size drives the same per-job cleaning rules
	// simsched -stream applies, so both paths schedule identical jobs.
	var status struct {
		MaxProcs int64 `json:"max_procs"`
	}
	if err := getJSON(hc, base+"/v1/status", &status); err != nil {
		return err
	}

	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	src := workload.NewCleanSource(workload.NewScanSource(swf.NewScanner(f)), status.MaxProcs)

	if err := postJSON(hc, base+"/v1/sessions", map[string]string{"session": session, "client": client}, nil); err != nil {
		return err
	}
	submitted := 0
	for {
		j, err := src.NextJob()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		req := schedd.SubmitRequest{Session: session, Job: schedd.JobSpec{
			Number: j.JobNumber, Submit: j.SubmitTime, Procs: j.Procs(),
			Request: j.Request(), Runtime: j.RunTime, User: j.UserID, Partition: j.Partition,
		}}
		if err := postJSON(hc, base+"/v1/jobs", req, nil); err != nil {
			return fmt.Errorf("job %d: %w", j.JobNumber, err)
		}
		submitted++
	}
	if err := postJSON(hc, base+"/v1/sessions/close", map[string]string{"session": session}, nil); err != nil {
		return err
	}
	if !shutdown {
		fmt.Fprintf(stdout, "submitted %d jobs from %s\n", submitted, path)
		return nil
	}
	var rep shutdownReport
	if err := postJSON(hc, base+"/v1/shutdown", nil, &rep); err != nil {
		return err
	}
	m := rep.Metrics
	report.StreamSummary(stdout, report.StreamRun{
		Workload: m.Workload, Finished: rep.Finished, MaxProcs: m.MaxProcs, Triple: m.Triple,
		AVEbsld: m.AVEbsld, MaxBsld: m.MaxBsld,
		MeanWait: m.MeanWait, WaitP50: m.WaitP50, WaitP95: m.WaitP95, WaitP99: m.WaitP99,
		Utilization: m.Utilization, Corrections: rep.Corrections, MAE: m.MAE, MeanELoss: m.MeanELoss,
	})
	return nil
}

// getJSON decodes a GET response, surfacing the daemon's error body.
func getJSON(hc *http.Client, url string, out any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeResponse(resp, out)
}

// postJSON posts a JSON body and decodes the response into out (out
// nil drains and discards it), surfacing the daemon's error body.
func postJSON(hc *http.Client, url string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	resp, err := hc.Post(url, "application/json", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeResponse(resp, out)
}

func decodeResponse(resp *http.Response, out any) error {
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err == nil && e.Error != "" {
			return errors.New(e.Error)
		}
		return fmt.Errorf("%s: HTTP %d", resp.Request.URL, resp.StatusCode)
	}
	if out == nil {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
