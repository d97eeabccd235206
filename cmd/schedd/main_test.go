package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/schedd"
	"repro/internal/swf"
	"repro/internal/workload"
)

// TestUsageErrors pins the flag-combination validation: every
// contradictory combination exits 2 with a message naming the conflict.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"connect-without-replay", []string{"-connect", "http://x"}, "needs -replay"},
		{"connect+maxprocs", []string{"-connect", "http://x", "-replay", "t.swf", "-maxprocs", "64"}, "conflicts with -connect"},
		{"connect+trace", []string{"-connect", "http://x", "-replay", "t.swf", "-trace", "t.jsonl"}, "conflicts with -connect"},
		{"replay-without-connect", []string{"-replay", "t.swf"}, "needs -connect"},
		{"shutdown-without-connect", []string{"-shutdown"}, "needs -connect"},
		{"session-without-connect", []string{"-session", "s"}, "needs -connect"},
		{"no-maxprocs", nil, "-maxprocs must be positive"},
		{"bad-triple", []string{"-maxprocs", "64", "-triple", "eazy"}, "unknown triple"},
		{"trace-to-stdout", []string{"-maxprocs", "64", "-trace", "-"}, "cannot write to stdout"},
		{"trace-to-dev-stdout", []string{"-maxprocs", "64", "-trace", "/dev/stdout"}, "cannot write to stdout"},
		{"spec+maxprocs", []string{"-spec", "x.yaml", "-maxprocs", "64"}, "drop -maxprocs"},
		{"spec+triple", []string{"-spec", "x.yaml", "-triple", "easy"}, "drop -triple"},
		{"unknown-flag", []string{"-flood", "everything"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(context.Background(), tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.want)
			}
		})
	}
}

// syncBuffer is a goroutine-safe writer: the server goroutine writes
// while the test polls for the listening line.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenRE = regexp.MustCompile(`listening on (http://[^\s]+)`)

// startServer launches run() in server mode on an ephemeral port and
// returns the base URL plus the exit channel and output buffers.
func startServer(t *testing.T, args []string) (string, chan int, *syncBuffer, *syncBuffer) {
	t.Helper()
	stdout, stderr := &syncBuffer{}, &syncBuffer{}
	exit := make(chan int, 1)
	go func() { exit <- run(context.Background(), args, stdout, stderr) }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if m := listenRE.FindStringSubmatch(stderr.String()); m != nil {
			return m[1], exit, stdout, stderr
		}
		select {
		case code := <-exit:
			t.Fatalf("server exited %d before listening (stderr: %s)", code, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never printed the listening line (stderr: %s)", stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// writeTrace generates a workload and writes it as an SWF file,
// returning the path and the number of jobs the cleaning rules keep.
func writeTrace(t *testing.T, preset string, jobs int) (string, int64, int) {
	t.Helper()
	cfg, err := workload.Scaled(preset, jobs)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.swf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := swf.Write(f, &swf.Trace{Header: swf.Header{MaxProcs: w.MaxProcs}, Jobs: w.Jobs}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	src := workload.NewCleanSource(workload.NewScanSource(swf.NewScanner(g)), w.MaxProcs)
	kept := 0
	for {
		if _, err := src.NextJob(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		kept++
	}
	return path, w.MaxProcs, kept
}

// TestServeReplayShutdown is the CLI end to end: a server on an
// ephemeral port, a replay client submitting a generated SWF trace,
// a wire-side shutdown — and the server's final summary must be
// byte-identical to the block the client printed from the shutdown
// response (same StreamSummary either side of the wire).
func TestServeReplayShutdown(t *testing.T) {
	path, maxProcs, kept := writeTrace(t, "KTH-SP2", 150)
	base, exit, stdout, stderr := startServer(t, []string{
		"-addr", "127.0.0.1:0", "-maxprocs", fmt.Sprint(maxProcs), "-triple", "easy++",
	})

	var cliOut, cliErr bytes.Buffer
	if code := run(context.Background(), []string{
		"-connect", base, "-replay", path, "-shutdown",
	}, &cliOut, &cliErr); code != 0 {
		t.Fatalf("client exit %d, stderr: %s", code, cliErr.String())
	}
	if code := <-exit; code != 0 {
		t.Fatalf("server exit %d, stderr: %s", code, stderr.String())
	}

	want := fmt.Sprintf("workload      live (streamed, %d jobs finished, %d procs)", kept, maxProcs)
	if !strings.Contains(cliOut.String(), want) {
		t.Fatalf("client summary missing %q:\n%s", want, cliOut.String())
	}
	if cliOut.String() != stdout.String() {
		t.Fatalf("server and client summaries differ:\nserver:\n%s\nclient:\n%s", stdout.String(), cliOut.String())
	}
	for _, line := range []string{"triple        EASY-SJBF/AVE2/Incremental", "AVEbsld", "utilization", "prediction MAE"} {
		if !strings.Contains(cliOut.String(), line) {
			t.Errorf("summary missing %q:\n%s", line, cliOut.String())
		}
	}
}

// TestServeSpecAndSignal starts the server from a serve: spec block and
// drains it through context cancellation — the SIGTERM path.
func TestServeSpecAndSignal(t *testing.T) {
	specPath := filepath.Join(t.TempDir(), "serve.yaml")
	if err := os.WriteFile(specPath, []byte(
		"serve:\n  addr: 127.0.0.1:0\n  max_procs: 64\n  triple: easy\n  clients: [a, b]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr := &syncBuffer{}, &syncBuffer{}
	ctx, cancel := context.WithCancel(context.Background())
	exit := make(chan int, 1)
	go func() { exit <- run(ctx, []string{"-spec", specPath}, stdout, stderr) }()
	deadline := time.Now().Add(30 * time.Second)
	for listenRE.FindStringSubmatch(stderr.String()) == nil {
		if time.Now().After(deadline) {
			t.Fatalf("server never printed the listening line (stderr: %s)", stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	if code := <-exit; code != 0 {
		t.Fatalf("server exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "draining") {
		t.Errorf("stderr missing the drain notice: %s", stderr.String())
	}
	out := stdout.String()
	for _, line := range []string{"workload      live (streamed, 0 jobs finished, 64 procs)", "triple        EASY/RequestedTime/RequestedTime", "client a", "client b"} {
		if !strings.Contains(out, line) {
			t.Errorf("summary missing %q:\n%s", line, out)
		}
	}
}

// stopSignalListener reports when the server stops accepting: both a
// graceful and a hard server stop begin by closing the listener.
type stopSignalListener struct {
	net.Listener
	once    sync.Once
	stopped chan struct{}
}

func (l *stopSignalListener) Close() error {
	l.once.Do(func() { close(l.stopped) })
	return l.Listener.Close()
}

// heldReply runs hold before the first byte of a response is written.
type heldReply struct {
	http.ResponseWriter
	once sync.Once
	hold func()
}

func (w *heldReply) WriteHeader(code int) {
	w.once.Do(w.hold)
	w.ResponseWriter.WriteHeader(code)
}

func (w *heldReply) Write(b []byte) (int, error) {
	w.once.Do(w.hold)
	return w.ResponseWriter.Write(b)
}

// TestShutdownReplyOutlivesServerStop forces the interleaving behind a
// lost POST /v1/shutdown reply. The handler drains the daemon, which
// wakes serve, and only then writes its reply. Here the reply is held
// until serve has begun stopping the server; a stop that closes open
// connections would cancel the request (ending the hold at once) and
// the client would read EOF instead of the report.
func TestShutdownReplyOutlivesServerStop(t *testing.T) {
	d, err := schedd.New(schedd.Options{Workload: "live", MaxProcs: 64, Triple: core.EASY()})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &stopSignalListener{Listener: inner, stopped: make(chan struct{})}
	h := d.Handler()
	held := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/shutdown" {
			w = &heldReply{ResponseWriter: w, hold: func() {
				select {
				case <-ln.stopped:
				case <-time.After(30 * time.Second):
					t.Error("serve never stopped the server after the daemon drained")
				}
				select {
				case <-r.Context().Done(): // the connection was closed under the handler
				case <-time.After(50 * time.Millisecond):
				}
			}}
		}
		h.ServeHTTP(w, r)
	})
	exit := make(chan int, 1)
	go func() { exit <- serve(context.Background(), d, ln, held, io.Discard) }()

	var rep shutdownReport
	if err := postJSON(&http.Client{}, "http://"+ln.Addr().String()+"/v1/shutdown", nil, &rep); err != nil {
		t.Fatalf("shutdown reply lost: %v", err)
	}
	if rep.Metrics.MaxProcs != 64 || rep.Finished != 0 {
		t.Fatalf("unexpected shutdown report: %+v", rep)
	}
	if code := <-exit; code != 0 {
		t.Fatalf("serve exit %d", code)
	}
}
