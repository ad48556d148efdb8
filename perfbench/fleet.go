package main

import (
	"bufio"
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"collabwf/internal/client"
	"collabwf/internal/obs"
	"collabwf/internal/parse"
	"collabwf/internal/server"
	"collabwf/internal/wal"
)

// The server runs with wfserve's defaults: -fsync always, -snapshot-every
// 256, the metrics registry, the flight-recorder tracer sampling always into
// 256 traces, and a 30 s request timeout. No guards, decision log or rule
// profiler.
const (
	snapshotEvery  = 256
	requestTimeout = 30 * time.Second
)

var logger = func() *slog.Logger {
	l, err := obs.NewLogger(os.Stderr, "info", "json")
	if err != nil {
		panic(err)
	}
	return l
}()

func loadSpec(root, name string) (*parse.Spec, error) {
	src, err := os.ReadFile(filepath.Join(root, "examples", "specs", name+".wf"))
	if err != nil {
		return nil, err
	}
	spec, err := parse.Parse(string(src))
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", name, err)
	}
	return spec, nil
}

func durability(reg *obs.Registry) server.DurabilityConfig {
	return server.DurabilityConfig{Sync: wal.SyncAlways, SnapshotEvery: snapshotEvery, Metrics: reg}
}

// newManager builds (or recovers) a fleet the way wfserve does.
func newManager(spec *parse.Spec, dir string) (*server.Manager, error) {
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	obs.RegisterBuildInfo(reg)
	tracer := obs.NewTracer(obs.TracerOptions{Policy: obs.SampleAlways, SlowerThan: 100 * time.Millisecond, Capacity: 256})
	m, err := server.NewManager(server.ManagerConfig{
		Workflow:   spec.Name,
		Prog:       spec.Program,
		DataDir:    dir,
		Durability: durability(reg),
		HTTP: server.HTTPOptions{
			RequestTimeout: requestTimeout,
			MaxBodyBytes:   1 << 20,
			Logger:         logger,
			Tracer:         tracer,
		},
		Registry: reg,
		Logger:   logger,
	})
	if err != nil {
		return nil, err
	}
	for _, r := range m.Runs() {
		c, _ := m.Run(r.ID)
		if err := c.Ready(); err != nil {
			m.Close()
			return nil, fmt.Errorf("run %s not ready: %w", r.ID, err)
		}
	}
	return m, nil
}

// fleet is one hosted server: a Manager behind an httptest listener on
// loopback, and the typed client that drives it over at most two
// connections.
type fleet struct {
	spec  *parse.Spec
	dir   string
	mgr   *server.Manager
	srv   *httptest.Server
	tr    *http.Transport
	cli   *client.Client
	spans *spanLog // nil when the benchmark's spans are off
}

// serve puts a manager behind a fresh listener.
func serve(spec *parse.Spec, dir string, m *server.Manager, seed int64, spans *spanLog) *fleet {
	var h http.Handler = m.Handler()
	if spans != nil {
		h = spans.wrap(h)
	}
	f := &fleet{spec: spec, dir: dir, mgr: m, srv: httptest.NewServer(h), spans: spans}
	f.tr = &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	f.cli = client.New(f.srv.URL, client.Options{
		HTTPClient:     &http.Client{Transport: tagTransport{f.tr}},
		RequestTimeout: requestTimeout,
		Rand:           rand.New(rand.NewSource(seed)),
	})
	return f
}

func startFleet(spec *parse.Spec, dir string, seed int64, spans *spanLog) (*fleet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m, err := newManager(spec, dir)
	if err != nil {
		return nil, err
	}
	return serve(spec, dir, m, seed, spans), nil
}

func (f *fleet) stopListener() {
	f.srv.Close()
	f.tr.CloseIdleConnections()
}

// close shuts the fleet down gracefully and deletes its data.
func (f *fleet) close() {
	f.stopListener()
	f.mgr.Close()
	os.RemoveAll(f.dir)
}

func runDir(dir, id string) string {
	if id == server.DefaultRun {
		return dir
	}
	return filepath.Join(dir, "runs", id)
}

// crash kills every run the way a process kill would and then discards the
// WAL bytes no fsync covered: a kill leaves the page cache intact, so the
// benchmark drops the unflushed tail itself.
func (f *fleet) crash() error {
	f.stopListener()
	for _, r := range f.mgr.Runs() {
		c, _ := f.mgr.Run(r.ID)
		durable, _, err := c.Crash()
		if err != nil {
			return fmt.Errorf("crashing run %s: %w", r.ID, err)
		}
		if err := os.Truncate(filepath.Join(runDir(f.dir, r.ID), "wal.log"), durable); err != nil {
			return fmt.Errorf("truncating run %s: %w", r.ID, err)
		}
	}
	return nil
}

// scrape reads the server's /metrics page into name{labels} → value.
func (f *fleet) scrape() (map[string]float64, error) {
	resp, err := http.Get(f.srv.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// opKey carries an op's log index from the caller into the transport, which
// stamps it on the request so the server-side wrapper can file its span
// under the same index.
type opKey struct{}

const opHeader = "X-Perfbench-Op"

func withOp(ctx context.Context, idx int) context.Context {
	return context.WithValue(ctx, opKey{}, idx)
}

type tagTransport struct{ next http.RoundTripper }

func (t tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if idx, ok := r.Context().Value(opKey{}).(int); ok {
		r = r.Clone(r.Context())
		r.Header.Set(opHeader, strconv.Itoa(idx))
	}
	return t.next.RoundTrip(r)
}

// spanLog is the benchmark's in-memory span store for the http layer: the
// time Manager.Handler() took for each tagged request and the bytes it
// wrote.
type spanLog struct {
	mu sync.Mutex
	h  map[int]handlerSpan
}

type handlerSpan struct {
	d     time.Duration
	bytes int
}

func newSpanLog() *spanLog { return &spanLog{h: make(map[int]handlerSpan)} }

func (s *spanLog) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		idx, err := strconv.Atoi(r.Header.Get(opHeader))
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(cw, r)
		d := time.Since(start)
		s.mu.Lock()
		s.h[idx] = handlerSpan{d, cw.n}
		s.mu.Unlock()
	})
}

// fill copies the recorded handler spans onto the op log.
func (s *spanLog) fill(ops []*op) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, o := range ops {
		if sp, ok := s.h[i]; ok {
			o.handler, o.respBytes = sp.d, sp.bytes
		}
	}
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += n
	return n, err
}
