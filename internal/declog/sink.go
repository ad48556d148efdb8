package declog

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"collabwf/internal/obs"
	"collabwf/internal/retry"
)

// Sink receives exported decision batches. Export may block and retry
// internally (the logger calls it off the emit path); an error means the
// batch is lost — the logger counts it and moves on (at-most-once).
type Sink interface {
	Export(ctx context.Context, batch []Decision) error
	// Describe names the sink for /statusz ("file:/path", "http://…").
	Describe() string
	Close() error
}

// encodeJSONL renders a batch as JSON Lines into buf.
func encodeJSONL(buf *bytes.Buffer, batch []Decision) error {
	enc := json.NewEncoder(buf)
	for i := range batch {
		if err := enc.Encode(&batch[i]); err != nil {
			return fmt.Errorf("declog: encoding record %d: %w", batch[i].Seq, err)
		}
	}
	return nil
}

// WriterSink writes JSON Lines to an io.Writer — the dev sink (stdout) and
// the test harnesses' capture buffer.
type WriterSink struct {
	mu   sync.Mutex
	w    io.Writer
	name string
}

// NewWriterSink wraps w; name is the /statusz description ("stdout").
func NewWriterSink(w io.Writer, name string) *WriterSink {
	if name == "" {
		name = "writer"
	}
	return &WriterSink{w: w, name: name}
}

func (s *WriterSink) Export(ctx context.Context, batch []Decision) error {
	var buf bytes.Buffer
	if err := encodeJSONL(&buf, batch); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.w.Write(buf.Bytes())
	return err
}

func (s *WriterSink) Describe() string { return s.name }
func (s *WriterSink) Close() error     { return nil }

// FileOptions tunes a FileSink.
type FileOptions struct {
	// MaxBytes rotates the file once it exceeds this size (checked after
	// each batch write, so one batch may overshoot). ≤ 0 disables rotation.
	MaxBytes int64
	// MaxFiles is how many rotated files are kept (path.1 … path.N, newest
	// first; the oldest is deleted). ≤ 0 means 3.
	MaxFiles int
}

// FileSink appends JSON Lines to a file, one write syscall per batch, with
// optional size-based rotation. Batches survive process crashes up to the
// OS page cache (the sink does not fsync: the WAL is the durability story;
// the decision log is the audit story).
type FileSink struct {
	path string
	opts FileOptions

	mu   sync.Mutex
	f    *os.File
	size int64
}

// NewFileSink opens (or creates) path for appending.
func NewFileSink(path string, opts FileOptions) (*FileSink, error) {
	if opts.MaxFiles <= 0 {
		opts.MaxFiles = 3
	}
	s := &FileSink{path: path, opts: opts}
	if err := s.open(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *FileSink) open() error {
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("declog: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("declog: %w", err)
	}
	s.f, s.size = f, st.Size()
	return nil
}

func (s *FileSink) Export(ctx context.Context, batch []Decision) error {
	var buf bytes.Buffer
	if err := encodeJSONL(&buf, batch); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("declog: file sink %s is closed", s.path)
	}
	n, err := s.f.Write(buf.Bytes())
	s.size += int64(n)
	if err != nil {
		return fmt.Errorf("declog: writing %s: %w", s.path, err)
	}
	if s.opts.MaxBytes > 0 && s.size >= s.opts.MaxBytes {
		return s.rotateLocked()
	}
	return nil
}

// rotateLocked shifts path.i → path.(i+1) (dropping the oldest), moves the
// live file to path.1 and reopens a fresh one. Callers hold mu.
func (s *FileSink) rotateLocked() error {
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("declog: rotating %s: %w", s.path, err)
	}
	s.f = nil
	_ = os.Remove(fmt.Sprintf("%s.%d", s.path, s.opts.MaxFiles))
	for i := s.opts.MaxFiles - 1; i >= 1; i-- {
		from := fmt.Sprintf("%s.%d", s.path, i)
		if _, err := os.Stat(from); err == nil {
			_ = os.Rename(from, fmt.Sprintf("%s.%d", s.path, i+1))
		}
	}
	if err := os.Rename(s.path, s.path+".1"); err != nil {
		return fmt.Errorf("declog: rotating %s: %w", s.path, err)
	}
	return s.open()
}

func (s *FileSink) Describe() string { return "file:" + s.path }

func (s *FileSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// HTTPOptions tunes an HTTPSink.
type HTTPOptions struct {
	// HTTPClient is the transport; nil means a dedicated http.Client.
	HTTPClient *http.Client
	// Timeout bounds each upload attempt; ≤ 0 means 5s.
	Timeout time.Duration
	// MaxRetries retries a retryable failure (connection errors, 429, 5xx)
	// that many times before the batch is abandoned (at-most-once); < 0
	// disables retries, 0 means 4.
	MaxRetries int
	// BaseBackoff is the first retry delay (doubles per attempt, full
	// jitter, Retry-After honored); ≤ 0 means 50ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff and an honored Retry-After; ≤ 0 means 2s.
	MaxBackoff time.Duration
	// Rand seeds the jitter, for reproducible tests; nil uses a random seed.
	Rand *rand.Rand
	// Logger, when non-nil, logs retries at debug level.
	Logger *slog.Logger
	// NoGzip posts the JSONL body uncompressed (debugging).
	NoGzip bool
}

// HTTPSink POSTs each batch as gzipped JSON Lines
// (Content-Type application/x-ndjson, Content-Encoding gzip) under the retry
// loop it shares with internal/client (retry.Backoff): capped exponential
// backoff with full jitter, Retry-After honored, definite 4xx failures never
// retried. A batch that exhausts its retries is reported lost to the logger
// — the sink keeps no queue of its own.
type HTTPSink struct {
	url     string
	http    *http.Client
	opts    HTTPOptions
	log     *slog.Logger
	backoff *retry.Backoff
}

// NewHTTPSink returns a sink uploading to url.
func NewHTTPSink(url string, opts HTTPOptions) *HTTPSink {
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Second
	}
	if opts.MaxRetries == 0 {
		opts.MaxRetries = 4
	}
	if opts.MaxRetries < 0 {
		opts.MaxRetries = 0
	}
	if opts.BaseBackoff <= 0 {
		opts.BaseBackoff = 50 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 2 * time.Second
	}
	rnd := opts.Rand
	if rnd == nil {
		rnd = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	s := &HTTPSink{url: url, http: hc, opts: opts, log: obs.Discard(),
		backoff: retry.NewBackoff(opts.MaxRetries, opts.BaseBackoff, opts.MaxBackoff, rnd)}
	if opts.Logger != nil {
		s.log = opts.Logger
	}
	return s
}

func (s *HTTPSink) Export(ctx context.Context, batch []Decision) error {
	var raw bytes.Buffer
	if err := encodeJSONL(&raw, batch); err != nil {
		return err
	}
	body := raw.Bytes()
	encoding := ""
	if !s.opts.NoGzip {
		var zbuf bytes.Buffer
		zw := gzip.NewWriter(&zbuf)
		if _, err := zw.Write(body); err == nil && zw.Close() == nil {
			body, encoding = zbuf.Bytes(), "gzip"
		}
	}
	gaveUp, err := s.backoff.Do(ctx, func() error {
		return s.attempt(ctx, body, encoding)
	}, func(attempt int, sleep time.Duration, err error) {
		s.log.Debug("retrying decision-log upload", slog.Int("attempt", attempt),
			slog.Duration("sleep", sleep), slog.Any("error", err))
	})
	if gaveUp {
		return fmt.Errorf("declog: giving up on batch after %d attempts: %w", s.opts.MaxRetries+1, err)
	}
	return err
}

func (s *HTTPSink) attempt(ctx context.Context, body []byte, encoding string) error {
	actx, cancel := context.WithTimeout(ctx, s.opts.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, s.url, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("declog: %w", err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if encoding != "" {
		req.Header.Set("Content-Encoding", encoding)
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return fmt.Errorf("declog: uploading batch: %w", err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if ae := retry.ResponseError(resp); ae != nil {
		return fmt.Errorf("declog: uploading batch: %w", ae)
	}
	return nil
}

func (s *HTTPSink) Describe() string { return s.url }
func (s *HTTPSink) Close() error     { return nil }
