// Package retry is the retry discipline for HTTP calls, shared by the
// coordinator API client (internal/client) and the decision-log uploader
// (declog.HTTPSink): a failed attempt is retried with exponential backoff
// and full jitter, the server's Retry-After hint is honored, both are
// capped, and a definite failure — a 4xx other than 429 — is returned at
// once.
package retry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// APIError is a non-2xx response from the server, with the decoded error
// body and the Retry-After hint (seconds, 0 if absent).
type APIError struct {
	Status     int
	Msg        string
	RetryAfter int
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Status, e.Msg)
}

// Temporary reports whether the failure is worth retrying: overload (429),
// unavailability (503, the server's retry-safe submission failures) and
// other 5xx. A retried /submit is safe either way — the idempotency key
// dedupes a request whose first attempt actually landed.
func (e *APIError) Temporary() bool {
	return e.Status == http.StatusTooManyRequests || e.Status >= 500
}

// ResponseError returns the *APIError of a non-2xx response, nil for a 2xx
// one: the status, the Retry-After hint and the message of a JSON
// {"error": …} body. It reads from resp.Body and leaves closing it to the
// caller.
func ResponseError(resp *http.Response) *APIError {
	if resp.StatusCode >= 200 && resp.StatusCode <= 299 {
		return nil
	}
	ae := &APIError{Status: resp.StatusCode}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
		ae.RetryAfter = ra
	}
	var eb struct {
		Error string `json:"error"`
	}
	if derr := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb); derr == nil {
		ae.Msg = eb.Error
	}
	return ae
}

// Backoff is one retry policy: how many retries, the first delay and the
// cap. A definite failure (an *APIError that is not Temporary) and context
// cancellation end its loop at once. Safe for concurrent use.
type Backoff struct {
	maxRetries  int
	base, limit time.Duration

	// mu guards rnd (rand.Rand is not goroutine-safe).
	mu  sync.Mutex
	rnd *rand.Rand
}

// NewBackoff returns a policy that retries a failed attempt up to
// maxRetries times, sleeping base, then doubling up to limit; rnd draws the
// jitter.
func NewBackoff(maxRetries int, base, limit time.Duration, rnd *rand.Rand) *Backoff {
	return &Backoff{maxRetries: maxRetries, base: base, limit: limit, rnd: rnd}
}

// Do calls attempt until it succeeds, fails definitely, ctx ends, or the
// retries run out — the last case reports gaveUp, with err the last
// failure. onRetry hears of each retry, numbered from 1, before its sleep.
func (b *Backoff) Do(ctx context.Context, attempt func() error, onRetry func(attempt int, sleep time.Duration, err error)) (gaveUp bool, err error) {
	backoff := b.base
	for n := 0; ; n++ {
		err := attempt()
		if err == nil {
			return false, nil
		}
		if ctx.Err() != nil {
			return false, ctx.Err()
		}
		var ae *APIError
		if errors.As(err, &ae) && !ae.Temporary() {
			return false, err
		}
		if n >= b.maxRetries {
			return true, err
		}
		sleep := b.jitter(backoff)
		if ae != nil && ae.RetryAfter > 0 {
			sleep = max(sleep, time.Duration(ae.RetryAfter)*time.Second)
		}
		sleep = min(sleep, b.limit)
		onRetry(n+1, sleep, err)
		select {
		case <-time.After(sleep):
		case <-ctx.Done():
			return false, ctx.Err()
		}
		backoff = min(2*backoff, b.limit)
	}
}

// jitter draws a full-jitter delay in [d/2, d].
func (b *Backoff) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	half := d / 2
	return half + time.Duration(b.rnd.Int63n(int64(half)+1))
}
