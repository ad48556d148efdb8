package server

import (
	"context"

	"collabwf/internal/data"
	"collabwf/internal/declog"
	"collabwf/internal/schema"
	"collabwf/internal/wal"
)

// idemEntry tracks one idempotency key. While the original submission is
// in flight, concurrent retries wait on done; once it resolves, res holds
// the outcome. Only successful entries stay in the map — a failed
// submission deletes its key (under the same lock that closes done), so a
// corrected retry executes instead of replaying the failure.
type idemEntry struct {
	done chan struct{}
	res  *SubmitResult
	err  error
	// key is the raw client key (the dedupe map is keyed by the run-scoped
	// form, see idemScope); snapshots export the raw key because each run's
	// WAL is private — re-scoping happens again at recovery.
	key string
}

// idemScope qualifies a client idempotency key with the coordinator's run
// id, so the same key replayed against two runs of one fleet dedupes per
// run instead of cross-run (NUL cannot appear in either part ambiguously:
// run ids are validated by the Manager). Single-run mode ("" id) keeps raw
// keys. Callers hold the lock (runID is written once, before traffic).
func (c *Coordinator) idemScope(key string) string {
	if c.runID == "" {
		return key
	}
	return c.runID + "\x00" + key
}

// defaultIdemWindow bounds the dedupe window when DurabilityConfig (or the
// caller) does not choose one.
const defaultIdemWindow = 4096

// SubmitIdemCtx is SubmitCtx with an idempotency key. If the key was
// already accepted within the dedupe window, the original result is
// returned without re-applying the event; if an identical submission is
// still in flight, the call waits for it and shares its outcome. The key
// travels inside the event's WAL record and the recent window rides in
// every snapshot, so dedupe survives crash recovery — the guarantee a
// client retrying after an ambiguous failure (ErrUnavailable) relies on.
// An empty key degrades to SubmitCtx.
func (c *Coordinator) SubmitIdemCtx(ctx context.Context, peer schema.Peer, ruleName string, bindings map[string]data.Value, key string) (*SubmitResult, error) {
	if key == "" {
		return c.submitCtx(ctx, peer, ruleName, bindings, "")
	}
	c.mu.Lock()
	sk := c.idemScope(key)
	for {
		ent, ok := c.idem[sk]
		if !ok {
			break
		}
		select {
		case <-ent.done:
			// Resolved. Failed entries are deleted before done closes (both
			// under the lock), so an entry still in the map is a success.
			res, m := ent.res, c.metrics
			c.mu.Unlock()
			m.idemReplay()
			c.emitReplay(ctx, peer, ruleName, key, res)
			return res, nil
		default:
		}
		// The original is still in flight: wait off-lock, then re-check —
		// the entry may have resolved either way, or been deleted.
		c.mu.Unlock()
		select {
		case <-ent.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if ent.err == nil {
			c.metrics.idemReplay()
			c.emitReplay(ctx, peer, ruleName, key, ent.res)
			return ent.res, nil
		}
		c.mu.Lock()
	}
	ent := &idemEntry{done: make(chan struct{}), key: key}
	c.idem[sk] = ent
	c.mu.Unlock()

	res, err := c.submitCtx(ctx, peer, ruleName, bindings, key)

	c.mu.Lock()
	ent.res, ent.err = res, err
	if err != nil {
		// Not applied (a crash-ambiguous record, if durable, is rediscovered
		// from the WAL at recovery); free the key so a retry can execute.
		delete(c.idem, sk)
	} else {
		c.idemOrder = append(c.idemOrder, sk)
		c.evictIdemLocked()
	}
	close(ent.done)
	c.mu.Unlock()
	return res, err
}

// emitReplay records an idempotent replay in the decision log: the client
// was acked (again) for an already-applied submission, so the audit trail
// must show a record for this ack even though no new event was appended.
func (c *Coordinator) emitReplay(ctx context.Context, peer schema.Peer, ruleName, key string, res *SubmitResult) {
	if c.dlog.Load() == nil {
		return
	}
	idx := -1
	if res != nil {
		idx = res.Index
	}
	c.emitDecision(ctx, declog.Decision{Kind: declog.KindSubmit, Decision: declog.Replayed,
		Peer: string(peer), Rule: ruleName, Index: idx, RunLen: idx, IdemKey: key})
}

// evictIdemLocked trims the dedupe window to its bound, oldest key first.
// Callers hold the lock.
func (c *Coordinator) evictIdemLocked() {
	max := c.idemMax
	if max <= 0 {
		max = defaultIdemWindow
	}
	for len(c.idemOrder) > max {
		delete(c.idem, c.idemOrder[0])
		c.idemOrder = c.idemOrder[1:]
	}
}

// addIdemLocked installs a recovered (already-resolved) idempotency entry:
// the result is rebuilt from the recovered run so a post-crash retry gets
// the same answer the original submission did. Callers hold the lock (or
// own the coordinator exclusively, as Recover does).
func (c *Coordinator) addIdemLocked(key string, index int) {
	sk := c.idemScope(key)
	if _, ok := c.idem[sk]; ok {
		return
	}
	done := make(chan struct{})
	close(done)
	c.idem[sk] = &idemEntry{done: done, res: c.submitResultLocked(index), key: key}
	c.idemOrder = append(c.idemOrder, sk)
	c.evictIdemLocked()
}

// idemWindowLocked exports the resolved dedupe window in FIFO order, for
// snapshots. Callers hold the lock.
func (c *Coordinator) idemWindowLocked() []wal.IdemEntry {
	if len(c.idemOrder) == 0 {
		return nil
	}
	out := make([]wal.IdemEntry, 0, len(c.idemOrder))
	for _, k := range c.idemOrder {
		if ent := c.idem[k]; ent != nil && ent.res != nil {
			out = append(out, wal.IdemEntry{Key: ent.key, Index: ent.res.Index})
		}
	}
	return out
}
