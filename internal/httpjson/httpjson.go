// Package httpjson is the JSON-over-HTTP plumbing the daemon's two
// control planes share (internal/serve and internal/dist): response
// and request-body encoding, the live NDJSON stream loop with its
// keepalives and termination accounting, and the blocking cursor read
// over an append-only log that feeds it. Each caller keeps only what is
// its own — the mapping from its typed errors onto HTTP statuses, which
// it hands over as a Responder.
package httpjson

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/runner"
)

// maxBodyBytes bounds control-plane request bodies; the requests are
// tiny.
const maxBodyBytes = 1 << 20

// WriteJSON writes v as the JSON body of a response with status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v) // a failed write means the client left
}

// Responder is how one control plane answers: the value is the plane's
// mapping from its typed errors onto HTTP statuses, the methods the
// handler endings every plane shares.
type Responder func(err error) int

// Error answers with err as a {"error": "..."} body under the status
// the plane maps it to.
func (status Responder) Error(w http.ResponseWriter, err error) {
	WriteJSON(w, status(err), map[string]string{"error": err.Error()})
}

// Reply ends a handler with the outcome of its operation: err through
// Error, otherwise v as JSON under code — or, when there is nothing to
// say (nil v), code alone.
func (status Responder) Reply(w http.ResponseWriter, code int, v any, err error) {
	switch {
	case err != nil:
		status.Error(w, err)
	case v == nil:
		w.WriteHeader(code)
	default:
		WriteJSON(w, code, v)
	}
}

// Decode decodes the request body into v (see DecodeBody); on failure
// it has already answered, and reports false.
func (status Responder) Decode(w http.ResponseWriter, r *http.Request, v any) bool {
	err := DecodeBody(r, v)
	if err != nil {
		status.Error(w, err)
	}
	return err == nil
}

// DecodeBody strictly decodes a JSON request body: unknown fields are
// configuration typos, not forward compatibility, at this API's scale.
// Failures wrap runner.ErrInvalidConfig.
func DecodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: request body: %w", runner.ErrInvalidConfig, err)
	}
	return nil
}

// Heartbeat is the idle keepalive record NDJSON streams emit between
// data lines: exactly {"heartbeat":true}. It is not a data record —
// golden comparators skip lines carrying the heartbeat key, and a
// reconnecting consumer's ?from cursor counts data lines only.
type Heartbeat struct {
	Heartbeat bool `json:"heartbeat"`
}

// StreamCounters accounts each stream's fate: keepalive lines as they
// are emitted, and the termination as either completed (the stream
// reached its end — terminal run, deletion) or client_gone (the
// consumer hung up or the write failed mid-stream, the service-side
// view of EPIPE). Nil handles are no-ops.
type StreamCounters struct {
	Heartbeats, Completed, ClientGone *metrics.Counter
}

// StreamNDJSON is the live-follow loop behind every NDJSON endpoint:
// parse ?from, resolve the resource via lookup (nil: the caller already
// did) *before* committing the 200 and the NDJSON header, then encode
// one record per line until next fails. ?from=N starts mid-stream — a
// reconnecting consumer resumes where it left off, records being stable
// once emitted. When hb > 0 and no record lands at the cursor for that
// long, the keepalive value is emitted and the same cursor is retried —
// idle streams stay visibly alive without a write timeout, and
// keepalives never advance the cursor.
//
// A non-nil error means nothing has been written yet — a malformed
// cursor (wrapping runner.ErrInvalidConfig) or lookup's own error — and
// is the caller's to turn into a status. Once the header is committed
// the stream can only end: io.EOF from next is the clean end, a context
// error the client leaving, anything else (deleted mid-stream) ends the
// response too, HTTP having no status left to change.
func StreamNDJSON(w http.ResponseWriter, r *http.Request, hb time.Duration, keepalive any, met StreamCounters,
	lookup func() error, next func(ctx context.Context, cursor int) (any, error)) error {
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return fmt.Errorf("%w: stream cursor %q, want a non-negative integer", runner.ErrInvalidConfig, v)
		}
		from = n
	}
	if lookup != nil {
		if err := lookup(); err != nil {
			return err
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(v any) bool {
		if err := enc.Encode(v); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	for cursor := from; ; {
		ctx, cancel := r.Context(), context.CancelFunc(nil)
		if hb > 0 {
			ctx, cancel = context.WithTimeout(ctx, hb)
		}
		rec, err := next(ctx, cursor)
		if cancel != nil {
			cancel()
		}
		if err != nil {
			// An expired heartbeat window with the client still there
			// means idle, not done: emit the keepalive and retry the
			// same cursor.
			if hb > 0 && errors.Is(err, context.DeadlineExceeded) && r.Context().Err() == nil {
				if !emit(keepalive) {
					met.ClientGone.Inc()
					return nil
				}
				met.Heartbeats.Inc()
				continue
			}
			if r.Context().Err() != nil {
				met.ClientGone.Inc()
			} else {
				met.Completed.Inc()
			}
			return nil
		}
		if !emit(rec) {
			met.ClientGone.Inc()
			return nil
		}
		cursor++
	}
}

// Follow is the blocking cursor read behind every stream's next
// function: it waits on cond until the append-only log holds an entry
// at cursor and returns it — entries are stable once appended, so a
// slow consumer can hold a cursor arbitrarily long. It returns io.EOF
// once ended reports that nothing more will be appended with no entry
// at cursor, and ctx's error if the watch is abandoned first. log and
// ended are read under cond.L, which writers must hold (and Broadcast
// on cond) when they append or end the log.
func Follow[T any](ctx context.Context, cond *sync.Cond, log func() []T, ended func() bool, cursor int) (T, error) {
	var zero T
	if ctx == nil {
		ctx = context.Background()
	}
	// Wake the cond wait when the watcher gives up.
	stop := context.AfterFunc(ctx, func() {
		cond.L.Lock()
		cond.Broadcast()
		cond.L.Unlock()
	})
	defer stop()
	cond.L.Lock()
	defer cond.L.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		if l := log(); cursor < len(l) {
			return l[cursor], nil
		}
		if ended() {
			return zero, io.EOF
		}
		cond.Wait()
	}
}
