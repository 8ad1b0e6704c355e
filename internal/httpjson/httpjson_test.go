package httpjson

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/runner"
)

var errGone = errors.New("gone")

// plane is a control plane with one typed error of its own.
var plane = Responder(func(err error) int {
	switch {
	case errors.Is(err, errGone):
		return http.StatusNotFound
	case errors.Is(err, runner.ErrInvalidConfig):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
})

func TestResponderReplyAndDecode(t *testing.T) {
	cases := []struct {
		name     string
		v        any
		err      error
		code     int
		wantCode int
		wantBody string
	}{
		{"value", map[string]int{"n": 1}, nil, http.StatusCreated, http.StatusCreated, `{"n":1}` + "\n"},
		{"nothing to say", nil, nil, http.StatusNoContent, http.StatusNoContent, ""},
		{"typed error", "ignored", errGone, http.StatusOK, http.StatusNotFound, `{"error":"gone"}` + "\n"},
		{"untyped error", nil, errors.New("boom"), http.StatusOK, http.StatusInternalServerError, `{"error":"boom"}` + "\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rw := httptest.NewRecorder()
			plane.Reply(rw, tc.code, tc.v, tc.err)
			if rw.Code != tc.wantCode || rw.Body.String() != tc.wantBody {
				t.Errorf("answered %d %q, want %d %q", rw.Code, rw.Body.String(), tc.wantCode, tc.wantBody)
			}
		})
	}

	var req struct {
		N int `json:"n"`
	}
	rw := httptest.NewRecorder()
	if !plane.Decode(rw, httptest.NewRequest("POST", "/", strings.NewReader(`{"n":7}`)), &req) || req.N != 7 {
		t.Errorf("clean body refused (n=%d, status %d)", req.N, rw.Code)
	}
	rw = httptest.NewRecorder()
	if plane.Decode(rw, httptest.NewRequest("POST", "/", strings.NewReader(`{"n":7,"typo":1}`)), &req) || rw.Code != http.StatusBadRequest {
		t.Errorf("unknown field accepted (status %d), want a 400", rw.Code)
	}
}

// Nothing may be written before the cursor and the resource are known
// to be good: the error comes back for the caller's own status mapping.
func TestStreamNDJSONFailsBeforeCommitting(t *testing.T) {
	next := func(context.Context, int) (any, error) { return nil, io.EOF }
	rw := httptest.NewRecorder()
	err := StreamNDJSON(rw, httptest.NewRequest("GET", "/s?from=-1", nil), 0, nil, StreamCounters{}, nil, next)
	if !errors.Is(err, runner.ErrInvalidConfig) || rw.Body.Len() != 0 {
		t.Errorf("negative cursor: err %v, %d bytes written; want ErrInvalidConfig and nothing written", err, rw.Body.Len())
	}
	rw = httptest.NewRecorder()
	err = StreamNDJSON(rw, httptest.NewRequest("GET", "/s", nil), 0, nil, StreamCounters{}, func() error { return errGone }, next)
	if !errors.Is(err, errGone) || rw.Body.Len() != 0 {
		t.Errorf("failed lookup: err %v, %d bytes written; want the lookup's error and nothing written", err, rw.Body.Len())
	}
	rw = httptest.NewRecorder()
	if err := StreamNDJSON(rw, httptest.NewRequest("GET", "/s", nil), 0, nil, StreamCounters{}, nil, next); err != nil || rw.Code != http.StatusOK {
		t.Errorf("empty stream: err %v status %d, want a clean 200", err, rw.Code)
	}
}

func TestFollow(t *testing.T) {
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	var log []int
	ended := false
	follow := func(ctx context.Context, cursor int) (int, error) {
		return Follow(ctx, cond, func() []int { return log }, func() bool { return ended }, cursor)
	}
	write := func(f func()) {
		mu.Lock()
		f()
		cond.Broadcast()
		mu.Unlock()
	}

	// A reader ahead of the log blocks until the entry is appended.
	got := make(chan int, 1)
	go func() {
		v, _ := follow(context.Background(), 1)
		got <- v
	}()
	write(func() { log = append(log, 10) })
	write(func() { log = append(log, 11) })
	select {
	case v := <-got:
		if v != 11 {
			t.Errorf("entry 1 read as %d, want 11", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader not woken by the append")
	}

	// An abandoned watch wakes with the context's error.
	ctx, cancel := context.WithCancel(context.Background())
	failed := make(chan error, 1)
	go func() {
		_, err := follow(ctx, 2)
		failed <- err
	}()
	cancel()
	select {
	case err := <-failed:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("abandoned watch returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned watch never returned")
	}

	// An ended log still serves what it holds, then io.EOF.
	write(func() { ended = true })
	if v, err := follow(nil, 0); v != 10 || err != nil {
		t.Errorf("entry 0 of an ended log: %d, %v; want 10, nil", v, err)
	}
	if _, err := follow(nil, 2); err != io.EOF {
		t.Errorf("past the end of an ended log: %v, want io.EOF", err)
	}
}
