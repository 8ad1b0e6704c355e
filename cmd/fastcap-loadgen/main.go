// fastcap-loadgen drives a live fastcapd with closed-loop session and
// cluster lifecycles and reports latency percentiles and throughput as
// one machine-readable JSON object.
//
// Each worker loops the full tenant lifecycle against the daemon:
// create a session (POST /sessions), follow its NDJSON stream to the
// end (counting epoch records, skipping heartbeats), retarget the
// budget mid-stream (POST /sessions/{id}/budget), then delete it. With
// -clusters > 0 additional workers drive the same loop through the
// cluster-group API (two members per group). Closed loop means a worker
// never has more than one lifecycle in flight, so -sessions IS the
// daemon's resident-tenant load, making sessions/sec at a given
// concurrency directly comparable across commits.
//
//	fastcap-loadgen -base http://127.0.0.1:8080 -sessions 16 -lifecycles 4
//
// The report (stdout, or -json FILE) carries create/stream/retarget/
// delete latency p50/p95/p99 in milliseconds, lifecycle and epoch
// throughput, and an error count. Exit status is 1 when any lifecycle
// failed.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/stats"
)

func main() {
	var (
		base       = flag.String("base", "http://127.0.0.1:8080", "fastcapd base URL")
		sessions   = flag.Int("sessions", 16, "concurrent closed-loop session workers")
		clusters   = flag.Int("clusters", 0, "additional concurrent cluster-group workers (2 members each)")
		lifecycles = flag.Int("lifecycles", 4, "lifecycles per worker")
		mix        = flag.String("mix", "MIX1", "workload mix for every session")
		cores      = flag.Int("cores", 16, "cores per session machine")
		epochs     = flag.Int("epochs", 20, "epochs per session")
		epochMs    = flag.Float64("epoch-ms", 1, "control epoch length in ms")
		budget     = flag.Float64("budget", 0.7, "initial budget fraction")
		retarget   = flag.Float64("retarget", 0.5, "mid-stream retarget budget fraction (0 disables)")
		seed       = flag.Int64("seed", 1, "base simulation seed (each lifecycle offsets it)")
		timeout    = flag.Duration("timeout", 2*time.Minute, "per-stream follow timeout")
		jsonOut    = flag.String("json", "-", "report destination ('-' = stdout)")
	)
	flag.Parse()

	lg := &loadgen{
		base:     strings.TrimRight(*base, "/"),
		mix:      *mix,
		cores:    *cores,
		epochs:   *epochs,
		epochMs:  *epochMs,
		budget:   *budget,
		retarget: *retarget,
		seed:     *seed,
		// One client for control calls (bounded) and one for stream
		// follows (bounded only by -timeout via the request context —
		// a Timeout here would sever long streams).
		ctl:    &http.Client{Timeout: 30 * time.Second},
		follow: &http.Client{Timeout: *timeout},
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *sessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for l := 0; l < *lifecycles; l++ {
				lg.sessionLifecycle(w, l)
			}
		}(w)
	}
	for w := 0; w < *clusters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for l := 0; l < *lifecycles; l++ {
				lg.clusterLifecycle(w, l)
			}
		}(w)
	}
	wg.Wait()
	rep := lg.report(*sessions, *clusters, time.Since(start))

	out := os.Stdout
	if *jsonOut != "-" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			log.Fatalf("fastcap-loadgen: %v", err)
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(rep); err != nil {
		log.Fatalf("fastcap-loadgen: %v", err)
	}
	if rep.Errors > 0 {
		os.Exit(1)
	}
}

// loadgen holds the shared target config and the latency samples the
// workers append under mu.
type loadgen struct {
	base                      string
	mix                       string
	cores, epochs             int
	epochMs, budget, retarget float64
	seed                      int64
	ctl, follow               *http.Client

	mu                                sync.Mutex
	create, stream, retargetL, delete []float64 // seconds
	done, failed, epochsSeen          int
	firstErr                          string
}

func (lg *loadgen) fail(err error) {
	lg.mu.Lock()
	lg.failed++
	if lg.firstErr == "" {
		lg.firstErr = err.Error()
	}
	lg.mu.Unlock()
}

// sessionLifecycle runs one create → stream(+retarget) → delete loop.
func (lg *loadgen) sessionLifecycle(worker, iter int) {
	body := map[string]any{
		"mix":         lg.mix,
		"budget_frac": lg.budget,
		"cores":       lg.cores,
		"epochs":      lg.epochs,
		"epoch_ms":    lg.epochMs,
		"seed":        lg.seed + int64(worker)*1000 + int64(iter),
	}
	t0 := time.Now()
	var st struct {
		ID string `json:"id"`
	}
	if err := lg.post("/sessions", body, &st); err != nil {
		lg.fail(fmt.Errorf("create: %w", err))
		return
	}
	createDur := time.Since(t0)

	n, streamDur, retDur, err := lg.followStream("/sessions/"+st.ID+"/stream",
		"/sessions/"+st.ID+"/budget", map[string]any{"budget_frac": lg.retarget})
	if err != nil {
		lg.fail(fmt.Errorf("stream %s: %w", st.ID, err))
		lg.del("/sessions/" + st.ID)
		return
	}

	t0 = time.Now()
	if err := lg.del("/sessions/" + st.ID); err != nil {
		lg.fail(fmt.Errorf("delete %s: %w", st.ID, err))
		return
	}
	delDur := time.Since(t0)

	lg.record(createDur, streamDur, retDur, delDur, n)
}

// clusterLifecycle is the cluster-group twin: one group, two members.
func (lg *loadgen) clusterLifecycle(worker, iter int) {
	member := func(i int) map[string]any {
		return map[string]any{"session": map[string]any{
			"mix":         lg.mix,
			"budget_frac": lg.budget,
			"cores":       lg.cores,
			"epochs":      lg.epochs,
			"epoch_ms":    lg.epochMs,
			"seed":        lg.seed + int64(worker)*1000 + int64(iter)*2 + int64(i),
		}}
	}
	body := map[string]any{
		"budget_frac": lg.budget,
		"members":     []any{member(0), member(1)},
	}
	t0 := time.Now()
	var st struct {
		ID      string  `json:"id"`
		BudgetW float64 `json:"budget_w"`
	}
	if err := lg.post("/clusters", body, &st); err != nil {
		lg.fail(fmt.Errorf("cluster create: %w", err))
		return
	}
	createDur := time.Since(t0)

	n, streamDur, retDur, err := lg.followStream("/clusters/"+st.ID+"/stream",
		"/clusters/"+st.ID+"/budget",
		map[string]any{"budget_w": st.BudgetW * lg.retarget / lg.budget})
	if err != nil {
		lg.fail(fmt.Errorf("cluster stream %s: %w", st.ID, err))
		lg.del("/clusters/" + st.ID)
		return
	}

	t0 = time.Now()
	if err := lg.del("/clusters/" + st.ID); err != nil {
		lg.fail(fmt.Errorf("cluster delete %s: %w", st.ID, err))
		return
	}
	delDur := time.Since(t0)

	lg.record(createDur, streamDur, retDur, delDur, n)
}

// followStream reads an NDJSON epoch stream to its end, firing the
// retarget POST once after the first data line. It returns the data
// line count, the full stream duration and the retarget latency (0 when
// retargeting is disabled).
func (lg *loadgen) followStream(streamPath, budgetPath string, retargetBody map[string]any) (n int, streamDur, retDur time.Duration, err error) {
	t0 := time.Now()
	resp, err := lg.follow.Get(lg.base + streamPath)
	if err != nil {
		return 0, 0, 0, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, 0, fmt.Errorf("stream status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	retargeted := lg.retarget <= 0
	for sc.Scan() {
		if bytes.Contains(sc.Bytes(), []byte(`"heartbeat"`)) {
			continue
		}
		n++
		if !retargeted {
			retargeted = true
			tr := time.Now()
			if err := lg.post(budgetPath, retargetBody, nil); err != nil {
				return n, 0, 0, fmt.Errorf("retarget: %w", err)
			}
			retDur = time.Since(tr)
		}
	}
	if err := sc.Err(); err != nil {
		return n, 0, 0, err
	}
	if n == 0 {
		return 0, 0, 0, fmt.Errorf("stream ended with no epoch records")
	}
	return n, time.Since(t0), retDur, nil
}

func (lg *loadgen) record(create, stream, ret, del time.Duration, epochs int) {
	lg.mu.Lock()
	lg.create = append(lg.create, create.Seconds())
	lg.stream = append(lg.stream, stream.Seconds())
	if ret > 0 {
		lg.retargetL = append(lg.retargetL, ret.Seconds())
	}
	lg.delete = append(lg.delete, del.Seconds())
	lg.done++
	lg.epochsSeen += epochs
	lg.mu.Unlock()
}

func (lg *loadgen) post(path string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := lg.ctl.Post(lg.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (lg *loadgen) del(path string) error {
	req, err := http.NewRequest(http.MethodDelete, lg.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := lg.ctl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("DELETE %s: status %d", path, resp.StatusCode)
	}
	return nil
}

// LatencySummary is one operation's latency distribution, milliseconds.
type LatencySummary struct {
	N    int     `json:"n"`
	P50  float64 `json:"p50_ms"`
	P95  float64 `json:"p95_ms"`
	P99  float64 `json:"p99_ms"`
	Mean float64 `json:"mean_ms"`
	Max  float64 `json:"max_ms"`
}

// summarize returns nil for a class with no samples: an all-zero block
// would be indistinguishable from genuinely instant operations (e.g.
// when -retarget 0 disables retargets entirely), so empty classes are
// omitted from the report instead.
func summarize(xs []float64) *LatencySummary {
	if len(xs) == 0 {
		return nil
	}
	var s stats.Streaming
	for _, x := range xs {
		s.Observe(x * 1e3)
	}
	ms := make([]float64, len(xs))
	for i, x := range xs {
		ms[i] = x * 1e3
	}
	pct := stats.Percentiles(ms, 50, 95, 99)
	return &LatencySummary{
		N:    len(xs),
		P50:  pct[0],
		P95:  pct[1],
		P99:  pct[2],
		Mean: s.Mean(),
		Max:  s.Max(),
	}
}

// Report is the loadgen's machine-readable result.
type Report struct {
	Base           string  `json:"base"`
	Concurrency    int     `json:"concurrency"`
	ClusterWorkers int     `json:"cluster_workers,omitempty"`
	Lifecycles     int     `json:"lifecycles"`
	Errors         int     `json:"errors"`
	FirstError     string  `json:"first_error,omitempty"`
	ElapsedSec     float64 `json:"elapsed_sec"`
	SessionsPerSec float64 `json:"sessions_per_sec"`
	Epochs         int     `json:"epochs"`
	EpochsPerSec   float64 `json:"epochs_per_sec"`
	// Latency blocks are omitted (not zeroed) for classes that recorded
	// no samples, e.g. retarget when -retarget 0 disables it.
	Create   *LatencySummary `json:"create,omitempty"`
	Stream   *LatencySummary `json:"stream,omitempty"`
	Retarget *LatencySummary `json:"retarget,omitempty"`
	Delete   *LatencySummary `json:"delete,omitempty"`
}

func (lg *loadgen) report(sessions, clusters int, elapsed time.Duration) Report {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	sec := elapsed.Seconds()
	return Report{
		Base:           lg.base,
		Concurrency:    sessions,
		ClusterWorkers: clusters,
		Lifecycles:     lg.done,
		Errors:         lg.failed,
		FirstError:     lg.firstErr,
		ElapsedSec:     sec,
		SessionsPerSec: float64(lg.done) / sec,
		Epochs:         lg.epochsSeen,
		EpochsPerSec:   float64(lg.epochsSeen) / sec,
		Create:         summarize(lg.create),
		Stream:         summarize(lg.stream),
		Retarget:       summarize(lg.retargetL),
		Delete:         summarize(lg.delete),
	}
}
