package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/serve"
)

// The two serving workloads push the same lifecycle through the same
// fastcapd handler — create → retarget → stream to the end → result →
// delete — from a closed loop of nproc clients, one lifecycle in flight
// each. They differ in what a tenant is.
type serveSpec struct {
	name    string
	cores   int
	epochMs float64
	// classes are the tenant classes; a block of lifecycles runs each of
	// them once, in the seed's order.
	classes []serveClass
}

// serveClass is one kind of tenant: a mix and a length in epochs.
//
// The length is set so that the tenant lives for about 0.3–0.5 s of
// host time whatever its mix costs to simulate (an ILP epoch is twenty
// times cheaper than a MEM one). The retarget is sent as soon as the
// create returns, but the client shares the processors with the
// daemon's CPU-bound workers and may wait a scheduler time slice or two
// (10–20 ms each) before each of its steps; a retarget that then finds
// the tenant finished is refused with 409 and counts as a failed
// operation. A tenant an order of magnitude longer than that wait keeps
// the workload free of such failures.
type serveClass struct {
	mix    string
	epochs int
}

// window is how many records one epoch-latency sample spans: a tenth of
// the stream. A record that is less work than the scheduler's 10 ms time
// slice reaches the client in bursts — most gaps read as zero, a few as
// a whole slice — so the gap is averaged over a window long enough to
// contain the bursts.
func (c serveClass) window() int { return max(1, c.epochs/10) }

// fidelityEpochs is the prefix of the stream the tenant's normalised
// performance is taken over — and so the length of the uncapped
// baseline the set-up simulates.
func (c serveClass) fidelityEpochs() int { return max(4, c.epochs/4) }

var (
	// serveSmall: short epochs, many records. The scheduler, NDJSON and
	// the control plane are a large share of the work. The tenants are
	// one mix of each Table III class.
	serveSmall = serveSpec{name: "serve_small", cores: 4, epochMs: 0.1,
		classes: []serveClass{{"ILP2", 4000}, {"MID3", 800}, {"MEM4", 250}, {"MIX1", 800}}}
	// serveMix16: long epochs, few records. Throughput follows the
	// simulator; control-plane calls contend with 5–23 ms epochs.
	serveMix16 = serveSpec{name: "serve_mix16", cores: 16, epochMs: 1,
		classes: []serveClass{{"ILP1", 60}, {"MID1", 14}, {"MIX3", 18}}}
)

type serveState struct {
	spec    serveSpec
	clients int
	classes []serveClass
	reqs    []serve.Request // per class
	want    [][]byte        // per class: the solo run's records as NDJSON
	base    [][]float64     // per class: uncapped per-core instructions
	order   []int           // the seed's class order inside a block
	soloLg  ledger          // traced: the solo runs' ledger
	soloEp  int

	mgr   *serve.Manager
	reg   *metrics.Registry
	srv   *http.Server
	base0 string // http://127.0.0.1:port
	hc    *http.Client
}

func (s *serveState) close() {
	s.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.mgr.Shutdown(ctx) // every tenant was deleted; nothing left to drain
	s.hc.CloseIdleConnections()
}

// serveSetup simulates every class solo (capped, for the expected
// stream, and uncapped, for the baseline) and starts the manager and
// its listener.
func (spec serveSpec) setup(e *env) (any, error) {
	st := &serveState{spec: spec, clients: runtime.NumCPU(), classes: spec.classes}
	st.order = e.rng().Perm(len(st.classes))
	var soloSpans *tracer
	if e.tr != nil {
		soloSpans = newTracer()
	}
	for ci, class := range st.classes {
		req := serve.Request{Mix: class.mix, BudgetFrac: budgetFrac, Cores: spec.cores,
			Epochs: class.epochs, EpochMs: spec.epochMs, Seed: simSeed(ci)}
		cfg, err := req.Config()
		if err != nil {
			return nil, err
		}
		p := newProbe(soloSpans, ci, layerSim, false)
		cfg.Policy = p.policy(cfg.Policy)
		ses, err := runner.NewSession(cfg, p.options()...)
		if err != nil {
			return nil, err
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		for ep := 0; ep < class.epochs; ep++ {
			p.stepBegin(-1)
			rec, err := ses.Step(context.Background())
			p.stepEnd()
			if err != nil {
				return nil, err
			}
			if err := enc.Encode(rec); err != nil {
				return nil, err
			}
		}
		bcfg := cfg
		bcfg.Policy, bcfg.BudgetFrac, bcfg.Epochs = nil, 1, class.fidelityEpochs()
		base, err := runner.Run(bcfg)
		if err != nil {
			return nil, err
		}
		st.reqs = append(st.reqs, req)
		st.want = append(st.want, want.Bytes())
		st.base = append(st.base, sumInstr(base.Epochs, class.fidelityEpochs()))
		st.soloEp += class.epochs
	}
	if soloSpans != nil {
		st.soloLg = buildLedger(soloSpans.all())
	}

	st.reg = metrics.NewRegistry()
	st.mgr = serve.NewManager(serve.Options{Workers: st.clients, Metrics: serve.NewMetrics(st.reg)})
	mux := http.NewServeMux()
	mux.Handle("/", serve.NewHandler(st.mgr))
	mux.Handle("GET /metrics", st.reg.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.srv = &http.Server{Handler: mux}
	go st.srv.Serve(ln) // returns when close() closes the server
	st.base0 = "http://" + ln.Addr().String()
	st.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * st.clients}}
	return st, nil
}

// tenantAPI is the surface a lifecycle drives: the HTTP client, or the
// Manager called directly (the traced pass's no-HTTP comparison).
type tenantAPI interface {
	create(req serve.Request) (id string, err error)
	retarget(id string, frac float64) error
	// stream follows the tenant to its end, calling line for every
	// record (raw NDJSON line, newline included). opened is called once
	// the stream is established.
	stream(id string, opened func(), line func(raw []byte)) error
	result(id string) error
	delete(id string) error
}

type httpAPI struct {
	base string
	hc   *http.Client
}

func (a httpAPI) do(method, path string, body any, wantCode int, into any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, a.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, wantCode, strings.TrimSpace(string(msg)))
	}
	if into != nil {
		return json.NewDecoder(resp.Body).Decode(into)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

func (a httpAPI) create(req serve.Request) (string, error) {
	var st serve.Status
	err := a.do("POST", "/sessions", req, http.StatusCreated, &st)
	return st.ID, err
}

func (a httpAPI) retarget(id string, frac float64) error {
	return a.do("POST", "/sessions/"+id+"/budget", map[string]float64{"budget_frac": frac}, http.StatusOK, nil)
}

func (a httpAPI) stream(id string, opened func(), line func([]byte)) error {
	resp, err := a.hc.Get(a.base + "/sessions/" + id + "/stream")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET stream: status %d", resp.StatusCode)
	}
	opened()
	rd := bufio.NewReader(resp.Body)
	for {
		raw, err := rd.ReadBytes('\n')
		if len(raw) > 0 && err == nil {
			line(raw)
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

func (a httpAPI) result(id string) error {
	return a.do("GET", "/sessions/"+id+"/result", nil, http.StatusOK, nil)
}

func (a httpAPI) delete(id string) error {
	return a.do("DELETE", "/sessions/"+id, nil, http.StatusNoContent, nil)
}

type managerAPI struct{ m *serve.Manager }

func (a managerAPI) create(req serve.Request) (string, error) {
	st, err := a.m.Create(req)
	return st.ID, err
}
func (a managerAPI) retarget(id string, frac float64) error { return a.m.SetBudget(id, frac) }
func (a managerAPI) stream(id string, opened func(), line func([]byte)) error {
	opened()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for cursor := 0; ; cursor++ {
		rec, err := a.m.Next(context.Background(), id, cursor)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		// Encoded only so the same line checks apply; the cost is the
		// caller's, as a library user marshalling for its own sink.
		buf.Reset()
		if err := enc.Encode(rec); err != nil {
			return err
		}
		line(buf.Bytes())
	}
}
func (a managerAPI) result(id string) error { _, err := a.m.Result(id); return err }
func (a managerAPI) delete(id string) error { return a.m.Close(id) }

// serveSamples are the client-side timings taken once per lifecycle. A
// pass finishes a few dozen lifecycles, too few for a percentile that
// two runs agree on, so they are reported as per-layer metrics and not
// held to a bound.
type serveSamples struct {
	create, firstEpoch, streamOpen, result, delete latencies
	bytes                                          int64
}

func (s *serveSamples) merge(o *serveSamples) {
	s.create.merge(&o.create)
	s.firstEpoch.merge(&o.firstEpoch)
	s.streamOpen.merge(&o.streamOpen)
	s.result.merge(&o.result)
	s.delete.merge(&o.delete)
	s.bytes += o.bytes
}

// lifecycles runs whole blocks of lifecycles through api from a closed
// loop of st.clients clients until the deadline, and at least two
// blocks.
func (st *serveState) lifecycles(e *env, api tenantAPI, tr *tracer) (*outcome, *serveSamples) {
	out, samples := &outcome{}, &serveSamples{}
	// first holds what the first block's tenants streamed, by class; each
	// element is written by the one client that ran the tenant.
	first := make([][]byte, len(st.classes))
	block := int64(len(st.classes))
	var next atomic.Int64
	var stopAt atomic.Int64
	stopAt.Store(-1)
	var mu sync.Mutex
	var wg sync.WaitGroup
	deadline := e.deadline()
	start := time.Now()
	for c := 0; c < st.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			co, cs := &outcome{}, &serveSamples{}
			for {
				i := next.Add(1) - 1
				if i >= 2*block && i%block == 0 && time.Now().After(deadline) {
					stopAt.CompareAndSwap(-1, i)
				}
				if s := stopAt.Load(); s >= 0 && i >= s {
					break
				}
				st.lifecycle(api, tr, int(i), co, cs, first)
			}
			mu.Lock()
			out.merge(co)
			samples.merge(cs)
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	out.epoch.plain, out.retarget.plain = true, true
	st.fidelityFrom(out, first)
	return out, samples
}

// lifecycle is one tenant, start to finish. Lifecycle i runs class
// order[i mod classes]. The retarget re-sends the tenant's own budget:
// the request takes the same path through the daemon as any other, but
// whenever it lands the tenant simulates the same work — so an epoch's
// host time does not depend on the retarget's timing, and every stream
// can be held against a solo run of the tenant's configuration.
func (st *serveState) lifecycle(api tenantAPI, tr *tracer, i int, out *outcome, samples *serveSamples, first [][]byte) {
	spec := st.spec
	ci := st.order[i%len(st.classes)]
	class := st.classes[ci]
	span := func(op uint8) func() {
		if tr == nil {
			return func() {}
		}
		s := tr.begin(layerServe, op, -1, int32(i))
		return func() { tr.end(s) }
	}

	t0 := time.Now()
	end := span(opCreate)
	id, err := api.create(st.reqs[ci])
	end()
	t1 := time.Now()
	if !out.op(err) {
		return
	}
	samples.create.add(0, t1.Sub(t0))

	end = span(opRetarget)
	err = api.retarget(id, st.reqs[ci].BudgetFrac)
	end()
	if out.op(err) {
		out.retarget.add(0, time.Since(t1))
	}

	got := make([]byte, 0, len(st.want[ci]))
	lines := 0
	tOpen := time.Now()
	prev := tOpen
	endOpen := span(opStreamOpen)
	err = api.stream(id, func() {
		endOpen()
		samples.streamOpen.add(0, time.Since(tOpen))
	}, func(raw []byte) {
		now := time.Now()
		if lines == 0 {
			samples.firstEpoch.add(0, now.Sub(t0))
			prev = now
		} else if lines%class.window() == 0 {
			out.epoch.add(0, now.Sub(prev)/time.Duration(class.window()))
			prev = now
		}
		lines++
		got = append(got, raw...)
	})
	if err == nil && lines != class.epochs {
		err = fmt.Errorf("%s: stream of %s ended after %d of %d records", spec.name, id, lines, class.epochs)
	}
	out.op(err)
	out.epochs += lines
	samples.bytes += int64(len(got))

	tr0 := time.Now()
	end = span(opResult)
	err = api.result(id)
	end()
	samples.result.add(0, time.Since(tr0))
	out.op(err)

	td0 := time.Now()
	end = span(opDelete)
	err = api.delete(id)
	end()
	samples.delete.add(0, time.Since(td0))
	out.op(err)

	// Output check: the tenant streamed exactly what a solo run of its
	// configuration produces.
	var cerr error
	if !bytes.Equal(got, st.want[ci]) {
		cerr = fmt.Errorf("%s: tenant %s (%s) streamed %d bytes that differ from the solo run's %d",
			spec.name, id, class.mix, len(got), len(st.want[ci]))
	}
	if out.op(cerr) && i < len(st.classes) {
		first[ci] = got
	}
}

// fidelityFrom takes the fidelity numbers out of the bytes the first
// block streamed — one tenant per class, a fixed set — in class order,
// so that they add up the same way whatever order the tenants finished
// in.
func (st *serveState) fidelityFrom(out *outcome, first [][]byte) {
	for ci, got := range first {
		if got == nil {
			continue // the tenant failed, and was counted
		}
		var recs []runner.EpochRecord
		dec := json.NewDecoder(bytes.NewReader(got))
		for dec.More() {
			var r runner.EpochRecord
			if err := dec.Decode(&r); err != nil {
				out.op(err)
				return
			}
			recs = append(recs, r)
			out.fid.capEpoch(r.Epoch, r.AvgPowerW, r.BudgetW)
		}
		out.op(out.fid.perf(sumInstr(recs, st.classes[ci].fidelityEpochs()), st.base[ci]))
	}
}

func (spec serveSpec) run(e *env, state any) (*outcome, error) {
	st := state.(*serveState)
	defer st.close()
	out, samples := st.lifecycles(e, httpAPI{st.base0, st.hc}, e.tr)
	if e.tr == nil {
		return out, nil
	}

	// The daemon's own count of epochs stepped must equal the clients'.
	stepped, err := scrapeCounter(st.hc, st.base0+"/metrics", "fastcap_serve_session_epochs_total")
	if err != nil {
		return nil, err
	}
	var cerr error
	if int(stepped) != out.epochs {
		cerr = fmt.Errorf("%s: /metrics counts %d epochs stepped, clients read %d", spec.name, int(stepped), out.epochs)
	}
	out.op(cerr)
	out.setLayer("serve.epochs_stepped", stepped)
	out.setLayer("serve.stream_bytes_per_epoch", float64(samples.bytes)/float64(out.epochs))
	p50 := func(l *latencies) float64 { v, _ := l.pct(0.5); return v }
	out.setLayer("serve.stream_open_p50_ms", p50(&samples.streamOpen))
	out.setLayer("serve.result_p50_ms", p50(&samples.result))
	out.setLayer("serve.delete_p50_ms", p50(&samples.delete))
	out.setLayer("serve.create_p50_ms.http", p50(&samples.create))
	v, _ := samples.create.pct(0.95)
	out.setLayer("serve.create_p95_ms.http", v)
	out.setLayer("serve.first_epoch_p50_ms.http", p50(&samples.firstEpoch))
	v, _ = out.retarget.pct(0.95)
	out.setLayer("serve.retarget_p95_ms.http", v)
	out.setLayer("metrics.expose_us", exposeUs(st.reg))

	// The same tenants through the Manager with no HTTP, for a quarter
	// of the time: what is left of the HTTP pass's cost per epoch after
	// subtracting this one's is HTTP, JSON framing and the extra
	// scheduling hops.
	me := *e
	me.seconds = e.seconds / 4
	mout, msamples := st.lifecycles(&me, managerAPI{st.mgr}, nil)
	out.attempted += mout.attempted
	out.failed += mout.failed
	out.failures = append(out.failures, mout.failures...)
	workers := float64(st.clients)
	httpUs := workers * out.wall.Seconds() * 1e6 / float64(out.epochs)
	mgrUs := workers * mout.wall.Seconds() * 1e6 / float64(mout.epochs)
	out.setLayer("serve.manager_epochs_per_s", float64(mout.epochs)/mout.wall.Seconds())
	out.setLayer("serve.http_overhead_us_per_epoch", httpUs-mgrUs)
	out.setLayer("serve.create_us.manager", p50(&msamples.create)*1e3)
	out.setLayer("serve.setbudget_p50_ms.manager", p50(&mout.retarget))

	// The ledger: the solo runs' spans split a bare Session.Step, and
	// everything the Manager and HTTP passes cost on top is the serving
	// layer's.
	soloUs := st.soloLg.Wall / 1e3 / float64(st.soloEp)
	var us [numLayers]float64
	for l, ns := range st.soloLg.Self {
		us[l] = ns / 1e3 / float64(st.soloEp)
	}
	us[layerServe] = httpUs - soloUs
	out.ledgerUs, out.epochUs = &us, httpUs
	out.setLayer("serve.solo_us_per_epoch", soloUs)
	return out, nil
}

// scrapeCounter reads one unlabelled counter from a text exposition.
func scrapeCounter(hc *http.Client, url, name string) (float64, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 && f[0] == name {
			return strconv.ParseFloat(f[1], 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no counter %s at %s", name, url)
}
