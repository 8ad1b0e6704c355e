package main

import (
	"repro/internal/dist"
	"repro/internal/policy"
	"repro/internal/runner"
	"repro/internal/sim"
)

// sessionProbe times one runner.Session from outside, through the
// public seams only: a Platform wrapper (runner.WithPlatformWrap) and a
// delegating policy.Policy. A nil *sessionProbe means an untraced
// session: no wrapper is installed and the session runs bare.
type sessionProbe struct {
	tr  *tracer
	buf *spanBuf // the session's own spans
	id  int32
	// platLayer is the layer the wrapped platform belongs to.
	platLayer uint8
	// step is the open Session.Step span, in buf. A workload that calls Step
	// itself opens and closes it around the call; a member session is
	// stepped by a coordinator the benchmark cannot reach into, so the
	// probe opens the span when the step's first platform call arrives
	// and closes it from a session observer, which runs last in Step.
	step   int32
	member bool

	// Simulated work seen through the platform, for the counts that
	// must repeat exactly.
	instr  float64
	misses int64
}

func newProbe(tr *tracer, id int, platLayer uint8, member bool) *sessionProbe {
	if tr == nil {
		return nil
	}
	return &sessionProbe{tr: tr, buf: tr.buffer(), id: int32(id), platLayer: platLayer, step: -1, member: member}
}

// options returns the session options that install the probe.
func (p *sessionProbe) options() []runner.SessionOption {
	if p == nil {
		return nil
	}
	opts := []runner.SessionOption{runner.WithPlatformWrap(func(pl runner.Platform) runner.Platform {
		return &timedPlatform{Platform: pl, p: p}
	})}
	if p.member {
		opts = append(opts, runner.WithObserver(func(runner.EpochRecord) { p.stepEnd() }))
	}
	return opts
}

// policy returns pol wrapped in a decide span (pol itself when p is
// nil).
func (p *sessionProbe) policy(pol policy.Policy) policy.Policy {
	if p == nil || pol == nil {
		return pol
	}
	return &timedPolicy{Policy: pol, p: p}
}

// stepBegin and stepEnd bracket a Step call; root is the main-buffer
// span the step runs under, -1 for none.
func (p *sessionProbe) stepBegin(root int32) {
	if p != nil {
		parent := int32(-1)
		if root >= 0 {
			parent = mainRef(root)
		}
		p.step = p.buf.begin(layerRunner, opStep, parent, p.id)
	}
}

func (p *sessionProbe) stepEnd() {
	if p != nil {
		p.buf.end(p.step)
		p.step = -1
	}
}

type timedPlatform struct {
	runner.Platform
	p *sessionProbe
}

func (t *timedPlatform) count(prof sim.Profile) {
	for i := range prof.Cores {
		t.p.instr += prof.Cores[i].Counters.Instructions
		t.p.misses += prof.Cores[i].Counters.Misses
	}
}

func (t *timedPlatform) RunProfile() sim.Profile {
	p := t.p
	if p.member {
		p.stepBegin(p.tr.root.Load())
	}
	s := p.buf.begin(p.platLayer, opRunProfile, p.step, p.id)
	prof := t.Platform.RunProfile()
	p.buf.end(s)
	t.count(prof)
	return prof
}

func (t *timedPlatform) Apply(coreSteps []int, memStep int) error {
	s := t.p.buf.begin(t.p.platLayer, opApply, t.p.step, t.p.id)
	err := t.Platform.Apply(coreSteps, memStep)
	t.p.buf.end(s)
	return err
}

func (t *timedPlatform) FinishEpoch() sim.Profile {
	s := t.p.buf.begin(t.p.platLayer, opFinishEpoch, t.p.step, t.p.id)
	prof := t.Platform.FinishEpoch()
	t.p.buf.end(s)
	t.count(prof)
	return prof
}

type timedPolicy struct {
	policy.Policy
	p *sessionProbe
}

func (t *timedPolicy) Decide(s *policy.Snapshot) (policy.Decision, error) {
	sp := t.p.buf.begin(layerPolicy, opDecide, t.p.step, t.p.id)
	d, err := t.Policy.Decide(s)
	t.p.buf.end(sp)
	return d, err
}

// countingTransport wraps the coordinator's dist.Transport: it counts
// the frames and bytes that cross it in both directions and, on a
// traced pass, tiles the run into one root span per cluster epoch — an
// epoch starts at the first grant pushed for it. Byte counts re-encode
// messages, so they are taken on the traced pass only, and from every
// sizedEvery-th frame: encoding all sixteen frames of an epoch cost 6% of
// the epoch.
type countingTransport struct {
	dist.Transport
	tr     *tracer
	frames int64
	sized  int64 // frames whose encoding was measured
	bytes  int64 // their total size
	epoch  int   // cluster epoch of the open root span, -1 before the first grant
	root   int32
}

// sizedEvery is co-prime with the frames of an epoch, so the sample
// walks through grants and reports of every member.
const sizedEvery = 7

// bytesTotal scales the sampled sizes up to every frame counted.
func (c *countingTransport) bytesTotal() float64 {
	if c.sized == 0 {
		return 0
	}
	return float64(c.bytes) / float64(c.sized) * float64(c.frames)
}

func newCountingTransport(inner dist.Transport, tr *tracer) *countingTransport {
	return &countingTransport{Transport: inner, tr: tr, epoch: -1, root: -1}
}

func (c *countingTransport) account(m dist.Msg) {
	c.frames++
	if c.frames%sizedEvery != 0 {
		return
	}
	if b, err := dist.EncodeMsg(m); err == nil {
		c.sized++
		c.bytes += int64(len(b)) + 1 // NDJSON: one newline per frame
	}
}

func (c *countingTransport) Send(agent string, m dist.Msg) {
	if m.Type == dist.TypeGrant && m.Epoch != c.epoch {
		c.closeEpoch()
		c.epoch = m.Epoch
		c.root = c.tr.begin(layerDist, opEpoch, -1, int32(m.Epoch))
		c.tr.root.Store(c.root)
	}
	c.account(m)
	c.Transport.Send(agent, m)
}

func (c *countingTransport) Recv(deadline int64) (dist.Envelope, bool, error) {
	env, timeout, err := c.Transport.Recv(deadline)
	if err == nil && !timeout {
		c.account(env.Msg)
	}
	return env, timeout, err
}

// closeEpoch ends the open epoch span; called once more after Run.
func (c *countingTransport) closeEpoch() {
	if c.root >= 0 {
		c.tr.end(c.root)
		c.root = -1
		c.tr.root.Store(-1)
	}
}
