package dist

import (
	"container/heap"
	"fmt"
	"math/rand"
)

// Faults is SimNet's seeded fault plan. Probabilities apply per
// message, independently in each direction; Restarts are deterministic
// kill/recover schedules keyed to grant deliveries.
type Faults struct {
	// DropProb loses a message outright.
	DropProb float64
	// DupProb delivers a message twice (the duplicate one latency
	// later).
	DupProb float64
	// DelayProb adds DelayNs to a message's latency — enough of it and
	// the message out-runs the straggler deadline.
	DelayProb float64
	DelayNs   int64
	// Restarts crash and recover whole agents mid-epoch.
	Restarts []Restart
}

// Restart crashes an agent at the delivery of the grant for cluster
// epoch Epoch to member Member (any member of the agent if Member is
// empty): before the step executes, or after it (AfterStep) — the
// report for the epoch is lost either way, but the journal differs by
// one entry, which is exactly the recovery fork the journal design
// covers. RestartAfterNs later the harness's rebuild hook runs; 0
// means the agent stays dead.
type Restart struct {
	Agent          string
	Member         string
	Epoch          int
	AfterStep      bool
	RestartAfterNs int64
}

// SimConfig configures a SimNet.
type SimConfig struct {
	// Seed drives every probabilistic fault. Same seed, same plan, same
	// schedule: byte-identical runs.
	Seed int64
	// LatencyNs is the one-way delivery latency. Default 1 ms.
	LatencyNs int64
	Faults    Faults
}

// simEvent is one scheduled delivery or timer in virtual time, ordered
// by (at, seq) — seq breaks ties in schedule order, keeping the run
// deterministic.
type simEvent struct {
	at   int64
	seq  int64
	fire func()
}

type eventHeap []simEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)   { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)     { *h = append(*h, x.(simEvent)) }
func (h *eventHeap) Pop() any       { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h *eventHeap) peek() simEvent { return (*h)[0] }

// simAgent is one registered endpoint. gen is the incarnation counter:
// every message and timer captures it at scheduling time and is dropped
// at fire time if the agent restarted in between — a crash tears down
// in-flight traffic in both directions, exactly like a dead process.
type simAgent struct {
	name    string
	gen     int
	handle  func(Msg)
	rebuild func()
}

// SimNet is a single-goroutine virtual-time loopback transport: the
// coordinator's Recv pumps the event heap inline, agent handlers run
// synchronously inside the pump, and all randomness comes from one
// seeded source consumed in pump order — so a (seed, fault plan, fixture)
// triple always produces the same run, byte for byte. Every message is
// round-tripped through AppendMsg/DecodeMsg, so what the protocol logic
// sees is exactly what the JSON wire carries.
//
// SimNet is not safe for concurrent use; it models a cluster, it does
// not run one.
type SimNet struct {
	cfg      SimConfig
	rng      *rand.Rand
	now      int64
	seq      int64
	events   eventHeap
	inbox    []Envelope
	agents   map[string]*simAgent
	restarts []Restart
	err      error
	// wire is the one buffer every frame is encoded into.
	wire []byte
}

// NewSimNet builds a simulated network with the given seed, latency and
// fault plan.
func NewSimNet(cfg SimConfig) *SimNet {
	if cfg.LatencyNs <= 0 {
		cfg.LatencyNs = 1e6
	}
	return &SimNet{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		agents:   make(map[string]*simAgent),
		restarts: append([]Restart(nil), cfg.Faults.Restarts...),
	}
}

// Register connects (or reconnects) an agent endpoint: handle receives
// coordinator deliveries, rebuild is invoked by a Restart plan's
// recovery event. Re-registering bumps the incarnation, so anything
// in flight to or from the previous incarnation dies on the wire.
func (s *SimNet) Register(name string, handle func(Msg), rebuild func()) {
	a := s.agents[name]
	if a == nil {
		a = &simAgent{name: name}
		s.agents[name] = a
	}
	a.gen++
	a.handle = handle
	a.rebuild = rebuild
}

// schedule queues fn at absolute virtual time at.
func (s *SimNet) schedule(at int64, fn func()) {
	s.seq++
	heap.Push(&s.events, simEvent{at: at, seq: s.seq, fire: fn})
}

// codec round-trips m through the real wire encoding; a message the
// JSON layer cannot carry faithfully is a protocol bug and poisons the
// net with a sticky error that Recv surfaces. The decoded message
// copies its strings out of the frame, so the buffer is reused.
func (s *SimNet) codec(m Msg) (Msg, bool) {
	b, err := AppendMsg(s.wire[:0], m)
	if err == nil {
		s.wire = b
		m, err = DecodeMsg(b)
	}
	if err != nil {
		if s.err == nil {
			s.err = fmt.Errorf("dist: simnet wire round-trip: %w", err)
		}
		return Msg{}, false
	}
	return m, true
}

// deliveries rolls the fault dice for one message: n is how many
// copies arrive — 0 dropped, 2 duplicated — and lat[:n] their delivery
// latencies. Draw order is fixed — delay, drop, duplicate — so the
// seeded schedule is stable.
func (s *SimNet) deliveries() (n int, lat [2]int64) {
	f := s.cfg.Faults
	lat[0] = s.cfg.LatencyNs
	if f.DelayProb > 0 && s.rng.Float64() < f.DelayProb {
		lat[0] += f.DelayNs
	}
	if f.DropProb > 0 && s.rng.Float64() < f.DropProb {
		return 0, lat
	}
	if f.DupProb > 0 && s.rng.Float64() < f.DupProb {
		lat[1] = lat[0] + s.cfg.LatencyNs
		return 2, lat
	}
	return 1, lat
}

// restartPlan consumes the first unfired restart matching this grant
// delivery.
func (s *SimNet) restartPlan(agent string, m Msg) *Restart {
	if m.Type != TypeGrant {
		return nil
	}
	for i := range s.restarts {
		r := &s.restarts[i]
		if r.Agent == agent && r.Epoch == m.Epoch && (r.Member == "" || r.Member == m.Member) {
			plan := *r
			s.restarts = append(s.restarts[:i], s.restarts[i+1:]...)
			return &plan
		}
	}
	return nil
}

// Send implements Transport: coordinator → agent delivery through the
// fault fabric. A matching Restart plan fires at delivery time: the
// agent crashes before (or just after) handling the grant, and its
// rebuild hook is scheduled RestartAfterNs later.
func (s *SimNet) Send(agent string, m Msg) {
	m, ok := s.codec(m)
	if !ok {
		return
	}
	a := s.agents[agent]
	if a == nil {
		return // unknown endpoint: the void swallows it
	}
	gen := a.gen
	n, lat := s.deliveries()
	for _, d := range lat[:n] {
		s.schedule(s.now+d, func() {
			if a.gen != gen || a.handle == nil {
				return // incarnation died with this message in flight
			}
			if plan := s.restartPlan(agent, m); plan != nil {
				if plan.AfterStep {
					a.handle(m)
				}
				a.gen++
				a.handle = nil
				if plan.RestartAfterNs > 0 && a.rebuild != nil {
					rebuild := a.rebuild
					s.schedule(s.now+plan.RestartAfterNs, rebuild)
				}
				return
			}
			a.handle(m)
		})
	}
}

// Sender returns the agent-side send function: agent → coordinator
// through the same fault fabric. The envelope is stamped with the
// transport-level agent name, like a connection-bound identity.
func (s *SimNet) Sender(name string) func(Msg) error {
	return func(m Msg) error {
		m.Agent = name
		m, ok := s.codec(m)
		if !ok {
			return s.err
		}
		a := s.agents[name]
		if a == nil {
			return fmt.Errorf("dist: simnet agent %q not registered", name)
		}
		gen := a.gen
		n, lat := s.deliveries()
		for _, d := range lat[:n] {
			s.schedule(s.now+d, func() {
				if a.gen != gen {
					return
				}
				s.inbox = append(s.inbox, Envelope{Agent: name, Msg: m})
			})
		}
		return nil
	}
}

// Clock returns the agent's virtual clock. Timers are incarnation-bound:
// a crash cancels them like the process they lived in.
func (s *SimNet) Clock(name string) Clock { return simClock{net: s, name: name} }

type simClock struct {
	net  *SimNet
	name string
}

func (c simClock) Now() int64 { return c.net.now }

func (c simClock) After(d int64, f func()) func() {
	if d < 0 {
		d = 0
	}
	cancelled := false
	a := c.net.agents[c.name]
	gen := 0
	if a != nil {
		gen = a.gen
	}
	c.net.schedule(c.net.now+d, func() {
		if cancelled || (a != nil && a.gen != gen) {
			return
		}
		f()
	})
	return func() { cancelled = true }
}

// Now implements Transport.
func (s *SimNet) Now() int64 { return s.now }

// Recv implements Transport: it pumps the event heap in virtual time
// until a coordinator-bound message is available or virtual time
// reaches the deadline with none pending — in which case time jumps to
// the deadline and timeout is returned, with later events left queued.
func (s *SimNet) Recv(deadline int64) (Envelope, bool, error) {
	for {
		if s.err != nil {
			return Envelope{}, false, s.err
		}
		if len(s.inbox) > 0 {
			// Slide the queue down rather than march inbox[1:] through
			// ever-new backing arrays: the pump below fires events only
			// while the inbox is empty, so the queue stays a frame or
			// two deep and the copy moves next to nothing.
			env := s.inbox[0]
			n := copy(s.inbox, s.inbox[1:])
			s.inbox[n] = Envelope{} // let go of the Result it may hold
			s.inbox = s.inbox[:n]
			return env, false, nil
		}
		if s.events.Len() == 0 || s.events.peek().at > deadline {
			s.now = deadline
			return Envelope{}, true, nil
		}
		ev := heap.Pop(&s.events).(simEvent)
		if ev.at > s.now {
			s.now = ev.at
		}
		ev.fire()
	}
}

// Close implements Transport.
func (s *SimNet) Close() {}
