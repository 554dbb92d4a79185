// Package fault is a seeded, fully deterministic fault-injection
// subsystem for the PELS stacks. A Plan schedules fault Events over
// windows of a run's timeline; an Injector evaluates the plan one packet
// at a time and returns a Decision (drop, corrupt, duplicate, delay,
// strip feedback) that the transport adapter applies. The same Plan runs
// against both transports: netsim.Link feeds the simulator's virtual
// clock, the wire link emulator feeds offsets of its injected clock.
//
// Determinism contract: the package is stdlib-only, never reads the wall
// clock (pelsvet's walltime analyzer enforces this), and draws all
// randomness from a rand.Rand seeded by Plan.Seed. Given the same plan
// and the same sequence of Filter calls (now, packet), the decisions are
// bit-identical — which is what lets chaos experiments assert that two
// runs with the same seed produce identical observability series.
package fault

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/obs"
)

// Class coarsely classifies a packet for fault targeting. Feedback
// starvation needs to tell control traffic from data; everything else
// applies uniformly.
type Class int

const (
	// ClassData is forward-path traffic (video datagrams, TCP segments).
	ClassData Class = iota
	// ClassFeedback is reverse-path control traffic (feedback datagrams,
	// ACKs carrying feedback labels).
	ClassFeedback
	// ClassOther is anything unclassifiable (hello datagrams, noise).
	ClassOther
)

// MaskOf returns the TargetMask bit for one class; or the bits together
// to target several.
func MaskOf(c Class) uint8 { return 1 << uint(c) }

// Kind enumerates the injectable fault types.
type Kind int

const (
	// KindBurstLoss drops packets from a Gilbert–Elliott two-state chain:
	// per packet the chain transitions good↔bad with PGoodBad/PBadGood and
	// drops with the current state's loss probability, producing the
	// correlated loss runs i.i.d. loss cannot.
	KindBurstLoss Kind = iota + 1
	// KindCorrupt flips bytes of the packet (wire) or poisons its header
	// (sim) with probability Prob per packet.
	KindCorrupt
	// KindDuplicate delivers the packet twice with probability Prob.
	KindDuplicate
	// KindReorder delays the packet by a uniform draw in (0, MaxDelay]
	// with probability Prob, letting later packets overtake it.
	KindReorder
	// KindLinkDown drops every packet in the window (a link flap).
	KindLinkDown
	// KindStarveFeedback suppresses the feedback loop: control-class
	// packets are dropped and data-class packets have their feedback
	// stamps stripped (Valid=false), so senders see silence, not loss.
	KindStarveFeedback
)

// String returns the lower-case kind name.
func (k Kind) String() string {
	switch k {
	case KindBurstLoss:
		return "burst-loss"
	case KindCorrupt:
		return "corrupt"
	case KindDuplicate:
		return "duplicate"
	case KindReorder:
		return "reorder"
	case KindLinkDown:
		return "link-down"
	case KindStarveFeedback:
		return "starve-feedback"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Packet describes one packet offered to the injector.
type Packet struct {
	// Size is the on-wire size in bytes.
	Size int
	// Class selects which faults apply (see KindStarveFeedback).
	Class Class
}

// Decision is what the transport adapter must do to the packet. Multiple
// effects can be set at once when several events are active.
type Decision struct {
	// Drop discards the packet; all other fields are then irrelevant.
	Drop bool
	// Corrupt garbles the packet. Bits seeds the deterministic byte
	// scramble (see Scramble) so the damage pattern reproduces.
	Corrupt bool
	Bits    uint64
	// Duplicate delivers the packet a second time.
	Duplicate bool
	// ExtraDelay postpones the packet by this much (0 = in order).
	ExtraDelay time.Duration
	// StripFeedback clears the packet's feedback stamp (Valid=false).
	StripFeedback bool
}

// Event schedules one fault over the half-open window [From, To).
type Event struct {
	Kind Kind
	From time.Duration
	To   time.Duration

	// TargetMask restricts the event to packets whose class bit is set
	// (see MaskOf). 0 means all classes — the zero value keeps old plans
	// working. KindStarveFeedback ignores the mask; its class split is
	// intrinsic.
	TargetMask uint8

	// Gilbert–Elliott parameters (KindBurstLoss): per-packet transition
	// probabilities and per-state drop probabilities. The chain starts in
	// the good state at the window start and resets when the window ends.
	PGoodBad float64
	PBadGood float64
	LossGood float64
	LossBad  float64

	// Prob is the per-packet probability for corrupt/duplicate/reorder.
	Prob float64

	// MaxDelay bounds the reorder displacement (KindReorder).
	MaxDelay time.Duration
}

// Validate reports schedule errors.
func (e Event) Validate() error {
	if e.Kind < KindBurstLoss || e.Kind > KindStarveFeedback {
		return fmt.Errorf("fault: unknown kind %d", int(e.Kind))
	}
	if e.From < 0 || e.To <= e.From {
		return fmt.Errorf("fault: %v window [%v,%v) is empty or negative", e.Kind, e.From, e.To)
	}
	for _, p := range []float64{e.PGoodBad, e.PBadGood, e.LossGood, e.LossBad, e.Prob} {
		if p < 0 || p > 1 {
			return fmt.Errorf("fault: %v probability %v outside [0,1]", e.Kind, p)
		}
	}
	if e.Kind == KindReorder && e.MaxDelay <= 0 {
		return fmt.Errorf("fault: reorder event needs positive MaxDelay")
	}
	return nil
}

// RouteChange schedules a mid-run gateway swap: at At the harness
// replaces the marking router with a fresh one carrying RouterID and a
// reset epoch counter. The injector itself cannot apply it — swapping the
// router is topology surgery — so harnesses (experiments, cmd/pelsd)
// read the schedule and install the new gateway themselves.
type RouteChange struct {
	At       time.Duration
	RouterID int
}

// Plan is a seeded schedule of fault events plus route changes.
type Plan struct {
	// Seed drives every random draw the injector makes.
	Seed int64
	// Events are evaluated in order on every offered packet.
	Events []Event
	// RouteChanges are applied by the harness, not the injector.
	RouteChanges []RouteChange
}

// Validate reports plan errors.
func (p Plan) Validate() error {
	for i, e := range p.Events {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	for i, rc := range p.RouteChanges {
		if rc.At < 0 {
			return fmt.Errorf("route change %d: negative time %v", i, rc.At)
		}
	}
	return nil
}

// Stats counts the effects an injector has decided so far.
type Stats struct {
	Offered    uint64
	Drops      uint64
	Corrupted  uint64
	Duplicated uint64
	Reordered  uint64
	Starved    uint64
}

// Injector evaluates a Plan packet by packet. It is safe for concurrent
// use; the internal mutex also serializes the random stream, so sharing
// one injector between links would entangle their draw sequences — give
// each link its own.
type Injector struct {
	plan Plan // validated at construction, never mutated

	mu    sync.Mutex
	rng   *rand.Rand
	bad   []bool // per-event Gilbert–Elliott state
	stats Stats

	obsDrops      *obs.Counter
	obsCorrupted  *obs.Counter
	obsDuplicated *obs.Counter
	obsReordered  *obs.Counter
	obsStarved    *obs.Counter
}

// NewInjector builds an injector; it panics on an invalid plan (fault
// plans are canned test fixtures, not runtime input).
func NewInjector(plan Plan) *Injector {
	if err := plan.Validate(); err != nil {
		panic(err)
	}
	return &Injector{
		plan: plan,
		rng:  rand.New(rand.NewSource(plan.Seed)),
		bad:  make([]bool, len(plan.Events)),
	}
}

// Instrument registers the injector's effect counters in reg under
// prefix+"drops", "corrupted", "duplicated", "reordered", "starved".
func (i *Injector) Instrument(reg *obs.Registry, prefix string) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.obsDrops = reg.Counter(prefix + "drops")
	i.obsCorrupted = reg.Counter(prefix + "corrupted")
	i.obsDuplicated = reg.Counter(prefix + "duplicated")
	i.obsReordered = reg.Counter(prefix + "reordered")
	i.obsStarved = reg.Counter(prefix + "starved")
}

// Stats returns a snapshot of the effect counters.
func (i *Injector) Stats() Stats {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.stats
}

// Filter evaluates every active event against one offered packet and
// returns the combined decision. now is the offset on the caller's clock
// (simulation time, or wall time since link creation). Random draws are
// consumed only by active events, in event order, so the decision stream
// is a pure function of (plan, call sequence).
func (i *Injector) Filter(now time.Duration, pkt Packet) Decision {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.stats.Offered++
	var d Decision
	var starved bool
	for idx := range i.plan.Events {
		e := &i.plan.Events[idx]
		if now < e.From || now >= e.To {
			// A burst-loss chain restarts in the good state if its window
			// is re-entered (plans may schedule several windows).
			i.bad[idx] = false
			continue
		}
		if e.TargetMask != 0 && e.Kind != KindStarveFeedback &&
			e.TargetMask&MaskOf(pkt.Class) == 0 {
			// Out-of-target packets consume no draws, so a class's
			// decision stream is a pure function of that class's offers.
			continue
		}
		switch e.Kind {
		case KindLinkDown:
			d.Drop = true
		case KindBurstLoss:
			if i.bad[idx] {
				if i.rng.Float64() < e.PBadGood {
					i.bad[idx] = false
				}
			} else if i.rng.Float64() < e.PGoodBad {
				i.bad[idx] = true
			}
			p := e.LossGood
			if i.bad[idx] {
				p = e.LossBad
			}
			if p > 0 && i.rng.Float64() < p {
				d.Drop = true
			}
		case KindCorrupt:
			if i.rng.Float64() < e.Prob {
				d.Corrupt = true
				d.Bits = i.rng.Uint64()
			}
		case KindDuplicate:
			if i.rng.Float64() < e.Prob {
				d.Duplicate = true
			}
		case KindReorder:
			if i.rng.Float64() < e.Prob {
				d.ExtraDelay = time.Duration(i.rng.Int63n(int64(e.MaxDelay))) + 1
			}
		case KindStarveFeedback:
			starved = true
			if pkt.Class == ClassFeedback {
				d.Drop = true
			} else {
				d.StripFeedback = true
			}
		}
	}
	i.countLocked(d, starved)
	return d
}

// countLocked updates the effect counters for one decision; the caller
// holds i.mu.
func (i *Injector) countLocked(d Decision, starved bool) {
	if starved {
		i.stats.Starved++
		inc(i.obsStarved)
	}
	if d.Drop {
		i.stats.Drops++
		inc(i.obsDrops)
		return
	}
	if d.Corrupt {
		i.stats.Corrupted++
		inc(i.obsCorrupted)
	}
	if d.Duplicate {
		i.stats.Duplicated++
		inc(i.obsDuplicated)
	}
	if d.ExtraDelay > 0 {
		i.stats.Reordered++
		inc(i.obsReordered)
	}
}

// inc bumps a counter if registered.
func inc(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

// Scramble deterministically flips one to four bytes of b in place,
// positions and masks derived from bits by an xorshift walk. The masks
// are never zero, so the buffer always changes — a corrupted datagram is
// guaranteed to fail its checksum.
func Scramble(b []byte, bits uint64) {
	if len(b) == 0 {
		return
	}
	x := bits | 1
	n := 1 + int(bits>>62)
	for k := 0; k < n; k++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		pos := int(x % uint64(len(b)))
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		mask := byte(x)
		if mask == 0 {
			mask = 0xFF
		}
		b[pos] ^= mask
	}
}

// DefaultChaosPlan is the canned schedule the chaos experiments and
// cmd/pelsd -chaos run: an early burst-loss episode, a mid-run link flap,
// a feedback-starvation window, then light corruption, duplication, and
// reordering — all inside the first 12 seconds so short CI streams see
// every fault and still get a clean tail to reconverge in.
// HelloStormPlan stresses the admission path: hello-class traffic
// (ClassOther) is duplicated heavily for the first stretch — every
// retried hello may land two or three times, exercising first-hello-wins
// and the admit-race counter — then a short window drops hellos outright
// so receivers exercise their retry backoff. Data and feedback are
// untouched; the storm is purely a control-plane fault.
func HelloStormPlan(seed int64) Plan {
	ctl := MaskOf(ClassOther)
	return Plan{
		Seed: seed,
		Events: []Event{
			{Kind: KindDuplicate, From: 0, To: 6 * time.Second, Prob: 0.75, TargetMask: ctl},
			{Kind: KindBurstLoss, From: 2 * time.Second, To: 3500 * time.Millisecond,
				PGoodBad: 0.2, PBadGood: 0.2, LossGood: 0.1, LossBad: 0.8, TargetMask: ctl},
		},
	}
}

func DefaultChaosPlan(seed int64) Plan {
	return Plan{
		Seed: seed,
		Events: []Event{
			{Kind: KindBurstLoss, From: 2 * time.Second, To: 4 * time.Second,
				PGoodBad: 0.05, PBadGood: 0.3, LossGood: 0, LossBad: 0.7},
			{Kind: KindLinkDown, From: 5 * time.Second, To: 5400 * time.Millisecond},
			{Kind: KindStarveFeedback, From: 7 * time.Second, To: 8500 * time.Millisecond},
			{Kind: KindCorrupt, From: 9 * time.Second, To: 10 * time.Second, Prob: 0.05},
			{Kind: KindDuplicate, From: 10 * time.Second, To: 11 * time.Second, Prob: 0.1},
			{Kind: KindReorder, From: 10 * time.Second, To: 11 * time.Second,
				Prob: 0.2, MaxDelay: 30 * time.Millisecond},
		},
	}
}
