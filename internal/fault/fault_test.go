package fault

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/obs"
)

func sec(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// TestDeterminism is the package's contract: two injectors built from the
// same plan and offered the same call sequence decide identically.
func TestDeterminism(t *testing.T) {
	plan := DefaultChaosPlan(42)
	a := NewInjector(plan)
	b := NewInjector(plan)
	for n := 0; n < 20000; n++ {
		now := time.Duration(n) * time.Millisecond
		pkt := Packet{Size: 100 + n%700, Class: Class(n % 3)}
		da := a.Filter(now, pkt)
		db := b.Filter(now, pkt)
		if da != db {
			t.Fatalf("call %d: decisions diverge: %+v vs %+v", n, da, db)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverge: %+v vs %+v", a.Stats(), b.Stats())
	}
}

// TestSeedChangesPattern guards against the rng being ignored: different
// seeds must produce different burst-loss patterns.
func TestSeedChangesPattern(t *testing.T) {
	mk := func(seed int64) []bool {
		inj := NewInjector(Plan{Seed: seed, Events: []Event{{
			Kind: KindBurstLoss, From: 0, To: time.Hour,
			PGoodBad: 0.1, PBadGood: 0.2, LossBad: 0.8,
		}}})
		out := make([]bool, 2000)
		for n := range out {
			out[n] = inj.Filter(time.Duration(n)*time.Millisecond, Packet{Size: 100}).Drop
		}
		return out
	}
	a, b := mk(1), mk(2)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 1 and 2 produced identical loss patterns")
	}
}

// TestBurstLossIsBursty checks the Gilbert–Elliott chain produces
// correlated losses: with LossGood=0 every drop happens in the bad state,
// so the mean run length of consecutive drops must exceed what i.i.d.
// loss at the same average rate would give.
func TestBurstLossIsBursty(t *testing.T) {
	inj := NewInjector(Plan{Seed: 7, Events: []Event{{
		Kind: KindBurstLoss, From: 0, To: time.Hour,
		PGoodBad: 0.02, PBadGood: 0.25, LossGood: 0, LossBad: 1,
	}}})
	const n = 50000
	drops := 0
	runs := 0
	inRun := false
	for k := 0; k < n; k++ {
		d := inj.Filter(time.Duration(k)*time.Microsecond, Packet{Size: 100})
		if d.Drop {
			drops++
			if !inRun {
				runs++
				inRun = true
			}
		} else {
			inRun = false
		}
	}
	if drops == 0 || runs == 0 {
		t.Fatalf("burst loss never fired: %d drops in %d packets", drops, n)
	}
	meanRun := float64(drops) / float64(runs)
	// Stationary loss rate is PGoodBad/(PGoodBad+PBadGood) ≈ 7.4%; i.i.d.
	// loss at that rate has mean run length 1/(1-p) ≈ 1.08. The chain's
	// bad-state dwell time is 1/PBadGood = 4.
	if meanRun < 2 {
		t.Fatalf("mean drop run length %.2f: losses are not bursty", meanRun)
	}
}

// TestWindows checks events act only inside their [From,To) windows.
func TestWindows(t *testing.T) {
	inj := NewInjector(Plan{Seed: 1, Events: []Event{
		{Kind: KindLinkDown, From: sec(1), To: sec(2)},
	}})
	for _, tc := range []struct {
		now  time.Duration
		drop bool
	}{
		{0, false},
		{sec(1) - 1, false},
		{sec(1), true},
		{sec(2) - 1, true},
		{sec(2), false},
		{sec(3), false},
	} {
		if got := inj.Filter(tc.now, Packet{Size: 100}).Drop; got != tc.drop {
			t.Errorf("at %v: drop=%v, want %v", tc.now, got, tc.drop)
		}
	}
}

// TestStarveFeedback checks the class split: control packets are dropped,
// data packets pass with their stamps stripped.
func TestStarveFeedback(t *testing.T) {
	inj := NewInjector(Plan{Seed: 1, Events: []Event{
		{Kind: KindStarveFeedback, From: 0, To: sec(1)},
	}})
	if d := inj.Filter(0, Packet{Size: 40, Class: ClassFeedback}); !d.Drop {
		t.Error("feedback packet not dropped during starvation")
	}
	d := inj.Filter(0, Packet{Size: 1000, Class: ClassData})
	if d.Drop || !d.StripFeedback {
		t.Errorf("data packet during starvation: got %+v, want strip without drop", d)
	}
	if st := inj.Stats(); st.Starved != 2 {
		t.Errorf("starved count = %d, want 2", st.Starved)
	}
}

// TestReorderBounded checks reorder delays stay in (0, MaxDelay].
func TestReorderBounded(t *testing.T) {
	maxDelay := 25 * time.Millisecond
	inj := NewInjector(Plan{Seed: 3, Events: []Event{
		{Kind: KindReorder, From: 0, To: time.Hour, Prob: 1, MaxDelay: maxDelay},
	}})
	for k := 0; k < 1000; k++ {
		d := inj.Filter(time.Duration(k), Packet{Size: 100})
		if d.ExtraDelay <= 0 || d.ExtraDelay > maxDelay {
			t.Fatalf("reorder delay %v outside (0,%v]", d.ExtraDelay, maxDelay)
		}
	}
}

// TestScramble checks corruption always changes the buffer and is a pure
// function of its seed.
func TestScramble(t *testing.T) {
	orig := make([]byte, 60)
	for i := range orig {
		orig[i] = byte(i)
	}
	for bits := uint64(0); bits < 500; bits++ {
		a := append([]byte(nil), orig...)
		b := append([]byte(nil), orig...)
		Scramble(a, bits)
		Scramble(b, bits)
		if bytes.Equal(a, orig) {
			t.Fatalf("bits %d: scramble left buffer unchanged", bits)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("bits %d: scramble not deterministic", bits)
		}
	}
	Scramble(nil, 1) // must not panic
}

// TestInstrument checks the obs counters mirror the internal stats.
func TestInstrument(t *testing.T) {
	reg := obs.NewRegistry()
	inj := NewInjector(DefaultChaosPlan(11))
	inj.Instrument(reg, "fault.")
	for n := 0; n < 30000; n++ {
		inj.Filter(time.Duration(n)*time.Millisecond, Packet{Size: 500, Class: Class(n % 2)})
	}
	st := inj.Stats()
	if st.Drops == 0 || st.Corrupted == 0 || st.Duplicated == 0 || st.Reordered == 0 || st.Starved == 0 {
		t.Fatalf("chaos plan left some effect untriggered: %+v", st)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"fault.drops":      st.Drops,
		"fault.corrupted":  st.Corrupted,
		"fault.duplicated": st.Duplicated,
		"fault.reordered":  st.Reordered,
		"fault.starved":    st.Starved,
	} {
		if got := snap[name]; got != float64(want) {
			t.Errorf("%s = %v, want %d", name, got, want)
		}
	}
}

// TestValidate rejects malformed plans.
func TestValidate(t *testing.T) {
	bad := []Plan{
		{Events: []Event{{Kind: 0, From: 0, To: sec(1)}}},
		{Events: []Event{{Kind: KindLinkDown, From: sec(2), To: sec(1)}}},
		{Events: []Event{{Kind: KindCorrupt, From: 0, To: sec(1), Prob: 1.5}}},
		{Events: []Event{{Kind: KindReorder, From: 0, To: sec(1), Prob: 0.5}}},
		{RouteChanges: []RouteChange{{At: -sec(1), RouterID: 2}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d: Validate accepted invalid plan", i)
		}
	}
	if err := DefaultChaosPlan(1).Validate(); err != nil {
		t.Errorf("DefaultChaosPlan invalid: %v", err)
	}
}

// TestPlanEnd checks end covers events and route changes.
func TestPlanEnd(t *testing.T) {
	p := Plan{
		Events:       []Event{{Kind: KindLinkDown, From: sec(1), To: sec(3)}},
		RouteChanges: []RouteChange{{At: sec(5), RouterID: 9}},
	}
	if got := p.end(); got != sec(5) {
		t.Fatalf("end = %v, want %v", got, sec(5))
	}
}

// TestTargetMask checks class targeting: a masked event must never touch
// out-of-target packets, and skipping them must not consume random draws
// (the in-target decision stream is identical whether or not other
// classes are interleaved).
func TestTargetMask(t *testing.T) {
	plan := Plan{Seed: 7, Events: []Event{{
		Kind: KindDuplicate, From: 0, To: time.Hour, Prob: 0.5,
		TargetMask: MaskOf(ClassOther),
	}}}

	pure := NewInjector(plan)
	var want []bool
	for n := 0; n < 500; n++ {
		d := pure.Filter(time.Duration(n)*time.Millisecond, Packet{Size: 60, Class: ClassOther})
		want = append(want, d.Duplicate)
	}

	mixed := NewInjector(plan)
	var got []bool
	for n := 0; n < 500; n++ {
		now := time.Duration(n) * time.Millisecond
		// Interleave data and feedback offers: none may be duplicated,
		// none may perturb the control-class stream.
		if d := mixed.Filter(now, Packet{Size: 1000, Class: ClassData}); d != (Decision{}) {
			t.Fatalf("offer %d: masked event touched data class: %+v", n, d)
		}
		if d := mixed.Filter(now, Packet{Size: 60, Class: ClassFeedback}); d != (Decision{}) {
			t.Fatalf("offer %d: masked event touched feedback class: %+v", n, d)
		}
		got = append(got, mixed.Filter(now, Packet{Size: 60, Class: ClassOther}).Duplicate)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("offer %d: interleaving other classes changed the control stream", i)
		}
	}
}

// TestHelloStormPlan sanity-checks the canned admission-storm schedule:
// it validates, targets only control traffic, duplicates hellos often,
// and drops some of them in the loss window.
func TestHelloStormPlan(t *testing.T) {
	plan := HelloStormPlan(3)
	if err := plan.Validate(); err != nil {
		t.Fatalf("HelloStormPlan invalid: %v", err)
	}
	for i, e := range plan.Events {
		if e.TargetMask != MaskOf(ClassOther) {
			t.Fatalf("event %d targets mask %#x, want control-only", i, e.TargetMask)
		}
	}
	inj := NewInjector(plan)
	var dups, drops int
	for n := 0; n < 4000; n++ {
		now := time.Duration(n) * time.Millisecond
		d := inj.Filter(now, Packet{Size: 60, Class: ClassOther})
		if d.Duplicate {
			dups++
		}
		if d.Drop {
			drops++
		}
		if dd := inj.Filter(now, Packet{Size: 1000, Class: ClassData}); dd != (Decision{}) {
			t.Fatalf("offer %d: storm touched data traffic: %+v", n, dd)
		}
	}
	if dups == 0 {
		t.Fatal("storm duplicated no hellos")
	}
	if drops == 0 {
		t.Fatal("storm dropped no hellos")
	}
}
