package session

// Admission-lane tests, on the synthetic clock of handoff_test.go: the test
// plays demux (handleDatagram), the workers' admission half (pumpLane) and
// the driver (step) on its own goroutine, so where a new session's timer is
// — lane, wheel or chunk — is a deterministic function of the calls made.
// One test at the end runs real workers against real reapers under -race.

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/fgs"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/units"
	"repro/internal/wire"
)

// sent is one data datagram as the wire saw it; at is the clock's reading
// when it was written.
type sent struct {
	at    int64
	color packet.Color
	seq   uint64
	flow  uint32
	size  int
}

// dgLog is an Out that records every data datagram against clk.
type dgLog struct {
	clk *fakeClock // set once the server that writes here has built it
	mu  sync.Mutex
	dgs []sent
}

func (w *dgLog) WriteTo(b []byte, _ net.Addr) (int, error) {
	h, _, err := wire.DecodeDatagram(b)
	if err != nil {
		panic(err)
	}
	at := w.clk.Now().UnixNano()
	w.mu.Lock()
	w.dgs = append(w.dgs, sent{at: at, color: h.Color, seq: h.Seq, flow: h.Flow, size: len(b)})
	w.mu.Unlock()
	return len(b), nil
}

func (w *dgLog) snapshot() []sent {
	w.mu.Lock()
	defer w.mu.Unlock()
	return slices.Clone(w.dgs)
}

// hello plays the socket: one hello for flow from handPeer through demux's
// own entry point.
func hello(t *testing.T, s *Server, flow uint32, now time.Time) {
	t.Helper()
	s.handleDatagram(helloDatagram(t, flow), origin{addr: handPeer}, now)
}

// pumpLane plays the workers' admission half: every timer in the lane gets
// its first pump. It returns how many there were.
func pumpLane(s *Server) int {
	n := 0
	for len(s.admits) > 0 {
		s.pumpAdmitted(<-s.admits, testScratch)
		n++
	}
	return n
}

// closes returns the Close datagrams the server wrote, by flow.
func (c *ctlConn) closes() map[uint32][]wire.Reason {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[uint32][]wire.Reason{}
	for _, h := range c.ctl {
		if h.Type == wire.TypeClose {
			out[h.Flow] = append(out[h.Flow], h.Reason())
		}
	}
	return out
}

// pacedConfig makes a session open with a four-datagram burst and then send
// one 100-byte datagram every 2 ms.
func pacedConfig(cfg *ServerConfig) {
	cfg.Session.BurstBytes = 400
	cfg.Session.MKC = cc.DefaultMKCConfig()
	cfg.Session.MKC.InitialRate = 400 * units.Kbps
}

// TestAdmitLaneFirstDatagramBeforeAnyTick: a hello leaves the timer in the
// lane and nothing on the wire; one worker step puts the first datagram out
// at the hello's own instant with the wheel never advanced, and the wheel
// then holds the timer at the deadline pump returned — never at now.
func TestAdmitLaneFirstDatagramBeforeAnyTick(t *testing.T) {
	out := &dgLog{}
	s, clk, _ := handServer(t, out, pacedConfig)
	out.clk = clk
	t0 := clk.Now()
	hello(t, s, 1, t0)
	if len(s.admits) != 1 || s.wheel.Len() != 0 {
		t.Fatalf("after the hello: %d in the lane, %d in the wheel; want 1 and 0", len(s.admits), s.wheel.Len())
	}
	if got := out.snapshot(); len(got) != 0 {
		t.Fatalf("demux put %d data datagrams on the wire", len(got))
	}
	sess := s.table.Get(Key{Addr: handPeer.String(), Flow: 1})
	// A twin built at the same instant says what the first pump returns.
	twin, err := NewSession(sess.key, handPeer, discard{}, s.cfg.Session, t0)
	if err != nil {
		t.Fatal(err)
	}
	wantNext, _ := twin.pump(t0, newScratch())

	if n := pumpLane(s); n != 1 {
		t.Fatalf("pumped %d lane timers, want 1", n)
	}
	got := out.snapshot()
	if len(got) != 4 {
		t.Fatalf("the opening burst was %d datagrams, want 4", len(got))
	}
	if want := (sent{at: t0.UnixNano(), color: packet.Green, seq: 0, flow: 1, size: 100}); got[0] != want {
		t.Fatalf("first datagram %+v, want %+v", got[0], want)
	}
	if s.wheel.Len() != 1 || sess.timer.At != wantNext || wantNext <= t0.Sub(s.wheel.Origin()) {
		t.Fatalf("wheel holds %d timers, armed at %v; want 1 at pump's deadline %v, after %v",
			s.wheel.Len(), sess.timer.At, wantNext, t0)
	}
	if st := s.Stats(); st.Admitted != 1 || st.AdmitFallbacks != 0 {
		t.Fatalf("admitted=%d fallbacks=%d, want 1/0", st.Admitted, st.AdmitFallbacks)
	}
}

// TestAdmitLaneScheduleEqualsWheelFallback: a session whose first pump came
// through the lane sends exactly the datagrams — instant, colour, sequence —
// of one whose first pump came off the wheel at the same instant: no second
// opening burst, nothing lost. And pumped at the hello's own instant, as in
// production, it stays inside its token bucket.
func TestAdmitLaneScheduleEqualsWheelFallback(t *testing.T) {
	const ticks = 300
	run := func(fallback bool, firstPumpAfter time.Duration) ([]sent, time.Time) {
		out := &dgLog{}
		s, clk, _ := handServer(t, out, pacedConfig)
		out.clk = clk
		if fallback {
			fillLane(s)
		}
		t0 := clk.Now()
		hello(t, s, 1, t0)
		var fired []*Timer
		if fallback {
			if st := s.Stats(); st.AdmitFallbacks != 1 || s.wheel.Len() != 1 {
				t.Fatalf("fallbacks=%d wheel=%d, want 1/1", st.AdmitFallbacks, s.wheel.Len())
			}
			step(t, s, clk, &fired) // the tick after the hello pumps it
		} else {
			clk.advance(firstPumpAfter)
			pumpLane(s)
		}
		for i := 0; i < ticks; i++ {
			step(t, s, clk, &fired)
		}
		return out.snapshot(), t0
	}
	tick := time.Millisecond
	viaWheel, _ := run(true, 0)
	viaLane, _ := run(false, tick) // the worker reads the instant that tick would have
	if len(viaWheel) < ticks/4 {
		t.Fatalf("only %d datagrams in %d ticks", len(viaWheel), ticks)
	}
	if !slices.Equal(viaLane, viaWheel) {
		for i := range min(len(viaLane), len(viaWheel)) {
			if viaLane[i] != viaWheel[i] {
				t.Fatalf("datagram %d: lane %+v, wheel %+v", i, viaLane[i], viaWheel[i])
			}
		}
		t.Fatalf("lane sent %d datagrams, wheel %d", len(viaLane), len(viaWheel))
	}

	atHello, t0 := run(false, 0)
	const burst, bytesPerSec = 400, 400_000 / 8
	sentBytes := 0
	for i, d := range atHello {
		sentBytes += d.size
		allowed := burst + bytesPerSec*time.Duration(d.at-t0.UnixNano()).Seconds()
		if float64(sentBytes) > allowed+1e-6 {
			t.Fatalf("datagram %d at +%v: %d bytes sent, the bucket allows %.0f",
				i, time.Duration(d.at-t0.UnixNano()), sentBytes, allowed)
		}
	}
	if atHello[0].at != t0.UnixNano() || atHello[4].at == t0.UnixNano() {
		t.Fatalf("opening burst: first at %d, fifth at %d, hello at %d", atHello[0].at, atHello[4].at, t0.UnixNano())
	}
}

// TestAdmitStormOverflowsToTheWheel: 5000 hellos at one instant with the
// workers stalled fill the lane and put the rest in the wheel; every hello is
// admitted, nothing blocks, nothing is pumped by demux; and once the workers
// run, every session is pumped exactly once by the end of the next tick, its
// timer in exactly one of lane, wheel and chunk throughout.
func TestAdmitStormOverflowsToTheWheel(t *testing.T) {
	const n = 5000
	out := &flowLog{}
	reg := obs.NewRegistry()
	s, clk, _ := handServer(t, out, func(cfg *ServerConfig) {
		cfg.Obs = reg
		// One 100-byte datagram per pump, the next 8 ms on: no lane session
		// is due again on the first tick.
		cfg.Session.MKC = cc.DefaultMKCConfig()
		cfg.Session.MKC.InitialRate = 100 * units.Kbps
	})
	t0 := clk.Now()
	for f := uint32(1); f <= n; f++ {
		hello(t, s, f, t0)
	}
	st := s.Stats()
	if st.Admitted != n || st.Active != n || st.AdmitFallbacks != n-admitLane {
		t.Fatalf("admitted=%d active=%d fallbacks=%d, want %d/%d/%d", st.Admitted, st.Active, st.AdmitFallbacks, n, n, n-admitLane)
	}
	if len(s.admits) != admitLane || s.wheel.Len() != n-admitLane {
		t.Fatalf("%d in the lane, %d in the wheel; want %d and %d", len(s.admits), s.wheel.Len(), admitLane, n-admitLane)
	}
	snap := reg.Snapshot()
	if snap["session.admit_lane_fallbacks"] != n-admitLane || snap["session.admit_lane_depth"] != admitLane {
		t.Fatalf("obs: fallbacks %v, lane depth %v", snap["session.admit_lane_fallbacks"], snap["session.admit_lane_depth"])
	}
	if got := out.take(); len(got) != 0 {
		t.Fatalf("demux pumped %d sessions", len(got))
	}

	if got := pumpLane(s); got != admitLane {
		t.Fatalf("pumped %d lane timers, want %d", got, admitLane)
	}
	if s.wheel.Len() != n {
		t.Fatalf("wheel holds %d timers with the lane drained, want %d", s.wheel.Len(), n)
	}
	now := clk.advance(s.cfg.WheelTick)
	fired := s.wheel.Advance(now, nil)
	if len(fired) != n-admitLane || s.wheel.Len() != admitLane {
		t.Fatalf("the tick fired %d and left %d; want %d and %d", len(fired), s.wheel.Len(), n-admitLane, admitLane)
	}
	if !s.handOff(context.Background(), fired) {
		t.Fatal("handOff gave up under a live context")
	}
	inChunks := 0
	for len(s.jobs) > 0 {
		chunk := <-s.jobs
		inChunks += len(chunk)
		s.pumpChunk(chunk, testScratch) // a second arming of any timer panics here
	}
	if inChunks != n-admitLane || s.wheel.Len() != n {
		t.Fatalf("%d timers went through chunks, wheel holds %d; want %d and %d", inChunks, s.wheel.Len(), n-admitLane, n)
	}
	pumps := make(map[uint32]int, n)
	for _, f := range out.take() {
		pumps[f]++
	}
	for f := uint32(1); f <= n; f++ {
		if pumps[f] != 1 {
			t.Fatalf("flow %d was pumped %d times", f, pumps[f])
		}
	}
}

// TestAdmitDuplicateHelloEnqueuesNothing: a second hello for a live key is a
// Touch wherever the session's timer is — still in the lane, or on the wheel.
func TestAdmitDuplicateHelloEnqueuesNothing(t *testing.T) {
	s, clk, conn := handServer(t, discard{}, nil)
	hello(t, s, 1, clk.Now())
	sess := s.table.Get(Key{Addr: handPeer.String(), Flow: 1})
	lastActivity := func() time.Duration {
		sess.mu.Lock()
		defer sess.mu.Unlock()
		return sess.lastActivity
	}
	t1 := clk.advance(3 * time.Millisecond)
	hello(t, s, 1, t1)
	if len(s.admits) != 1 || s.wheel.Len() != 0 || lastActivity() != t1.Sub(s.wheel.Origin()) {
		t.Fatalf("duplicate in the lane: lane=%d wheel=%d lastActivity=%v, want 1/0/%v", len(s.admits), s.wheel.Len(), lastActivity(), t1)
	}
	pumpLane(s)
	t2 := clk.advance(3 * time.Millisecond)
	hello(t, s, 1, t2)
	if len(s.admits) != 0 || s.wheel.Len() != 1 || lastActivity() != t2.Sub(s.wheel.Origin()) {
		t.Fatalf("duplicate on the wheel: lane=%d wheel=%d lastActivity=%v, want 0/1/%v", len(s.admits), s.wheel.Len(), lastActivity(), t2)
	}
	if st := s.Stats(); st.Hellos != 3 || st.Admitted != 1 || st.AdmitFallbacks != 0 || st.Rejected != 0 {
		t.Fatalf("hellos=%d admitted=%d fallbacks=%d rejected=%d, want 3/1/0/0", st.Hellos, st.Admitted, st.AdmitFallbacks, st.Rejected)
	}
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if len(conn.ctl) != 0 {
		t.Fatalf("control datagrams %+v, want none", conn.ctl)
	}
}

// TestAdmitLaneShutdownClosesOnce: Shutdown finds sessions whose timers are
// still in the lane. Each first pump meets a draining session at a frame
// boundary and closes it — one Close(draining), nothing armed, nothing sent.
func TestAdmitLaneShutdownClosesOnce(t *testing.T) {
	const n = 3
	out := &dgLog{}
	s, clk, conn := handServer(t, out, nil)
	out.clk = clk
	for f := uint32(1); f <= n; f++ {
		hello(t, s, f, clk.Now())
	}
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()
	// The fake clock never blocks, so Shutdown spins on the table; its drain
	// sweep is over once every session says so.
	for deadline := time.Now().Add(5 * time.Second); ; {
		draining := 0
		s.table.Range(func(_ Key, sess *Session) bool {
			if sess.State() == StateDraining {
				draining++
			}
			return true
		})
		if draining == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d sessions draining", draining, n)
		}
		time.Sleep(time.Millisecond)
	}
	hello(t, s, n+1, clk.Now()) // refused, and the lane must not see it
	if len(s.admits) != n {
		t.Fatalf("%d timers in the lane, want %d", len(s.admits), n)
	}
	pumpLane(s)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return with the table empty")
	}
	closes := conn.closes()
	for f := uint32(1); f <= n; f++ {
		if !slices.Equal(closes[f], []wire.Reason{wire.ReasonDraining}) {
			t.Fatalf("flow %d closes %v, want one Close(draining)", f, closes[f])
		}
	}
	if st := s.Stats(); st.Completed != n || st.Active != 0 || st.RejectedDrain != 1 || s.wheel.Len() != 0 {
		t.Fatalf("completed=%d active=%d rejectedDrain=%d wheel=%d, want %d/0/1/0", st.Completed, st.Active, st.RejectedDrain, s.wheel.Len(), n)
	}
	if got := out.snapshot(); len(got) != 0 {
		t.Fatalf("%d data datagrams from sessions drained before their first pump", len(got))
	}
}

// TestAdmitLaneReapedBeforeFirstPump is TestStaleTimerDoesNotEvictReadmittedKey
// with the stale timer still in the lane: the session is reaped before a
// worker got to it and its receiver re-hellos under the same key. The stale
// timer's pump finishes the old session without a second Close and without
// evicting the new one, which streams.
func TestAdmitLaneReapedBeforeFirstPump(t *testing.T) {
	out := &flowLog{}
	s, clk, conn := handServer(t, out, nil)
	key := Key{Addr: handPeer.String(), Flow: 1}
	hello(t, s, 1, clk.Now())
	old := s.table.Get(key)
	reaped := 0
	if n := s.table.Reap(clk.Now(), 0, func(Key, *Session) { reaped++ }); n != 1 || reaped != 1 {
		t.Fatalf("reaped %d sessions, %d callbacks; want 1 and 1", n, reaped)
	}
	hello(t, s, 1, clk.Now())
	fresh := s.table.Get(key)
	if fresh == nil || fresh == old {
		t.Fatal("the key was not re-admitted as a new session")
	}
	if len(s.admits) != 2 {
		t.Fatalf("%d timers in the lane, want the stale one and the new one", len(s.admits))
	}
	pumpLane(s)
	if got := s.table.Get(key); got != fresh {
		t.Fatalf("after the stale pump the key maps to %p, want the re-admitted session %p", got, fresh)
	}
	if s.wheel.Len() != 1 || old.timer.Owner != old || fresh.Stats().Datagrams == 0 || old.Stats().Datagrams != 0 {
		t.Fatalf("wheel=%d fresh sent %d, old sent %d; want only the new session armed and streaming",
			s.wheel.Len(), fresh.Stats().Datagrams, old.Stats().Datagrams)
	}
	var fired []*Timer
	out.take()
	for tick := 0; tick < 200; tick++ {
		step(t, s, clk, &fired)
	}
	if !slices.Contains(out.take(), 1) {
		t.Fatal("the re-admitted session stopped streaming")
	}
	if st := s.Stats(); st.Active != 1 || st.Completed != 0 {
		t.Fatalf("active=%d completed=%d, want 1/0", st.Active, st.Completed)
	}
	if c := conn.closes(); len(c) != 0 {
		t.Fatalf("closes %v, want none: the reap's callback sent nothing and nobody else closed", c)
	}
}

// TestAdmitLaneStuckReapedBeforeFirstPump: with the workers stalled for a
// whole stuck window the watchdog closes a session that never had its first
// pump; the pump that follows must not close it again.
func TestAdmitLaneStuckReapedBeforeFirstPump(t *testing.T) {
	out := &dgLog{}
	s, clk, conn := handServer(t, out, func(cfg *ServerConfig) { cfg.StuckTimeout = time.Second })
	out.clk = clk
	hello(t, s, 1, clk.Now())
	s.reapStuck(clk.advance(2 * time.Second))
	if st := s.Stats(); st.ReapedStuck != 1 || st.Active != 0 {
		t.Fatalf("reapedStuck=%d active=%d, want 1/0", st.ReapedStuck, st.Active)
	}
	if n := pumpLane(s); n != 1 {
		t.Fatalf("pumped %d lane timers, want the stuck session's", n)
	}
	if c := conn.closes(); len(c) != 1 || !slices.Equal(c[1], []wire.Reason{wire.ReasonStuck}) {
		t.Fatalf("closes %v, want one Close(stuck) for flow 1", c)
	}
	if st := s.Stats(); st.Completed != 0 || s.wheel.Len() != 0 || len(out.snapshot()) != 0 {
		t.Fatalf("completed=%d wheel=%d datagrams=%d, want 0/0/0", st.Completed, s.wheel.Len(), len(out.snapshot()))
	}
}

// TestAdmitLaneRacesReapers runs the real workers and driver on the wall
// clock against an idle reaper and a stuck watchdog that both consider every
// session expired at once, while hellos arrive faster than the lane drains.
// However a session ends — completed by its first pump, reaped in the lane,
// reaped on the wheel — its receiver is told exactly once. Run with -race.
func TestAdmitLaneRacesReapers(t *testing.T) {
	const n = 3000
	conn := &ctlConn{}
	s, err := NewServer(ServerConfig{
		Conn:         conn,
		Out:          discard{},
		Clock:        wire.SystemClock{},
		IdleTimeout:  -1,              // the test runs the idle reaper itself
		StuckTimeout: time.Nanosecond, // the driver's watchdog sweeps every loop
		Session: Config{
			Frame:      fgs.FrameSpec{PacketSize: 100, TotalPackets: 8, GreenPackets: 1},
			BurstBytes: 800, // a whole frame: the first pump completes the session
			MaxFrames:  1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	spawn := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	spawn(func() { s.driver(ctx) })
	for i := 0; i < s.cfg.Workers; i++ {
		spawn(func() { s.worker(ctx) })
	}
	var reaped int
	spawn(func() {
		for ctx.Err() == nil {
			now := time.Now()
			reaped += s.table.Reap(now, 0, func(k Key, sess *Session) {
				s.sendControl(wire.TypeClose, k.Flow, wire.ReasonIdle, 0, sess.Peer(), now)
			})
			time.Sleep(50 * time.Microsecond)
		}
	})
	for f := uint32(1); f <= n; f++ {
		s.admit(origin{addr: handPeer}, f, time.Now())
	}
	for deadline := time.Now().Add(10 * time.Second); s.table.Len() > 0 || len(s.admits) > 0 || s.wheel.Len() > 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions live, %d in the lane, %d in the wheel after 10 s", s.table.Len(), len(s.admits), s.wheel.Len())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait()

	closes := conn.closes()
	for f := uint32(1); f <= n; f++ {
		if len(closes[f]) != 1 {
			t.Fatalf("flow %d was told %v, want exactly one Close", f, closes[f])
		}
	}
	st := s.Stats()
	if st.Admitted != n || st.Completed+uint64(reaped)+st.ReapedStuck != n {
		t.Fatalf("admitted=%d completed=%d reaped=%d reapedStuck=%d: the ends do not add up to %d",
			st.Admitted, st.Completed, reaped, st.ReapedStuck, n)
	}
	t.Logf("completed=%d reaped=%d reapedStuck=%d fallbacks=%d", st.Completed, reaped, st.ReapedStuck, st.AdmitFallbacks)
}

// TestAdmitDemuxNeverPumps reads the package's source: no chain of calls
// from demux reaches Session.pump, a worker's pump step, or a write to a
// session's data path. The graph is by bare callee name, so it over-connects
// and can only err towards failing.
func TestAdmitDemuxNeverPumps(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
	}
	calls := map[string]map[string]bool{} // function or method name → callee names
	dataWrites := map[string]bool{}       // functions that call <x>.out.WriteTo or <x>.Out.WriteTo
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			if calls[name] == nil {
				calls[name] = map[string]bool{}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fn := call.Fun.(type) {
				case *ast.Ident:
					calls[name][fn.Name] = true
				case *ast.SelectorExpr:
					calls[name][fn.Sel.Name] = true
					if recv, ok := fn.X.(*ast.SelectorExpr); ok && fn.Sel.Name == "WriteTo" &&
						strings.EqualFold(recv.Sel.Name, "out") {
						dataWrites[name] = true
					}
				}
				return true
			})
		}
	}
	reach := func(from string) map[string]bool {
		seen := map[string]bool{from: true}
		for queue := []string{from}; len(queue) > 0; queue = queue[1:] {
			for callee := range calls[queue[0]] {
				if _, declared := calls[callee]; declared && !seen[callee] {
					seen[callee] = true
					queue = append(queue, callee)
				}
			}
		}
		return seen
	}
	fromDemux, fromWorker := reach("demux"), reach("worker")
	// The graph must see what it is meant to: demux admits, workers pump, and
	// a pump is what writes data.
	if !fromDemux["admit"] || !fromWorker["pump"] || !fromWorker["pumpAdmitted"] || !dataWrites["sendLocked"] {
		t.Fatalf("the call graph lost its landmarks: demux→admit %v, worker→pump %v, worker→pumpAdmitted %v, sendLocked writes %v",
			fromDemux["admit"], fromWorker["pump"], fromWorker["pumpAdmitted"], dataWrites["sendLocked"])
	}
	for _, name := range []string{"pump", "pumpChunk", "pumpAdmitted", "sendLocked"} {
		if fromDemux[name] {
			t.Errorf("demux reaches %s", name)
		}
	}
	for name := range dataWrites {
		if fromDemux[name] {
			t.Errorf("demux reaches %s, which writes to a session's data path", name)
		}
	}
}

// TestAdmitAtTimelineZero: a session admitted at the server's first instant
// sits at offset 0 of the wheel's timeline. Zero used to be the zero
// time.Time, which meant "never" for the frame gate and for the last stale
// decay; on the timeline it is a real instant, and the session must still
// hold its frames to the frame cadence while shedding and still decay once
// per StaleTimeout, no more and no less.
func TestAdmitAtTimelineZero(t *testing.T) {
	const (
		interval = 20 * time.Millisecond
		stale    = 50 * time.Millisecond
	)
	s, clk, _ := handServer(t, discard{}, func(cfg *ServerConfig) {
		cfg.Session.FrameInterval = interval
		cfg.Session.StaleTimeout = stale
		// Six 100-byte packets a frame at first, never fewer than two:
		// what shedding leaves of a frame is sent well inside its interval.
		cfg.Session.MKC = cc.MKCConfig{Alpha: units.Kbps, Beta: 0.5, InitialRate: 240 * units.Kbps, MinRate: 80 * units.Kbps, DedupEpochs: true}
	})
	t0 := clk.Now()
	if !t0.Equal(s.wheel.Origin()) {
		t.Fatalf("the server's first instant %v is not its wheel's origin %v", t0, s.wheel.Origin())
	}
	s.shedLvl.Store(1)
	hello(t, s, 1, t0)
	sess := s.table.Get(Key{Addr: handPeer.String(), Flow: 1})
	sess.mu.Lock()
	admittedAt := sess.lastFeedbackAt
	sess.mu.Unlock()
	if admittedAt != 0 {
		t.Fatalf("admitted at offset %v, want 0", admittedAt)
	}
	pumpLane(s)
	var fired []*Timer
	for ms := 1; ms <= 1000; ms++ {
		step(t, s, clk, &fired)
		st := sess.Stats()
		if st.Shed == 0 && ms >= int(interval/time.Millisecond) {
			t.Fatalf("%d ms in, nothing shed: the test does not shed", ms)
		}
		// Frames start at 0, 20 ms, 40 ms, ...: the gate holds each to
		// the one before plus the interval, the first included.
		if want := ms/int(interval/time.Millisecond) + 1; st.Frames != want {
			t.Fatalf("%d ms in, %d frames started, want %d", ms, st.Frames, want)
		}
		// A decay at most once per horizon, and at the latest one frame
		// interval (the longest gap between wakes) after it is due.
		lo, hi := ms/int((stale+interval)/time.Millisecond), ms/int(stale/time.Millisecond)
		if d := int(st.StaleDecays); d < lo || d > hi {
			t.Fatalf("%d ms in, %d stale decays, want %d to %d", ms, d, lo, hi)
		}
	}
}
