package session

import (
	"cmp"
	"fmt"
	"net"
	"testing"
	"time"
)

// sinkWriter discards datagrams (sessions under test never hit a socket).
type sinkWriter struct{ n int }

func (w *sinkWriter) WriteTo(b []byte, _ net.Addr) (int, error) {
	w.n++
	return len(b), nil
}

func testSession(t *testing.T, key Key, now time.Time) *Session {
	t.Helper()
	cfg := Config{}.WithDefaults()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(key, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}, &sinkWriter{}, cfg, now)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTablePutGetDelete(t *testing.T) {
	now := time.Unix(1000, 0)
	tb := NewTable(4)
	k := Key{Addr: "127.0.0.1:4242", Flow: 7}
	s := testSession(t, k, now)
	if !tb.Put(k, s) {
		t.Fatal("first Put reported false")
	}
	if tb.Put(k, testSession(t, k, now)) {
		t.Fatal("duplicate Put succeeded; admission must be first-hello-wins")
	}
	if got := tb.Get(k); got != s {
		t.Fatalf("Get returned %v, want the original session", got)
	}
	if tb.Len() != 1 {
		t.Fatalf("len %d, want 1", tb.Len())
	}
	if !tb.Delete(k, false) {
		t.Fatal("Delete of a present key reported false")
	}
	if tb.Delete(k, false) {
		t.Fatal("second Delete reported true")
	}
	if tb.Get(k) != nil {
		t.Fatal("Get after Delete returned a session")
	}
}

// TestTableDeleteIf: compare-and-delete removes a key only while it maps
// to the given session, so a session that lost its slot cannot evict the
// session that now holds it.
func TestTableDeleteIf(t *testing.T) {
	now := time.Unix(1000, 0)
	tb := NewTable(4)
	k := Key{Addr: "127.0.0.1:4242", Flow: 7}
	old, cur := testSession(t, k, now), testSession(t, k, now)
	tb.Put(k, cur)
	if tb.DeleteIf(k, old, false) {
		t.Fatal("DeleteIf removed a key mapped to a different session")
	}
	if got := tb.Get(k); got != cur {
		t.Fatalf("Get returned %v, want the current session", got)
	}
	if !tb.DeleteIf(k, cur, false) {
		t.Fatal("DeleteIf of the mapped session reported false")
	}
	if tb.DeleteIf(k, cur, false) || tb.Len() != 0 {
		t.Fatal("DeleteIf of an absent key reported true")
	}
}

func TestTableShardSpread(t *testing.T) {
	now := time.Unix(1000, 0)
	tb := NewTable(8)
	seen := map[int]int{}
	for i := 0; i < 256; i++ {
		k := Key{Addr: fmt.Sprintf("10.0.0.%d:%d", i%8, 5000+i), Flow: uint32(i)}
		tb.Put(k, testSession(t, k, now))
		seen[tb.ShardIndex(k)]++
	}
	if len(seen) < 4 {
		t.Fatalf("256 keys landed on only %d of 8 shards; hash is degenerate", len(seen))
	}
	// Per-shard registries must account for every admission.
	var admitted float64
	for _, reg := range tb.Registries() {
		admitted += reg.Snapshot()["shard.admitted"]
	}
	if admitted != 256 {
		t.Fatalf("shard registries count %v admissions, want 256", admitted)
	}
}

func TestTableReapIdle(t *testing.T) {
	now := time.Unix(1000, 0)
	tb := NewTable(4)
	idleKey := Key{Addr: "127.0.0.1:1111", Flow: 1}
	liveKey := Key{Addr: "127.0.0.1:2222", Flow: 2}
	idle := testSession(t, idleKey, now)
	live := testSession(t, liveKey, now)
	tb.Put(idleKey, idle)
	tb.Put(liveKey, live)

	// The live session's receiver stays chatty; the idle one goes silent.
	later := now.Add(3 * time.Second)
	live.Touch(later)

	var reapedKeys []Key
	n := tb.Reap(later.Add(time.Second), 2*time.Second, func(k Key, _ *Session) {
		reapedKeys = append(reapedKeys, k)
	})
	if n != 1 || len(reapedKeys) != 1 || reapedKeys[0] != idleKey {
		t.Fatalf("reaped %d %v, want exactly %v", n, reapedKeys, idleKey)
	}
	if idle.State() != StateClosed {
		t.Fatalf("reaped session state %v, want closed", idle.State())
	}
	if live.State() != StateStreaming {
		t.Fatalf("live session state %v, want streaming", live.State())
	}
	if tb.Get(liveKey) == nil || tb.Get(idleKey) != nil {
		t.Fatal("reap removed the wrong session")
	}
	// Reap counters land on the idle key's shard.
	var reaped float64
	for _, reg := range tb.Registries() {
		reaped += reg.Snapshot()["shard.reaped"]
	}
	if reaped != 1 {
		t.Fatalf("shard registries count %v reaps, want 1", reaped)
	}
}

func TestTableRangeEarlyStop(t *testing.T) {
	now := time.Unix(1000, 0)
	tb := NewTable(2)
	for i := 0; i < 10; i++ {
		k := Key{Addr: "127.0.0.1:3333", Flow: uint32(i)}
		tb.Put(k, testSession(t, k, now))
	}
	visits := 0
	tb.Range(func(Key, *Session) bool {
		visits++
		return visits < 3
	})
	if visits != 3 {
		t.Fatalf("Range visited %d sessions after early stop, want 3", visits)
	}
}

// TestKeyCompareOrdersFarApartFlows: Compare is the order dispatch sorts a
// feedback batch by, so that one key's items are contiguous. Flows 2³¹ and
// more apart are where a subtraction would wrap on a 32-bit int and stop
// being an order; the benchmark's stage chain and FuzzSwarmHandle use such
// flows.
func TestKeyCompareOrdersFarApartFlows(t *testing.T) {
	var keys []Key // ascending
	for _, addr := range []string{"10.0.0.1:9", "10.0.0.2:9"} {
		for _, flow := range []uint32{0, 1, 1 << 31, 1<<32 - 1} {
			keys = append(keys, Key{Addr: addr, Flow: flow})
		}
	}
	for i, a := range keys {
		for j, b := range keys {
			if got, want := a.Compare(b), cmp.Compare(i, j); got != want {
				t.Errorf("%v.Compare(%v) = %d, want %d", a, b, got, want)
			}
		}
	}
}
