package packet

import "testing"

func TestPoolRecyclesAndZeroes(t *testing.T) {
	var pl Pool
	p := pl.Get()
	p.ID = 42
	p.Size = 1500
	p.Color = Red
	p.Feedback = Feedback{RouterID: 3, Loss: 0.5, Valid: true}
	pl.Put(p)
	q := pl.Get()
	if q != p {
		t.Fatal("Get did not reuse the freed packet")
	}
	if q.ID != 0 || q.Size != 0 || q.Color != 0 || q.Feedback.Valid {
		t.Errorf("recycled packet not zeroed: %+v", q)
	}
}

func TestPoolDoubleFreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("double Put did not panic")
		}
	}()
	var pl Pool
	p := pl.Get()
	pl.Put(p)
	pl.Put(p)
}

func TestPoolPutOfCopyIsIndependent(t *testing.T) {
	// The fault injector duplicates packets by value copy; the copy must be
	// poolable independently of the original.
	var pl Pool
	p := pl.Get()
	cp := *p
	pl.Put(p)
	pl.Put(&cp) // must not panic: distinct object, inPool not inherited as true
	if len(pl.free) != 2 {
		t.Errorf("free list depth = %d, want 2", len(pl.free))
	}
}

func TestPoolLIFOOrderIsDeterministic(t *testing.T) {
	var pl Pool
	a, b, c := pl.Get(), pl.Get(), pl.Get()
	pl.Put(a)
	pl.Put(b)
	pl.Put(c)
	if pl.Get() != c || pl.Get() != b || pl.Get() != a {
		t.Error("free list is not LIFO")
	}
}

func TestPoolSteadyStateAllocs(t *testing.T) {
	var pl Pool
	pl.Put(pl.Get())
	allocs := testing.AllocsPerRun(100, func() {
		p := pl.Get()
		pl.Put(p)
	})
	if allocs != 0 {
		t.Errorf("steady-state Get/Put allocates %.1f/op, want 0", allocs)
	}
}
