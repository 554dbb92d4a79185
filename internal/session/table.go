package session

import (
	"cmp"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Key identifies one session: the receiver's transport address plus the
// flow ID it announced in its hello. Two receivers behind one address
// (pelsload multiplexes many flows over few sockets) stay distinct, and
// one receiver re-helloing from a new port is a new session.
type Key struct {
	Addr string
	Flow uint32
}

// String renders the key as addr/flow.
func (k Key) String() string { return fmt.Sprintf("%s/%d", k.Addr, k.Flow) }

// Compare orders keys by address, then flow. It compares the flows rather
// than subtracting them: a difference of two uint32s overflows a 32-bit int,
// and the result is then not an order at all.
func (k Key) Compare(o Key) int {
	if c := strings.Compare(k.Addr, o.Addr); c != 0 {
		return c
	}
	return cmp.Compare(k.Flow, o.Flow)
}

// tableShard is one lock domain of the table. Each shard carries its own
// obs registry so saturation — how unevenly sessions hash, which shard a
// hot path contends on — is visible per shard in /debug/shards rather
// than averaged away in a global counter.
type tableShard struct {
	// Registry handles are write-once at construction and internally
	// synchronized; they live outside the mu paragraph on purpose so
	// counter bumps never serialize on the shard lock.
	reg      *obs.Registry
	admitted *obs.Counter
	removed  *obs.Counter
	reaped   *obs.Counter
	// Rejected hellos attributed to the shard their key would have
	// landed in, split by reason so /debug/shards distinguishes a full
	// server from a draining one from a broken Tune hook.
	rejFull     *obs.Counter
	rejDraining *obs.Counter
	rejConfig   *obs.Counter

	mu sync.RWMutex
	m  map[Key]*Session
}

// Table is the sharded session table. The shard count is fixed at
// construction (rounded up to a power of two); keys hash with FNV-1a over
// the address bytes and flow ID.
type Table struct {
	shards []*tableShard
	mask   uint32
}

// NewTable builds a table with the given shard count (minimum 1, rounded
// up to a power of two).
func NewTable(shards int) *Table {
	if shards < 1 {
		shards = 1
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	t := &Table{shards: make([]*tableShard, n), mask: uint32(n - 1)}
	for i := range t.shards {
		sh := &tableShard{m: make(map[Key]*Session), reg: obs.NewRegistry()}
		sh.admitted = sh.reg.Counter("shard.admitted")
		sh.removed = sh.reg.Counter("shard.removed")
		sh.reaped = sh.reg.Counter("shard.reaped")
		sh.rejFull = sh.reg.Counter("shard.rejected_full")
		sh.rejDraining = sh.reg.Counter("shard.rejected_draining")
		sh.rejConfig = sh.reg.Counter("shard.rejected_config")
		sh.reg.GaugeFunc("shard.sessions", func() float64 {
			sh.mu.RLock()
			defer sh.mu.RUnlock()
			return float64(len(sh.m))
		})
		sh.reg.GaugeFunc("shard.rate_kbps_sum", func() float64 {
			sh.mu.RLock()
			defer sh.mu.RUnlock()
			var sum float64
			for _, s := range sh.m {
				sum += s.Rate().KbpsValue()
			}
			return sum
		})
		sh.reg.GaugeFunc("shard.gamma_mean", func() float64 {
			sh.mu.RLock()
			defer sh.mu.RUnlock()
			if len(sh.m) == 0 {
				return 0
			}
			var sum float64
			for _, s := range sh.m {
				sum += s.Gamma()
			}
			return sum / float64(len(sh.m))
		})
		t.shards[i] = sh
	}
	return t
}

// Registries returns the per-shard obs registries, indexed by shard.
func (t *Table) Registries() []*obs.Registry {
	regs := make([]*obs.Registry, len(t.shards))
	for i, sh := range t.shards {
		regs[i] = sh.reg
	}
	return regs
}

// hash is FNV-1a over the key's address bytes and flow ID.
//
//pelsvet:noalloc
func (t *Table) hash(k Key) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(k.Addr); i++ {
		h ^= uint32(k.Addr[i])
		h *= prime32
	}
	h ^= k.Flow
	h *= prime32
	return h
}

func (t *Table) shard(k Key) *tableShard { return t.shards[t.hash(k)&t.mask] }

// RecordReject attributes one rejected hello to the shard its key would
// have hashed into, distinguishable by reason. Draining and full share
// the shard a receiver targeted; everything else (Tune validation,
// session construction) counts as config.
func (t *Table) RecordReject(k Key, reason wire.Reason) {
	sh := t.shard(k)
	switch reason {
	case wire.ReasonServerFull:
		sh.rejFull.Inc()
	case wire.ReasonDraining:
		sh.rejDraining.Inc()
	default:
		sh.rejConfig.Inc()
	}
}

// Get returns the session for k, or nil.
//
//pelsvet:noalloc
func (t *Table) Get(k Key) *Session {
	sh := t.shard(k)
	sh.mu.RLock()
	s := sh.m[k]
	sh.mu.RUnlock()
	return s
}

// Put inserts s under k. It reports false (and does not insert) when the
// key is already present — admission is first-hello-wins.
func (t *Table) Put(k Key, s *Session) bool {
	sh := t.shard(k)
	sh.mu.Lock()
	if _, ok := sh.m[k]; ok {
		sh.mu.Unlock()
		return false
	}
	sh.m[k] = s
	sh.mu.Unlock()
	sh.admitted.Inc()
	return true
}

// Delete removes k, reporting whether it was present. reaped marks the
// removal as an idle-timeout reap in the shard's counters.
func (t *Table) Delete(k Key, reaped bool) bool { return t.remove(k, nil, reaped) }

// DeleteIf removes k only while it still maps to s, reporting whether it
// did. It is how a session's own end of life leaves the table: a session
// that was already removed (reaped, say) and whose key a new hello has
// since re-admitted must not take the newcomer with it.
func (t *Table) DeleteIf(k Key, s *Session, reaped bool) bool { return t.remove(k, s, reaped) }

// remove deletes k if present and, when only is non-nil, mapped to it.
func (t *Table) remove(k Key, only *Session, reaped bool) bool {
	sh := t.shard(k)
	sh.mu.Lock()
	cur, ok := sh.m[k]
	if only != nil && cur != only {
		ok = false
	}
	if ok {
		delete(sh.m, k)
	}
	sh.mu.Unlock()
	if ok {
		sh.removed.Inc()
		if reaped {
			sh.reaped.Inc()
		}
	}
	return ok
}

// Len returns the number of live sessions across all shards.
func (t *Table) Len() int {
	n := 0
	for _, sh := range t.shards {
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Range calls fn for every session. Each shard is snapshotted under its
// read lock and visited outside it, so fn may call back into the table
// (delete, even insert) without deadlocking.
func (t *Table) Range(fn func(k Key, s *Session) bool) {
	var snap []struct {
		k Key
		s *Session
	}
	for _, sh := range t.shards {
		sh.mu.RLock()
		snap = snap[:0]
		for k, s := range sh.m {
			snap = append(snap, struct {
				k Key
				s *Session
			}{k, s})
		}
		sh.mu.RUnlock()
		for _, e := range snap {
			if !fn(e.k, e.s) {
				return
			}
		}
	}
}

// Reap closes and removes every session idle since before now−idle,
// returning the reaped keys (nil when none). Completed sessions are
// removed by the worker pool as they finish; Reap only collects receivers
// that went silent mid-stream.
func (t *Table) Reap(now time.Time, idle time.Duration, onReap func(k Key, s *Session)) int {
	n := 0
	t.Range(func(k Key, s *Session) bool {
		if s.expireIdle(now, idle) {
			if t.DeleteIf(k, s, true) {
				n++
				if onReap != nil {
					onReap(k, s)
				}
			}
		}
		return true
	})
	return n
}
