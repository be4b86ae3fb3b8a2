package ttlmap

import (
	"sync"
	"testing"
	"time"
)

const (
	sec   = int64(time.Second)
	grace = time.Minute
)

func intHash(k int) uint64 { return uint64(k) * 0x9e3779b97f4a7c15 }

func newInts(capacity int) *Map[int, int] { return New[int, int](capacity, grace, intHash) }

// TestEvictionBound: every Put of a new key into a full map evicts exactly
// one live entry, so 20 inserts into a 4-entry map cost 16 evictions and
// leave 4 entries.
func TestEvictionBound(t *testing.T) {
	m := newInts(4)
	evictions := 0
	for i := range 20 {
		if m.Put(i, i, 300*sec, 0) {
			evictions++
		}
		if n := m.Len(); n > 4 {
			t.Fatalf("after %d inserts the map holds %d entries, capacity 4", i+1, n)
		}
	}
	if evictions != 16 {
		t.Errorf("evictions = %d, want 16", evictions)
	}
	// Replacing a present key evicts nothing.
	for i := range 20 {
		if _, _, ok := m.Get(i, 0); ok && m.Put(i, -i, 300*sec, 0) {
			t.Errorf("replacing key %d evicted an entry", i)
		}
	}
}

// TestDeadGoFirst: entries past their grace make room before any live one.
// At capacity 8 the eight probes see the whole shard, so the rule is exact:
// the first insert drops all eight dead entries and evicts nothing live.
func TestDeadGoFirst(t *testing.T) {
	m := newInts(8)
	for i := range 8 {
		m.Put(i, i, sec, 0)
	}
	now := sec + int64(grace) // every entry is now past its grace
	if m.Put(100, 100, now+sec, now) {
		t.Error("a live entry was evicted while dead ones were in the map")
	}
	if n := m.Len(); n != 1 {
		t.Errorf("%d entries after the insert, want only the new one", n)
	}
	// An entry inside its grace is not dead: it is evicted as a live one.
	m = newInts(1)
	m.Put(1, 1, sec, 0)
	if !m.Put(2, 2, 10*sec, 2*sec) {
		t.Error("a stale entry inside its grace went as a dead one")
	}
}

// TestFreshHitSurvivesEviction: a fresh Get protects its entry from the next
// eviction, as recency did in the LRU this map replaced. At capacity 8 the
// eight probes see the whole shard, so the rule is exact: the entry stored
// first and never read goes.
func TestFreshHitSurvivesEviction(t *testing.T) {
	m := newInts(8)
	for i := range 8 {
		m.Put(i, i, 300*sec, 0)
	}
	if _, fresh, ok := m.Get(0, sec); !ok || !fresh {
		t.Fatal("entry 0 is not a fresh hit")
	}
	m.Put(100, 100, 300*sec, sec)
	if _, _, ok := m.Get(0, sec); !ok {
		t.Error("the fresh hit was evicted by the next insert")
	}
	if _, _, ok := m.Get(1, sec); ok {
		t.Error("the entry stored longest ago and never read outlived the insert")
	}
	// Expiry does not order live entries: the one read since the other was
	// stored stays, though it expires first.
	m = newInts(2)
	m.Put(1, 1, 100*sec, 0)
	m.Put(2, 2, 200*sec, 0)
	m.Get(1, 0)
	m.Put(3, 3, 300*sec, 0)
	if _, _, ok := m.Get(1, 0); !ok {
		t.Error("the entry read after the other was stored went first")
	}
	if _, _, ok := m.Get(2, 0); ok {
		t.Error("the entry stored before the other was read outlived the insert")
	}
}

// TestNewEntryOutlivesTheNextInsert: an entry just stored is the newest of
// any probe that finds it, so the next insert into its shard takes another,
// whichever slot of the shard's table it landed in. A 64-entry map is one
// shard, and a full one is probed eight entries at a time.
func TestNewEntryOutlivesTheNextInsert(t *testing.T) {
	m := newInts(64)
	for i := range 64 {
		m.Put(i, i, 300*sec, 0)
	}
	for i := 64; i < 20064; i += 2 {
		m.Put(i, i, 300*sec, 0)
		m.Put(i+1, i+1, 300*sec, 0)
		if _, _, ok := m.Get(i, 0); !ok {
			t.Fatalf("entry %d was evicted by the insert that followed it", i)
		}
	}
}

// TestStaleHitDoesNotProtect: a stale Get leaves its entry's last use where
// it was, so a stale entry goes before a fresh entry that was read.
func TestStaleHitDoesNotProtect(t *testing.T) {
	m := newInts(2)
	m.Put(1, 1, sec, 0)     // stale from 1s
	m.Put(2, 2, 300*sec, 0) // fresh throughout
	now := 2 * sec
	if _, fresh, ok := m.Get(1, now); !ok || fresh {
		t.Fatal("entry 1 is not a stale hit")
	}
	if used := m.shards[0].m[1].used; used != 0 {
		t.Errorf("a stale hit moved its entry's last use from 0 to %d", used)
	}
	m.Get(2, now)
	m.Put(3, 3, 300*sec, now)
	if _, _, ok := m.Get(1, now); ok {
		t.Error("the stale entry outlived the insert")
	}
	if _, _, ok := m.Get(2, now); !ok {
		t.Error("the fresh, read entry was evicted before the stale one")
	}
}

// TestLifetime: fresh before the expiry, stale within the grace after it,
// then a miss that drops the entry.
func TestLifetime(t *testing.T) {
	m := newInts(8)
	m.Put(1, 7, 10*sec, 0)
	for _, c := range []struct {
		now       int64
		fresh, ok bool
		len       int
	}{
		{10*sec - 1, true, true, 1},
		{10 * sec, false, true, 1},
		{10*sec + int64(grace) - 1, false, true, 1},
		{10*sec + int64(grace), false, false, 0},
	} {
		v, fresh, ok := m.Get(1, c.now)
		if fresh != c.fresh || ok != c.ok || ok && v != 7 || m.Len() != c.len {
			t.Errorf("at %d: (%d, fresh %v, ok %v), %d entries; want fresh %v ok %v, %d entries",
				c.now, v, fresh, ok, m.Len(), c.fresh, c.ok, c.len)
		}
	}
	// A negative grace reads as none.
	m = New[int, int](8, -1, intHash)
	m.Put(1, 1, sec, 0)
	if _, _, ok := m.Get(1, sec); ok {
		t.Error("with no grace an expired entry was served stale")
	}
}

// TestShardCount: the shard count is the largest power of two at most 64
// that leaves every shard 64 entries, so edeserver's and the benchmark's
// capacities (16,384 and the default 65,536) keep 64 shards, a test-sized
// map is one shard, and the shards' limits sum to the capacity.
func TestShardCount(t *testing.T) {
	for _, c := range []struct{ capacity, shards int }{
		{1, 1}, {8, 1}, {127, 1}, {128, 2}, {1000, 8}, {4096, 64}, {5000, 64}, {16384, 64}, {65536, 64}, {1 << 20, 64},
	} {
		m := newInts(c.capacity)
		sum := 0
		for i := range m.shards {
			sum += m.shards[i].limit
		}
		if len(m.shards) != c.shards || sum != c.capacity {
			t.Errorf("capacity %d: %d shards with limits summing to %d, want %d shards summing to %d",
				c.capacity, len(m.shards), sum, c.shards, c.capacity)
		}
	}
}

// TestCapacityBoundsTheTotal: capacity bounds the whole map at every size,
// including one the shard count does not divide (5,000 over 64) and the
// resolver's default of 1<<20, and a full map holds exactly capacity
// entries.
func TestCapacityBoundsTheTotal(t *testing.T) {
	for _, capacity := range []int{1, 8, 127, 5000, 1 << 20} {
		m := newInts(capacity)
		for i := range capacity + capacity/4 + 1 {
			m.Put(i, i, 300*sec, 0)
		}
		if n := m.Len(); n != capacity {
			t.Errorf("capacity %d over %d shards: a full map holds %d entries", capacity, len(m.shards), n)
		}
	}
}

// TestConcurrentGetPut drives every shard from several goroutines under a
// small capacity; under -race it checks the locking.
func TestConcurrentGetPut(t *testing.T) {
	m := newInts(256)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2000 {
				k := g*10000 + i%700
				now := int64(i) * sec / 100
				m.Put(k, i, now+sec, now)
				m.Get(k, now)
				m.Get(k-1, now+2*sec)
			}
		}()
	}
	wg.Wait()
	if n := m.Len(); n > 256 {
		t.Fatalf("%d entries after concurrent churn, capacity 256", n)
	}
}

// TestNoAllocs: a Get, hit or miss, and a Put of a key already present
// allocate nothing.
func TestNoAllocs(t *testing.T) {
	m := newInts(4096)
	for i := range 4096 {
		m.Put(i, i, 300*sec, 0)
	}
	for name, fn := range map[string]func(){
		"fresh get":   func() { m.Get(17, sec) },
		"stale get":   func() { m.Get(17, 301*sec) },
		"miss":        func() { m.Get(-1, sec) },
		"replace put": func() { m.Put(17, 18, 300*sec, sec) },
	} {
		if a := testing.AllocsPerRun(100, fn); a != 0 {
			t.Errorf("%s: %.1f allocations, want 0", name, a)
		}
	}
}

// TestReadEntriesOutliveOneShots: entries read between bursts of keys put
// once and never read again stay in the map. 32 read keys share a
// 1,024-entry map with 64,000 one-shot keys, read after every burst of 64;
// under 1.5% of their reads may miss. A read key is among the newest of any
// probe that finds it, so it goes only when every entry probed with it is
// newer.
func TestReadEntriesOutliveOneShots(t *testing.T) {
	const hot, rounds, burst = 32, 1000, 64
	m := newInts(1024)
	oneShot := hot
	readHot := func() (missed int) {
		for k := range hot {
			if _, _, ok := m.Get(k, 0); !ok {
				missed++
				m.Put(k, k, 300*sec, 0)
			}
		}
		return missed
	}
	for range 1024 {
		m.Put(oneShot, 0, 300*sec, 0)
		oneShot++
	}
	readHot()
	readHot() // every read key is in the map and read since its store
	missed := 0
	for range rounds {
		for range burst {
			m.Put(oneShot, 0, 300*sec, 0)
			oneShot++
		}
		missed += readHot()
	}
	t.Logf("%d of %d reads missed", missed, rounds*hot)
	if missed*200 > 3*rounds*hot {
		t.Errorf("%d of %d reads of read entries missed under one-shot inserts, want under 1.5%%", missed, rounds*hot)
	}
}
