package cache

import (
	"testing"

	"fafnir/internal/header"
	"fafnir/internal/tensor"
)

// valFor derives a deterministic row for a key, so value correctness is
// checkable without carrying a reference store around.
func valFor(k Key, dim int) tensor.Vector {
	v := make(tensor.Vector, dim)
	for i := range v {
		v[i] = float32(uint32(k.Index)*31+uint32(k.Table)*7+uint32(k.Op)*3) + float32(i)
	}
	return v
}

func key(i int) Key { return Key{Table: uint32(i % 2), Op: uint8(i % 3), Index: header.Index(i)} }

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{Bytes: 640, Dim: 4}, true},
		{Config{Bytes: 80, Dim: 4}, true}, // exactly one slot
		{Config{Bytes: 0, Dim: 4}, false},
		{Config{Bytes: -1, Dim: 4}, false},
		{Config{Bytes: 640, Dim: 0}, false},
		{Config{Bytes: 640, Dim: -3}, false},
		{Config{Bytes: 79, Dim: 4}, false}, // below one slot
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", tc.cfg, err, tc.ok)
		}
		if _, err := New(tc.cfg); (err == nil) != tc.ok {
			t.Errorf("New(%+v) error = %v, want ok=%v", tc.cfg, err, tc.ok)
		}
	}
}

func TestBasicGetPut(t *testing.T) {
	const dim = 4
	c, err := New(Config{Bytes: 640, Dim: dim, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Capacity(); got != 8 {
		t.Fatalf("Capacity() = %d, want 8 (640 / (4*4+64))", got)
	}
	k := key(3)
	if _, ok := c.Get(k); ok {
		t.Fatal("Get on empty cache reported a hit")
	}
	if err := c.Put(k, valFor(k, dim)); err != nil {
		t.Fatal(err)
	}
	v, ok := c.Get(k)
	if !ok {
		t.Fatal("Get after Put missed")
	}
	if !v.Equal(valFor(k, dim)) {
		t.Fatalf("Get = %v, want %v", v, valFor(k, dim))
	}
	if !c.Contains(k) {
		t.Fatal("Contains after Put is false")
	}
	// A key cached under one op is invisible under another.
	other := k
	other.Op++
	if _, ok := c.Get(other); ok {
		t.Fatal("Get under a different op hit")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("Stats = %+v, want 1 hit, 2 misses", st)
	}
	if c.HitRatio() != 1.0/3.0 {
		t.Fatalf("HitRatio() = %v, want 1/3", c.HitRatio())
	}
}

func TestPutWrongDim(t *testing.T) {
	c, err := New(Config{Bytes: 640, Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(key(0), make(tensor.Vector, 5)); err == nil {
		t.Fatal("Put with wrong dimension succeeded")
	}
	if c.Len() != 0 {
		t.Fatalf("rejected Put changed Len to %d", c.Len())
	}
}

func TestPutRefreshNoDuplicate(t *testing.T) {
	const dim = 4
	c, err := New(Config{Bytes: 640, Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	k := key(5)
	for i := 0; i < 3; i++ {
		if err := c.Put(k, valFor(k, dim)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("Len after repeated Put of one key = %d, want 1", c.Len())
	}
	if got := c.Stats().InsertedBytes; got != 80 {
		t.Fatalf("InsertedBytes = %d, want 80 (one slot)", got)
	}
}

// TestOneEntryPerIndex: entries are found by row index, and Table and Op
// still tell keys apart — a key differing only in them misses, and a Put
// under it replaces the index's entry in its slot instead of taking a second.
func TestOneEntryPerIndex(t *testing.T) {
	const dim = 4
	c, err := New(Config{Bytes: 640, Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	a, b := Key{Op: 1, Index: 5}, Key{Index: 5}
	if err := c.Put(a, valFor(a, dim)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(b); ok || c.Contains(b) {
		t.Fatal("a key differing only in Op hit")
	}
	if err := c.Put(b, valFor(b, dim)); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 || c.Contains(a) || !c.Contains(b) {
		t.Fatalf("after a Put under the same index: Len %d, old key resident %v, new key resident %v; want 1, false, true",
			c.Len(), c.Contains(a), c.Contains(b))
	}
	if v, ok := c.Get(b); !ok || !v.Equal(valFor(b, dim)) {
		t.Fatal("the replacing Put did not store its row")
	}
}

func TestBudgetNeverExceeded(t *testing.T) {
	const dim = 4
	cfg := Config{Bytes: 640, Dim: dim, Seed: 9}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		k := key(i)
		if err := c.Put(k, valFor(k, dim)); err != nil {
			t.Fatal(err)
		}
		if c.Bytes() > cfg.Bytes {
			t.Fatalf("Bytes() = %d exceeds budget %d after %d puts", c.Bytes(), cfg.Bytes, i+1)
		}
	}
	if c.Len() != c.Capacity() {
		t.Fatalf("Len = %d, want full capacity %d", c.Len(), c.Capacity())
	}
	if got := c.Stats().Evictions; got != 100-uint64(c.Capacity()) {
		t.Fatalf("Evictions = %d, want %d", got, 100-c.Capacity())
	}
	// Every resident entry still reads back its own value.
	hits := 0
	for i := 0; i < 100; i++ {
		k := key(i)
		if v, ok := c.Get(k); ok {
			hits++
			if !v.Equal(valFor(k, dim)) {
				t.Fatalf("resident key %d reads back %v, want %v", i, v, valFor(k, dim))
			}
		}
	}
	if hits != c.Capacity() {
		t.Fatalf("%d resident hits, want %d", hits, c.Capacity())
	}
}

// TestSecondChance pins the CLOCK policy: a referenced entry survives the
// sweep that evicts an unreferenced one.
func TestSecondChance(t *testing.T) {
	const dim = 4
	// Capacity 3, hand starts at slot 0 (seed 3 % 3).
	c, err := New(Config{Bytes: 240, Dim: dim, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	a, b, d := key(10), key(11), key(12)
	for _, k := range []Key{a, b, d} {
		if err := c.Put(k, valFor(k, dim)); err != nil {
			t.Fatal(err)
		}
	}
	// All three carry fresh reference bits; admitting a fourth sweeps them
	// clear and evicts the slot the hand started on (a).
	e := key(13)
	if err := c.Put(e, valFor(e, dim)); err != nil {
		t.Fatal(err)
	}
	if c.Contains(a) {
		t.Fatal("first-inserted entry survived a full unreferenced sweep")
	}
	// Touch b: its reference bit protects it from the next eviction, which
	// falls through to d.
	if _, ok := c.Get(b); !ok {
		t.Fatal("b evicted unexpectedly")
	}
	f := key(14)
	if err := c.Put(f, valFor(f, dim)); err != nil {
		t.Fatal(err)
	}
	if !c.Contains(b) {
		t.Fatal("recently-referenced entry was evicted (no second chance)")
	}
	if c.Contains(d) {
		t.Fatal("unreferenced entry survived while referenced ones were candidates")
	}
}

// TestDeterminism pins the seeded-eviction contract: equal configs driven
// with equal call sequences hold identical contents and counters.
func TestDeterminism(t *testing.T) {
	const dim = 4
	run := func() *Cache {
		c, err := New(Config{Bytes: 640, Dim: dim, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		state := uint64(7)
		for i := 0; i < 500; i++ {
			// Cheap LCG keeps the op sequence deterministic without
			// pulling in math/rand.
			state = state*6364136223846793005 + 1442695040888963407
			ki := int(state>>33) % 24
			k := key(ki)
			if state%3 == 0 {
				c.Get(k)
			} else {
				if err := c.Put(k, valFor(k, dim)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return c
	}
	c1, c2 := run(), run()
	if c1.Stats() != c2.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", c1.Stats(), c2.Stats())
	}
	if c1.Len() != c2.Len() {
		t.Fatalf("Len diverged: %d vs %d", c1.Len(), c2.Len())
	}
	for i := 0; i < 24; i++ {
		k := key(i)
		if c1.Contains(k) != c2.Contains(k) {
			t.Fatalf("contents diverged at key %d", i)
		}
	}
	// Distinct seeds are allowed to (and here do) place the hand elsewhere,
	// but the counters that only depend on the call sequence still match.
	c3, err := New(Config{Bytes: 640, Dim: dim, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if c3.Capacity() != c1.Capacity() {
		t.Fatal("capacity depends on seed")
	}
}

// FuzzCacheOps drives seeded op sequences against the cache and a naive
// map+counter reference model. Two bytes per op: the opcode (get / put /
// contains-check) and the key selector. The reference model does not mimic
// CLOCK eviction — it checks the properties eviction cannot break: a hit
// returns exactly the row last admitted under that key, the byte budget
// holds, and the counters reconcile (gets = hits+misses, evictions =
// fresh inserts − resident).
func FuzzCacheOps(f *testing.F) {
	f.Add([]byte{0x01, 0x03, 0x00, 0x03, 0x01, 0x05, 0x00, 0x05})
	f.Add([]byte{0x01, 0x00, 0x01, 0x01, 0x01, 0x02, 0x01, 0x03, 0x01, 0x04,
		0x01, 0x05, 0x01, 0x06, 0x01, 0x07, 0x01, 0x08, 0x01, 0x09, 0x00, 0x00})
	f.Add([]byte{0x02, 0x04, 0x01, 0x04, 0x02, 0x04, 0x00, 0x04, 0x01, 0x0f, 0x02, 0x0f})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const dim = 4
		c, err := New(Config{Bytes: 640, Dim: dim, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		var gets, freshPuts int
		for i := 0; i+1 < len(ops); i += 2 {
			k := key(int(ops[i+1]) % 24)
			switch ops[i] % 3 {
			case 0: // Get
				gets++
				if v, ok := c.Get(k); ok {
					if want := valFor(k, dim); !v.Equal(want) {
						t.Fatalf("op %d: Get(%+v) = %v, want %v", i/2, k, v, want)
					}
				}
			case 1: // Put
				if !c.Contains(k) {
					freshPuts++
				}
				if err := c.Put(k, valFor(k, dim)); err != nil {
					t.Fatalf("op %d: Put(%+v): %v", i/2, k, err)
				}
				if !c.Contains(k) {
					t.Fatalf("op %d: key absent immediately after Put", i/2)
				}
			case 2: // Contains must agree with Get
				if c.Contains(k) {
					gets++
					if _, ok := c.Get(k); !ok {
						t.Fatalf("op %d: Contains true but Get missed", i/2)
					}
				}
			}
			if c.Len() > c.Capacity() {
				t.Fatalf("op %d: Len %d exceeds capacity %d", i/2, c.Len(), c.Capacity())
			}
			if c.Bytes() > 640 {
				t.Fatalf("op %d: Bytes %d exceeds budget", i/2, c.Bytes())
			}
		}
		st := c.Stats()
		if st.Hits+st.Misses != uint64(gets) {
			t.Fatalf("hits %d + misses %d != %d gets", st.Hits, st.Misses, gets)
		}
		if st.Evictions != uint64(freshPuts-c.Len()) {
			t.Fatalf("evictions %d != fresh inserts %d - resident %d", st.Evictions, freshPuts, c.Len())
		}
		if st.InsertedBytes != uint64(freshPuts)*80 {
			t.Fatalf("InsertedBytes %d != %d fresh inserts x 80", st.InsertedBytes, freshPuts)
		}
		if r := c.HitRatio(); r < 0 || r > 1 {
			t.Fatalf("HitRatio %v out of [0,1]", r)
		}
	})
}
