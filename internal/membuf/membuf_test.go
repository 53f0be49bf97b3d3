package membuf

import (
	"testing"

	"srmsort/internal/record"
)

func mkBlock(run, idx int, firstKey record.Key) *Block[record.Record] {
	return &Block[record.Record]{
		Run:     run,
		Idx:     idx,
		Records: record.Block{{Key: firstKey}, {Key: firstKey + 1}},
		SuccKey: record.MaxKey,
	}
}

// newTestManager returns a Manager over 10 runs of 32 blocks each, room
// for every (run, idx) the tests below address.
func newTestManager(r, d int) *Manager[record.Record] {
	blocks := make([]int, 10)
	for i := range blocks {
		blocks[i] = 32
	}
	return New[record.Record](r, d, blocks)
}

func TestInsertTakeRoundTrip(t *testing.T) {
	m := newTestManager(4, 2)
	m.Insert(mkBlock(0, 1, 100))
	m.Insert(mkBlock(1, 2, 50))
	if m.Occupied() != 2 {
		t.Fatalf("Occupied = %d", m.Occupied())
	}
	if !m.Has(0, 1) || m.Has(0, 2) {
		t.Fatal("Has is wrong")
	}
	b := m.Take(1, 2)
	if b.FirstKey() != 50 {
		t.Fatalf("Take returned key %d", b.FirstKey())
	}
	if m.Occupied() != 1 || m.Has(1, 2) {
		t.Fatal("Take did not remove the block")
	}
}

func TestCountKeyLess(t *testing.T) {
	m := newTestManager(8, 2)
	for i, k := range []record.Key{10, 20, 30, 40} {
		m.Insert(mkBlock(i, 0, k))
	}
	if got := m.CountKeyLess(25); got != 2 {
		t.Fatalf("CountKeyLess(25) = %d, want 2", got)
	}
	if got := m.CountKeyLess(10); got != 0 {
		t.Fatalf("CountKeyLess(10) = %d, want 0", got)
	}
	if got := m.CountKeyLess(record.MaxKey); got != 4 {
		t.Fatalf("CountKeyLess(Max) = %d, want 4", got)
	}
}

func TestFlushVictimsAreHighestRanked(t *testing.T) {
	m := newTestManager(8, 2)
	keys := []record.Key{10, 70, 30, 90, 50}
	for i, k := range keys {
		m.Insert(mkBlock(i, 0, k))
	}
	victims := m.FlushVictims(2)
	if len(victims) != 2 || victims[0].FirstKey() != 90 || victims[1].FirstKey() != 70 {
		t.Fatalf("victims = %v, %v", victims[0].FirstKey(), victims[1].FirstKey())
	}
	// Lemma 2: the survivors are exactly the lowest-ranked blocks.
	if m.Occupied() != 3 {
		t.Fatalf("Occupied = %d", m.Occupied())
	}
	for k := 1; k <= 3; k++ {
		want := []record.Key{10, 30, 50}[k-1]
		if got := m.KthSmallestKey(k); got != want {
			t.Fatalf("survivor rank %d key = %d, want %d", k, got, want)
		}
	}
	// Flushed blocks can come back (re-read after a flush).
	m.Insert(mkBlock(1, 0, 70))
	if !m.Has(1, 0) {
		t.Fatal("re-insert after flush failed")
	}
}

func TestLeadingAccounting(t *testing.T) {
	m := newTestManager(2, 1)
	m.LeadingAcquired()
	m.LeadingAcquired()
	if m.Leading() != 2 {
		t.Fatalf("Leading = %d", m.Leading())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("exceeding R leading blocks did not panic")
			}
		}()
		m.LeadingAcquired()
	}()
	m.LeadingReleased()
	if m.Leading() != 1 {
		t.Fatalf("Leading = %d after release", m.Leading())
	}
}

func TestCapacityInvariant(t *testing.T) {
	// R=2, D=1: |F_t| must never exceed R+2D = 4.
	m := newTestManager(2, 1)
	for i := 0; i < 4; i++ {
		m.Insert(mkBlock(i, 0, record.Key(10*i+10)))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("exceeding R+2D blocks did not panic")
		}
	}()
	m.Insert(mkBlock(9, 0, 999))
}

func TestMaxOccupiedHighWater(t *testing.T) {
	m := newTestManager(4, 2)
	for i := 0; i < 3; i++ {
		m.Insert(mkBlock(i, 0, record.Key(i+1)))
	}
	m.FlushVictims(2)
	if m.MaxOccupied != 3 {
		t.Fatalf("MaxOccupied = %d, want 3", m.MaxOccupied)
	}
}

func TestPanics(t *testing.T) {
	cases := map[string]func(){
		"bad new":        func() { New[record.Record](0, 1, nil) },
		"empty insert":   func() { newTestManager(1, 1).Insert(&Block[record.Record]{Run: 0, Idx: 0}) },
		"double insert":  func() { m := newTestManager(4, 1); m.Insert(mkBlock(0, 0, 1)); m.Insert(mkBlock(0, 0, 1)) },
		"absent take":    func() { newTestManager(1, 1).Take(0, 0) },
		"flush zero":     func() { m := newTestManager(4, 1); m.Insert(mkBlock(0, 0, 1)); m.FlushVictims(0) },
		"flush toomany":  func() { m := newTestManager(4, 1); m.Insert(mkBlock(0, 0, 1)); m.FlushVictims(2) },
		"release empty":  func() { newTestManager(1, 1).LeadingReleased() },
		"idx past run":   func() { newTestManager(4, 1).Has(0, 32) },
		"run past merge": func() { newTestManager(4, 1).Insert(mkBlock(10, 0, 1)) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestDuplicateFirstKeysAcrossRuns(t *testing.T) {
	// Different runs can contribute blocks with equal first keys (inputs
	// with duplicate keys); the manager must keep both.
	m := newTestManager(4, 1)
	m.Insert(mkBlock(0, 3, 42))
	m.Insert(mkBlock(1, 5, 42))
	if m.Occupied() != 2 {
		t.Fatalf("Occupied = %d", m.Occupied())
	}
	v := m.FlushVictims(1)[0]
	if v.FirstKey() != 42 {
		t.Fatal("wrong victim")
	}
	if m.Occupied() != 1 {
		t.Fatal("flush removed both duplicates")
	}
}
