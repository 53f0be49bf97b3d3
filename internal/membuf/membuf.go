// Package membuf implements SRM's internal memory management for merge data
// (paper Sections 5.1-5.2, Definition 3).
//
// The paper partitions the 2R + 4D internal blocks into M_L (R blocks for
// leading blocks), M_R (R+D blocks for prefetched full blocks), M_D (D
// blocks, the landing zone of a parallel read) and M_W (2D output blocks;
// owned by the run writer in this implementation). The partition is
// *dynamic*: physical blocks are exchanged between the sets, so only the
// occupancy counts and the contents matter for the algorithm's behaviour.
//
// Manager therefore tracks the set F_t of full non-leading blocks currently
// in memory (the union of occupied M_R and M_D slots), ordered by first key
// in an order-statistic tree, along with the count of leading blocks. It
// enforces the paper's capacity invariants on every operation:
//
//	leading blocks  <= R            (M_L)
//	|F_t|           <= R + 2D       (M_R plus M_D)
//	total           <= 2R + 2D
//
// The Flush operation is *virtual* exactly as in Definition 6: victims are
// simply forgotten; no I/O happens here, and the caller re-registers their
// keys with the forecasting structure.
package membuf

import (
	"fmt"

	"srmsort/internal/ostree"
	"srmsort/internal/record"
)

// Block is a full, not-yet-leading block held in memory: its identity
// within the merge (run and block index), its records, and the forecast key
// implanted in it (the first key of block Idx+D of the same run, MaxKey if
// that block does not exist).
type Block[R record.KernelRecord] struct {
	Run     int
	Idx     int
	Records []R
	SuccKey record.Key
}

// FirstKey returns the block's smallest key, the key F_t is ordered by.
func (b *Block[R]) FirstKey() record.Key { return record.FirstKeyOf(b.Records) }

// compositeID packs (run, idx) into the order-statistic tree's tie-break
// id, so blocks are ranked by the TOTAL order (first key, run, idx). With
// duplicate keys a key-only order lets a flush victim tie with the on-disk
// block the flush makes room for, and the scheduler can then flush and
// re-read the same blocks forever; the composite order guarantees victims
// rank strictly above the fetched block (Lemma 2's premise), which is what
// makes the schedule terminate. The paper sidesteps this by assuming
// distinct keys (Section 4); the implementation must not.
func compositeID(run, idx int) int { return run<<32 | idx }

// runOf and idxOf unpack a compositeID.
func runOf(id int) int { return id >> 32 }
func idxOf(id int) int { return id & (1<<32 - 1) }

// Manager tracks F_t and the leading-block count for one merge of order R
// on D disks.
type Manager[R record.KernelRecord] struct {
	r, d int
	tree *ostree.Tree
	// F_t membership is slice-indexed, not hashed: block idx of run h
	// lives at slots[base[h]+idx], one slot for every block of every run
	// of the merge, and Has — asked at every block event — is one load.
	base     []int
	slots    []*Block[R]
	occupied int
	leading  int
	// MaxOccupied records the high-water mark of |F_t| (for tests and
	// traces demonstrating the memory bound).
	MaxOccupied int
}

// New returns a Manager for merge order r on d disks over runs of the
// given block counts (blocks[h] is the length of run h).
func New[R record.KernelRecord](r, d int, blocks []int) *Manager[R] {
	if r < 1 || d < 1 {
		panic(fmt.Sprintf("membuf: New(%d, %d)", r, d))
	}
	base := make([]int, len(blocks)+1)
	for h, n := range blocks {
		base[h+1] = base[h] + n
	}
	return &Manager[R]{
		r:     r,
		d:     d,
		tree:  ostree.New(int64(r)*31 + int64(d)),
		base:  base,
		slots: make([]*Block[R], base[len(blocks)]),
	}
}

// slot returns the F_t slot of block (run, idx), panicking on a block
// outside the merge's runs.
func (m *Manager[R]) slot(run, idx int) **Block[R] {
	if run < 0 || run >= len(m.base)-1 || idx < 0 || idx >= m.base[run+1]-m.base[run] {
		panic(fmt.Sprintf("membuf: block run=%d idx=%d outside the merge", run, idx))
	}
	return &m.slots[m.base[run]+idx]
}

// Occupied returns |F_t|, the number of full non-leading blocks in memory.
func (m *Manager[R]) Occupied() int { return m.occupied }

// Leading returns the number of leading blocks currently held (occupied
// M_L slots).
func (m *Manager[R]) Leading() int { return m.leading }

// Insert adds a freshly read block to F_t.
func (m *Manager[R]) Insert(b *Block[R]) {
	if len(b.Records) == 0 {
		panic("membuf: Insert of empty block")
	}
	s := m.slot(b.Run, b.Idx)
	if *s != nil {
		panic(fmt.Sprintf("membuf: block run=%d idx=%d inserted twice", b.Run, b.Idx))
	}
	*s = b
	m.occupied++
	m.tree.Insert(ostree.Item{Key: uint64(b.FirstKey()), ID: compositeID(b.Run, b.Idx)})
	if m.Occupied() > m.r+2*m.d {
		panic(fmt.Sprintf("membuf: |F_t| = %d exceeds R+2D = %d", m.Occupied(), m.r+2*m.d))
	}
	if m.Occupied() > m.MaxOccupied {
		m.MaxOccupied = m.Occupied()
	}
	m.checkTotal()
}

// Has reports whether block (run, idx) is in F_t.
func (m *Manager[R]) Has(run, idx int) bool {
	return *m.slot(run, idx) != nil
}

// Take removes block (run, idx) from F_t and returns it — the "exchange
// between M_R and M_L" of Section 5.1 point 1, when the block becomes its
// run's leading block. The caller must account for it with LeadingAcquired.
func (m *Manager[R]) Take(run, idx int) *Block[R] {
	s := m.slot(run, idx)
	b := *s
	if b == nil {
		panic(fmt.Sprintf("membuf: Take of absent block run=%d idx=%d", run, idx))
	}
	m.tree.Delete(ostree.Item{Key: uint64(b.FirstKey()), ID: compositeID(run, idx)})
	*s = nil
	m.occupied--
	return b
}

// LeadingAcquired notes that a run's leading block now occupies an M_L
// slot (either promoted from F_t or read directly while the run was
// stalled).
func (m *Manager[R]) LeadingAcquired() {
	if m.leading == m.r {
		panic(fmt.Sprintf("membuf: %d leading blocks exceed R = %d", m.leading+1, m.r))
	}
	m.leading++
	m.checkTotal()
}

// LeadingReleased notes that a leading block was fully consumed and its
// M_L slot freed.
func (m *Manager[R]) LeadingReleased() {
	if m.leading == 0 {
		panic("membuf: LeadingReleased with no leading blocks")
	}
	m.leading--
}

// CountKeyLess returns |{b in F_t : b.FirstKey() < key}|.
func (m *Manager[R]) CountKeyLess(key record.Key) int {
	return m.tree.CountKeyLess(uint64(key))
}

// CountLessBlock returns the number of F_t blocks ranked strictly below
// block (run, idx) with first key key in the composite (key, run, idx)
// total order. With the smallest on-disk candidate as argument this is
// OutRank_t − 1 (Definition 4), made robust to duplicate keys.
func (m *Manager[R]) CountLessBlock(key record.Key, run, idx int) int {
	return m.tree.CountLess(ostree.Item{Key: uint64(key), ID: compositeID(run, idx)})
}

// FlushVictims removes and returns the n highest-ranked (largest first key)
// blocks of F_t — the victim set Fset_t(n) of Definition 6. The flush is
// virtual: no I/O happens; the caller re-registers the victims' keys with
// the FDS. Victims are returned in decreasing key order.
func (m *Manager[R]) FlushVictims(n int) []*Block[R] {
	if n < 1 || n > m.Occupied() {
		panic(fmt.Sprintf("membuf: FlushVictims(%d) with |F_t| = %d", n, m.Occupied()))
	}
	out := make([]*Block[R], 0, n)
	for i := 0; i < n; i++ {
		it := m.tree.PopMax()
		s := m.slot(runOf(it.ID), idxOf(it.ID))
		out = append(out, *s)
		*s = nil
		m.occupied--
	}
	return out
}

// KthSmallestKey returns the first key of the rank-k (1-based) block of
// F_t — exposed for trace assertions (Lemma 2).
func (m *Manager[R]) KthSmallestKey(k int) record.Key {
	return record.Key(m.tree.Kth(k).Key)
}

func (m *Manager[R]) checkTotal() {
	if total := m.Occupied() + m.leading; total > 2*m.r+2*m.d {
		panic(fmt.Sprintf("membuf: %d data blocks exceed 2R+2D = %d", total, 2*m.r+2*m.d))
	}
}
