// Package pmerge shards one R-way merge of sorted record sequences across
// P cores, cilksort-style: instead of splitting work by run (which the
// Workers pool does for disjoint merges), it splits *one* merge by rank.
// A binary search over the key space finds, for each output cut
// t = s*total/P, the per-sequence positions whose prefix records are
// exactly the t globally smallest — so the P shards are independent merges
// into pre-computed disjoint output extents, and the concatenated result
// is byte-identical to the serial merge by construction.
//
// Duplicate keys make "the t smallest" ambiguous, so every cut is taken
// under an explicit total order (Order):
//
//   - KeyRun orders ties by (sequence index, position) — the order the
//     serial loser-tree kernels produce (ltree breaks ties by player
//     index, positions within a run are already ordered).
//   - KeyVal orders ties by (val, sequence index, position) — the order
//     record.SortRecords produces. Records are exactly their (key, val)
//     bytes, so identical-(key,val) records are interchangeable and the
//     residual sequence-index tie-break cannot affect output bytes.
//
// Each shard reuses the ordinary loser-tree + gallop kernel
// (internal/ltree, record.CountBelow/CountBelowKV), emitting runs of
// records in bulk.
//
// Nothing in the sort path calls this package: run formation is one
// serial sort per memory load (DESIGN §11), and the chunked sort that
// used Merge to parallelise it is gone. Split and Merge remain as a
// tested standalone kernel until they are retired with their tests.
package pmerge

import (
	"fmt"
	"sync"

	"srmsort/internal/ltree"
	"srmsort/internal/record"
)

// Order selects the total order a merge resolves duplicate keys under.
type Order int

const (
	// KeyRun breaks key ties by (sequence index, position) — the serial
	// merge kernels' order. Sequences must be sorted by key.
	KeyRun Order = iota
	// KeyVal breaks key ties by val, matching record.SortRecords.
	// Sequences must be sorted by (key, val).
	KeyVal
)

// minShard is the tuning threshold below which a shard isn't worth a
// goroutine + splitter round.
const minShard = 2048

// Shard is one independent piece of a sharded R-way merge: the half-open
// extent [Lo[i], Hi[i]) of every input sequence, and the [Out, Out+N)
// extent of the output it fills.
type Shard struct {
	Lo, Hi []int // per-sequence half-open input extents
	Out    int   // records emitted by all earlier shards
	N      int   // records this shard emits
}

// Split partitions an R-way merge of seqs into p shards under the given
// order. The shards tile the inputs — shard s+1's Lo is shard s's Hi —
// and tile the output: shard s emits exactly the records of global rank
// [s*total/p, (s+1)*total/p), so shards may legitimately be empty when
// total < p. Sequences must be sorted consistently with order; p must be
// at least 1.
func Split[R record.KernelRecord](seqs [][]R, p int, order Order) []Shard {
	if p < 1 {
		panic(fmt.Sprintf("pmerge: Split into %d shards", p))
	}
	total := 0
	for _, s := range seqs {
		total += len(s)
	}
	cuts := make([][]int, p+1)
	cuts[0] = make([]int, len(seqs))
	cuts[p] = make([]int, len(seqs))
	for i, s := range seqs {
		cuts[p][i] = len(s)
	}
	for s := 1; s < p; s++ {
		cuts[s] = cutAt(seqs, s*total/p, order)
	}
	shards := make([]Shard, p)
	for s := range shards {
		n := 0
		for i := range seqs {
			n += cuts[s+1][i] - cuts[s][i]
		}
		shards[s] = Shard{Lo: cuts[s], Hi: cuts[s+1], Out: s * total / p, N: n}
	}
	return shards
}

// cutAt returns, for each sequence, the length of the prefix that
// together contain exactly the t globally smallest records under order.
// The boundary record is found by binary search over the uint64 key space
// (and, for KeyVal, a nested search over the val space), evaluating
// Σ CountBelow per probe; the records tied with the boundary are then
// assigned to the cut in sequence-index order, which is exactly how both
// orders rank them.
func cutAt[R record.KernelRecord](seqs [][]R, t int, order Order) []int {
	cut := make([]int, len(seqs))
	if t <= 0 {
		return cut
	}
	// Smallest key whose weak rank (records with key <= k) reaches t.
	// Monotone in k, and reaches the total at MaxKey, so the search is
	// well-defined even when MaxKey itself occurs in the input.
	key := searchUint64(func(k uint64) bool {
		c := 0
		for _, s := range seqs {
			c += record.CountBelow(s, record.Key(k), true)
		}
		return c >= t
	})
	strict := func(s []R) int {
		return record.CountBelow(s, record.Key(key), false)
	}
	weak := func(s []R) int {
		return record.CountBelow(s, record.Key(key), true)
	}
	if order == KeyVal {
		// Narrow the boundary to a (key, val) pair the same way.
		val := searchUint64(func(v uint64) bool {
			c := 0
			for _, s := range seqs {
				c += record.CountBelowKV(s, record.Key(key), v, true)
			}
			return c >= t
		})
		strict = func(s []R) int {
			return record.CountBelowKV(s, record.Key(key), val, false)
		}
		weak = func(s []R) int {
			return record.CountBelowKV(s, record.Key(key), val, true)
		}
	}
	rem := t
	for i, s := range seqs {
		cut[i] = strict(s)
		rem -= cut[i]
	}
	// Distribute the records tied with the boundary in sequence order:
	// under KeyRun that is their rank order outright; under KeyVal they
	// are byte-identical (key, val) pairs, so any placement yields the
	// same output bytes — sequence order keeps cuts monotone in t.
	for i, s := range seqs {
		if rem == 0 {
			break
		}
		take := weak(s) - cut[i]
		if take > rem {
			take = rem
		}
		cut[i] += take
		rem -= take
	}
	if rem != 0 {
		panic(fmt.Sprintf("pmerge: cut rank %d unreachable (rem=%d)", t, rem))
	}
	return cut
}

// searchUint64 returns the smallest x with pred(x) true, assuming pred is
// monotone (false then true) and pred(^uint64(0)) holds.
func searchUint64(pred func(uint64) bool) uint64 {
	lo, hi := uint64(0), ^uint64(0)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if pred(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Merge merges the sorted sequences into out (whose length must equal the
// sum of sequence lengths) under order, using up to cores goroutines.
// cores <= 1, or a total too small to shard profitably, runs the ordinary
// serial loser-tree kernel; either way the output bytes are identical.
func Merge[R record.KernelRecord](seqs [][]R, out []R, cores int, order Order) {
	total := 0
	for _, s := range seqs {
		total += len(s)
	}
	if total != len(out) {
		panic(fmt.Sprintf("pmerge: Merge of %d records into %d slots", total, len(out)))
	}
	if total == 0 {
		return
	}
	p := cores
	if p > total/minShard {
		p = total / minShard
	}
	if p <= 1 {
		mergeSerial(append([][]R(nil), seqs...), out, order)
		return
	}
	shards := Split(seqs, p, order)
	var wg sync.WaitGroup
	for _, sh := range shards {
		if sh.N == 0 {
			continue
		}
		wg.Add(1)
		go func(sh Shard) {
			defer wg.Done()
			sub := make([][]R, len(seqs))
			for i, s := range seqs {
				sub[i] = s[sh.Lo[i]:sh.Hi[i]]
			}
			mergeSerial(sub, out[sh.Out:sh.Out+sh.N], order)
		}(sh)
	}
	wg.Wait()
}

// mergeSerial is the ordinary loser-tree + gallop merge kernel, shared by
// the serial path and by every shard of the parallel path. It consumes
// the slice headers of seqs (callers pass a private copy).
func mergeSerial[R record.KernelRecord](seqs [][]R, out []R, order Order) {
	tree := ltree.NewRetired(len(seqs))
	for i, s := range seqs {
		if len(s) > 0 {
			tree.PushKV(i, uint64(s[0].K()), tieVal(s[0], order))
		}
	}
	pos := 0
	for tree.Len() > 0 {
		h, _ := tree.Min()
		b := seqs[h]
		span := len(b)
		if ch, chKey, chVal, ok := tree.ChallengerKV(); ok {
			// The winner may emit every record preceding the runner-up's
			// head; "preceding" is weak when the winner also wins the tie
			// (lower sequence index).
			if order == KeyVal {
				span = record.CountBelowKV(b, record.Key(chKey), chVal, h < ch)
			} else {
				span = record.CountBelow(b, record.Key(chKey), h < ch)
			}
		}
		pos += copy(out[pos:], b[:span])
		b = b[span:]
		seqs[h] = b
		if len(b) == 0 {
			tree.DeleteMin()
		} else {
			tree.UpdateKV(h, uint64(b[0].K()), tieVal(b[0], order))
		}
	}
}

// tieVal returns the secondary tie value a record carries into the loser
// tree: its val under KeyVal, zero (index-only ties) under KeyRun.
func tieVal[R record.KernelRecord](r R, order Order) uint64 {
	if order == KeyVal {
		return r.V()
	}
	return 0
}
