package membuf

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"srmsort/internal/record"
)

// naive mirrors the Manager with a plain slice sorted by the composite
// (key, run, idx) order.
type naiveBuf struct {
	blocks []*Block[record.Record]
}

func (n *naiveBuf) less(a, b *Block[record.Record]) bool {
	if a.FirstKey() != b.FirstKey() {
		return a.FirstKey() < b.FirstKey()
	}
	if a.Run != b.Run {
		return a.Run < b.Run
	}
	return a.Idx < b.Idx
}

func (n *naiveBuf) insert(b *Block[record.Record]) {
	n.blocks = append(n.blocks, b)
	sort.Slice(n.blocks, func(i, j int) bool { return n.less(n.blocks[i], n.blocks[j]) })
}

func (n *naiveBuf) take(run, idx int) *Block[record.Record] {
	for i, b := range n.blocks {
		if b.Run == run && b.Idx == idx {
			n.blocks = append(n.blocks[:i], n.blocks[i+1:]...)
			return b
		}
	}
	return nil
}

func (n *naiveBuf) countLess(key record.Key, run, idx int) int {
	probe := &Block[record.Record]{Run: run, Idx: idx, Records: record.Block{{Key: key}}}
	c := 0
	for _, b := range n.blocks {
		if n.less(b, probe) {
			c++
		}
	}
	return c
}

func (n *naiveBuf) flush(j int) []*Block[record.Record] {
	out := make([]*Block[record.Record], 0, j)
	for i := 0; i < j; i++ {
		last := n.blocks[len(n.blocks)-1]
		n.blocks = n.blocks[:len(n.blocks)-1]
		out = append(out, last)
	}
	return out
}

func TestManagerMatchesNaiveModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const r, d = 16, 4
		m := newTestManager(r, d)
		n := &naiveBuf{}
		present := map[[2]int]bool{}
		for step := 0; step < 250; step++ {
			switch rng.Intn(4) {
			case 0: // insert a fresh block (respect capacity)
				if m.Occupied() >= r+2*d {
					continue
				}
				run, idx := rng.Intn(8), rng.Intn(30)
				if present[[2]int{run, idx}] {
					continue
				}
				key := record.Key(rng.Intn(25)) // many duplicate keys
				b := &Block[record.Record]{Run: run, Idx: idx, Records: record.Block{{Key: key}}, SuccKey: record.MaxKey}
				m.Insert(b)
				n.insert(&Block[record.Record]{Run: run, Idx: idx, Records: record.Block{{Key: key}}})
				present[[2]int{run, idx}] = true
			case 1: // take a present block
				if len(n.blocks) == 0 {
					continue
				}
				pick := n.blocks[rng.Intn(len(n.blocks))]
				got := m.Take(pick.Run, pick.Idx)
				want := n.take(pick.Run, pick.Idx)
				delete(present, [2]int{pick.Run, pick.Idx})
				if got.FirstKey() != want.FirstKey() {
					return false
				}
			case 2: // rank query
				key := record.Key(rng.Intn(30))
				run, idx := rng.Intn(8), rng.Intn(30)
				if m.CountLessBlock(key, run, idx) != n.countLess(key, run, idx) {
					return false
				}
			case 3: // flush
				if m.Occupied() == 0 {
					continue
				}
				j := rng.Intn(m.Occupied()) + 1
				got := m.FlushVictims(j)
				want := n.flush(j)
				if len(got) != len(want) {
					return false
				}
				for i := range got {
					if got[i].Run != want[i].Run || got[i].Idx != want[i].Idx {
						return false
					}
					delete(present, [2]int{got[i].Run, got[i].Idx})
				}
			}
			if m.Occupied() != len(n.blocks) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
