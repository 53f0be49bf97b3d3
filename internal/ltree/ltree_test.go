package ltree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"srmsort/internal/iheap"
)

func TestSingleRunDrain(t *testing.T) {
	tr := New([]uint64{5})
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	p, k := tr.Min()
	if p != 0 || k != 5 {
		t.Fatalf("Min = %d,%d", p, k)
	}
	tr.ReplaceMin(9)
	if _, k := tr.Min(); k != 9 {
		t.Fatalf("after replace, key = %d", k)
	}
	tr.DeleteMin()
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after retirement", tr.Len())
	}
}

func TestMergeThreeRuns(t *testing.T) {
	runs := [][]uint64{
		{1, 4, 7, 10},
		{2, 5, 8},
		{3, 6, 9, 11, 12},
	}
	pos := make([]int, len(runs))
	keys := make([]uint64, len(runs))
	for i, r := range runs {
		keys[i] = r[0]
		pos[i] = 1
	}
	tr := New(keys)
	var out []uint64
	for tr.Len() > 0 {
		p, k := tr.Min()
		out = append(out, k)
		if pos[p] < len(runs[p]) {
			tr.ReplaceMin(runs[p][pos[p]])
			pos[p]++
		} else {
			tr.DeleteMin()
		}
	}
	if len(out) != 12 {
		t.Fatalf("merged %d keys", len(out))
	}
	for i := range out {
		if out[i] != uint64(i+1) {
			t.Fatalf("out[%d] = %d", i, out[i])
		}
	}
}

func TestInitialInfinitePlayers(t *testing.T) {
	tr := New([]uint64{Infinite, 3, Infinite, 1})
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
	if p, k := tr.Min(); p != 3 || k != 1 {
		t.Fatalf("Min = %d,%d", p, k)
	}
}

func TestTieBreakByPlayer(t *testing.T) {
	tr := New([]uint64{7, 7, 7})
	for want := 0; want < 3; want++ {
		p, _ := tr.Min()
		if p != want {
			t.Fatalf("Min player = %d, want %d", p, want)
		}
		tr.DeleteMin()
	}
}

func TestPanics(t *testing.T) {
	cases := map[string]func(){
		"empty new":     func() { New(nil) },
		"min empty":     func() { tr := New([]uint64{Infinite}); tr.Min() },
		"replace empty": func() { tr := New([]uint64{Infinite}); tr.ReplaceMin(1) },
		"key oob":       func() { New([]uint64{1}).Key(1) },
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

// The loser tree and the indexed heap must produce identical merge
// sequences (both break ties by player index).
func TestMatchesIndexedHeap(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		nRuns := int(nRaw)%8 + 1
		rng := rand.New(rand.NewSource(seed))
		runs := make([][]uint64, nRuns)
		for i := range runs {
			n := rng.Intn(30)
			runs[i] = make([]uint64, n)
			for j := range runs[i] {
				runs[i][j] = uint64(rng.Intn(40))
			}
			sort.Slice(runs[i], func(a, b int) bool { return runs[i][a] < runs[i][b] })
		}

		mergeLT := func() []uint64 {
			keys := make([]uint64, nRuns)
			pos := make([]int, nRuns)
			for i, r := range runs {
				if len(r) > 0 {
					keys[i] = r[0]
					pos[i] = 1
				} else {
					keys[i] = Infinite
				}
			}
			tr := New(keys)
			var out []uint64
			for tr.Len() > 0 {
				p, k := tr.Min()
				out = append(out, k)
				if pos[p] < len(runs[p]) {
					tr.ReplaceMin(runs[p][pos[p]])
					pos[p]++
				} else {
					tr.DeleteMin()
				}
			}
			return out
		}
		mergeHeap := func() []uint64 {
			h := iheap.New(nRuns)
			pos := make([]int, nRuns)
			for i, r := range runs {
				if len(r) > 0 {
					h.Push(i, r[0])
					pos[i] = 1
				}
			}
			var out []uint64
			for h.Len() > 0 {
				p, k := h.Min()
				out = append(out, k)
				if pos[p] < len(runs[p]) {
					h.Update(p, runs[p][pos[p]])
					pos[p]++
				} else {
					h.Remove(p)
				}
			}
			return out
		}

		a, b := mergeLT(), mergeHeap()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeTournament(t *testing.T) {
	const n = 1000
	keys := make([]uint64, n)
	rng := rand.New(rand.NewSource(9))
	for i := range keys {
		keys[i] = rng.Uint64() >> 1
	}
	tr := New(keys)
	prev := uint64(0)
	for tr.Len() > 0 {
		_, k := tr.Min()
		if k < prev {
			t.Fatal("not monotone")
		}
		prev = k
		tr.DeleteMin()
	}
}

func BenchmarkReplaceMin(b *testing.B) {
	const players = 512
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, players)
	for i := range keys {
		keys[i] = uint64(rng.Intn(1 << 30))
	}
	b.Run("ltree", func(b *testing.B) {
		tr := New(keys)
		for i := 0; i < b.N; i++ {
			_, k := tr.Min()
			tr.ReplaceMin(k + uint64(rng.Intn(64)))
		}
	})
	b.Run("iheap", func(b *testing.B) {
		h := iheap.New(players)
		for i, k := range keys {
			h.Push(i, k)
		}
		for i := 0; i < b.N; i++ {
			p, k := h.Min()
			h.Update(p, k+uint64(rng.Intn(64)))
		}
	})
}

// BenchmarkUpdateMin is the fixed16 merge's per-record step at its
// production shape: R=16 players, random keys, the winner re-keyed each
// iteration. "Update" is the checked entry point the step used before
// UpdateMin.
func BenchmarkUpdateMin(b *testing.B) {
	const players = 16
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, players)
	for i := range keys {
		keys[i] = rng.Uint64() >> 1
	}
	next := make([]uint64, 1<<12)
	for i := range next {
		next[i] = rng.Uint64() >> 1
	}
	b.Run("UpdateMin", func(b *testing.B) {
		tr := New(keys)
		for i := 0; i < b.N; i++ {
			tr.UpdateMin(next[i&(len(next)-1)])
		}
	})
	b.Run("Update", func(b *testing.B) {
		tr := New(keys)
		for i := 0; i < b.N; i++ {
			p, _ := tr.Min()
			tr.Update(p, next[i&(len(next)-1)])
		}
	})
}

// refPlayer is one player of the brute-force reference model.
type refPlayer struct {
	key, val uint64
	ext      int // what the installed SetTie comparator orders by
	retired  bool
}

// refBefore is the tree's total order, spelled out: live before retired,
// then (key, val), then the tie comparator when installed, then index.
func refBefore(ps []refPlayer, tie bool, a, b int) bool {
	pa, pb := ps[a], ps[b]
	if pa.retired != pb.retired {
		return !pa.retired
	}
	if !pa.retired {
		if pa.key != pb.key {
			return pa.key < pb.key
		}
		if pa.val != pb.val {
			return pa.val < pb.val
		}
		if tie && pa.ext != pb.ext {
			return pa.ext < pb.ext
		}
	}
	return a < b
}

// refRanked returns the live players in the reference order.
func refRanked(ps []refPlayer, tie bool) []int {
	var live []int
	for p := range ps {
		if !ps[p].retired {
			live = append(live, p)
		}
	}
	sort.Slice(live, func(i, j int) bool { return refBefore(ps, tie, live[i], live[j]) })
	return live
}

// TestDifferentialAgainstScan drives random sequences of every mutating
// operation — Push/PushKV, Update/UpdateKV on winners and non-winners,
// UpdateMin/UpdateMinKV, Remove, DeleteMin, ReplaceMin — with heavy key
// duplication, live Infinite keys and (in half the trees) an installed
// SetTie, and checks Min, Challenger, ChallengerKV, Len and Key against a
// brute-force scan after every step.
func TestDifferentialAgainstScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randKey := func() uint64 {
		if rng.Intn(8) == 0 {
			return Infinite
		}
		return uint64(rng.Intn(6))
	}
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(19) + 1
		tie := trial%2 == 1
		ps := make([]refPlayer, n)
		var tr *Tree
		if rng.Intn(2) == 0 {
			tr = NewRetired(n)
			for p := range ps {
				ps[p].retired = true
			}
		} else {
			keys := make([]uint64, n)
			for p := range keys {
				keys[p] = randKey()
				ps[p] = refPlayer{key: keys[p], retired: keys[p] == Infinite}
			}
			tr = New(keys)
		}
		if tie {
			tr.SetTie(func(a, b int) int { return ps[a].ext - ps[b].ext })
		}
		for step := 0; step < 120; step++ {
			ranked := refRanked(ps, tie)
			p := rng.Intn(n)
			key, val, ext := randKey(), uint64(rng.Intn(3)), rng.Intn(3)
			var op string
			switch c := rng.Intn(10); {
			case c < 2 && ps[p].retired:
				op = "push"
				ps[p] = refPlayer{key: key, ext: ext}
				if rng.Intn(2) == 0 {
					ps[p].val = val
					tr.PushKV(p, key, val)
				} else {
					tr.Push(p, key)
				}
			case c < 4 && !ps[p].retired:
				op = "update"
				ps[p].key, ps[p].val, ps[p].ext = key, 0, ext
				if rng.Intn(2) == 0 {
					ps[p].val = val
					tr.UpdateKV(p, key, val)
				} else {
					tr.Update(p, key)
				}
			case c < 6 && len(ranked) > 0:
				op = "updatemin"
				w := ranked[0]
				ps[w].key, ps[w].val, ps[w].ext = key, 0, ext
				if rng.Intn(2) == 0 {
					ps[w].val = val
					tr.UpdateMinKV(key, val)
				} else {
					tr.UpdateMin(key)
				}
			case c < 7 && !ps[p].retired:
				op = "remove"
				ps[p].retired = true
				tr.Remove(p)
			case c < 8 && len(ranked) > 0:
				op = "deletemin"
				ps[ranked[0]].retired = true
				tr.DeleteMin()
			case c < 10 && len(ranked) > 0:
				op = "replacemin"
				w := ranked[0]
				ps[w].key, ps[w].val, ps[w].ext = key, 0, ext
				ps[w].retired = key == Infinite
				tr.ReplaceMin(key)
			default:
				continue
			}

			ranked = refRanked(ps, tie)
			if tr.Len() != len(ranked) {
				t.Fatalf("trial %d step %d (%s): Len = %d, want %d", trial, step, op, tr.Len(), len(ranked))
			}
			if len(ranked) > 0 {
				w := ranked[0]
				if gp, gk := tr.Min(); gp != w || gk != ps[w].key {
					t.Fatalf("trial %d step %d (%s): Min = %d/%d, want %d/%d", trial, step, op, gp, gk, w, ps[w].key)
				}
			}
			cp, ck, ok := tr.Challenger()
			kp, kk, kv, kok := tr.ChallengerKV()
			if len(ranked) < 2 {
				if ok || kok {
					t.Fatalf("trial %d step %d (%s): Challenger ok with %d live", trial, step, op, len(ranked))
				}
			} else {
				c := ranked[1]
				if !ok || cp != c || ck != ps[c].key {
					t.Fatalf("trial %d step %d (%s): Challenger = %d/%d/%v, want %d/%d", trial, step, op, cp, ck, ok, c, ps[c].key)
				}
				if !kok || kp != c || kk != ps[c].key || kv != ps[c].val {
					t.Fatalf("trial %d step %d (%s): ChallengerKV = %d/%d/%d, want %d/%d/%d", trial, step, op, kp, kk, kv, c, ps[c].key, ps[c].val)
				}
			}
			for q := range ps {
				want := ps[q].key
				if ps[q].retired {
					want = Infinite
				}
				if got := tr.Key(q); got != want {
					t.Fatalf("trial %d step %d (%s): Key(%d) = %d, want %d", trial, step, op, q, got, want)
				}
			}
		}
	}
}
