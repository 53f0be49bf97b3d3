package srmsort

import (
	"runtime"
	"testing"
)

// guardSortInput is the small SRM/mem sort the allocation guards run:
// large enough to form several runs and drive a real multi-way merge,
// small enough to keep the guard fast.
func guardSortInput(n int) []Record {
	return benchRecords(n, 17)
}

// TestFixed16SortAllocGuard pins the fixed16 SRM/mem sort's per-record
// allocation figures just above their measured levels: 0.284 allocs/rec
// and 167 B/rec for this input, identical at every GOMAXPROCS and under
// -race (EXPERIMENTS.md, "One serial fixed16 merge step"). The margins
// (~25% on allocs, ~20% on bytes) absorb runtime-version drift, not
// structural change: a per-block copy re-entering the write path or a
// scratch buffer per merge step (together 70 B/rec, 237 before they
// went), a GC-visible field on the fixed16 hot path (the 468 B/rec
// wide-record regression) or a per-record allocation in the kernel all
// trip it.
func TestFixed16SortAllocGuard(t *testing.T) {
	const n = 20_000
	in := guardSortInput(n)
	cfg := Config{D: 4, B: 64, K: 4, Seed: 11}

	// Warm up once so lazy initialisation does not count.
	if _, _, err := Sort(in, cfg); err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(3, func() {
		if _, _, err := Sort(in, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if perRec := allocs / n; perRec > 0.36 {
		t.Errorf("fixed16 sort allocates %.3f objects/rec, want <= 0.36 (measured 0.284)", perRec)
	}

	// Allocated bytes per record: TotalAlloc is cumulative and unaffected
	// by collection, so the delta over a run is deterministic up to pool
	// warm-up; take the minimum of a few runs.
	best := float64(1 << 62)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, _, err := Sort(in, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if b := float64(after.TotalAlloc-before.TotalAlloc) / n; b < best {
			best = b
		}
	}
	if best > 200 {
		t.Errorf("fixed16 sort allocates %.0f B/rec, want <= 200 (measured 167)", best)
	}
}
