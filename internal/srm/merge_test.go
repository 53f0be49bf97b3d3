package srm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"srmsort/internal/pdisk"
	"srmsort/internal/record"
	"srmsort/internal/runio"
	"srmsort/internal/trace"
)

func newSys(t testing.TB, d, b int) *pdisk.System {
	t.Helper()
	sys, err := pdisk.NewSystem(pdisk.Config{D: d, B: b})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// writeRuns stores the given sorted record slices as striped runs with the
// given placement and returns their descriptors.
func writeRuns(t testing.TB, sys *pdisk.System, runs [][]record.Record, placement runio.Placement) []*runio.Run {
	t.Helper()
	out := make([]*runio.Run, len(runs))
	for i, rs := range runs {
		r, err := runio.WriteRun(sys, i, placement.StartDisk(i), rs)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = r
	}
	return out
}

func mergeAndVerify(t testing.TB, sys *pdisk.System, runs []*runio.Run, r int, want []record.Record) MergeStats {
	t.Helper()
	outRun, stats, err := Merge[record.Record](sys, runs, r, 1000, 0, MergeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := runio.ReadAll[record.Record](sys, outRun)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("merged %d records, want %d", len(got), len(want))
	}
	if !record.IsSortedRecords(got) {
		t.Fatal("merged output not sorted")
	}
	if record.Checksum(got) != record.Checksum(want) {
		t.Fatal("merged output is not a permutation of the input")
	}
	return stats
}

func TestMergeTwoSmallRuns(t *testing.T) {
	sys := newSys(t, 2, 2)
	g := record.NewGenerator(1)
	all := g.Random(20)
	runs := g.SplitIntoSortedRuns(all, 2)
	descs := writeRuns(t, sys, runs, runio.StaggeredPlacement{D: 2})
	mergeAndVerify(t, sys, descs, 4, all)
}

func TestMergeManyRunsRandomPlacement(t *testing.T) {
	sys := newSys(t, 4, 8)
	g := record.NewGenerator(2)
	all := g.Random(3000)
	runs := g.SplitIntoSortedRuns(all, 12)
	pl := &runio.RandomPlacement{D: 4, Rng: rand.New(rand.NewSource(7))}
	descs := writeRuns(t, sys, runs, pl)
	stats := mergeAndVerify(t, sys, descs, 12, all)
	if stats.RecordsOut != 3000 {
		t.Fatalf("RecordsOut = %d", stats.RecordsOut)
	}
}

func TestMergeSingleRun(t *testing.T) {
	sys := newSys(t, 3, 4)
	g := record.NewGenerator(3)
	all := g.Sorted(50)
	descs := writeRuns(t, sys, [][]record.Record{all}, runio.FixedPlacement{Disk: 1})
	mergeAndVerify(t, sys, descs, 2, all)
}

func TestMergeRunsOfOneRecord(t *testing.T) {
	sys := newSys(t, 2, 3)
	g := record.NewGenerator(4)
	all := g.Random(6)
	runs := g.SplitIntoSortedRuns(all, 6) // six single-record runs
	descs := writeRuns(t, sys, runs, runio.StaggeredPlacement{D: 2})
	mergeAndVerify(t, sys, descs, 6, all)
}

func TestMergeDuplicateKeys(t *testing.T) {
	sys := newSys(t, 3, 4)
	g := record.NewGenerator(5)
	all := g.WithDuplicates(500, 20)
	runs := g.SplitIntoSortedRuns(all, 8)
	descs := writeRuns(t, sys, runs, runio.StaggeredPlacement{D: 3})
	mergeAndVerify(t, sys, descs, 8, all)
}

func TestMergeUnevenRunLengths(t *testing.T) {
	sys := newSys(t, 4, 4)
	g := record.NewGenerator(6)
	var runs [][]record.Record
	var all []record.Record
	for i, n := range []int{1, 100, 7, 350, 16, 3} {
		_ = i
		rs := g.Sorted(n)
		runs = append(runs, rs)
		all = append(all, rs...)
	}
	descs := writeRuns(t, sys, runs, runio.StaggeredPlacement{D: 4})
	mergeAndVerify(t, sys, descs, 6, all)
}

func TestMergeAdversarialFixedPlacement(t *testing.T) {
	// All runs start on disk 0 — the worst case of Section 3. The merge
	// must still be correct (only slower).
	sys := newSys(t, 4, 4)
	g := record.NewGenerator(7)
	all := g.Random(1000)
	runs := g.SplitIntoSortedRuns(all, 8)
	descs := writeRuns(t, sys, runs, runio.FixedPlacement{Disk: 0})
	mergeAndVerify(t, sys, descs, 8, all)
}

func TestMergeRejectsBadArgs(t *testing.T) {
	sys := newSys(t, 2, 2)
	g := record.NewGenerator(8)
	runs := g.SplitIntoSortedRuns(g.Random(20), 4)
	descs := writeRuns(t, sys, runs, runio.StaggeredPlacement{D: 2})
	if _, _, err := Merge[record.Record](sys, nil, 4, 0, 0, MergeOpts{}); err == nil {
		t.Fatal("merge of zero runs succeeded")
	}
	if _, _, err := Merge[record.Record](sys, descs, 3, 0, 0, MergeOpts{}); err == nil {
		t.Fatal("merge order overflow not rejected")
	}
	if _, _, err := Merge[record.Record](sys, descs, 4, 0, 0, MergeOpts{Async: true, Sink: &trace.Recorder{}}); err == nil {
		t.Fatal("trace sink on an async merge not rejected")
	}
}

func TestWritesArePerfectlyParallel(t *testing.T) {
	sys := newSys(t, 4, 8)
	g := record.NewGenerator(9)
	all := g.Random(2048)
	runs := g.SplitIntoSortedRuns(all, 8)
	descs := writeRuns(t, sys, runs, runio.StaggeredPlacement{D: 4})
	sys.ResetStats()
	outRun, stats, err := Merge[record.Record](sys, descs, 8, 99, 0, MergeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	wantOps := int64((outRun.NumBlocks() + 3) / 4)
	if stats.WriteOps != wantOps {
		t.Fatalf("WriteOps = %d for %d blocks on 4 disks, want %d",
			stats.WriteOps, outRun.NumBlocks(), wantOps)
	}
	if got := sys.Stats().WriteParallelism(); got != 4.0 {
		t.Fatalf("write parallelism = %v, want 4", got)
	}
}

func TestReadLowerBound(t *testing.T) {
	// Every input block must be read at least once, so ReadOps >=
	// ceil(totalBlocks/D); and with flushing, ReadOps >= blocksRead/D.
	sys := newSys(t, 4, 4)
	g := record.NewGenerator(10)
	all := g.Random(4000)
	runs := g.SplitIntoSortedRuns(all, 16)
	descs := writeRuns(t, sys, runs, runio.StaggeredPlacement{D: 4})
	total := 0
	for _, d := range descs {
		total += d.NumBlocks()
	}
	sys.ResetStats()
	_, stats, err := Merge[record.Record](sys, descs, 16, 99, 0, MergeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReadOps < int64((total+3)/4) {
		t.Fatalf("ReadOps = %d below the bandwidth bound %d", stats.ReadOps, (total+3)/4)
	}
}

func TestFlushCausesNoWrites(t *testing.T) {
	// Tight memory with adversarial placement forces flushes; the flushes
	// must not add write operations (they are virtual) — total writes stay
	// exactly the output-run stripes.
	sys := newSys(t, 4, 2)
	g := record.NewGenerator(11)
	all := g.Random(1600)
	runs := g.SplitIntoSortedRuns(all, 8)
	descs := writeRuns(t, sys, runs, runio.FixedPlacement{Disk: 2})
	sys.ResetStats()
	outRun, stats, err := Merge[record.Record](sys, descs, 8, 99, 0, MergeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Flushes == 0 {
		t.Skip("layout did not force flushing; invariant untestable here")
	}
	wantWrites := int64((outRun.NumBlocks() + 3) / 4)
	if got := sys.Stats().WriteOps; got != wantWrites {
		t.Fatalf("flushing changed write ops: got %d, want %d", got, wantWrites)
	}
	if stats.BlocksReread == 0 {
		t.Log("note: flushed blocks were never re-read in this instance")
	}
}

func TestMemoryBudgetRespected(t *testing.T) {
	// MaxPrefetched must never exceed R+2D (membuf would panic anyway;
	// this asserts the reported high-water mark).
	d, r := 4, 8
	sys := newSys(t, d, 2)
	g := record.NewGenerator(12)
	all := g.Random(2000)
	runs := g.SplitIntoSortedRuns(all, r)
	descs := writeRuns(t, sys, runs, runio.StaggeredPlacement{D: d})
	_, stats, err := Merge[record.Record](sys, descs, r, 99, 0, MergeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxPrefetched > r+2*d {
		t.Fatalf("MaxPrefetched = %d exceeds R+2D = %d", stats.MaxPrefetched, r+2*d)
	}
}

func TestAverageCaseLowOverhead(t *testing.T) {
	// On the paper's average-case inputs with k = R/D reasonably large,
	// reads per merge should be close to totalBlocks/D (overhead v ~ 1).
	d, k := 4, 8
	r := k * d
	b := 4
	sys := newSys(t, d, b)
	g := record.NewGenerator(13)
	runs := g.UniformPartitionRuns(r, 50*b) // 50 blocks per run
	pl := &runio.RandomPlacement{D: d, Rng: rand.New(rand.NewSource(99))}
	descs := writeRuns(t, sys, runs, pl)
	total := 0
	for _, dd := range descs {
		total += dd.NumBlocks()
	}
	_, stats, err := Merge[record.Record](sys, descs, r, 9999, 0, MergeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ideal := float64(total) / float64(d)
	v := float64(stats.ReadOps) / ideal
	if v > 1.35 {
		t.Fatalf("read overhead v = %.3f too high (reads=%d ideal=%.0f)", v, stats.ReadOps, ideal)
	}
}

// Property test: arbitrary D, B, run counts, run sizes and placements all
// merge to the correct sorted permutation.
func TestPropertyMergeCorrect(t *testing.T) {
	f := func(seed int64, dRaw, bRaw, rRaw uint8, fixed bool) bool {
		d := int(dRaw)%5 + 1
		b := int(bRaw)%5 + 1
		numRuns := int(rRaw)%7 + 2
		g := record.NewGenerator(seed)
		n := int(uint16(seed))%600 + numRuns
		all := g.Random(n)
		runs := g.SplitIntoSortedRuns(all, numRuns)
		sys, err := pdisk.NewSystem(pdisk.Config{D: d, B: b})
		if err != nil {
			return false
		}
		var pl runio.Placement = &runio.RandomPlacement{D: d, Rng: rand.New(rand.NewSource(seed))}
		if fixed {
			pl = runio.FixedPlacement{Disk: int(uint8(seed)) % d}
		}
		descs := make([]*runio.Run, len(runs))
		for i, rs := range runs {
			descs[i], err = runio.WriteRun(sys, i, pl.StartDisk(i), rs)
			if err != nil {
				return false
			}
		}
		outRun, _, err := Merge[record.Record](sys, descs, len(runs), 500, 0, MergeOpts{})
		if err != nil {
			return false
		}
		got, err := runio.ReadAll[record.Record](sys, outRun)
		if err != nil {
			return false
		}
		return record.IsSortedRecords(got) &&
			record.Checksum(got) == record.Checksum(all)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// newRand builds a deterministic PRNG for tests.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Regression: an input of (almost) all-identical keys with tight memory
// used to livelock the scheduler — flush victims tied with the on-disk
// candidate under key-only ranking and were flushed and re-read forever.
// The composite (key, run, idx) order in membuf guarantees termination.
func TestMergeAllEqualKeysTerminates(t *testing.T) {
	for _, d := range []int{2, 3, 5} {
		sys := newSys(t, d, 2)
		const numRuns = 6
		runs := make([][]record.Record, numRuns)
		var all []record.Record
		for i := range runs {
			for j := 0; j < 40; j++ {
				rec := record.Record{Key: 7, Val: uint64(i*1000 + j)}
				runs[i] = append(runs[i], rec)
				all = append(all, rec)
			}
		}
		descs := writeRuns(t, sys, runs, runio.FixedPlacement{Disk: 0})
		mergeAndVerify(t, sys, descs, numRuns, all)
	}
}
