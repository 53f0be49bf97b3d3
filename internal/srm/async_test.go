package srm

import (
	"cmp"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"srmsort/internal/pdisk"
	"srmsort/internal/record"
	"srmsort/internal/runio"
)

// srmWaitGoroutines retries until the goroutine count returns to at most
// base, tolerating lazily-exiting runtime goroutines.
func srmWaitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, want <= %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// runMergeBothWays executes the same merge synchronously and asynchronously
// on separately prepared (identically laid out) systems and returns the
// outputs, statistics and system-level operation counts of both.
func mergeBothWays(t *testing.T, d, b int, runs [][]record.Record, placement func() runio.Placement, r int) (syncOut, asyncOut []record.Record, syncMS, asyncMS MergeStats, syncOps, asyncOps int64) {
	t.Helper()
	prepare := func() (*pdisk.System, []*runio.Run) {
		sys := newSys(t, d, b)
		return sys, writeRuns(t, sys, runs, placement())
	}

	sys1, descs1 := prepare()
	defer sys1.Close()
	out1, ms1, err := Merge[record.Record](sys1, descs1, r, 1000, 0, MergeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	rec1, err := runio.ReadAll[record.Record](sys1, out1)
	if err != nil {
		t.Fatal(err)
	}

	sys2, descs2 := prepare()
	defer sys2.Close()
	out2, ms2, err := Merge[record.Record](sys2, descs2, r, 1000, 0, MergeOpts{Async: true})
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := runio.ReadAll[record.Record](sys2, out2)
	if err != nil {
		t.Fatal(err)
	}
	return rec1, rec2, ms1, ms2, sys1.Stats().Ops(), sys2.Stats().Ops()
}

// An async Merge must be indistinguishable from a synchronous one: identical output records
// (values included, not just keys) and identical statistics in every field,
// across disk counts, placements — including the adversarial fixed layout —
// and duplicate-heavy inputs.
func TestMergeAsyncEquivalence(t *testing.T) {
	cases := []struct {
		name      string
		d, b      int
		n, pieces int
		r         int
		dups      bool
		placement func(d int) func() runio.Placement
	}{
		{"D1-staggered", 1, 4, 400, 6, 8, false,
			func(d int) func() runio.Placement {
				return func() runio.Placement { return runio.StaggeredPlacement{D: d} }
			}},
		{"D2-staggered", 2, 4, 800, 8, 8, false,
			func(d int) func() runio.Placement {
				return func() runio.Placement { return runio.StaggeredPlacement{D: d} }
			}},
		{"D4-random", 4, 8, 3000, 12, 12, false,
			func(d int) func() runio.Placement {
				return func() runio.Placement { return &runio.RandomPlacement{D: d, Rng: rand.New(rand.NewSource(7))} }
			}},
		{"D4-random-dups", 4, 4, 2000, 10, 10, true,
			func(d int) func() runio.Placement {
				return func() runio.Placement { return &runio.RandomPlacement{D: d, Rng: rand.New(rand.NewSource(11))} }
			}},
		{"D4-fixed-adversarial", 4, 4, 1200, 8, 8, false,
			func(d int) func() runio.Placement {
				return func() runio.Placement { return runio.FixedPlacement{Disk: 0} }
			}},
		{"D8-staggered", 8, 4, 4000, 16, 16, false,
			func(d int) func() runio.Placement {
				return func() runio.Placement { return runio.StaggeredPlacement{D: d} }
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := record.NewGenerator(int64(len(tc.name)) * 101)
			var all []record.Record
			if tc.dups {
				all = g.WithDuplicates(tc.n, 25)
			} else {
				all = g.Random(tc.n)
			}
			runs := g.SplitIntoSortedRuns(all, tc.pieces)
			s, a, sms, ams, sops, aops := mergeBothWays(t, tc.d, tc.b, runs, tc.placement(tc.d), tc.r)
			if len(s) != len(a) {
				t.Fatalf("sync %d records, async %d", len(s), len(a))
			}
			for i := range s {
				if s[i] != a[i] {
					t.Fatalf("record %d: sync %+v, async %+v", i, s[i], a[i])
				}
			}
			if sms != ams {
				t.Fatalf("merge stats diverge:\nsync  %+v\nasync %+v", sms, ams)
			}
			if sops != aops {
				t.Fatalf("system ops diverge: sync %d, async %d", sops, aops)
			}
		})
	}
}

// Stall-key ties: the overlapped consumer admits a record equal to the
// smallest awaited key, like the sync one, which is safe only because no
// such tie ever pits an active run against a lower-indexed stalled run
// whose block is in flight (DESIGN §6.2). Hundreds of small merges over a
// handful of key values — per-run key ranges skewed so that runs stall on
// each other's plateaus — under staggered, adversarial-fixed and random
// placements must give identical records, values included, and identical
// statistics in both modes.
func TestMergeAsyncEquivalenceStallTies(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d, b := 1+rng.Intn(4), 1+rng.Intn(6)
		universe := 2 + rng.Intn(10)
		runs := make([][]record.Record, 2+rng.Intn(8))
		val := uint64(0)
		for i := range runs {
			lo, span := rng.Intn(universe), 1+rng.Intn(universe)
			for n := 5 + rng.Intn(120); n > 0; n-- {
				runs[i] = append(runs[i], record.Record{Key: record.Key(lo + rng.Intn(span)), Val: val})
				val++
			}
			slices.SortStableFunc(runs[i], func(x, y record.Record) int { return cmp.Compare(x.Key, y.Key) })
		}
		kind := rng.Intn(3)
		placement := func() runio.Placement {
			switch kind {
			case 0:
				return runio.StaggeredPlacement{D: d}
			case 1:
				return runio.FixedPlacement{Disk: 0}
			}
			return &runio.RandomPlacement{D: d, Rng: rand.New(rand.NewSource(seed))}
		}
		s, a, sms, ams, sops, aops := mergeBothWays(t, d, b, runs, placement, len(runs))
		if !slices.Equal(s, a) || sms != ams || sops != aops {
			t.Fatalf("seed %d (D=%d B=%d runs=%d keys=%d placement=%d): async diverges from sync\nsync  %+v\nasync %+v",
				seed, d, b, len(runs), universe, kind, sms, ams)
		}
	}
}

// Multi-pass async sorting must match the synchronous SortRuns run for run.
func TestSortRunsAsyncEquivalence(t *testing.T) {
	const d, b = 4, 4
	g := record.NewGenerator(99)
	all := g.Random(2400)
	runs := g.SplitIntoSortedRuns(all, 24) // 24 runs, R=4 → 3 merge passes

	do := func(async bool) ([]record.Record, SortStats, int64) {
		sys := newSys(t, d, b)
		defer sys.Close()
		descs := writeRuns(t, sys, runs, runio.StaggeredPlacement{D: d})
		final, st, _, err := SortRuns[record.Record](sys, descs, 4, runio.StaggeredPlacement{D: d}, len(runs), SortOpts{Async: async})
		if err != nil {
			t.Fatal(err)
		}
		recs, err := runio.ReadAll[record.Record](sys, final)
		if err != nil {
			t.Fatal(err)
		}
		return recs, st, sys.Stats().Ops()
	}

	sRecs, sStats, sOps := do(false)
	aRecs, aStats, aOps := do(true)
	if len(sRecs) != len(aRecs) {
		t.Fatalf("sync %d records, async %d", len(sRecs), len(aRecs))
	}
	for i := range sRecs {
		if sRecs[i] != aRecs[i] {
			t.Fatalf("record %d: sync %+v, async %+v", i, sRecs[i], aRecs[i])
		}
	}
	if sStats != aStats {
		t.Fatalf("sort stats diverge:\nsync  %+v\nasync %+v", sStats, aStats)
	}
	if sOps != aOps {
		t.Fatalf("system ops diverge: sync %d, async %d", sOps, aOps)
	}
}

// Pass-level concurrency composes with per-merge overlap: the parallel
// async sort must still produce the serial synchronous result, for any
// worker count.
func TestSortRunsParallelAsyncEquivalence(t *testing.T) {
	const d, b = 4, 4
	g := record.NewGenerator(123)
	all := g.Random(3200)
	runs := g.SplitIntoSortedRuns(all, 16)

	baseSys := newSys(t, d, b)
	defer baseSys.Close()
	baseDescs := writeRuns(t, baseSys, runs, runio.StaggeredPlacement{D: d})
	baseRun, baseStats, _, err := SortRuns[record.Record](baseSys, baseDescs, 4, runio.StaggeredPlacement{D: d}, len(runs), SortOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := runio.ReadAll[record.Record](baseSys, baseRun)
	if err != nil {
		t.Fatal(err)
	}
	wantOps := baseSys.Stats().Ops()

	for _, workers := range []int{1, 2, -1} {
		sys := newSys(t, d, b)
		descs := writeRuns(t, sys, runs, runio.StaggeredPlacement{D: d})
		final, stats, _, err := SortRuns[record.Record](sys, descs, 4, runio.StaggeredPlacement{D: d}, len(runs), SortOpts{Async: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got, err := runio.ReadAll[record.Record](sys, final)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d records, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d record %d: got %+v, want %+v", workers, i, got[i], want[i])
			}
		}
		if stats != baseStats {
			t.Fatalf("workers=%d stats diverge:\ngot  %+v\nwant %+v", workers, stats, baseStats)
		}
		if ops := sys.Stats().Ops(); ops != wantOps {
			t.Fatalf("workers=%d ops %d, want %d", workers, ops, wantOps)
		}
		sys.Close()
	}
}

// Injected device faults mid-pipeline must surface from an async Merge as clean
// errors — no panic, no deadlock, no goroutine leak — wherever in the
// schedule they strike.
func TestMergeAsyncInjectedFaults(t *testing.T) {
	base := runtime.NumGoroutine()
	g := record.NewGenerator(55)
	all := g.Random(1500)
	runs := g.SplitIntoSortedRuns(all, 10)

	// The FaultStore counts store operations from construction, so fault
	// points inside the merge must be offset by the traffic writeRuns
	// generates. Measure both with a clean run.
	clean := func() (setupReads, setupWrites, mergeReads, mergeWrites int64) {
		fs := pdisk.NewFaultStore(pdisk.NewMemStore(), pdisk.FaultConfig{})
		sys, err := pdisk.NewSystem(pdisk.Config{D: 4, B: 4, Store: fs})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		descs := writeRuns(t, sys, runs, runio.StaggeredPlacement{D: 4})
		setup := sys.Stats()
		if _, _, err := Merge[record.Record](sys, descs, 10, 1000, 0, MergeOpts{Async: true}); err != nil {
			t.Fatal(err)
		}
		total := sys.Stats()
		return setup.BlocksRead, setup.BlocksWritten,
			total.BlocksRead - setup.BlocksRead, total.BlocksWritten - setup.BlocksWritten
	}
	setupReads, setupWrites, mergeReads, mergeWrites := clean()

	try := func(failReadAt, failWriteAt int64) error {
		fs := pdisk.NewFaultStore(pdisk.NewMemStore(), pdisk.FaultConfig{})
		sys, err := pdisk.NewSystem(pdisk.Config{D: 4, B: 4, Store: fs})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		descs := writeRuns(t, sys, runs, runio.StaggeredPlacement{D: 4})
		fs.Configure(pdisk.FaultConfig{FailReadAt: failReadAt, FailWriteAt: failWriteAt})
		_, _, err = Merge[record.Record](sys, descs, 10, 1000, 0, MergeOpts{Async: true})
		return err
	}

	for _, at := range []int64{1, 2, mergeReads / 3, mergeReads / 2, mergeReads} {
		if at < 1 {
			continue
		}
		if err := try(setupReads+at, 0); !errors.Is(err, pdisk.ErrInjected) {
			t.Fatalf("async read fault at %d: %v, want ErrInjected", at, err)
		}
	}
	for _, at := range []int64{1, mergeWrites / 2, mergeWrites} {
		if at < 1 {
			continue
		}
		if err := try(0, setupWrites+at); !errors.Is(err, pdisk.ErrInjected) {
			t.Fatalf("async write fault at %d: %v, want ErrInjected", at, err)
		}
	}
	srmWaitGoroutines(t, base)
}

// A free-path fault strikes after the async merges complete (runs are freed
// between passes); the sort must surface it cleanly too.
func TestSortRunsAsyncFreeFault(t *testing.T) {
	base := runtime.NumGoroutine()
	g := record.NewGenerator(66)
	all := g.Random(800)
	runs := g.SplitIntoSortedRuns(all, 8)

	fs := pdisk.NewFaultStore(pdisk.NewMemStore(), pdisk.FaultConfig{})
	sys, err := pdisk.NewSystem(pdisk.Config{D: 2, B: 4, Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	descs := writeRuns(t, sys, runs, runio.StaggeredPlacement{D: 2})
	fs.Configure(pdisk.FaultConfig{FailFreeAt: 1})
	_, _, _, err = SortRuns[record.Record](sys, descs, 4, runio.StaggeredPlacement{D: 2}, len(runs), SortOpts{Async: true})
	if !errors.Is(err, pdisk.ErrInjected) {
		t.Fatalf("free fault: %v, want ErrInjected", err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	srmWaitGoroutines(t, base)
}

// Repeated async merges must leave no goroutines behind once their systems
// are closed.
func TestMergeAsyncNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	g := record.NewGenerator(77)
	all := g.Random(600)
	runs := g.SplitIntoSortedRuns(all, 6)
	for i := 0; i < 3; i++ {
		sys := newSys(t, 4, 4)
		descs := writeRuns(t, sys, runs, runio.StaggeredPlacement{D: 4})
		out, _, err := Merge[record.Record](sys, descs, 6, 1000, 0, MergeOpts{Async: true})
		if err != nil {
			t.Fatal(err)
		}
		got, err := runio.ReadAll[record.Record](sys, out)
		if err != nil {
			t.Fatal(err)
		}
		if !record.IsSortedRecords(got) || record.Checksum(got) != record.Checksum(all) {
			t.Fatal("async merge output wrong")
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
	}
	srmWaitGoroutines(t, base)
}
