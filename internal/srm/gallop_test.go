package srm

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"srmsort/internal/pdisk"
	"srmsort/internal/record"
	"srmsort/internal/runio"
	"srmsort/internal/trace"
)

// keyRunReference is the merge order every consumer must reproduce: the
// runs concatenated in run-index order and stably sorted by key, i.e. the
// (key, run index) order with each run's own order kept inside a tie.
func keyRunReference(runs [][]record.Record) []record.Record {
	var all []record.Record
	for _, r := range runs {
		all = append(all, r...)
	}
	slices.SortStableFunc(all, func(a, b record.Record) int { return cmp.Compare(a.Key, b.Key) })
	return all
}

// mergeAtWidth writes runs at kernel width R on a fresh system and merges
// them (sync, async, or sync through a trace sink), returning the output
// widened for comparison, the merge statistics and the system op count.
func mergeAtWidth[R record.KernelRecord](t *testing.T, d, b int, runs [][]record.Record, placement runio.Placement, r int, async bool, sink trace.Sink) ([]record.Record, MergeStats, int64) {
	t.Helper()
	sys := newSys(t, d, b)
	defer sys.Close()
	descs := make([]*runio.Run, len(runs))
	for i, rs := range runs {
		recs := pdisk.RecsOf[R](pdisk.StoredBlock{Records: rs})
		run, err := runio.WriteRun(sys, i, placement.StartDisk(i), recs)
		if err != nil {
			t.Fatal(err)
		}
		descs[i] = run
	}
	out, ms, err := Merge[R](sys, descs, r, 1000, 0, MergeOpts{Async: async, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	got, err := runio.ReadAll[R](sys, out)
	if err != nil {
		t.Fatal(err)
	}
	wide := make([]record.Record, len(got))
	for i, rec := range got {
		wide[i] = rec.Wide()
	}
	return wide, ms, sys.Stats().Ops()
}

// streakRuns deals a strictly increasing key sequence to the runs in
// consecutive segments whose lengths cycle through lens, so the merge's
// winner keeps one run for exactly those many records at a time — streaks
// just below, at and above the gallop switch, and far past it.
func streakRuns(numRuns int, lens []int, n int) [][]record.Record {
	runs := make([][]record.Record, numRuns)
	key := uint64(0)
	for i := 0; key < uint64(n); i++ {
		h := i % numRuns
		for j := 0; j < lens[i%len(lens)] && key < uint64(n); j++ {
			runs[h] = append(runs[h], record.Record{Key: record.Key(key), Val: uint64(h)})
			key++
		}
	}
	return runs
}

// TestMergeGallopSwitchEquivalence pins the fixed-size consumer's two
// emission modes — one loser-tree step per record, and the galloped span
// it switches to after gallopAfter consecutive wins of one run — to the
// stable (key, run) merge order. Every shape flips between the modes
// mid-block: presorted and reversed runs (whole-block streaks), all-equal
// keys (the run-index tie-break decides every record), streaks of 1, 7,
// 8, 9 and 40 records, and runs whose keys plateau across block
// boundaries so that awaited blocks start exactly on keys still present in
// leading blocks — the case where the sync consumer's inclusive stall
// bound and the overlapped consumer's exclusive one differ. Sync and
// async merges, at the Rec16 and the wide kernel width, must produce the
// reference records and identical MergeStats and op counts, and the sync
// schedule must pass the paper's invariant checker.
func TestMergeGallopSwitchEquivalence(t *testing.T) {
	random := func(name string, n, pieces int, dups bool) [][]record.Record {
		g := record.NewGenerator(int64(len(name)) * 131)
		var all []record.Record
		if dups {
			all = g.WithDuplicates(n, 25)
		} else {
			all = g.Random(n)
		}
		return g.SplitIntoSortedRuns(all, pieces)
	}
	ranges := func(numRuns, per int, reversed bool) [][]record.Record {
		runs := make([][]record.Record, numRuns)
		for h := range runs {
			base := h
			if reversed {
				base = numRuns - 1 - h
			}
			for j := 0; j < per; j++ {
				runs[h] = append(runs[h], record.Record{Key: record.Key(base*per + j), Val: uint64(h)})
			}
		}
		return runs
	}
	allEqual := func(numRuns, per int) [][]record.Record {
		runs := make([][]record.Record, numRuns)
		for h := range runs {
			for j := 0; j < per; j++ {
				runs[h] = append(runs[h], record.Record{Key: 42, Val: uint64(h*per + j)})
			}
		}
		return runs
	}
	plateaus := func(numRuns, per, width int) [][]record.Record {
		runs := make([][]record.Record, numRuns)
		for h := range runs {
			for j := 0; j < per; j++ {
				runs[h] = append(runs[h], record.Record{Key: record.Key((j + h) / width), Val: uint64(h*per + j)})
			}
		}
		return runs
	}
	staggered := func(d int) runio.Placement { return runio.StaggeredPlacement{D: d} }
	fixed := func(int) runio.Placement { return runio.FixedPlacement{Disk: 0} }
	randomPl := func(seed int64) func(int) runio.Placement {
		return func(d int) runio.Placement {
			return &runio.RandomPlacement{D: d, Rng: rand.New(rand.NewSource(seed))}
		}
	}
	cases := []struct {
		name      string
		d, b, r   int
		runs      [][]record.Record
		placement func(d int) runio.Placement
	}{
		{"D1-small-blocks", 1, 4, 8, random("D1-small-blocks", 400, 6, false), staggered},
		{"D4-random", 4, 8, 12, random("D4-random", 3000, 12, false), randomPl(7)},
		{"D4-dups", 4, 4, 10, random("D4-dups", 2000, 10, true), randomPl(11)},
		{"D4-fixed-adversarial", 4, 4, 8, random("D4-fixed-adversarial", 1200, 8, false), fixed},
		{"D4-big-blocks", 4, 512, 8, random("D4-big-blocks", 80_000, 8, false), staggered},
		{"D8-big-blocks-dups", 8, 512, 6, random("D8-big-blocks-dups", 60_000, 6, true), staggered},
		{"presorted", 4, 16, 8, ranges(8, 300, false), staggered},
		{"reversed", 4, 16, 8, ranges(8, 300, true), fixed},
		{"all-equal", 3, 8, 6, allEqual(6, 250), randomPl(13)},
		{"streaks", 4, 16, 6, streakRuns(6, []int{1, 40, 7, 1, 8, 9, 2, 40}, 5000), staggered},
		{"streaks-fixed", 2, 8, 5, streakRuns(5, []int{9, 1, 8, 1, 7, 64}, 3000), fixed},
		// Two-record blocks under plateaus of 17 equal keys: hundreds to
		// thousands of consume calls each in which the active minimum
		// equals the awaited key, for the inclusive (sync) and the
		// exclusive (overlapped) stall bound alike.
		{"stall-key-plateaus", 1, 2, 8, plateaus(8, 400, 17), fixed},
		{"stall-key-plateaus-D2", 2, 2, 8, plateaus(8, 400, 17), randomPl(17)},
		{"stall-key-plateaus-wide", 4, 8, 6, plateaus(6, 400, 9), randomPl(17)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := keyRunReference(tc.runs)
			checker := trace.NewChecker(tc.d)
			type result struct {
				name string
				recs []record.Record
				ms   MergeStats
				ops  int64
			}
			var results []result
			add := func(name string, recs []record.Record, ms MergeStats, ops int64) {
				results = append(results, result{name, recs, ms, ops})
			}
			recs, ms, ops := mergeAtWidth[record.Rec16](t, tc.d, tc.b, tc.runs, tc.placement(tc.d), tc.r, false, checker)
			add("rec16-sync-traced", recs, ms, ops)
			recs, ms, ops = mergeAtWidth[record.Rec16](t, tc.d, tc.b, tc.runs, tc.placement(tc.d), tc.r, false, nil)
			add("rec16-sync", recs, ms, ops)
			recs, ms, ops = mergeAtWidth[record.Rec16](t, tc.d, tc.b, tc.runs, tc.placement(tc.d), tc.r, true, nil)
			add("rec16-async", recs, ms, ops)
			recs, ms, ops = mergeAtWidth[record.Record](t, tc.d, tc.b, tc.runs, tc.placement(tc.d), tc.r, false, nil)
			add("wide-sync", recs, ms, ops)
			recs, ms, ops = mergeAtWidth[record.Record](t, tc.d, tc.b, tc.runs, tc.placement(tc.d), tc.r, true, nil)
			add("wide-async", recs, ms, ops)

			if err := checker.Err(); err != nil {
				t.Fatalf("schedule invariant violated: %v", err)
			}
			base := results[0]
			if base.ms.RecordsOut != len(want) {
				t.Fatalf("RecordsOut = %d, want %d", base.ms.RecordsOut, len(want))
			}
			for _, r := range results {
				if !slices.Equal(r.recs, want) {
					i := 0
					for i < len(r.recs) && i < len(want) && r.recs[i] == want[i] {
						i++
					}
					t.Fatalf("%s: output departs from the (key, run) reference at record %d of %d (got %d records)",
						r.name, i, len(want), len(r.recs))
				}
				if r.ms != base.ms {
					t.Fatalf("%s: stats diverge:\ngot  %+v\nwant %+v", r.name, r.ms, base.ms)
				}
				if r.ops != base.ops {
					t.Fatalf("%s: %d ops, want %d", r.name, r.ops, base.ops)
				}
			}
		})
	}
}

// TestSortRunsOptsModes drives the full multi-pass sort through every
// (Async, Workers) combination of SortOpts and requires run-for-run
// identity with the serial, synchronous baseline.
func TestSortRunsOptsModes(t *testing.T) {
	const d, b, r = 4, 8, 4
	g := record.NewGenerator(977)
	runs := g.SplitIntoSortedRuns(g.WithDuplicates(20_000, 12), 16)

	run := func(opts SortOpts) ([]record.Record, SortStats) {
		t.Helper()
		sys := newSys(t, d, b)
		defer sys.Close()
		descs := writeRuns(t, sys, runs, runio.StaggeredPlacement{D: d})
		out, stats, _, err := SortRuns[record.Record](sys, descs, r, runio.StaggeredPlacement{D: d}, len(descs), opts)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := runio.ReadAll[record.Record](sys, out)
		if err != nil {
			t.Fatal(err)
		}
		return recs, stats
	}

	wantRecs, wantStats := run(SortOpts{})
	if !record.IsSortedRecords(wantRecs) || len(wantRecs) != 20_000 {
		t.Fatal("serial sort output is not a sorted run of every input record")
	}
	for _, async := range []bool{false, true} {
		for _, workers := range []int{1, 3, -1} {
			opts := SortOpts{Async: async, Workers: workers}
			gotRecs, gotStats := run(opts)
			if !slices.Equal(gotRecs, wantRecs) {
				t.Fatalf("%+v: output differs from the serial sync sort", opts)
			}
			if gotStats != wantStats {
				t.Fatalf("%+v: stats diverge:\ngot  %+v\nwant %+v", opts, gotStats, wantStats)
			}
		}
	}
}
