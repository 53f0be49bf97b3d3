package srm

import (
	"testing"

	"srmsort/internal/record"
	"srmsort/internal/runform"
	"srmsort/internal/runio"
)

func TestParallelMatchesSerial(t *testing.T) {
	const n = 6000
	all := record.NewGenerator(31).Random(n)

	runOnce := func(workers int) ([]record.Record, SortStats) {
		sys := newSys(t, 4, 8)
		file, err := runform.LoadInput(sys, all)
		if err != nil {
			t.Fatal(err)
		}
		pl := runio.StaggeredPlacement{D: 4}
		formed, err := runform.MemoryLoad[record.Record](sys, file, 200, pl, 0)
		if err != nil {
			t.Fatal(err)
		}
		final, stats, _, err := SortRuns[record.Record](sys, formed.Runs, 5, pl, formed.NextSeq, SortOpts{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		out, err := runio.ReadAll[record.Record](sys, final)
		if err != nil {
			t.Fatal(err)
		}
		return out, stats
	}

	serialOut, serialStats := runOnce(0)
	for _, workers := range []int{1, 2, 8} {
		parOut, parStats := runOnce(workers)
		if len(parOut) != len(serialOut) {
			t.Fatalf("workers=%d: %d records vs %d", workers, len(parOut), len(serialOut))
		}
		for i := range serialOut {
			if parOut[i] != serialOut[i] {
				t.Fatalf("workers=%d: record %d differs", workers, i)
			}
		}
		if parStats != serialStats {
			t.Fatalf("workers=%d: stats differ\nserial:   %+v\nparallel: %+v",
				workers, serialStats, parStats)
		}
	}
}

func TestParallelRandomPlacementDeterministic(t *testing.T) {
	// With a seeded random placement, parallel execution must still be
	// reproducible: starting disks are drawn in group order before any
	// merge starts.
	all := record.NewGenerator(32).Random(3000)
	run := func() SortStats {
		sys := newSys(t, 3, 4)
		file, err := runform.LoadInput(sys, all)
		if err != nil {
			t.Fatal(err)
		}
		pl := &runio.RandomPlacement{D: 3, Rng: newRand(77)}
		formed, err := runform.MemoryLoad[record.Record](sys, file, 100, pl, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, stats, _, err := SortRuns[record.Record](sys, formed.Runs, 4, pl, formed.NextSeq, SortOpts{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("parallel sort not reproducible:\n%+v\n%+v", a, b)
	}
}

func TestParallelValidation(t *testing.T) {
	sys := newSys(t, 2, 2)
	g := record.NewGenerator(33)
	runs := g.SplitIntoSortedRuns(g.Random(20), 2)
	descs := writeRuns(t, sys, runs, runio.StaggeredPlacement{D: 2})
	if _, _, _, err := SortRuns[record.Record](sys, descs, 1, runio.StaggeredPlacement{D: 2}, 0, SortOpts{Workers: 2}); err == nil {
		t.Fatal("merge order 1 accepted")
	}
	if _, _, _, err := SortRuns[record.Record](sys, nil, 2, runio.StaggeredPlacement{D: 2}, 0, SortOpts{Workers: 2}); err == nil {
		t.Fatal("no runs accepted")
	}
}
