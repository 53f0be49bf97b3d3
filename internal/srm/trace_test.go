package srm

import (
	"math/rand"
	"strings"
	"testing"

	"srmsort/internal/record"
	"srmsort/internal/runio"
	"srmsort/internal/trace"
)

// Every merge schedule must pass the online invariant checker: Lemma 2
// flush victims, no leading-block eviction, one block per disk per read,
// re-reads from the original disk, depletion/promotion consistency.
func TestTracedMergePassesChecker(t *testing.T) {
	cases := []struct {
		seed          int64
		d, b, numRuns int
		n             int
		placement     string
	}{
		{1, 2, 2, 4, 200, "staggered"},
		{2, 4, 4, 12, 2000, "random"},
		{3, 4, 2, 8, 1600, "fixed"}, // adversarial: forces flushing
		{4, 6, 3, 18, 3000, "random"},
		{5, 3, 1, 9, 500, "staggered"}, // B=1: every record its own block
	}
	for _, tc := range cases {
		sys := newSys(t, tc.d, tc.b)
		g := record.NewGenerator(tc.seed)
		all := g.Random(tc.n)
		runs := g.SplitIntoSortedRuns(all, tc.numRuns)
		var pl runio.Placement
		switch tc.placement {
		case "staggered":
			pl = runio.StaggeredPlacement{D: tc.d}
		case "fixed":
			pl = runio.FixedPlacement{Disk: 0}
		default:
			pl = &runio.RandomPlacement{D: tc.d, Rng: rand.New(rand.NewSource(tc.seed))}
		}
		descs := writeRuns(t, sys, runs, pl)

		checker := trace.NewChecker(tc.d)
		recorder := &trace.Recorder{}
		outRun, stats, err := Merge[record.Record](sys, descs, tc.numRuns, 777, 0, MergeOpts{Sink: trace.Multi(checker, recorder)})
		if err != nil {
			t.Fatal(err)
		}
		if err := checker.Err(); err != nil {
			t.Errorf("case %+v: invariant violated: %v", tc, err)
		}
		// Event stream must be consistent with the reported stats.
		if got := recorder.Count(trace.EventParRead); int64(got) != stats.ReadOps {
			t.Errorf("case %+v: %d read events vs %d ReadOps", tc, got, stats.ReadOps)
		}
		if got := recorder.Count(trace.EventFlush); int64(got) != stats.Flushes {
			t.Errorf("case %+v: %d flush events vs %d Flushes", tc, got, stats.Flushes)
		}
		if got := checker.Rereads(); got != stats.BlocksReread {
			t.Errorf("case %+v: checker rereads %d vs stats %d", tc, got, stats.BlocksReread)
		}
		// Depletions: every block of every run is depleted exactly once.
		totalBlocks := 0
		for _, d := range descs {
			totalBlocks += d.NumBlocks()
		}
		if got := recorder.Count(trace.EventDeplete); got != totalBlocks {
			t.Errorf("case %+v: %d depletions vs %d blocks", tc, got, totalBlocks)
		}
		// Promotions: every block becomes leading exactly once.
		if got := recorder.Count(trace.EventPromote); got != totalBlocks {
			t.Errorf("case %+v: %d promotions vs %d blocks", tc, got, totalBlocks)
		}
		if outRun.Records != tc.n {
			t.Errorf("case %+v: output %d records", tc, outRun.Records)
		}
	}
}

func TestTracedMergeRenders(t *testing.T) {
	sys := newSys(t, 2, 2)
	g := record.NewGenerator(9)
	runs := g.SplitIntoSortedRuns(g.Random(40), 4)
	descs := writeRuns(t, sys, runs, runio.StaggeredPlacement{D: 2})
	rec := &trace.Recorder{}
	if _, _, err := Merge[record.Record](sys, descs, 4, 1, 0, MergeOpts{Sink: rec}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := rec.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"par-read", "promote", "deplete"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace render missing %q:\n%s", want, out)
		}
	}
}

// Tracing must not change the schedule: stats with and without a sink are
// identical.
func TestTracingIsTransparent(t *testing.T) {
	all := record.NewGenerator(11).Random(1500)
	run := func(sink trace.Sink) MergeStats {
		sys := newSys(t, 4, 4)
		g := record.NewGenerator(11)
		runs := g.SplitIntoSortedRuns(all, 10)
		descs := writeRuns(t, sys, runs, runio.StaggeredPlacement{D: 4})
		_, stats, err := Merge[record.Record](sys, descs, 10, 5, 0, MergeOpts{Sink: sink})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	plain := run(nil)
	traced := run(&trace.Recorder{})
	if plain != traced {
		t.Fatalf("tracing changed the schedule:\n%+v\n%+v", plain, traced)
	}
}
