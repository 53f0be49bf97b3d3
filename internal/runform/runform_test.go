package runform

import (
	"testing"
	"testing/quick"

	"srmsort/internal/pdisk"
	"srmsort/internal/record"
	"srmsort/internal/runio"
)

func newSys(t testing.TB, d, b int) *pdisk.System {
	t.Helper()
	sys, err := pdisk.NewSystem(pdisk.Config{D: d, B: b})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func collectRuns(t *testing.T, sys *pdisk.System, runs []*runio.Run) []record.Record {
	t.Helper()
	var all []record.Record
	for _, r := range runs {
		recs, err := runio.ReadAll[record.Record](sys, r)
		if err != nil {
			t.Fatal(err)
		}
		if !record.IsSortedRecords(recs) {
			t.Fatalf("run %d not sorted", r.ID)
		}
		all = append(all, recs...)
	}
	return all
}

func TestLoadInputStripedAndCounted(t *testing.T) {
	sys := newSys(t, 4, 8)
	g := record.NewGenerator(1)
	recs := g.Random(256) // 32 blocks = 8 full stripes
	f, err := LoadInput(sys, recs)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumBlocks() != 32 || f.Records != 256 {
		t.Fatalf("file: %d blocks %d records", f.NumBlocks(), f.Records)
	}
	if ops := sys.Stats().WriteOps; ops != 8 {
		t.Fatalf("loading took %d write ops, want 8 (full stripes)", ops)
	}
}

func TestMemoryLoadFormsCorrectRuns(t *testing.T) {
	sys := newSys(t, 3, 4)
	g := record.NewGenerator(2)
	recs := g.Random(1000)
	f, err := LoadInput(sys, recs)
	if err != nil {
		t.Fatal(err)
	}
	sys.ResetStats()
	res, err := MemoryLoad[record.Record](sys, f, 128, runio.StaggeredPlacement{D: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantRuns := (1000 + 127) / 128
	if len(res.Runs) != wantRuns || res.NextSeq != wantRuns {
		t.Fatalf("formed %d runs (seq %d), want %d", len(res.Runs), res.NextSeq, wantRuns)
	}
	all := collectRuns(t, sys, res.Runs)
	if record.Checksum(all) != record.Checksum(recs) {
		t.Fatal("run formation lost or altered records")
	}
	// Every run except the last has exactly the load size.
	for i, r := range res.Runs[:len(res.Runs)-1] {
		if r.Records != 128 {
			t.Fatalf("run %d has %d records, want 128", i, r.Records)
		}
	}
}

func TestMemoryLoadIOCost(t *testing.T) {
	// Run formation must read the input with full parallelism:
	// ceil(blocks/D) read ops; and write runs in stripes.
	d, b := 4, 8
	sys := newSys(t, d, b)
	g := record.NewGenerator(3)
	recs := g.Random(64 * b) // 64 blocks
	f, err := LoadInput(sys, recs)
	if err != nil {
		t.Fatal(err)
	}
	sys.ResetStats()
	if _, err := MemoryLoad[record.Record](sys, f, 16*b, runio.StaggeredPlacement{D: d}, 0); err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	if st.ReadOps != 16 {
		t.Fatalf("read ops = %d, want 64/4 = 16", st.ReadOps)
	}
	if st.WriteOps != 16 {
		t.Fatalf("write ops = %d, want 16 (4 runs x 16 blocks / 4 disks)", st.WriteOps)
	}
}

func TestMemoryLoadStaggeredStartDisks(t *testing.T) {
	sys := newSys(t, 4, 2)
	g := record.NewGenerator(4)
	f, err := LoadInput(sys, g.Random(64))
	if err != nil {
		t.Fatal(err)
	}
	res, err := MemoryLoad[record.Record](sys, f, 8, runio.StaggeredPlacement{D: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Runs {
		if want := (2 + i) % 4; r.StartDisk != want {
			t.Fatalf("run %d starts on disk %d, want %d", i, r.StartDisk, want)
		}
	}
}

func TestReplacementSelectionCorrectAndLong(t *testing.T) {
	sys := newSys(t, 2, 8)
	g := record.NewGenerator(5)
	recs := g.Random(4000)
	f, err := LoadInput(sys, recs)
	if err != nil {
		t.Fatal(err)
	}
	const m = 200
	res, err := ReplacementSelection[record.Record](sys, f, m, runio.StaggeredPlacement{D: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	all := collectRuns(t, sys, res.Runs)
	if record.Checksum(all) != record.Checksum(recs) {
		t.Fatal("replacement selection lost records")
	}
	// Expected run length ~2M on random input; demand at least 1.5M
	// average (well above the memory-load baseline of M).
	avg := float64(len(recs)) / float64(len(res.Runs))
	if avg < 1.5*m {
		t.Fatalf("average run length %.1f < 1.5*M (%d runs)", avg, len(res.Runs))
	}
}

func TestReplacementSelectionReverseSortedWorstCase(t *testing.T) {
	sys := newSys(t, 2, 4)
	g := record.NewGenerator(6)
	recs := g.Reversed(600)
	f, err := LoadInput(sys, recs)
	if err != nil {
		t.Fatal(err)
	}
	const m = 100
	res, err := ReplacementSelection[record.Record](sys, f, m, runio.StaggeredPlacement{D: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Reverse input: every replacement is smaller than the last emitted
	// key, so runs are exactly M records (except possibly the last).
	for i, r := range res.Runs[:len(res.Runs)-1] {
		if r.Records != m {
			t.Fatalf("run %d has %d records, want exactly M=%d", i, r.Records, m)
		}
	}
	all := collectRuns(t, sys, res.Runs)
	if record.Checksum(all) != record.Checksum(recs) {
		t.Fatal("records lost")
	}
}

func TestReplacementSelectionSortedInputOneRun(t *testing.T) {
	sys := newSys(t, 2, 4)
	g := record.NewGenerator(7)
	recs := g.Sorted(500)
	f, err := LoadInput(sys, recs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReplacementSelection[record.Record](sys, f, 50, runio.StaggeredPlacement{D: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 1 {
		t.Fatalf("sorted input formed %d runs, want 1", len(res.Runs))
	}
}

func TestEmptyInput(t *testing.T) {
	sys := newSys(t, 2, 4)
	f, err := LoadInput[record.Record](sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MemoryLoad[record.Record](sys, f, 10, runio.StaggeredPlacement{D: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 0 {
		t.Fatalf("empty input formed %d runs", len(res.Runs))
	}
	res, err = ReplacementSelection[record.Record](sys, f, 10, runio.StaggeredPlacement{D: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 0 {
		t.Fatalf("empty input formed %d replacement-selection runs", len(res.Runs))
	}
}

func TestPropertyBothStrategiesPreserveMultiset(t *testing.T) {
	f := func(seed int64, dRaw, bRaw uint8, useRS bool) bool {
		d := int(dRaw)%4 + 1
		b := int(bRaw)%6 + 1
		g := record.NewGenerator(seed)
		n := int(uint16(seed)) % 800
		recs := g.Random(n)
		sys, err := pdisk.NewSystem(pdisk.Config{D: d, B: b})
		if err != nil {
			return false
		}
		file, err := LoadInput(sys, recs)
		if err != nil {
			return false
		}
		var res Result
		if useRS {
			res, err = ReplacementSelection[record.Record](sys, file, 37, runio.StaggeredPlacement{D: d}, 0)
		} else {
			res, err = MemoryLoad[record.Record](sys, file, 37, runio.StaggeredPlacement{D: d}, 0)
		}
		if err != nil {
			return false
		}
		var all []record.Record
		for _, r := range res.Runs {
			recs2, err := runio.ReadAll[record.Record](sys, r)
			if err != nil || !record.IsSortedRecords(recs2) {
				return false
			}
			all = append(all, recs2...)
		}
		return record.Checksum(all) == record.Checksum(recs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
