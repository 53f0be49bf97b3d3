package srmsort

import (
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"
)

func randomRecords(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Record, n)
	for i := range out {
		out[i] = Record{Key: rng.Uint64() >> 1, Val: uint64(i)}
	}
	return out
}

func checkSorted(t testing.TB, in, out []Record) {
	t.Helper()
	if len(out) != len(in) {
		t.Fatalf("output has %d records, input %d", len(out), len(in))
	}
	for i := 1; i < len(out); i++ {
		if out[i-1].Key > out[i].Key {
			t.Fatalf("output not sorted at %d", i)
		}
	}
	a := append([]Record(nil), in...)
	b := append([]Record(nil), out...)
	less := func(s []Record) func(i, j int) bool {
		return func(i, j int) bool {
			if s[i].Key != s[j].Key {
				return s[i].Key < s[j].Key
			}
			return s[i].Val < s[j].Val
		}
	}
	sort.Slice(a, less(a))
	sort.Slice(b, less(b))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("output is not a permutation of the input (first diff at %d)", i)
		}
	}
}

func TestSortSRMBasic(t *testing.T) {
	in := randomRecords(5000, 1)
	out, stats, err := Sort(in, Config{D: 4, B: 16, K: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, in, out)
	if stats.Algorithm != SRM || stats.R != 16 {
		t.Fatalf("stats geometry wrong: %+v", stats)
	}
	if stats.TotalOps() == 0 || stats.MergePasses == 0 {
		t.Fatalf("implausible stats: %+v", stats)
	}
	if stats.WriteParallelism < 3.5 {
		t.Fatalf("write parallelism %v, want near 4", stats.WriteParallelism)
	}
}

func TestSortAllAlgorithmsAgree(t *testing.T) {
	in := randomRecords(4000, 2)
	var outputs [][]Record
	for _, alg := range []Algorithm{SRM, SRMDeterministic, DSM} {
		out, _, err := Sort(in, Config{D: 4, B: 8, K: 4, Algorithm: alg, Seed: 3})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		checkSorted(t, in, out)
		outputs = append(outputs, out)
	}
	for i := 1; i < len(outputs); i++ {
		for j := range outputs[0] {
			if outputs[i][j].Key != outputs[0][j].Key {
				t.Fatalf("algorithms disagree at %d", j)
			}
		}
	}
}

func TestSortDeterministicSeed(t *testing.T) {
	in := randomRecords(3000, 3)
	_, s1, err := Sort(in, Config{D: 4, B: 8, K: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	_, s2, err := Sort(in, Config{D: 4, B: 8, K: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatalf("same seed, different stats:\n%+v\n%+v", s1, s2)
	}
	_, s3, err := Sort(in, Config{D: 4, B: 8, K: 3, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if s1.MergeReads == s3.MergeReads && s1.Flushes == s3.Flushes && s1.InitialRuns == s3.InitialRuns {
		t.Log("note: different seeds produced identical I/O counts (possible, not a failure)")
	}
}

func TestSortEmptyAndSmall(t *testing.T) {
	out, stats, err := Sort(nil, Config{D: 2, B: 4, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 || stats.InitialRuns != 0 {
		t.Fatalf("empty sort: %d records, %d runs", len(out), stats.InitialRuns)
	}
	in := randomRecords(3, 4)
	out, stats, err = Sort(in, Config{D: 2, B: 4, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, in, out)
	if stats.MergePasses != 0 {
		t.Fatalf("3 records took %d merge passes", stats.MergePasses)
	}
}

func TestSortWithDuplicateKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := make([]Record, 2000)
	for i := range in {
		in[i] = Record{Key: uint64(rng.Intn(50)), Val: uint64(i)}
	}
	for _, alg := range []Algorithm{SRM, DSM} {
		out, _, err := Sort(in, Config{D: 3, B: 8, K: 3, Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		checkSorted(t, in, out)
	}
}

func TestSortReplacementSelection(t *testing.T) {
	in := randomRecords(6000, 6)
	out, stats, err := Sort(in, Config{D: 4, B: 16, K: 2, RunFormation: ReplacementSelection})
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, in, out)
	// Replacement selection yields ~N/2M runs vs 2N/M for memory loads.
	outML, statsML, err := Sort(in, Config{D: 4, B: 16, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, in, outML)
	if stats.InitialRuns >= statsML.InitialRuns {
		t.Fatalf("replacement selection made %d runs, memory loads %d — expected fewer",
			stats.InitialRuns, statsML.InitialRuns)
	}
}

// The file backend without a Dir keeps its disk files in a fresh
// directory under TempDir and removes it when the sort finishes.
func TestSortFileBacked(t *testing.T) {
	in := randomRecords(2000, 7)
	tmp := t.TempDir()
	seen := 0 // store directories under TempDir while the sort runs
	out, stats, err := Sort(in, Config{D: 3, B: 8, K: 3, Backend: FileBackend, TempDir: tmp,
		Progress: func(Progress) {
			if dirs, _ := filepath.Glob(filepath.Join(tmp, "srmsort-disks-*")); len(dirs) > seen {
				seen = len(dirs)
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, in, out)
	if stats.TotalOps() == 0 {
		t.Fatal("no I/O recorded")
	}
	if seen != 1 {
		t.Fatalf("saw %d store directories under TempDir during the sort, want 1", seen)
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("scratch store left %d entries under TempDir", len(left))
	}
}

func TestSortWithTimeModel(t *testing.T) {
	in := randomRecords(3000, 8)
	_, fast, err := Sort(in, Config{D: 8, B: 8, K: 4, Model: Mid1990sDisk()})
	if err != nil {
		t.Fatal(err)
	}
	_, slow, err := Sort(in, Config{D: 2, B: 8, K: 4, Model: Mid1990sDisk()})
	if err != nil {
		t.Fatal(err)
	}
	if fast.SimTime <= 0 || slow.SimTime <= 0 {
		t.Fatalf("SimTime not populated: %v / %v", fast.SimTime, slow.SimTime)
	}
	if fast.SimTime >= slow.SimTime {
		t.Fatalf("8 disks (%.3fs) not faster than 2 disks (%.3fs)", fast.SimTime, slow.SimTime)
	}
}

func TestSRMBeatsDSMOnMergeOps(t *testing.T) {
	// The paper's headline: with k modest and D moderate, SRM does fewer
	// merge-pass I/Os than DSM under the same memory.
	in := randomRecords(60000, 9)
	cfgSRM := Config{D: 8, B: 16, K: 3, Algorithm: SRM, Seed: 1}
	cfgDSM := cfgSRM
	cfgDSM.Algorithm = DSM
	_, s, err := Sort(in, cfgSRM)
	if err != nil {
		t.Fatal(err)
	}
	_, d, err := Sort(in, cfgDSM)
	if err != nil {
		t.Fatal(err)
	}
	srmMergeOps := s.MergeReads + s.MergeWrites
	dsmMergeOps := d.MergeReads + d.MergeWrites
	if srmMergeOps >= dsmMergeOps {
		t.Fatalf("SRM merge ops %d not below DSM %d (SRM R=%d passes=%d, DSM R=%d passes=%d)",
			srmMergeOps, dsmMergeOps, s.R, s.MergePasses, d.R, d.MergePasses)
	}
}

func TestConfigValidation(t *testing.T) {
	in := randomRecords(10, 10)
	cases := []Config{
		{D: 0, B: 8, K: 2},
		{D: 2, B: 0, K: 2},
		{D: 2, B: 8},               // neither Memory nor K
		{D: 50, B: 4, Memory: 100}, // memory too small for R>=2
	}
	for i, cfg := range cases {
		if _, _, err := Sort(in, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
}

func TestMergeOrderAccessor(t *testing.T) {
	r, m, err := Config{D: 5, B: 1000, K: 10}.MergeOrder()
	if err != nil {
		t.Fatal(err)
	}
	if r != 50 {
		t.Fatalf("R = %d, want kD = 50", r)
	}
	if m != (2*10+4)*5*1000+10*25 {
		t.Fatalf("M = %d", m)
	}
	rd, _, err := Config{D: 5, B: 1000, K: 10, Algorithm: DSM}.MergeOrder()
	if err != nil {
		t.Fatal(err)
	}
	if rd != 11 {
		t.Fatalf("DSM R = %d, want k+1 = 11", rd)
	}
}

func TestPropertySortMatchesStdSort(t *testing.T) {
	f := func(seed int64, alg uint8, dRaw, bRaw uint8) bool {
		n := int(uint16(seed)) % 2500
		in := randomRecords(n, seed)
		cfg := Config{
			D:         int(dRaw)%5 + 2,
			B:         int(bRaw)%8 + 1,
			K:         2,
			Algorithm: Algorithm(alg % 3),
			Seed:      seed,
		}
		out, _, err := Sort(in, cfg)
		if err != nil {
			return false
		}
		want := append([]Record(nil), in...)
		sort.Slice(want, func(i, j int) bool { return want[i].Key < want[j].Key })
		if len(out) != len(want) {
			return false
		}
		for i := range out {
			if out[i].Key != want[i].Key {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSortPSV(t *testing.T) {
	in := randomRecords(3000, 11)
	out, stats, err := Sort(in, Config{D: 4, B: 16, K: 4, Algorithm: PSV})
	if err != nil {
		t.Fatal(err)
	}
	checkSorted(t, in, out)
	if stats.R != 4 {
		t.Fatalf("PSV merge order = %d, want D = 4", stats.R)
	}
	if stats.TransposeOps == 0 {
		t.Fatal("PSV reported no transposition I/O")
	}
	// The paper's claim: PSV costs more than SRM on the same machine.
	_, srmStats, err := Sort(in, Config{D: 4, B: 16, K: 4, Algorithm: SRM, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalOps() <= srmStats.TotalOps() {
		t.Fatalf("PSV ops %d not above SRM ops %d", stats.TotalOps(), srmStats.TotalOps())
	}
}

func TestSortPSVRejectsTinyMemory(t *testing.T) {
	in := randomRecords(100, 12)
	if _, _, err := Sort(in, Config{D: 8, B: 4, Memory: 80, Algorithm: PSV}); err == nil {
		t.Fatal("PSV with no lookahead buffers accepted")
	}
}
