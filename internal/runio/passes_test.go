package runio

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// fakeRun is a run the pass driver can move around without a disk: the
// ids of the initial runs it covers, in order.
type fakeRun struct {
	seq    int // -1 for an initial run
	start  int
	covers []int
}

func initialFakes(n int) []*fakeRun {
	runs := make([]*fakeRun, n)
	for i := range runs {
		runs[i] = &fakeRun{seq: -1, covers: []int{i}}
	}
	return runs
}

// fakeMerge concatenates a group's coverage; its statistic is the number
// of inputs merged.
func fakeMerge(group []*fakeRun, seq, start int) (*fakeRun, int, error) {
	out := &fakeRun{seq: seq, start: start}
	for _, in := range group {
		out.covers = append(out.covers, in.covers...)
	}
	return out, len(group), nil
}

// drawLog is a Placement that records every draw.
type drawLog struct {
	mu    sync.Mutex
	seqs  []int
	disks int
}

func (p *drawLog) StartDisk(seq int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seqs = append(p.seqs, seq)
	return (seq * 7) % p.disks
}

func (p *drawLog) draws() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.seqs)
}

// goid returns the current goroutine's id from its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

func TestMergePassesGroupsAndPassesSingletonsThrough(t *testing.T) {
	var groups [][]int
	final, passes, seq, err := MergePasses(initialFakes(7), 10, PassOpts[*fakeRun, int]{
		R: 3,
		Merge: func(group []*fakeRun, seq, start int) (*fakeRun, int, error) {
			var ids []int
			for _, in := range group {
				ids = append(ids, in.seq)
			}
			groups = append(groups, ids)
			return fakeMerge(group, seq, start)
		},
		Free: func(*fakeRun) error { return nil },
		Add:  func(int) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pass 1: [0 1 2] [3 4 5] merge into seq 10 and 11; run 6 passes
	// through. Pass 2: [10 11 6] merge into seq 12.
	want := [][]int{{-1, -1, -1}, {-1, -1, -1}, {10, 11, -1}}
	if !reflect.DeepEqual(groups, want) {
		t.Fatalf("merged groups %v, want %v", groups, want)
	}
	if passes != 2 || seq != 13 || final.seq != 12 {
		t.Fatalf("passes=%d seq=%d final seq=%d, want 2, 13, 12", passes, seq, final.seq)
	}
	if !slices.Equal(final.covers, []int{0, 1, 2, 3, 4, 5, 6}) {
		t.Fatalf("final run covers %v", final.covers)
	}
}

func TestMergePassesDrawsBeforeAnyMerge(t *testing.T) {
	for _, workers := range []int{1, 3} {
		pl := &drawLog{disks: 4}
		passMerges := []int{3, 1} // 8 runs at R=3: three merges, then one
		pass, merged := 0, 0
		var mu sync.Mutex
		_, _, _, err := MergePasses(initialFakes(8), 0, PassOpts[*fakeRun, int]{
			R:         3,
			Placement: pl,
			Workers:   workers,
			Merge: func(group []*fakeRun, seq, start int) (*fakeRun, int, error) {
				mu.Lock()
				defer mu.Unlock()
				drawn := 0
				for _, n := range passMerges[:pass+1] {
					drawn += n
				}
				if got := pl.draws(); got != drawn {
					return nil, 0, fmt.Errorf("pass %d: merge seq %d ran after %d draws, want all %d", pass+1, seq, got, drawn)
				}
				if want := (seq * 7) % 4; start != want {
					return nil, 0, fmt.Errorf("seq %d start disk %d, want %d", seq, start, want)
				}
				if merged++; merged == passMerges[pass] {
					pass, merged = pass+1, 0
				}
				return fakeMerge(group, seq, start)
			},
			Free: func(*fakeRun) error { return nil },
			Add:  func(int) {},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !slices.Equal(pl.seqs, []int{0, 1, 2, 3}) {
			t.Fatalf("workers=%d: draws for seqs %v, want [0 1 2 3]", workers, pl.seqs)
		}
	}
}

func TestMergePassesFreesAfterHook(t *testing.T) {
	var freed []int
	free := func(r *fakeRun) error {
		freed = append(freed, r.seq)
		return nil
	}
	hookErr := errors.New("checkpoint failed")
	for _, fail := range []bool{false, true} {
		freed = nil
		hooks := 0
		_, _, _, err := MergePasses(initialFakes(4), 0, PassOpts[*fakeRun, int]{
			R: 2,
			AfterPass: func(pass int, survivors []*fakeRun, nextSeq int) error {
				hooks++
				if want := []int{0, 4}[pass-1]; len(freed) != want {
					t.Fatalf("pass %d: %d runs freed before its hook returned", pass, len(freed))
				}
				if fail && pass == 2 {
					return hookErr
				}
				return nil
			},
			Merge: fakeMerge,
			Free:  free,
			Add:   func(int) {},
		})
		if fail {
			// Pass 1's four inputs were freed after its hook; pass 2's
			// failed hook frees nothing.
			if !errors.Is(err, hookErr) || hooks != 2 || len(freed) != 4 {
				t.Fatalf("failing hook: err=%v hooks=%d freed=%v", err, hooks, freed)
			}
			continue
		}
		if err != nil || hooks != 2 || !slices.Equal(freed, []int{-1, -1, -1, -1, 0, 1}) {
			t.Fatalf("err=%v hooks=%d freed=%v", err, hooks, freed)
		}
	}
}

func TestMergePassesSerialStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	caller := goid()
	var calls []int
	var freed int
	_, _, _, err := MergePasses(initialFakes(8), 0, PassOpts[*fakeRun, int]{
		R:       2,
		Workers: 1,
		Merge: func(group []*fakeRun, seq, start int) (*fakeRun, int, error) {
			if id := goid(); id != caller {
				t.Errorf("serial merge ran on goroutine %s, caller is %s", id, caller)
			}
			calls = append(calls, seq)
			if seq == 1 {
				return nil, 0, boom
			}
			return fakeMerge(group, seq, start)
		},
		Free: func(*fakeRun) error { freed++; return nil },
		Add:  func(int) {},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if !slices.Equal(calls, []int{0, 1}) || freed != 2 {
		t.Fatalf("merges %v and %d frees after the failure, want [0 1] and 2", calls, freed)
	}
}

func TestMergePassesWorkersIdentical(t *testing.T) {
	type result struct {
		covers    []int
		seq       int
		start     int
		passes    int
		nextSeq   int
		stats     []int
		survivors [][]int
	}
	run := func(workers int) result {
		var res result
		final, passes, seq, err := MergePasses(initialFakes(23), 5, PassOpts[*fakeRun, int]{
			R:         3,
			Placement: &drawLog{disks: 5},
			Workers:   workers,
			AfterPass: func(pass int, survivors []*fakeRun, nextSeq int) error {
				var seqs []int
				for _, s := range survivors {
					seqs = append(seqs, s.seq)
				}
				res.survivors = append(res.survivors, seqs)
				return nil
			},
			Merge: fakeMerge,
			Free:  func(*fakeRun) error { return nil },
			Add:   func(n int) { res.stats = append(res.stats, n) },
		})
		if err != nil {
			t.Fatal(err)
		}
		res.covers, res.seq, res.start, res.passes, res.nextSeq = final.covers, final.seq, final.start, passes, seq
		return res
	}
	want := run(1)
	for _, workers := range []int{3, -1} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d:\ngot  %+v\nwant %+v", workers, got, want)
		}
	}
}

func TestMergePassesRejectsBadArgs(t *testing.T) {
	opts := PassOpts[*fakeRun, int]{R: 1, Merge: fakeMerge}
	if _, _, _, err := MergePasses(initialFakes(3), 0, opts); err == nil {
		t.Fatal("merge order 1 accepted")
	}
	opts.R = 2
	if _, _, _, err := MergePasses(nil, 0, opts); err == nil {
		t.Fatal("no runs accepted")
	}
}
