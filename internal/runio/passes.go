package runio

import (
	"fmt"
	"runtime"
	"sync"
)

// PassFunc is the checkpoint hook of the pass driver: it is invoked after
// each completed merge pass with the number of passes completed by this
// call (1-based), the surviving runs and the next run sequence number.
// When one is installed, a pass's input runs are freed only after it
// returns, so a manifest persisted inside the callback always names live
// runs — and a crash at any instant leaves either the previous
// checkpoint's runs or this one's fully intact on the store. Returning an
// error aborts the sort with that pass's inputs still allocated.
type PassFunc[T any] func(pass int, survivors []T, nextSeq int) error

// PassOpts configures MergePasses. T is the run type (a striped *Run, or
// DSM's logical-block run) and S the statistics one merge reports.
type PassOpts[T, S any] struct {
	// R is the merge order: each merge takes up to R consecutive runs.
	R int
	// Placement draws each output run's starting disk; nil starts every
	// output run on disk 0 (runs that have no starting disk ignore it).
	Placement Placement
	// Workers > 1 runs the merges of a pass on that many goroutines (< 0
	// means GOMAXPROCS); 0 or 1 runs them inline, in order, and stops at
	// the first error.
	Workers int
	// AfterPass, when non-nil, is the checkpoint hook described at
	// PassFunc. Without one, each merge's inputs are freed as soon as it
	// completes.
	AfterPass PassFunc[T]
	// Merge merges one group into the output run numbered seq whose first
	// block lives on disk start.
	Merge func(group []T, seq, start int) (T, S, error)
	// Free releases one consumed input run.
	Free func(T) error
	// Add folds one merge's statistics in. It is called in merge order on
	// the caller's goroutine, whatever Workers is.
	Add func(S)
}

// passMerge is one merge of a pass, with everything fixed before the pass
// starts and its outcome.
type passMerge[T, S any] struct {
	group      []T
	seq, start int
	slot       int // index of the output in the pass's survivors
	out        T
	stats      S
	err        error
}

// MergePasses repeatedly merges runs, o.R at a time, until one remains,
// which it returns with the number of passes started and the next run
// sequence number (numbering starts at seq). It is the pass loop of every
// mergesort here, SRM and DSM alike:
//
//   - a trailing singleton group passes through unmerged — re-merging it
//     would waste a full read and write of the run;
//   - every merge's sequence number and starting disk are drawn in group
//     order before any merge of the pass starts, so the pass's output is
//     the same whichever order its merges run in, serially or on the
//     Workers pool;
//   - inputs are freed right after their merge, or after AfterPass
//     returns when a hook is installed.
//
// Runs and statistics are therefore identical for every Workers value.
func MergePasses[T, S any](runs []T, seq int, o PassOpts[T, S]) (T, int, int, error) {
	var zero T
	if o.R < 2 {
		return zero, 0, seq, fmt.Errorf("runio: merge order R=%d, need >= 2", o.R)
	}
	if len(runs) == 0 {
		return zero, 0, seq, fmt.Errorf("runio: no runs to merge")
	}
	workers := o.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	passes := 0
	for len(runs) > 1 {
		passes++
		next := make([]T, 0, (len(runs)+o.R-1)/o.R)
		var merges []passMerge[T, S]
		for off := 0; off < len(runs); off += o.R {
			group := runs[off:min(off+o.R, len(runs))]
			if len(group) == 1 {
				next = append(next, group[0])
				continue
			}
			m := passMerge[T, S]{group: group, seq: seq, slot: len(next)}
			if o.Placement != nil {
				m.start = o.Placement.StartDisk(seq)
			}
			seq++
			merges = append(merges, m)
			next = append(next, zero)
		}
		run := func(m *passMerge[T, S]) {
			m.out, m.stats, m.err = o.Merge(m.group, m.seq, m.start)
			if m.err == nil && o.AfterPass == nil {
				m.err = freeAll(m.group, o.Free)
			}
		}
		if workers <= 1 {
			for i := range merges {
				if run(&merges[i]); merges[i].err != nil {
					break
				}
			}
		} else {
			sem := make(chan struct{}, workers)
			var wg sync.WaitGroup
			for i := range merges {
				wg.Add(1)
				go func(m *passMerge[T, S]) {
					defer wg.Done()
					sem <- struct{}{}
					defer func() { <-sem }()
					run(m)
				}(&merges[i])
			}
			wg.Wait()
		}
		for _, m := range merges {
			if m.err != nil {
				return zero, passes, seq, m.err
			}
			o.Add(m.stats)
			next[m.slot] = m.out
		}
		if o.AfterPass != nil {
			if err := o.AfterPass(passes, next, seq); err != nil {
				return zero, passes, seq, err
			}
			for _, m := range merges {
				if err := freeAll(m.group, o.Free); err != nil {
					return zero, passes, seq, err
				}
			}
		}
		runs = next
	}
	return runs[0], passes, seq, nil
}

// freeAll frees every run of a merged group.
func freeAll[T any](group []T, free func(T) error) error {
	for _, run := range group {
		if err := free(run); err != nil {
			return err
		}
	}
	return nil
}
