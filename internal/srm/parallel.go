package srm

import (
	"fmt"
	"runtime"
	"sync"

	"srmsort/internal/pdisk"
	"srmsort/internal/record"
	"srmsort/internal/runio"
)

// SortRunsParallel is SortRuns with the independent merges of each pass
// executed concurrently on a bounded worker pool (workers <= 0 means
// GOMAXPROCS).
//
// The paper's algorithm already expresses its two control flows — I/O
// scheduling and internal merging — concurrently (Section 5); at the pass
// level a further source of parallelism appears: merges of disjoint run
// groups share no state except the disk system, which serialises
// individual I/O operations exactly as contending merges on real hardware
// would. Placement seeds and output starting disks are assigned before any
// work starts, so the result (final run contents, per-merge statistics,
// total operation counts) is identical to the serial SortRuns run for run.
func SortRunsParallel[R record.KernelRecord](sys *pdisk.System, runs []*runio.Run, r int, placement runio.Placement, seqStart, workers int) (*runio.Run, SortStats, int, error) {
	return sortRunsParallel[R](sys, runs, r, placement, seqStart, workers, false, nil)
}

// SortRunsParallelAsync is SortRunsParallel with every merge performed by
// MergeAsync: concurrent merges of disjoint groups, each overlapping its
// own I/O with merging. Results are identical to the serial, synchronous
// SortRuns.
func SortRunsParallelAsync[R record.KernelRecord](sys *pdisk.System, runs []*runio.Run, r int, placement runio.Placement, seqStart, workers int) (*runio.Run, SortStats, int, error) {
	return sortRunsParallel[R](sys, runs, r, placement, seqStart, workers, true, nil)
}

func sortRunsParallel[R record.KernelRecord](sys *pdisk.System, runs []*runio.Run, r int, placement runio.Placement, seqStart, workers int, async bool, afterPass PassFunc) (*runio.Run, SortStats, int, error) {
	if r < 2 {
		return nil, SortStats{}, seqStart, fmt.Errorf("srm: merge order R=%d, need >= 2", r)
	}
	if len(runs) == 0 {
		return nil, SortStats{}, seqStart, fmt.Errorf("srm: no runs to sort")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var stats SortStats
	seq := seqStart
	for len(runs) > 1 {
		stats.MergePasses++

		type job struct {
			group []*runio.Run
			seq   int
			start int
			out   *runio.Run
			ms    MergeStats
			err   error
		}
		var jobs []*job
		next := make([]*runio.Run, 0, (len(runs)+r-1)/r)
		slot := make([]int, 0) // index into next for each job, -1 passthrough
		for off := 0; off < len(runs); off += r {
			end := off + r
			if end > len(runs) {
				end = len(runs)
			}
			group := runs[off:end]
			if len(group) == 1 {
				next = append(next, group[0])
				continue
			}
			j := &job{group: group, seq: seq, start: placement.StartDisk(seq)}
			seq++
			jobs = append(jobs, j)
			next = append(next, nil)
			slot = append(slot, len(next)-1)
		}

		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for _, j := range jobs {
			wg.Add(1)
			go func(j *job) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				j.out, j.ms, j.err = mergeFn[R](async)(sys, j.group, r, j.seq, j.start)
				if j.err != nil {
					return
				}
				if afterPass != nil {
					// Checkpointing defers all frees to after the
					// pass-end checkpoint, so a crash never strands the
					// manifest pointing at freed inputs.
					return
				}
				for _, in := range j.group {
					if err := runio.Free(sys, in); err != nil {
						j.err = err
						return
					}
				}
			}(j)
		}
		wg.Wait()

		for i, j := range jobs {
			if j.err != nil {
				return nil, stats, seq, j.err
			}
			stats.add(j.ms)
			next[slot[i]] = j.out
		}
		if afterPass != nil {
			if err := afterPass(stats.MergePasses, next, seq); err != nil {
				return nil, stats, seq, err
			}
			for _, j := range jobs {
				for _, in := range j.group {
					if err := runio.Free(sys, in); err != nil {
						return nil, stats, seq, err
					}
				}
			}
		}
		runs = next
	}
	return runs[0], stats, seq, nil
}
