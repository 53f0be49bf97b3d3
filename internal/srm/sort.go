package srm

import (
	"fmt"

	"srmsort/internal/pdisk"
	"srmsort/internal/record"
	"srmsort/internal/runio"
)

// SortStats aggregates the cost of all merge passes of a sort (run
// formation is accounted separately by the caller, as in the paper's
// formulas).
type SortStats struct {
	// MergePasses is the number of passes over the data after run
	// formation.
	MergePasses int
	// Merges is the total number of individual merges performed.
	Merges int
	// ReadOps and WriteOps total the parallel I/O operations of all
	// merges.
	ReadOps  int64
	WriteOps int64
	// Flushes, BlocksFlushed and BlocksReread total the flush activity.
	Flushes       int64
	BlocksFlushed int64
	BlocksReread  int64
}

// mergeFn selects the merge procedure of one sort: the synchronous
// schedule or its overlapped equivalent.
func mergeFn[R record.KernelRecord](async bool) func(*pdisk.System, []*runio.Run, int, int, int) (*runio.Run, MergeStats, error) {
	if async {
		return MergeAsync[R]
	}
	return Merge[R]
}

func (s *SortStats) add(ms MergeStats) {
	s.Merges++
	s.ReadOps += ms.ReadOps
	s.WriteOps += ms.WriteOps
	s.Flushes += ms.Flushes
	s.BlocksFlushed += ms.BlocksFlushed
	s.BlocksReread += ms.BlocksReread
}

// PassFunc is invoked after each completed merge pass with the number of
// passes completed by this call (1-based), the surviving runs and the
// next run sequence number. It is the checkpoint hook: when one is
// installed, the pass's input runs are freed only after it returns, so a
// manifest persisted inside the callback always names live runs — and a
// crash at any instant leaves either the previous checkpoint's runs or
// this one's fully intact on the store. Returning an error aborts the
// sort.
type PassFunc func(pass int, survivors []*runio.Run, nextSeq int) error

// SortOpts selects the execution mode of SortRunsOpts.
type SortOpts struct {
	// Async performs every merge with MergeAsync (overlapped I/O).
	Async bool
	// Workers > 1 (or < 0 for GOMAXPROCS) executes the independent
	// merges of each pass concurrently; 0 or 1 runs serially.
	Workers int
	// AfterPass, when non-nil, is the checkpoint hook described at
	// PassFunc.
	AfterPass PassFunc
}

// SortRuns repeatedly merges the given sorted runs, r at a time, until one
// run remains, which it returns. Placement chooses each output run's
// starting disk; run sequence numbering starts at seqStart and the final
// value is returned so callers can keep one global sequence across run
// formation and merging (the staggered placement of Section 8 depends on
// it). Input runs are freed as soon as their merge completes.
func SortRuns[R record.KernelRecord](sys *pdisk.System, runs []*runio.Run, r int, placement runio.Placement, seqStart int) (*runio.Run, SortStats, int, error) {
	return sortRuns[R](sys, runs, r, placement, seqStart, SortOpts{})
}

// SortRunsAsync is SortRuns with every merge performed by MergeAsync, so
// reads, writes and internal merging overlap. Output runs and statistics
// are identical to SortRuns' (see async.go).
func SortRunsAsync[R record.KernelRecord](sys *pdisk.System, runs []*runio.Run, r int, placement runio.Placement, seqStart int) (*runio.Run, SortStats, int, error) {
	return sortRuns[R](sys, runs, r, placement, seqStart, SortOpts{Async: true})
}

// SortRunsOpts is the fully general entry point: SortRuns with the
// execution mode (sync/async, serial/parallel) and checkpoint hook chosen
// by opts. All modes produce identical runs and statistics.
func SortRunsOpts[R record.KernelRecord](sys *pdisk.System, runs []*runio.Run, r int, placement runio.Placement, seqStart int, opts SortOpts) (*runio.Run, SortStats, int, error) {
	if opts.Workers > 1 || opts.Workers < 0 {
		return sortRunsParallel[R](sys, runs, r, placement, seqStart, opts.Workers, opts.Async, opts.AfterPass)
	}
	return sortRuns[R](sys, runs, r, placement, seqStart, opts)
}

func sortRuns[R record.KernelRecord](sys *pdisk.System, runs []*runio.Run, r int, placement runio.Placement, seqStart int, opts SortOpts) (*runio.Run, SortStats, int, error) {
	if r < 2 {
		return nil, SortStats{}, seqStart, fmt.Errorf("srm: merge order R=%d, need >= 2", r)
	}
	if len(runs) == 0 {
		return nil, SortStats{}, seqStart, fmt.Errorf("srm: no runs to sort")
	}
	var stats SortStats
	seq := seqStart
	for len(runs) > 1 {
		stats.MergePasses++
		next := make([]*runio.Run, 0, (len(runs)+r-1)/r)
		var deferred []*runio.Run // pass inputs awaiting the checkpoint
		for off := 0; off < len(runs); off += r {
			end := off + r
			if end > len(runs) {
				end = len(runs)
			}
			group := runs[off:end]
			if len(group) == 1 {
				// A singleton group passes through unchanged; re-merging
				// it would waste a full read+write of the run.
				next = append(next, group[0])
				continue
			}
			merged, ms, err := mergeFn[R](opts.Async)(sys, group, r, seq, placement.StartDisk(seq))
			if err != nil {
				return nil, stats, seq, err
			}
			seq++
			stats.add(ms)
			if opts.AfterPass != nil {
				deferred = append(deferred, group...)
			} else {
				for _, in := range group {
					if err := runio.Free(sys, in); err != nil {
						return nil, stats, seq, err
					}
				}
			}
			next = append(next, merged)
		}
		if opts.AfterPass != nil {
			if err := opts.AfterPass(stats.MergePasses, next, seq); err != nil {
				return nil, stats, seq, err
			}
			for _, in := range deferred {
				if err := runio.Free(sys, in); err != nil {
					return nil, stats, seq, err
				}
			}
		}
		runs = next
	}
	return runs[0], stats, seq, nil
}
