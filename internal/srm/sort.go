package srm

import (
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

func (s *SortStats) add(ms MergeStats) {
	s.Merges++
	s.ReadOps += ms.ReadOps
	s.WriteOps += ms.WriteOps
	s.Flushes += ms.Flushes
	s.BlocksFlushed += ms.BlocksFlushed
	s.BlocksReread += ms.BlocksReread
}

// SortOpts selects how SortRuns executes. Every choice yields the same
// runs and statistics.
type SortOpts struct {
	// Async performs every merge with MergeOpts.Async (overlapped I/O).
	Async bool
	// Workers > 1 (or < 0 for GOMAXPROCS) executes the independent
	// merges of each pass concurrently; 0 or 1 runs them serially. Merges
	// of disjoint run groups share nothing but the disk system, which
	// serialises individual I/O operations exactly as contending merges
	// on real hardware would.
	Workers int
	// AfterPass, when non-nil, is the checkpoint hook described at
	// runio.PassFunc: a pass's inputs are freed only after it returns.
	AfterPass runio.PassFunc[*runio.Run]
}

// SortRuns repeatedly merges the given sorted runs, r at a time, until one
// run remains, which it returns (runio.MergePasses is the pass loop).
// Placement chooses each output run's starting disk; run sequence
// numbering starts at seqStart and the final value is returned so callers
// can keep one global sequence across run formation and merging (the
// staggered placement of Section 8 depends on it). Without an AfterPass
// hook, input runs are freed as soon as their merge completes.
func SortRuns[R record.KernelRecord](sys *pdisk.System, runs []*runio.Run, r int, placement runio.Placement, seqStart int, opts SortOpts) (*runio.Run, SortStats, int, error) {
	var stats SortStats
	final, passes, seq, err := runio.MergePasses(runs, seqStart, runio.PassOpts[*runio.Run, MergeStats]{
		R:         r,
		Placement: placement,
		Workers:   opts.Workers,
		AfterPass: opts.AfterPass,
		Merge: func(group []*runio.Run, seq, start int) (*runio.Run, MergeStats, error) {
			return Merge[R](sys, group, r, seq, start, MergeOpts{Async: opts.Async})
		},
		Free: func(run *runio.Run) error { return runio.Free(sys, run) },
		Add:  stats.add,
	})
	stats.MergePasses = passes
	return final, stats, seq, err
}
