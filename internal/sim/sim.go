// Package sim is the block-level SRM merge simulator used for the paper's
// average-case experiments (Section 9.3, Tables 3 and 4).
//
// The full merger in package srm moves every record through the simulated
// disks; at the paper's scale (runs of 1000 blocks, up to kD = 2500 runs)
// that is needlessly slow. All scheduling decisions of SRM, however, depend
// only on each block's first and last key: a block begins participating
// when the merge reaches its first key and is depleted when the merge
// passes its last key. The simulator therefore replays the exact scheduler
// of package srm — the same forecasting structure, the same memory manager,
// the same ParRead/Flush rules — over (firstKey, lastKey) pairs alone. An
// integration test in this package proves the equivalence: on identical
// inputs the simulator and the real merger perform identical numbers of
// parallel reads.
//
// Inputs are generated from the paper's average-case model: a uniformly
// random partition of {1..L·kD} into kD runs of L records. The sorted-order
// run-label sequence is sampled directly (each next label drawn with
// probability proportional to the run's remaining records, via a Fenwick
// tree), and only block boundaries are retained.
package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"srmsort/internal/fenwick"
	"srmsort/internal/forecast"
	"srmsort/internal/iheap"
	"srmsort/internal/membuf"
	"srmsort/internal/record"
)

// Run is a sorted run reduced to its block boundaries.
type Run struct {
	StartDisk int
	D         int
	// First[i] and Last[i] are the first and last keys of block i.
	First, Last []record.Key
}

// NumBlocks returns the run's block count.
func (r *Run) NumBlocks() int { return len(r.First) }

// Disk returns the disk holding block i under cyclic striping.
func (r *Run) Disk(i int) int { return (r.StartDisk + i) % r.D }

// FromRecords reduces a materialised sorted run to its block boundaries —
// used by the equivalence tests to feed the simulator and the real merger
// identical inputs.
func FromRecords(recs []record.Record, b, d, startDisk int) *Run {
	blocks := record.Blocks(recs, b)
	r := &Run{StartDisk: startDisk, D: d}
	for _, blk := range blocks {
		r.First = append(r.First, blk.FirstKey())
		r.Last = append(r.Last, blk.LastKey())
	}
	return r
}

// GenerateAverageCase samples the paper's average-case merge input:
// numRuns runs of blocksPerRun blocks of b records each, from a uniformly
// random partition of {1..N'} into equal-size runs. Only block boundaries
// are materialised; starting disks are NOT assigned (callers place runs).
func GenerateAverageCase(rng *rand.Rand, d, numRuns, blocksPerRun, b int) []*Run {
	if numRuns < 1 || blocksPerRun < 1 || b < 1 {
		panic(fmt.Sprintf("sim: GenerateAverageCase(%d, %d, %d)", numRuns, blocksPerRun, b))
	}
	runLen := blocksPerRun * b
	remaining := make([]int64, numRuns)
	for j := range remaining {
		remaining[j] = int64(runLen)
	}
	tree := fenwick.FromSlice(remaining)
	runs := make([]*Run, numRuns)
	counts := make([]int, numRuns)
	for j := range runs {
		runs[j] = &Run{
			D:     d,
			First: make([]record.Key, 0, blocksPerRun),
			Last:  make([]record.Key, 0, blocksPerRun),
		}
	}
	total := int64(numRuns) * int64(runLen)
	for pos := int64(1); pos <= total; pos++ {
		j := tree.FindRank(rng.Int63n(tree.Total()))
		tree.Add(j, -1)
		c := counts[j]
		if c%b == 0 {
			runs[j].First = append(runs[j].First, record.Key(pos))
		}
		counts[j] = c + 1
		if counts[j]%b == 0 || counts[j] == runLen {
			runs[j].Last = append(runs[j].Last, record.Key(pos))
		}
	}
	return runs
}

// GenerateBursty produces a harder-than-average merge input: the sorted
// output visits runs in bursts — each run, once selected, contributes a
// geometric(1/meanBurst) number of consecutive records before another run
// takes over. Large bursts concentrate consecutive block participations in
// few runs, stressing the prefetcher far more than the uniform-partition
// model (meanBurst = 1 degenerates to it). SRM's worst-case analysis
// (Lemmas 6-8) covers such inputs: tests check the measured reads against
// PhaseBound here too.
func GenerateBursty(rng *rand.Rand, d, numRuns, blocksPerRun, b, meanBurst int) []*Run {
	if numRuns < 1 || blocksPerRun < 1 || b < 1 || meanBurst < 1 {
		panic(fmt.Sprintf("sim: GenerateBursty(%d, %d, %d, %d)", numRuns, blocksPerRun, b, meanBurst))
	}
	runLen := blocksPerRun * b
	remaining := make([]int64, numRuns)
	for j := range remaining {
		remaining[j] = int64(runLen)
	}
	tree := fenwick.FromSlice(remaining)
	runs := make([]*Run, numRuns)
	counts := make([]int, numRuns)
	for j := range runs {
		runs[j] = &Run{
			D:     d,
			First: make([]record.Key, 0, blocksPerRun),
			Last:  make([]record.Key, 0, blocksPerRun),
		}
	}
	total := int64(numRuns) * int64(runLen)
	cur, burstLeft := -1, 0
	for pos := int64(1); pos <= total; pos++ {
		if burstLeft == 0 || cur < 0 || remaining[cur] == 0 {
			j := tree.FindRank(rng.Int63n(tree.Total()))
			cur = j
			// Geometric burst length with mean meanBurst.
			burstLeft = 1
			for rng.Intn(meanBurst) != 0 {
				burstLeft++
			}
		}
		j := cur
		burstLeft--
		remaining[j]--
		tree.Add(j, -1)
		c := counts[j]
		if c%b == 0 {
			runs[j].First = append(runs[j].First, record.Key(pos))
		}
		counts[j] = c + 1
		if counts[j]%b == 0 || counts[j] == runLen {
			runs[j].Last = append(runs[j].Last, record.Key(pos))
		}
	}
	return runs
}

// Stats mirrors srm.MergeStats for the simulated merge.
type Stats struct {
	ReadOps       int64
	InitialReads  int64
	Flushes       int64
	BlocksFlushed int64
	BlocksReread  int64
	MaxPrefetched int
	// TotalBlocks is the number of input blocks across all runs.
	TotalBlocks int
	// WriteOps is the (deterministic) count of output write operations:
	// ceil(outputBlocks / D) under perfect write parallelism.
	WriteOps int64
}

// OverheadV returns the paper's per-merge read overhead
// v = ReadOps / (totalBlocks/D) for these stats.
func (s Stats) OverheadV(d int) float64 {
	return float64(s.ReadOps) * float64(d) / float64(s.TotalBlocks)
}

type simMerger struct {
	d, r int
	w    int // channel width: blocks the I/O channel carries per operation
	runs []*Run
	fds  *forecast.FDS
	mem  *membuf.Manager[record.Rec16]

	leadIdx   []int
	leadLast  []record.Key
	need      []int
	stalled   []bool
	active    *iheap.Heap // keyed by leading block's LAST key (depletion order)
	stallHeap *iheap.Heap // keyed by awaited block's first key
	exhausted int
	flushed   map[[2]int]bool
	stats     Stats
}

// Merge simulates SRM merging the runs with merge-order capacity r on d
// disks and returns the I/O statistics. All runs must be striped over the
// same d disks.
func Merge(runs []*Run, d, r int) (Stats, error) {
	return MergeChannel(runs, d, d, r)
}

// MergeChannel simulates SRM on the paper's hybrid I/O model (Section 1):
// d disks share an I/O channel that carries at most channel blocks per
// operation ("D is the channel bandwidth ... and D' is the number of disks
// sharing the bandwidth"). Each operation still touches each disk at most
// once; when more disks have pending blocks than the channel can carry,
// the scheduler reads the channel-many candidates with the smallest keys.
// channel = d recovers the restrictive D = D' model of the rest of the
// paper.
func MergeChannel(runs []*Run, d, channel, r int) (Stats, error) {
	if channel < 1 || channel > d {
		return Stats{}, fmt.Errorf("sim: channel width %d with %d disks", channel, d)
	}
	if len(runs) == 0 {
		return Stats{}, fmt.Errorf("sim: merge of zero runs")
	}
	if len(runs) > r {
		return Stats{}, fmt.Errorf("sim: %d runs exceed merge order R=%d", len(runs), r)
	}
	total := 0
	blocks := make([]int, len(runs))
	for h, run := range runs {
		blocks[h] = run.NumBlocks()
		if run.NumBlocks() == 0 {
			return Stats{}, fmt.Errorf("sim: empty run")
		}
		if run.D != d {
			return Stats{}, fmt.Errorf("sim: run striped over %d disks, system has %d", run.D, d)
		}
		total += run.NumBlocks()
	}
	m := &simMerger{
		d:         d,
		w:         channel,
		r:         r,
		runs:      runs,
		fds:       forecast.New(d, len(runs)),
		mem:       membuf.New[record.Rec16](r, d, blocks),
		leadIdx:   make([]int, len(runs)),
		leadLast:  make([]record.Key, len(runs)),
		need:      make([]int, len(runs)),
		stalled:   make([]bool, len(runs)),
		active:    iheap.New(len(runs)),
		stallHeap: iheap.New(len(runs)),
		flushed:   make(map[[2]int]bool),
	}
	m.stats.TotalBlocks = total
	m.stats.WriteOps = int64((total + channel - 1) / channel)
	m.loadInitialBlocks()
	for m.exhausted < len(m.runs) {
		reads := m.pumpIO()
		events := m.step()
		if reads == 0 && events == 0 && m.exhausted < len(m.runs) {
			panic(fmt.Sprintf("sim: schedule deadlock: |F|=%d R=%d D=%d active=%d stalled=%d fds=%d",
				m.mem.Occupied(), m.r, m.d, m.active.Len(), m.stallHeap.Len(), m.fds.Len()))
		}
	}
	m.stats.MaxPrefetched = m.mem.MaxOccupied
	return m.stats, nil
}

func (m *simMerger) loadInitialBlocks() {
	perDisk := make([]int, m.d)
	rounds := 0
	for h, run := range m.runs {
		disk := run.Disk(0)
		perDisk[disk]++
		if perDisk[disk] > rounds {
			rounds = perDisk[disk]
		}
		// Seed the FDS with the first keys of blocks 1..D, as block 0's
		// implanted forecast would.
		for t := 1; t <= m.d && t < run.NumBlocks(); t++ {
			m.fds.Set(run.Disk(t), h, t, run.First[t])
		}
		m.leadIdx[h] = 0
		m.leadLast[h] = run.Last[0]
		m.mem.LeadingAcquired()
		m.active.Push(h, uint64(run.Last[0]))
	}
	// The channel carries at most w blocks per operation, so loading the
	// R initial blocks also needs at least ceil(R/w) rounds.
	if minRounds := (len(m.runs) + m.w - 1) / m.w; minRounds > rounds {
		rounds = minRounds
	}
	m.stats.InitialReads = int64(rounds)
	m.stats.ReadOps = int64(rounds)
}

func (m *simMerger) pumpIO() int {
	reads := 0
	for m.fds.Len() > 0 && m.mem.Occupied() <= m.r+m.d {
		if occupied := m.mem.Occupied(); occupied > m.r {
			extra := occupied - m.r
			minS := m.smallestOnDisk()
			outRank := m.mem.CountLessBlock(minS.Key, minS.Run, minS.BlockIdx) + 1
			if outRank <= extra {
				m.flush(extra - outRank + 1)
			}
		}
		m.parRead()
		reads++
	}
	return reads
}

// smallestOnDisk mirrors the merger's composite-order candidate selection.
func (m *simMerger) smallestOnDisk() forecast.Entry {
	var best forecast.Entry
	found := false
	for disk := 0; disk < m.d; disk++ {
		e, ok := m.fds.Smallest(disk)
		if !ok {
			continue
		}
		if !found || e.Key < best.Key ||
			(e.Key == best.Key && (e.Run < best.Run ||
				(e.Run == best.Run && e.BlockIdx < best.BlockIdx))) {
			best = e
			found = true
		}
	}
	if !found {
		panic("sim: smallestOnDisk with empty FDS")
	}
	return best
}

func (m *simMerger) flush(n int) {
	victims := m.mem.FlushVictims(n)
	m.stats.Flushes++
	m.stats.BlocksFlushed += int64(len(victims))
	for _, v := range victims {
		m.fds.Set(m.runs[v.Run].Disk(v.Idx), v.Run, v.Idx, v.FirstKey())
		m.flushed[[2]int{v.Run, v.Idx}] = true
	}
}

func (m *simMerger) parRead() {
	// Candidates: the smallest pending block on every disk; with a narrow
	// channel only the w smallest-keyed of them are fetched this round.
	var cand []forecast.Entry
	candDisk := make(map[int]int)
	for disk := 0; disk < m.d; disk++ {
		e, ok := m.fds.Smallest(disk)
		if !ok {
			continue
		}
		candDisk[len(cand)] = disk
		cand = append(cand, e)
	}
	if len(cand) > m.w {
		order := make([]int, len(cand))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return cand[order[a]].Key < cand[order[b]].Key })
		pickedIdx := order[:m.w]
		picked := make([]forecast.Entry, 0, m.w)
		pickedDisk := make(map[int]int)
		for _, oi := range pickedIdx {
			pickedDisk[len(picked)] = candDisk[oi]
			picked = append(picked, cand[oi])
		}
		cand, candDisk = picked, pickedDisk
	}
	read := 0
	for ci, e := range cand {
		disk := candDisk[ci]
		run := m.runs[e.Run]
		succKey := record.MaxKey
		if e.BlockIdx+m.d < run.NumBlocks() {
			succKey = run.First[e.BlockIdx+m.d]
		}
		m.fds.NoteRead(disk, e.Run, e.BlockIdx, succKey)
		read++
		if m.flushed[[2]int{e.Run, e.BlockIdx}] {
			m.stats.BlocksReread++
		}
		if m.stalled[e.Run] && m.need[e.Run] == e.BlockIdx {
			m.leadIdx[e.Run] = e.BlockIdx
			m.leadLast[e.Run] = run.Last[e.BlockIdx]
			m.stalled[e.Run] = false
			m.stallHeap.Remove(e.Run)
			m.mem.LeadingAcquired()
			m.active.Push(e.Run, uint64(run.Last[e.BlockIdx]))
			continue
		}
		m.mem.Insert(&membuf.Block[record.Rec16]{
			Run: e.Run,
			Idx: e.BlockIdx,
			Records: []record.Rec16{
				{Key: run.First[e.BlockIdx]},
				{Key: run.Last[e.BlockIdx]},
			},
			SuccKey: succKey,
		})
	}
	if read == 0 {
		panic("sim: parRead with empty FDS")
	}
	m.stats.ReadOps++
}

// step advances the merge to the next block event: either the depletion of
// the leading block with the smallest last key, or — if a stalled run's
// awaited block comes first in key order — a pause for I/O (0 events).
func (m *simMerger) step() int {
	if m.active.Len() == 0 {
		return 0 // everything is stalled or exhausted; I/O must progress
	}
	h, lastKey := m.active.Min()
	if m.stallHeap.Len() > 0 {
		if _, sKey := m.stallHeap.Min(); sKey < lastKey {
			return 0 // the merge is blocked on a stalled run's block
		}
	}
	// Depletion of run h's leading block.
	m.active.Remove(h)
	m.mem.LeadingReleased()
	run := m.runs[h]
	next := m.leadIdx[h] + 1
	switch {
	case next >= run.NumBlocks():
		m.exhausted++
	case m.mem.Has(h, next):
		m.mem.Take(h, next)
		m.leadIdx[h] = next
		m.leadLast[h] = run.Last[next]
		m.mem.LeadingAcquired()
		m.active.Push(h, uint64(run.Last[next]))
	default:
		e, ok := m.fds.Peek(run.Disk(next), h)
		if !ok || e.BlockIdx != next {
			panic(fmt.Sprintf("sim: stalled run %d needs block %d but FDS tracks %+v (ok=%v)",
				h, next, e, ok))
		}
		m.stalled[h] = true
		m.need[h] = next
		m.stallHeap.Push(h, uint64(e.Key))
	}
	_ = lastKey
	return 1
}
