// Package timesim estimates the elapsed (wall-clock) time of an SRM merge
// by simulating the paper's two concurrent control flows (Section 5):
// internal merge processing on a CPU and I/O scheduling on a parallel disk
// channel that serves one operation at a time.
//
// Operation *counts* (package sim) decide the asymptotics; *overlap*
// decides the constant in practice, which is why the paper stresses that
// SRM "overlaps I/O operations and internal computation" and that ParReads
// have "genuine prefetching ability" (Lemma 1). The simulator makes that
// claim measurable: reads are issued as soon as the schedule of Section
// 5.5 allows — usually long before their blocks participate — so their
// latency hides behind merging; the CPU waits only when a stalled run's
// block is genuinely late.
//
// Inputs are the block-boundary runs of package sim whose keys are dense
// global positions (the average-case and bursty generators): the CPU time
// to reach key position p is exactly p · CPUPerRecord.
package timesim

import (
	"fmt"

	"srmsort/internal/forecast"
	"srmsort/internal/iheap"
	"srmsort/internal/membuf"
	"srmsort/internal/record"
	"srmsort/internal/sim"
)

// Params configures the two resources.
type Params struct {
	// B is the block size in records of the input runs (the generators
	// produce uniform blocks); it converts key positions into output
	// stripe counts.
	B int
	// OpSeconds is the duration of one parallel I/O operation (read or
	// write) — e.g. pdisk.TimeModel.OpSeconds(B).
	OpSeconds float64
	// CPUPerRecord is the internal merge processing time per record.
	CPUPerRecord float64
	// Overlap enables the concurrent control flows; with false, every
	// I/O operation blocks the CPU (the naive serial implementation).
	Overlap bool
	// QueueDepth bounds the I/O channel backlog in overlap mode: issuing
	// an operation while QueueDepth operations are already queued blocks
	// the issuing flow until the backlog drains below the bound — the
	// timed analogue of pdisk's bounded async queues. 0 means unbounded.
	// QueueDepth 1 is classic double buffering; the makespan decreases
	// monotonically with depth (serial ≥ depth 1 ≥ depth k ≥ unbounded).
	QueueDepth int
}

// Result reports the timing outcome.
type Result struct {
	// Makespan is the elapsed time to complete the merge, final writes
	// included.
	Makespan float64
	// CPUBusy is the pure computation demand (records × CPUPerRecord).
	CPUBusy float64
	// IOBusy is the pure I/O demand (operations × OpSeconds).
	IOBusy float64
	// CPUStall is the total time internal merging waited for blocks.
	CPUStall float64
	// ReadOps and WriteOps are the operation counts (identical to the
	// untimed simulator's).
	ReadOps, WriteOps int64
}

// Efficiency returns how close the makespan is to the overlap ideal
// max(CPUBusy, IOBusy): 1.0 means latency fully hidden.
func (r Result) Efficiency() float64 {
	ideal := r.CPUBusy
	if r.IOBusy > ideal {
		ideal = r.IOBusy
	}
	if r.Makespan == 0 {
		return 1
	}
	return ideal / r.Makespan
}

type timedMerger struct {
	d, r int
	p    Params
	runs []*sim.Run
	fds  *forecast.FDS
	mem  *membuf.Manager[record.Rec16]

	leadIdx   []int
	leadLast  []record.Key
	need      []int
	stalled   []bool
	active    *iheap.Heap
	stallHeap *iheap.Heap
	exhausted int

	cpu       float64    // merge-processing clock
	pos       record.Key // last merge position (global key) accounted
	ioFree    float64    // when the I/O channel finishes its current op
	stallTime float64
	ready     map[[2]int]float64 // block -> read completion time
	outBlocks int                // output blocks generated so far
	written   int                // output blocks already covered by write ops
	res       Result
}

// Merge runs the timed simulation. Runs must carry dense position keys
// (GenerateAverageCase / GenerateBursty / UniformPartitionRuns-derived).
func Merge(runs []*sim.Run, d, r int, p Params) (Result, error) {
	if p.OpSeconds <= 0 || p.CPUPerRecord < 0 || p.B < 1 {
		return Result{}, fmt.Errorf("timesim: bad params %+v", p)
	}
	if len(runs) == 0 {
		return Result{}, fmt.Errorf("timesim: merge of zero runs")
	}
	if len(runs) > r {
		return Result{}, fmt.Errorf("timesim: %d runs exceed merge order %d", len(runs), r)
	}
	total := 0
	blocks := make([]int, len(runs))
	for h, run := range runs {
		blocks[h] = run.NumBlocks()
		if run.NumBlocks() == 0 {
			return Result{}, fmt.Errorf("timesim: empty run")
		}
		if run.D != d {
			return Result{}, fmt.Errorf("timesim: run striped over %d disks, want %d", run.D, d)
		}
		total += run.NumBlocks()
	}
	m := &timedMerger{
		d: d, r: r, p: p,
		runs:      runs,
		fds:       forecast.New(d, len(runs)),
		mem:       membuf.New[record.Rec16](r, d, blocks),
		leadIdx:   make([]int, len(runs)),
		leadLast:  make([]record.Key, len(runs)),
		need:      make([]int, len(runs)),
		stalled:   make([]bool, len(runs)),
		active:    iheap.New(len(runs)),
		stallHeap: iheap.New(len(runs)),
		ready:     make(map[[2]int]float64),
	}
	m.loadInitialBlocks()
	for m.exhausted < len(m.runs) {
		reads := m.pumpIO()
		events := m.step()
		if reads == 0 && events == 0 && m.exhausted < len(m.runs) {
			panic("timesim: schedule deadlock")
		}
	}
	// Remaining output stripes drain through the channel.
	m.drainWrites(true)
	m.res.CPUBusy = m.cpuDemand()
	m.res.IOBusy = float64(m.res.ReadOps+m.res.WriteOps) * p.OpSeconds
	m.res.CPUStall = m.stallTime
	m.res.Makespan = m.cpu
	if m.ioFree > m.res.Makespan {
		m.res.Makespan = m.ioFree
	}
	return m.res, nil
}

func (m *timedMerger) cpuDemand() float64 {
	// Keys are dense global positions across runs; the total record count
	// is the largest last key.
	var maxKey record.Key
	for _, run := range m.runs {
		if k := run.Last[run.NumBlocks()-1]; k > maxKey {
			maxKey = k
		}
	}
	return float64(maxKey) * m.p.CPUPerRecord
}

func (m *timedMerger) loadInitialBlocks() {
	perDisk := make([][]int, m.d)
	for h, run := range m.runs {
		perDisk[run.Disk(0)] = append(perDisk[run.Disk(0)], h)
		for t := 1; t <= m.d && t < run.NumBlocks(); t++ {
			m.fds.Set(run.Disk(t), h, t, run.First[t])
		}
	}
	for {
		did := false
		var fetched []int
		for disk := 0; disk < m.d; disk++ {
			if len(perDisk[disk]) == 0 {
				continue
			}
			fetched = append(fetched, perDisk[disk][0])
			perDisk[disk] = perDisk[disk][1:]
			did = true
		}
		if !did {
			break
		}
		complete := m.issueOp()
		m.res.ReadOps++
		for _, h := range fetched {
			run := m.runs[h]
			m.leadIdx[h] = 0
			m.leadLast[h] = run.Last[0]
			m.mem.LeadingAcquired()
			m.active.Push(h, uint64(run.Last[0]))
			// The merge cannot start before its leading blocks arrive.
			m.waitUntil(complete)
		}
	}
}

// issueOp reserves the I/O channel for one operation starting no earlier
// than now (reads are issued by the scheduler as soon as their
// precondition holds, i.e. at the current CPU time) and returns its
// completion time.
func (m *timedMerger) issueOp() float64 {
	if m.p.Overlap && m.p.QueueDepth > 0 {
		// Backpressure: with QueueDepth operations already queued, the
		// issuing flow blocks until the channel drains below the bound.
		if lag := m.ioFree - float64(m.p.QueueDepth)*m.p.OpSeconds; lag > m.cpu {
			m.waitUntil(lag)
		}
	}
	start := m.ioFree
	if m.cpu > start {
		start = m.cpu
	}
	m.ioFree = start + m.p.OpSeconds
	if !m.p.Overlap {
		// Serial mode: the CPU blocks for the whole operation.
		m.waitUntil(m.ioFree)
	}
	return m.ioFree
}

// waitUntil advances the CPU clock to t, accounting the wait as stall.
func (m *timedMerger) waitUntil(t float64) {
	if t > m.cpu {
		m.stallTime += t - m.cpu
		m.cpu = t
	}
}

func (m *timedMerger) pumpIO() int {
	reads := 0
	for m.fds.Len() > 0 && m.mem.Occupied() <= m.r+m.d {
		if occupied := m.mem.Occupied(); occupied > m.r {
			extra := occupied - m.r
			minS := m.smallestOnDisk()
			outRank := m.mem.CountLessBlock(minS.Key, minS.Run, minS.BlockIdx) + 1
			if outRank <= extra {
				victims := m.mem.FlushVictims(extra - outRank + 1)
				for _, v := range victims {
					m.fds.Set(m.runs[v.Run].Disk(v.Idx), v.Run, v.Idx, v.FirstKey())
					delete(m.ready, [2]int{v.Run, v.Idx})
				}
			}
		}
		m.parRead()
		reads++
	}
	// Output stripes owed so far also occupy the channel.
	m.drainWrites(false)
	return reads
}

func (m *timedMerger) smallestOnDisk() forecast.Entry {
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
		panic("timesim: smallestOnDisk with empty FDS")
	}
	return best
}

func (m *timedMerger) parRead() {
	complete := m.issueOp()
	m.res.ReadOps++
	for disk := 0; disk < m.d; disk++ {
		e, ok := m.fds.Smallest(disk)
		if !ok {
			continue
		}
		run := m.runs[e.Run]
		succKey := record.MaxKey
		if e.BlockIdx+m.d < run.NumBlocks() {
			succKey = run.First[e.BlockIdx+m.d]
		}
		m.fds.NoteRead(disk, e.Run, e.BlockIdx, succKey)
		m.ready[[2]int{e.Run, e.BlockIdx}] = complete
		if m.stalled[e.Run] && m.need[e.Run] == e.BlockIdx {
			m.waitUntil(complete)
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
}

// drainWrites issues write operations for completed output stripes (D
// blocks each; with final, the partial tail too).
func (m *timedMerger) drainWrites(final bool) {
	owe := m.outBlocks/m.d*m.d - m.written
	if final {
		owe = m.outBlocks - m.written
	}
	for owe > 0 {
		m.issueOp()
		m.res.WriteOps++
		n := m.d
		if n > owe {
			n = owe
		}
		m.written += n
		owe -= n
	}
}

func (m *timedMerger) step() int {
	if m.active.Len() == 0 {
		return 0
	}
	h, lastKey := m.active.Min()
	if m.stallHeap.Len() > 0 {
		if _, sKey := m.stallHeap.Min(); sKey < lastKey {
			return 0
		}
	}
	// The CPU merges up to this block's last record.
	m.advanceTo(record.Key(lastKey))
	m.active.Remove(h)
	m.mem.LeadingReleased()
	run := m.runs[h]
	next := m.leadIdx[h] + 1
	switch {
	case next >= run.NumBlocks():
		m.exhausted++
	case m.mem.Has(h, next):
		b := m.mem.Take(h, next)
		// The successor was prefetched; if its read is still in flight,
		// the CPU waits for the remainder — usually zero.
		if t, ok := m.ready[[2]int{h, next}]; ok {
			m.waitUntil(t)
			delete(m.ready, [2]int{h, next})
		}
		_ = b
		m.leadIdx[h] = next
		m.leadLast[h] = run.Last[next]
		m.mem.LeadingAcquired()
		m.active.Push(h, uint64(run.Last[next]))
	default:
		e, ok := m.fds.Peek(run.Disk(next), h)
		if !ok || e.BlockIdx != next {
			panic(fmt.Sprintf("timesim: stalled run %d needs block %d, FDS has %+v", h, next, e))
		}
		m.stalled[h] = true
		m.need[h] = next
		m.stallHeap.Push(h, uint64(e.Key))
	}
	return 1
}

// advanceTo moves the CPU clock forward by the processing time of the
// records between the last accounted merge position and key (keys are
// dense global positions) and accounts the output stripes produced.
func (m *timedMerger) advanceTo(key record.Key) {
	if key > m.pos {
		m.cpu += float64(key-m.pos) * m.p.CPUPerRecord
		m.pos = key
	}
	m.outBlocks = int(m.pos) / m.p.B
}
