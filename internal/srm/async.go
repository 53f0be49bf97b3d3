// Overlapped (asynchronous) SRM merging — the paper's two concurrent
// control flows made real.
//
// Section 5 presents SRM as an I/O scheduler and an internal merge running
// concurrently: ParReads are issued as soon as the schedule allows, long
// before their blocks participate, so device latency hides behind merging
// (Lemma 1's "genuine prefetching ability"). The synchronous Merge
// collapses the two flows into one — every ReadBlocks blocks the merge for
// the full device latency. MergeAsync keeps them separate: while a
// forecast-directed ParRead is in flight, the merge keeps consuming
// records, and the output writer flushes completed stripes behind the
// merge's back (runio.NewWriterAsync, the M_W double buffer).
//
// # Equivalence to the synchronous path
//
// MergeAsync makes exactly the decisions Merge makes, in the same order,
// from the same states — it differs only in what the CPU does while a read
// is physically in flight. The argument:
//
//  1. Every schedule decision (issue a ParRead? flush how much? which
//     blocks?) reads only the FDS, |F_t| (membuf occupancy), and the
//     flush-rank tree. Record consumption between a read's issue and its
//     landing mutates none of these: it only shortens leading blocks and,
//     at most once, notes a depletion whose Exchange is deferred.
//  2. The overlapped consumption stops at exactly the records the merge
//     may emit regardless of the in-flight read: strictly below every
//     stalled run's awaited key (the stall guard the sync consumer also
//     obeys) and at most up to the first leading-block depletion. The
//     depletion's block event — promotion, stall, or exhaustion, the only
//     consumption effect that changes |F_t| — is processed after the read
//     lands, exactly where the sync path processes it.
//  3. Landing a read applies the identical landing code (landParRead) as
//     the sync path, so FDS updates, promotions and insertions coincide.
//
// Consequently the sequence of ParReads, flushes and block events is
// identical to Merge's, and so are MergeStats (ReadOps, WriteOps, Flushes,
// BlocksFlushed, BlocksReread, MaxPrefetched) and the output run — byte
// for byte, under any worker interleaving. The equivalence test suite
// (async_test.go, ../../async_equiv_test.go) enforces this.
//
// Tracing is a sync-path diagnostic; MergeAsync accepts no sink.
package srm

import (
	"fmt"

	"srmsort/internal/pdisk"
	"srmsort/internal/record"
	"srmsort/internal/runio"
	"srmsort/internal/trace"
)

// asyncMerger extends the shared merge state with the overlap bookkeeping.
type asyncMerger[R record.KernelRecord] struct {
	*merger[R]
	// pendingRun is the run whose leading block was depleted by overlapped
	// consumption but whose block event has not yet been processed; -1 when
	// none. At most one depletion can be pending (consumption stops there).
	pendingRun int
}

// MergeAsync merges the given runs exactly like Merge, but overlaps I/O
// with internal merging: each ParRead is issued asynchronously and the
// merge consumes records while it is in flight, and output stripes are
// written behind the merge (write-behind M_W). Output and statistics are
// identical to Merge's.
func MergeAsync[R record.KernelRecord](sys *pdisk.System, runs []*runio.Run, r, outID, outStartDisk int) (*runio.Run, MergeStats, error) {
	base, err := newMerger(sys, runs, r, runio.NewWriterAsync[R](sys, outID, outStartDisk), nil)
	if err != nil {
		return nil, MergeStats{}, err
	}
	m := &asyncMerger[R]{merger: base, pendingRun: -1}
	if err := m.loadInitialBlocksAsync(); err != nil {
		return nil, MergeStats{}, err
	}
	for m.exhausted < len(m.runs) {
		progress, err := m.pumpIOOverlapped()
		if err != nil {
			return nil, MergeStats{}, err
		}
		if m.pendingRun >= 0 {
			// The block event noted during overlap is processed here — the
			// exact point the sync loop processes it (after the pump).
			h := m.pendingRun
			m.pendingRun = -1
			m.blockEvent(h)
			progress++
		} else {
			consumed, err := m.consumeUntilBlockEvent()
			if err != nil {
				return nil, MergeStats{}, err
			}
			progress += consumed
		}
		if progress == 0 && m.exhausted < len(m.runs) {
			if m.forceRoom() {
				continue
			}
			panic(fmt.Sprintf(
				"srm: async schedule deadlock (Lemma 1 violated): |F|=%d R=%d D=%d active=%d fds=%d",
				m.mem.Occupied(), m.r, m.d, m.active.Len(), m.fds.Len()))
		}
	}
	return m.finish()
}

// loadInitialBlocksAsync is Step 1 with all initial read operations in
// flight at once: the batches are fixed by the run layout (no decision
// depends on their contents), so every operation can be issued before the
// first is awaited. Batch composition, order and operation count are
// identical to the synchronous loader's.
func (m *asyncMerger[R]) loadInitialBlocksAsync() error {
	pending := make([][]int, m.d) // per disk: run handles whose block 0 lives there
	for h, run := range m.runs {
		pending[run.Disk(0)] = append(pending[run.Disk(0)], h)
	}
	type batch struct {
		fut     *pdisk.ReadFuture
		handles []int
	}
	var batches []batch
	for {
		var addrs []pdisk.BlockAddr
		var handles []int
		for disk := 0; disk < m.d; disk++ {
			if len(pending[disk]) == 0 {
				continue
			}
			h := pending[disk][0]
			pending[disk] = pending[disk][1:]
			addrs = append(addrs, m.runs[h].Addr(0))
			handles = append(handles, h)
		}
		if len(addrs) == 0 {
			break
		}
		batches = append(batches, batch{fut: m.sys.ReadBlocksAsync(addrs), handles: handles})
	}
	var firstErr error
	for _, b := range batches {
		blocks, err := b.fut.Wait()
		if err != nil {
			// Keep waiting the remaining futures so every issued request
			// is collected before we unwind.
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if firstErr != nil {
			continue
		}
		m.stats.InitialReads++
		m.stats.ReadOps++
		m.seedFromLeadingBlocks(b.handles, blocks)
	}
	return firstErr
}

// seedFromLeadingBlocks registers one landed batch of block-0 reads: FDS
// seeding from the implanted keys and promotion into M_L. Identical to the
// per-batch body of the synchronous loadInitialBlocks.
func (m *merger[R]) seedFromLeadingBlocks(handles []int, blocks []pdisk.StoredBlock) {
	recs := make([][]R, len(blocks))
	for i, blk := range blocks {
		recs[i] = pdisk.RecsOf[R](blk)
	}
	for _, rs := range recs {
		if len(rs) > 0 && rs[0].X() != "" {
			m.setVarlen()
			break
		}
	}
	for i, blk := range blocks {
		h := handles[i]
		if len(blk.Forecast) != m.d {
			panic(fmt.Sprintf("srm: block 0 of run %d carries %d forecast keys, want D=%d",
				m.runs[h].ID, len(blk.Forecast), m.d))
		}
		for t := 1; t <= m.d; t++ {
			if key := blk.Forecast[t-1]; key != record.MaxKey {
				m.fds.Set(m.runs[h].Disk(t), h, t, key)
			}
		}
		m.lead[h] = recs[i]
		m.leadIdx[h] = 0
		m.mem.LeadingAcquired()
		m.pushHead(h)
		m.emit(trace.EventPromote, 0, m.ref(h, 0, record.FirstKeyOf(recs[i])))
	}
}

// pumpIOOverlapped is pumpIO with each ParRead's latency hidden behind
// consumption: the read is issued, the merge consumes what it safely can,
// and only then is the read awaited and landed. Guard conditions and
// flush decisions are evaluated on exactly the states the sync pump sees.
// It returns the number of reads issued plus records consumed.
func (m *asyncMerger[R]) pumpIOOverlapped() (int, error) {
	progress := 0
	for m.fds.Len() > 0 && m.mem.Occupied() <= m.r+m.d {
		m.maybeFlush()
		addrs, entries := m.chooseParRead()
		fut := m.sys.ReadBlocksAsync(addrs)
		if m.pendingRun < 0 {
			// Overlap window: merge records that are safe to emit without
			// the in-flight blocks.
			consumed, err := m.consumeOverlapped()
			if err != nil {
				fut.Wait() // collect the issued requests before unwinding
				return progress, err
			}
			progress += consumed
		}
		blocks, err := fut.Wait()
		if err != nil {
			return progress, err
		}
		m.landParRead(blocks, addrs, entries)
		progress++
	}
	return progress, nil
}

// consumeOverlapped consumes records while a ParRead is in flight. It
// stops at the first leading-block depletion (noting it in pendingRun;
// the Exchange is deferred until after the landing, keeping |F_t| and the
// stall set exactly as the sync schedule sees them), or when a stalled
// run's awaited key does not strictly exceed the active minimum, or when
// M_L is empty. It shares the sync consumer's emission loop (consume).
//
// The stall guard here is deliberately stricter than the sync consumer's
// (<= instead of <, and the gallop's stall bound is correspondingly
// exclusive): the in-flight read may be about to promote a stalled run,
// and with duplicate keys the sync path's tie-break could order that run's
// equal-keyed record first. Stopping on equality defers the decision to
// post-landing code, where both paths see the same selector state.
// Stopping early never breaks equivalence — the deferred records are
// consumed by consumeUntilBlockEvent at exactly the state the sync
// consumer sees.
func (m *asyncMerger[R]) consumeOverlapped() (int, error) {
	consumed, h, err := m.consume(false)
	if h >= 0 {
		// Note the depletion, but do not process the Exchange —
		// scheduler-visible state must not change while the read is in
		// flight.
		m.pendingRun = h
	}
	return consumed, err
}
