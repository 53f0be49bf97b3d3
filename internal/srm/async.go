// Overlapped (asynchronous) SRM merging — the paper's two concurrent
// control flows made real.
//
// Section 5 presents SRM as an I/O scheduler and an internal merge running
// concurrently: ParReads are issued as soon as the schedule allows, long
// before their blocks participate, so device latency hides behind merging
// (Lemma 1's "genuine prefetching ability"). The synchronous schedule
// collapses the two flows into one — every ReadBlocks blocks the merge for
// the full device latency. MergeOpts.Async keeps them separate: while a
// forecast-directed ParRead is in flight, the merge keeps consuming
// records, and the output writer flushes completed stripes behind the
// merge's back (runio.NewWriterAsync, the M_W double buffer). Both modes
// run the one merge loop of Merge; only pumpIO's issue/wait of a read and
// loadInitialBlocks' issue/wait of the Step 1 batches differ.
//
// # Equivalence to the synchronous schedule
//
// The overlapped merge makes exactly the decisions the synchronous one
// makes, in the same order, from the same states — it differs only in
// what the CPU does while a read is physically in flight. The argument:
//
//  1. Every schedule decision (issue a ParRead? flush how much? which
//     blocks?) reads only the FDS, |F_t| (membuf occupancy), and the
//     flush-rank tree. Record consumption between a read's issue and its
//     landing mutates none of these: it only shortens leading blocks and,
//     at most once, notes a depletion whose Exchange is deferred.
//  2. The overlapped consumption stops at exactly the records the merge
//     may emit regardless of the in-flight read: records that precede
//     every stalled run's awaited record in (key, run) order (the stall
//     guard the sync consumer also obeys; see consume for why its
//     inclusive bound never admits a record a landing could reorder)
//     and at most up to the first leading-block depletion. The
//     depletion's block event — promotion, stall, or exhaustion, the only
//     consumption effect that changes |F_t| — is processed after the read
//     lands, exactly where the sync path processes it.
//  3. Landing a read applies the identical landing code (landParRead) as
//     the sync path, so FDS updates, promotions and insertions coincide.
//
// Consequently the sequence of ParReads, flushes and block events is
// identical in both modes, and so are MergeStats (ReadOps, WriteOps, Flushes,
// BlocksFlushed, BlocksReread, MaxPrefetched) and the output run — byte
// for byte, under any worker interleaving. The equivalence test suite
// (async_test.go, ../../async_equiv_test.go) enforces this.
//
// Tracing is a sync-path diagnostic; an async Merge accepts no sink.
package srm

// consumeOverlapped consumes records while a ParRead is in flight. It
// stops at the first leading-block depletion (noting it in pendingRun;
// the Exchange is deferred until after the landing, keeping |F_t| and the
// stall set exactly as the sync schedule sees them), or when the stall
// guard stops it. It is the sync consumer's emission loop (consume) with
// the same stall guard.
//
// The in-flight read may promote a stalled run, so a record this window
// emits must precede every awaited record in (key, run) order, or the
// landing could reorder it. For fixed-size records the inclusive guard
// never admits one that does not: a pump that reads with a run stalled
// starts at |F_t| = R+D, where some prefetched block precedes every
// awaited block (DESIGN §6.2), so the active minimum stays strictly
// ahead of the stall minimum until the window ends at its first
// depletion — and the pump's later reads open no window. Varlen prefix
// ties always wait. Stopping early would be safe anyway — deferred
// records are consumed by consumeUntilBlockEvent at exactly the state
// the sync consumer sees.
func (m *merger[R]) consumeOverlapped() (int, error) {
	consumed, h, err := m.consume()
	if h >= 0 {
		// Note the depletion, but do not process the Exchange —
		// scheduler-visible state must not change while the read is in
		// flight.
		m.pendingRun = h
	}
	return consumed, err
}
