// Package pdisk implements the Vitter–Shriver D-disk parallel I/O model that
// both SRM and DSM run on.
//
// Secondary storage is D independent disks holding blocks of B records. One
// I/O operation transfers at most one block to or from each of the D disks
// simultaneously; the System enforces this invariant and counts every
// operation, which is exactly the cost unit of the paper's Theorem 1 and
// Tables 1-4.
//
// The System itself is a thin coordinator: it owns statistics, address
// checking, block allocation and the async worker pipeline, and delegates
// all persistence to a pluggable Store backend — in-memory (MemStore, the
// default) for experiments, file-backed (FileStore) to sort real bytes on
// real storage, or fault-injecting (FaultStore) to drive error paths. The
// algorithms above are backend-blind: the same sort produces byte-identical
// output and identical Stats on every backend. An optional
// Ruemmler–Wilkes-style TimeModel converts operation counts into estimated
// wall-clock time.
package pdisk

import (
	"errors"
	"fmt"
	"sync"

	"srmsort/internal/record"
)

// BlockAddr names one block slot: a disk number in [0, D) and a
// nonnegative block index on that disk.
type BlockAddr struct {
	Disk  int
	Index int
}

func (a BlockAddr) String() string { return fmt.Sprintf("d%d:%d", a.Disk, a.Index) }

// StoredBlock is the unit of transfer: up to B records plus the implanted
// forecasting keys of the paper's Section 4 (D keys in a run's block 0, one
// key in every later block, none in blocks written without forecasting,
// e.g. by DSM).
//
// A block carries its records in exactly one of two representations —
// the two widths of the kernel (see record.KernelRecord). Recs16 is the
// 16-byte pointer-free layout of the fixed16 sort path; Records is the
// wide layout that carries varlen payloads. At most one of the two is
// non-nil. Stores are representation-blind: they persist whichever side
// is populated (FileStore's fixed16 codec round-trips Recs16 without
// widening; MemStore holds blocks as written), and readers pick their
// width back out with RecsOf.
type StoredBlock struct {
	Records  record.Block
	Recs16   []record.Rec16
	Forecast []record.Key
}

// NumRecords returns the record count of whichever representation the
// block carries.
func (b StoredBlock) NumRecords() int {
	if b.Recs16 != nil {
		return len(b.Recs16)
	}
	return len(b.Records)
}

// Wide returns the block's records in the wide layout, converting a
// pointer-free block on the fly. Legacy readers (tests, scrub paths)
// that only inspect content use it; kernel loops use RecsOf to stay at
// their own width.
func (b StoredBlock) Wide() record.Block {
	if b.Recs16 != nil {
		return record.ToWide(b.Recs16)
	}
	return b.Records
}

// Clone returns a deep copy, for a caller that wants to keep using a block
// after handing it to WriteBlocks (which takes ownership without copying).
// The representation is preserved.
func (b StoredBlock) Clone() StoredBlock {
	var c StoredBlock
	if b.Recs16 != nil {
		c.Recs16 = append([]record.Rec16(nil), b.Recs16...)
	} else {
		c.Records = b.Records.Clone()
	}
	if b.Forecast != nil {
		c.Forecast = append([]record.Key(nil), b.Forecast...)
	}
	return c
}

// RecsOf returns a block's records at the kernel width R. When the
// resident representation already is R the slice is returned as-is
// (zero-copy — the MemStore read path); on a mismatch it converts, so a
// reader is always correct even over a store holding the other width
// (e.g. a wide-kernel read of a block a fixed16 FileStore decoded into
// Recs16). Narrowing drops Ext, which is legal only on fixed16 data —
// the codec agreement check at sort ingest guarantees that.
func RecsOf[R record.KernelRecord](b StoredBlock) []R {
	switch any([]R(nil)).(type) {
	case []record.Rec16:
		if b.Recs16 != nil {
			return any(b.Recs16).([]R)
		}
		return any(record.ToRec16(b.Records)).([]R)
	case []record.Record:
		if b.Recs16 != nil {
			return any(record.ToWide(b.Recs16)).([]R)
		}
		return any([]record.Record(b.Records)).([]R)
	default:
		panic("pdisk: RecsOf at an unknown kernel width")
	}
}

// MakeStored builds a StoredBlock holding rs in its own representation
// (no conversion, no copy) with the given forecast keys.
func MakeStored[R record.KernelRecord](rs []R, forecast []record.Key) StoredBlock {
	b := StoredBlock{Forecast: forecast}
	switch v := any(rs).(type) {
	case []record.Rec16:
		b.Recs16 = v
	case []record.Record:
		b.Records = record.Block(v)
	default:
		panic("pdisk: MakeStored at an unknown kernel width")
	}
	return b
}

// System is a D-disk parallel I/O system with block size B records.
//
// A System is safe for concurrent use: operations are serialised by an
// internal mutex (two merges sharing the disks interleave their operations,
// as they would on real hardware), while within one operation the D
// per-disk transfers run on their own goroutines — the disks really are
// independent.
type System struct {
	mu     sync.Mutex
	d, b   int
	store  Store
	serial bool // store declared its transfers cheap: run them inline, not fanned out
	retain bool // Close stops workers but leaves the store open
	gate   *DiskGate
	model  *TimeModel
	stats  Stats
	next   []int // per-disk bump allocator for fresh block indexes

	// Async I/O layer (see async.go): per-disk worker goroutines fed by
	// bounded queues, started lazily on the first ReadBlocksAsync /
	// WriteBlocksAsync call and stopped by Close.
	asyncMu     sync.Mutex
	issueMu     sync.RWMutex // held (shared) across enqueue, (exclusive) by shutdown
	queues      []chan diskReq
	asyncWG     sync.WaitGroup
	asyncClosed bool
	queueDepth  int

	closeOnce sync.Once
	closeErr  error
}

// Config describes a System.
type Config struct {
	D int // number of disks, >= 1
	B int // block size in records, >= 1
	// Store backs the disks; nil means a fresh MemStore.
	Store Store
	// Model, if non-nil, accumulates estimated I/O time in Stats.SimTime.
	Model *TimeModel
	// AsyncQueueDepth bounds the in-flight requests per disk of the async
	// I/O layer; 0 means DefaultAsyncQueueDepth. Issuing past the bound
	// blocks until the disk's worker drains (backpressure).
	AsyncQueueDepth int
	// RetainStore leaves the store open when the System closes: Close
	// still stops the async workers but does not close the backend. Set
	// when the store's lifetime is owned by the caller — e.g. a sort
	// resuming over a store that must survive the System.
	RetainStore bool
	// Gate, if non-nil, throttles every block transfer through a shared
	// per-disk semaphore, so several Systems (concurrent sort jobs)
	// fair-share the bandwidth of one set of physical disks. The gate
	// must cover at least D disks.
	Gate *DiskGate
}

// NewSystem constructs a System, validating the configuration.
func NewSystem(cfg Config) (*System, error) {
	if cfg.D < 1 {
		return nil, fmt.Errorf("pdisk: D = %d, need >= 1", cfg.D)
	}
	if cfg.B < 1 {
		return nil, fmt.Errorf("pdisk: B = %d, need >= 1", cfg.B)
	}
	st := cfg.Store
	if st == nil {
		st = NewMemStore()
	}
	next := make([]int, cfg.D)
	if fs, ok := st.(FrontierStore); ok {
		// A reopened backend may already hold blocks; allocate past them.
		// A failed Frontier aborts construction: allocating blind over
		// recovered state could clobber surviving blocks.
		for i := range next {
			frontier, err := fs.Frontier(i)
			if err != nil {
				return nil, fmt.Errorf("pdisk: frontier of disk %d: %w", i, err)
			}
			next[i] = frontier
		}
	}
	serial := false
	if ss, ok := st.(SerialStore); ok {
		serial = ss.SerialTransfers()
	}
	if cfg.Gate != nil && cfg.Gate.D() < cfg.D {
		return nil, fmt.Errorf("pdisk: gate covers %d disks, system has D=%d", cfg.Gate.D(), cfg.D)
	}
	return &System{
		d:      cfg.D,
		b:      cfg.B,
		store:  st,
		serial: serial,
		retain: cfg.RetainStore,
		gate:   cfg.Gate,
		model:  cfg.Model,
		stats: Stats{
			PerDiskReads:  make([]int64, cfg.D),
			PerDiskWrites: make([]int64, cfg.D),
		},
		next:       next,
		queueDepth: cfg.AsyncQueueDepth,
	}, nil
}

// D returns the number of disks.
func (s *System) D() int { return s.d }

// B returns the block size in records.
func (s *System) B() int { return s.b }

// Stats returns a snapshot of the accumulated I/O statistics. When the
// store stack includes a RetryStore, its retry accounting (attempts,
// retries, give-ups) is folded in.
func (s *System) Stats() Stats {
	s.mu.Lock()
	out := s.stats
	out.PerDiskReads = append([]int64(nil), s.stats.PerDiskReads...)
	out.PerDiskWrites = append([]int64(nil), s.stats.PerDiskWrites...)
	store := s.store
	s.mu.Unlock()
	if rs, ok := store.(interface{ Counts() RetryCounts }); ok {
		rc := rs.Counts()
		out.Retries = rc.Retries
		out.RetryGiveUps = rc.GiveUps
	}
	if hr, ok := store.(HealthReporter); ok {
		// Nil when no DeadlineStore is in the stack (RetryStore forwards
		// the nil), keeping deadline-free Stats comparable.
		out.Health = hr.HealthSnapshot()
	}
	return out
}

// ResetStats zeroes the counters (the allocator and store are untouched).
func (s *System) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = Stats{
		PerDiskReads:  make([]int64, s.d),
		PerDiskWrites: make([]int64, s.d),
	}
}

// Store returns the system's backing store — what checkpoint and scrub
// code reaches through for the optional ManifestStore/BlockLister
// capabilities of the stack.
func (s *System) Store() Store { return s.store }

// StoreUsage returns the backend's current capacity accounting.
func (s *System) StoreUsage() Usage {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.Usage()
}

// Alloc returns a fresh, never-before-used block index on disk.
func (s *System) Alloc(disk int) BlockAddr {
	if disk < 0 || disk >= s.d {
		panic(fmt.Sprintf("pdisk: Alloc on disk %d of %d", disk, s.d))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := s.next[disk]
	s.next[disk]++
	return BlockAddr{Disk: disk, Index: idx}
}

// BlockWrite pairs a destination address with the block to store there.
type BlockWrite struct {
	Addr  BlockAddr
	Block StoredBlock
}

// ErrDiskConflict is returned when one parallel operation addresses the same
// disk twice — the fundamental rule of the D-disk model.
var ErrDiskConflict = errors.New("pdisk: more than one block on the same disk in a single I/O operation")

func (s *System) checkAddrs(addrs []BlockAddr) error {
	if len(addrs) == 0 {
		return errors.New("pdisk: empty I/O operation")
	}
	if len(addrs) > s.d {
		return fmt.Errorf("pdisk: %d blocks in one operation with D=%d disks", len(addrs), s.d)
	}
	seen := make([]bool, s.d)
	for _, a := range addrs {
		if a.Disk < 0 || a.Disk >= s.d {
			return fmt.Errorf("pdisk: address %v out of range (D=%d)", a, s.d)
		}
		if a.Index < 0 {
			return fmt.Errorf("pdisk: negative block index %v", a)
		}
		if seen[a.Disk] {
			return fmt.Errorf("%w (disk %d)", ErrDiskConflict, a.Disk)
		}
		seen[a.Disk] = true
	}
	return nil
}

// checkWrites validates a write operation's addresses and block sizes,
// returning the address list.
func (s *System) checkWrites(writes []BlockWrite) ([]BlockAddr, error) {
	addrs := make([]BlockAddr, len(writes))
	for i, w := range writes {
		addrs[i] = w.Addr
	}
	if err := s.checkAddrs(addrs); err != nil {
		return nil, err
	}
	for _, w := range writes {
		if n := w.Block.NumRecords(); n > s.b {
			return nil, fmt.Errorf("pdisk: block of %d records exceeds B=%d at %v",
				n, s.b, w.Addr)
		}
	}
	return addrs, nil
}

// fanout runs one operation's n per-disk transfers and returns the first
// failure in request order. Transfers normally run concurrently — one
// goroutine each, the disks really are independent — but when the store
// declared itself serial (SerialStore) or the operation touches a single
// disk, they run inline: for a store whose transfers are memory operations
// behind an internal lock, a goroutine per block costs far more than the
// transfer itself. Every transfer runs either way, so the two modes are
// observably identical apart from scheduling.
func (s *System) fanout(n int, transfer func(i int) error) error {
	if s.serial || n == 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := transfer(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = transfer(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ReadBlocks performs one parallel read operation fetching every addressed
// block (at most one per disk) and returns them in request order. The
// per-disk transfers run concurrently, one goroutine per disk involved.
func (s *System) ReadBlocks(addrs []BlockAddr) ([]StoredBlock, error) {
	if err := s.checkAddrs(addrs); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]StoredBlock, len(addrs))
	err := s.fanout(len(addrs), func(i int) error {
		s.gate.enter(addrs[i].Disk)
		defer s.gate.exit(addrs[i].Disk)
		blk, err := s.store.ReadBlock(addrs[i])
		if err != nil {
			return &IOError{Op: "read", Addr: addrs[i], Err: err}
		}
		out[i] = blk
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.accountReadLocked(addrs)
	return out, nil
}

// WriteBlocks performs one parallel write operation storing every block (at
// most one per disk). Records in each block must be at most B and sorted.
//
// Ownership handoff, the write-side twin of Store.ReadBlock's: the store
// owns each block from the call on, without a copy. The caller must never
// touch the block's records or forecast again — every writer (run
// writers, loaders, DSM, PSV) hands over freshly built blocks. The
// `aliascheck` build tag catches a caller that breaks this.
func (s *System) WriteBlocks(writes []BlockWrite) error {
	addrs, err := s.checkWrites(writes)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	err = s.fanout(len(writes), func(i int) error {
		s.gate.enter(writes[i].Addr.Disk)
		defer s.gate.exit(writes[i].Addr.Disk)
		if err := s.store.WriteBlock(writes[i].Addr, writes[i].Block); err != nil {
			return &IOError{Op: "write", Addr: writes[i].Addr, Err: err}
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.accountWriteLocked(addrs)
	return nil
}

// FreeBlock releases a block's storage without performing (or counting) any
// I/O: space reclamation is bookkeeping, not data transfer.
func (s *System) FreeBlock(addr BlockAddr) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.store.Free(addr); err != nil {
		return &IOError{Op: "free", Addr: addr, Err: err}
	}
	return nil
}

// accountReadLocked counts one completed parallel read operation; the
// caller holds s.mu.
func (s *System) accountReadLocked(addrs []BlockAddr) {
	for _, a := range addrs {
		s.stats.PerDiskReads[a.Disk]++
	}
	s.stats.ReadOps++
	s.stats.BlocksRead += int64(len(addrs))
	if s.model != nil {
		s.stats.SimTime += s.model.OpSeconds(s.b)
	}
}

// accountWriteLocked counts one completed parallel write operation; the
// caller holds s.mu.
func (s *System) accountWriteLocked(addrs []BlockAddr) {
	for _, a := range addrs {
		s.stats.PerDiskWrites[a.Disk]++
	}
	s.stats.WriteOps++
	s.stats.BlocksWritten += int64(len(addrs))
	if s.model != nil {
		s.stats.SimTime += s.model.OpSeconds(s.b)
	}
}

// Close stops the async disk workers — draining every in-flight request —
// and then closes the underlying store (unless Config.RetainStore left
// its lifetime with the caller). Close is idempotent and safe to call
// concurrently with in-flight async operations: requests already issued
// complete (their Waits return normally), later issues return ErrClosed,
// and the backend is closed only after the workers have stopped.
func (s *System) Close() error {
	s.closeOnce.Do(func() {
		s.stopWorkers()
		if !s.retain {
			s.closeErr = s.store.Close()
		}
	})
	return s.closeErr
}
