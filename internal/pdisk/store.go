package pdisk

import (
	"fmt"
	"sync"

	"srmsort/internal/record"
)

// Store is the persistence backend beneath a System: a block container
// indexed by BlockAddr. The System is a thin coordinator — it owns
// statistics, address checking and the async worker pipeline — and
// delegates every byte of persistence to its Store, so the same merge
// algorithms run unchanged on process memory (MemStore), real files
// (FileStore) or a fault-injecting wrapper (FaultStore).
//
// Implementations must be safe for concurrent use (the System fans one
// operation's transfers out to per-disk goroutines) and must return errors
// — never panic — for missing blocks, so the simulator surfaces scheduling
// bugs as test failures on every backend alike.
type Store interface {
	// WriteBlock stores b at addr, overwriting any previous block. The
	// block is owned by the store after the call and is never copied in:
	// the System hands its callers' blocks straight through, and callers
	// never touch a block they have written (see System.WriteBlocks).
	WriteBlock(addr BlockAddr, b StoredBlock) error
	// ReadBlock returns the block at addr; reading an absent block is an
	// error.
	//
	// Ownership handoff: the returned block is the caller's to hold and
	// re-slice for as long as it likes, but its records and forecast must
	// be treated as immutable — the store may hand the same backing arrays
	// to other readers (MemStore returns its resident block without a
	// defensive copy; this is the merge kernel's zero-copy read path). No
	// merge-side consumer mutates blocks — they only advance slice heads —
	// and the `aliascheck` build tag arms a checksum guard in MemStore
	// that panics if any reader ever does.
	ReadBlock(addr BlockAddr) (StoredBlock, error)
	// Free releases the block at addr; freeing an absent block is an
	// error on every backend (double frees are scheduling bugs).
	Free(addr BlockAddr) error
	// Usage reports the store's current capacity accounting.
	Usage() Usage
	// Close releases all resources held by the store. Close is
	// idempotent.
	Close() error
}

// SerialStore is optionally implemented by backends whose per-block
// transfers are cheap memory operations serialized behind an internal lock
// anyway (MemStore): SerialTransfers reporting true tells the System to
// run one I/O operation's transfers inline rather than spawning a
// goroutine per disk, which for such a store costs far more than the
// transfers themselves. Backends with real per-block latency (FileStore)
// simply don't implement it and keep the concurrent fan-out.
type SerialStore interface {
	Store
	SerialTransfers() bool
}

// FrontierStore is optionally implemented by backends that can reopen
// pre-existing state (FileStore, MemStore, and the wrappers over them):
// Frontier reports the lowest block index strictly above every occupied
// slot on a disk. NewSystem seeds its per-disk bump allocator from it, so
// a System built over a reopened store never hands out an address that
// would clobber a recovered block. The error return exists because the
// allocator-seeding path is I/O on some backends (and fault-injectable on
// all of them): a failed Frontier aborts NewSystem rather than silently
// reusing addresses.
type FrontierStore interface {
	Store
	Frontier(disk int) (int, error)
}

// ManifestStore is optionally implemented by backends that can persist
// one small opaque manifest alongside the blocks — the checkpoint state
// of a multi-pass sort (see package srm). SaveManifest replaces the
// manifest atomically: after a crash, LoadManifest returns either the
// previous manifest or the new one, never a torn mix.
type ManifestStore interface {
	Store
	SaveManifest(data []byte) error
	// LoadManifest returns the manifest and whether one exists.
	LoadManifest() ([]byte, bool, error)
	ClearManifest() error
}

// BlockLister is optionally implemented by backends that can enumerate
// their resident blocks — what Scrub and orphan reclamation walk. The
// order is unspecified.
type BlockLister interface {
	Store
	Blocks() []BlockAddr
}

// Usage is a Store's capacity accounting: how many blocks are resident
// and how many bytes of backing storage they occupy. For MemStore, Bytes
// is the encoded size of the resident blocks; for FileStore it is the
// preallocated file space (slots are fixed-size, so Bytes >= the resident
// payload).
type Usage struct {
	Blocks int64
	Bytes  int64
}

// storedBytes is the encoded size of one block, the unit of MemStore's
// byte accounting and FileStore's data-slot sizing. Variable-length
// records add their Ext payload on top of the 16 prefix bytes. A Rec16
// block costs exactly what its widened twin would — the accounting is
// representation-independent.
func storedBytes(b StoredBlock) int64 {
	n := int64(b.NumRecords())*record.Bytes + int64(len(b.Forecast))*8
	for _, r := range b.Records {
		n += int64(len(r.Ext))
	}
	return n
}

// MemStore is the default Store: a per-disk slot table of blocks held in
// process memory. It is the store the experiments run on (the paper's own
// evaluation is likewise a simulation).
//
// System.Alloc hands out dense, monotonic indices per disk, so a block is
// found by position rather than by hashing: each disk is a slice of
// fixed-size pages of memPageSize slots, and block i lives in slot
// i%memPageSize of page i/memPageSize. A page is released once its last
// block is freed and reused for the next page needed on any disk, so the
// table follows the live blocks rather than every address ever written.
//
// Reads are zero-copy: ReadBlock returns the resident block itself under
// the Store ownership-handoff contract (readers never mutate). Build with
// -tags=aliascheck to arm a per-block checksum that catches violations.
type MemStore struct {
	mu       sync.RWMutex
	disks    [][]*memPage // per disk, page p holds indices [p*memPageSize, (p+1)*memPageSize); nil = no live block
	spare    []*memPage   // released pages, all slots empty, kept for reuse
	closed   bool
	blocks   int64
	bytes    int64
	manifest []byte // ManifestStore state; nil = no manifest
}

// memPageSize is the number of block slots in one MemStore page.
const memPageSize = 256

// memPage is one run of memPageSize consecutive block slots of a disk.
type memPage struct {
	slots [memPageSize]memSlot
	sums  []uint64 // aliascheck only: content checksum of each slot at write
	live  int      // occupied slots; the page is released when it reaches zero
}

// memSlot holds one block; ok distinguishes a resident empty block from
// an unused slot.
type memSlot struct {
	b  StoredBlock
	ok bool
}

// NewMemStore returns an empty in-memory block store.
func NewMemStore() *MemStore { return &MemStore{} }

// lookup returns the page and slot index holding addr, or a nil page when
// the address lies outside every allocated page (including negative or
// never-written disks and indices). The caller holds m.mu.
func (m *MemStore) lookup(addr BlockAddr) (*memPage, int) {
	if addr.Disk < 0 || addr.Disk >= len(m.disks) || addr.Index < 0 {
		return nil, 0
	}
	pages := m.disks[addr.Disk]
	if p := addr.Index / memPageSize; p < len(pages) {
		return pages[p], addr.Index % memPageSize
	}
	return nil, 0
}

// page returns the page holding addr, installing one (a spare if any)
// when there is none. The caller holds m.mu for writing and has checked
// that addr is non-negative.
func (m *MemStore) page(addr BlockAddr) *memPage {
	for addr.Disk >= len(m.disks) {
		m.disks = append(m.disks, nil)
	}
	pages := m.disks[addr.Disk]
	p := addr.Index / memPageSize
	for p >= len(pages) {
		pages = append(pages, nil)
	}
	m.disks[addr.Disk] = pages
	if pages[p] == nil {
		if n := len(m.spare); n > 0 {
			pages[p] = m.spare[n-1]
			m.spare[n-1] = nil
			m.spare = m.spare[:n-1]
		} else {
			pages[p] = &memPage{}
			if aliasCheck {
				pages[p].sums = make([]uint64, memPageSize)
			}
		}
	}
	return pages[p]
}

// WriteBlock implements Store.
func (m *MemStore) WriteBlock(addr BlockAddr, b StoredBlock) error {
	if addr.Disk < 0 || addr.Index < 0 {
		return fmt.Errorf("%w: write to invalid address %v", ErrInvalid, addr)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("%w: MemStore used after Close", ErrInvalid)
	}
	pg := m.page(addr)
	i := addr.Index % memPageSize
	s := &pg.slots[i]
	if s.ok {
		m.bytes -= storedBytes(s.b)
	} else {
		s.ok = true
		pg.live++
		m.blocks++
	}
	s.b = b
	m.bytes += storedBytes(b)
	if aliasCheck {
		pg.sums[i] = contentSum(b)
	}
	return nil
}

// ReadBlock implements Store. The returned block aliases the resident one
// — see the Store interface's ownership-handoff contract.
func (m *MemStore) ReadBlock(addr BlockAddr) (StoredBlock, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	pg, i := m.lookup(addr)
	if pg == nil || !pg.slots[i].ok {
		return StoredBlock{}, fmt.Errorf("%w: no block at %v", ErrAbsent, addr)
	}
	b := pg.slots[i].b
	if aliasCheck {
		verifySum(addr, b, pg.sums[i])
	}
	return b, nil
}

// Free implements Store. Freeing the last block of a page releases the
// page for reuse.
func (m *MemStore) Free(addr BlockAddr) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	pg, i := m.lookup(addr)
	if pg == nil || !pg.slots[i].ok {
		return fmt.Errorf("%w: free of absent block %v", ErrAbsent, addr)
	}
	if aliasCheck {
		verifySum(addr, pg.slots[i].b, pg.sums[i])
	}
	m.blocks--
	m.bytes -= storedBytes(pg.slots[i].b)
	pg.slots[i] = memSlot{}
	if pg.live--; pg.live == 0 {
		m.disks[addr.Disk][addr.Index/memPageSize] = nil
		m.spare = append(m.spare, pg)
	}
	return nil
}

// each calls fn for every resident block in (disk, index) order. The
// caller holds m.mu.
func (m *MemStore) each(fn func(addr BlockAddr, pg *memPage, i int)) {
	for disk, pages := range m.disks {
		for p, pg := range pages {
			if pg == nil {
				continue
			}
			for i := range pg.slots {
				if pg.slots[i].ok {
					fn(BlockAddr{Disk: disk, Index: p*memPageSize + i}, pg, i)
				}
			}
		}
	}
}

// verifySum panics if a resident block no longer matches the checksum
// recorded when it was written — i.e. some reader mutated a block it
// received through the zero-copy ReadBlock path. Compiled in only under
// -tags=aliascheck.
func verifySum(addr BlockAddr, b StoredBlock, want uint64) {
	if got := contentSum(b); got != want {
		panic(fmt.Sprintf(
			"pdisk: aliascheck: block %v mutated after write (sum %#x, recorded %#x) — a reader violated the ReadBlock ownership contract",
			addr, got, want))
	}
}

// contentSum is an order-dependent hash of a block's records and forecast
// keys (order-dependent so a reader that permutes records is caught too).
// A Rec16 block hashes identically to its widened twin, so the checksum
// is stable across representation conversions.
func contentSum(b StoredBlock) uint64 {
	const prime = 0x100000001b3
	sum := uint64(0xcbf29ce484222325)
	mix := func(v uint64) {
		sum ^= v
		sum *= prime
	}
	if b.Recs16 != nil {
		for _, r := range b.Recs16 {
			mix(uint64(r.Key))
			mix(r.Val)
		}
	} else {
		for _, r := range b.Records {
			mix(uint64(r.Key))
			mix(r.Val)
			for i := 0; i < len(r.Ext); i++ {
				mix(uint64(r.Ext[i]))
			}
		}
	}
	mix(0x9e3779b97f4a7c15) // separator: records vs forecast
	for _, k := range b.Forecast {
		mix(uint64(k))
	}
	return sum
}

// Usage implements Store.
func (m *MemStore) Usage() Usage {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return Usage{Blocks: m.blocks, Bytes: m.bytes}
}

// Close implements Store. Under -tags=aliascheck it gives every resident
// block a final mutation audit before the store is discarded.
func (m *MemStore) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if aliasCheck {
		m.each(func(addr BlockAddr, pg *memPage, i int) {
			verifySum(addr, pg.slots[i].b, pg.sums[i])
		})
	}
	m.disks = nil
	m.spare = nil
	m.closed = true
	m.manifest = nil
	m.blocks, m.bytes = 0, 0
	return nil
}

// SerialTransfers implements SerialStore: every MemStore operation is a
// slot access behind m.mu, so fanning transfers out to goroutines only
// adds scheduling cost.
func (m *MemStore) SerialTransfers() bool { return true }

// Frontier implements FrontierStore: the lowest index strictly above
// every resident block of disk. A fresh System built over a still-live
// MemStore (the chaos harness's in-memory "reopen" after a simulated
// kill) allocates past the surviving blocks instead of clobbering them.
func (m *MemStore) Frontier(disk int) (int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if disk < 0 || disk >= len(m.disks) {
		return 0, nil
	}
	pages := m.disks[disk]
	for p := len(pages) - 1; p >= 0; p-- {
		if pg := pages[p]; pg != nil {
			for i := memPageSize - 1; i >= 0; i-- {
				if pg.slots[i].ok {
					return p*memPageSize + i + 1, nil
				}
			}
		}
	}
	return 0, nil
}

// SaveManifest implements ManifestStore, holding the manifest in memory
// alongside the blocks.
func (m *MemStore) SaveManifest(data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("%w: MemStore used after Close", ErrInvalid)
	}
	m.manifest = append([]byte(nil), data...)
	return nil
}

// LoadManifest implements ManifestStore.
func (m *MemStore) LoadManifest() ([]byte, bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.manifest == nil {
		return nil, false, nil
	}
	return append([]byte(nil), m.manifest...), true, nil
}

// ClearManifest implements ManifestStore.
func (m *MemStore) ClearManifest() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.manifest = nil
	return nil
}

// Blocks implements BlockLister.
func (m *MemStore) Blocks() []BlockAddr {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]BlockAddr, 0, m.blocks)
	m.each(func(addr BlockAddr, _ *memPage, _ int) {
		out = append(out, addr)
	})
	return out
}
