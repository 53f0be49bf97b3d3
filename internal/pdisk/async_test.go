package pdisk

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"srmsort/internal/record"
)

func mkBlock(keys ...record.Key) StoredBlock {
	b := StoredBlock{}
	for _, k := range keys {
		b.Records = append(b.Records, record.Record{Key: k, Val: uint64(k) * 7})
	}
	return b
}

// waitGoroutines retries until the goroutine count drops back to at most
// base, tolerating the runtime's own lazily-exiting goroutines.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, want <= %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Async writes followed by async reads must round-trip the data and count
// exactly the same Stats as the synchronous path would.
func TestAsyncReadWriteRoundTrip(t *testing.T) {
	const d = 4
	sys, err := NewSystem(Config{D: d, B: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	var writes []BlockWrite
	var addrs []BlockAddr
	for disk := 0; disk < d; disk++ {
		a := sys.Alloc(disk)
		writes = append(writes, BlockWrite{Addr: a, Block: mkBlock(record.Key(10 + disk))})
		addrs = append(addrs, a)
	}
	if err := sys.WriteBlocksAsync(writes).Wait(); err != nil {
		t.Fatal(err)
	}
	blocks, err := sys.ReadBlocksAsync(addrs).Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, blk := range blocks {
		if got := blk.Records.FirstKey(); got != record.Key(10+i) {
			t.Fatalf("block %d: first key %d, want %d", i, got, 10+i)
		}
	}

	st := sys.Stats()
	if st.ReadOps != 1 || st.WriteOps != 1 || st.BlocksRead != d || st.BlocksWritten != d {
		t.Fatalf("stats %+v, want 1 read op, 1 write op, %d blocks each way", st, d)
	}
	for disk := 0; disk < d; disk++ {
		if st.PerDiskReads[disk] != 1 || st.PerDiskWrites[disk] != 1 {
			t.Fatalf("disk %d traffic %d/%d, want 1/1", disk, st.PerDiskReads[disk], st.PerDiskWrites[disk])
		}
	}
}

// WriteBlocksAsync takes ownership of the issued blocks without a copy,
// exactly like WriteBlocks: the store ends up holding the caller's own
// record array, so a write-behind writer must build its next stripe in
// fresh buffers.
func TestAsyncWriteOwnershipHandoff(t *testing.T) {
	sys, err := NewSystem(Config{D: 1, B: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	blk := mkBlock(1, 2)
	a := sys.Alloc(0)
	if err := sys.WriteBlocksAsync([]BlockWrite{{Addr: a, Block: blk}}).Wait(); err != nil {
		t.Fatal(err)
	}
	got, err := sys.ReadBlocks([]BlockAddr{a})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Records.FirstKey() != 1 {
		t.Fatalf("stored key %d, want 1", got[0].Records.FirstKey())
	}
	if &got[0].Records[0] != &blk.Records[0] {
		t.Fatal("WriteBlocksAsync copied the block: expected an ownership handoff")
	}
}

// Validation failures (disk conflicts, oversize blocks, bad addresses)
// surface at Wait, never as panics, and count nothing.
func TestAsyncValidationErrors(t *testing.T) {
	sys, err := NewSystem(Config{D: 2, B: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	// Two blocks on the same disk in one operation.
	conflict := []BlockAddr{{Disk: 0, Index: 0}, {Disk: 0, Index: 1}}
	if _, err := sys.ReadBlocksAsync(conflict).Wait(); !errors.Is(err, ErrDiskConflict) {
		t.Fatalf("conflict read: %v, want ErrDiskConflict", err)
	}
	// Oversize block.
	big := BlockWrite{Addr: BlockAddr{Disk: 0, Index: 0}, Block: mkBlock(1, 2, 3)}
	if err := sys.WriteBlocksAsync([]BlockWrite{big}).Wait(); err == nil {
		t.Fatal("oversize async write accepted")
	}
	// Missing block.
	if _, err := sys.ReadBlocksAsync([]BlockAddr{{Disk: 1, Index: 42}}).Wait(); err == nil {
		t.Fatal("read of absent block succeeded")
	}
	if st := sys.Stats(); st.Ops() != 0 {
		t.Fatalf("failed operations were counted: %+v", st)
	}
}

// Wait is idempotent: calling it twice returns the same result and counts
// the operation once.
func TestAsyncWaitIdempotent(t *testing.T) {
	sys, err := NewSystem(Config{D: 1, B: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	a := sys.Alloc(0)
	if err := sys.WriteBlocksAsync([]BlockWrite{{Addr: a, Block: mkBlock(5)}}).Wait(); err != nil {
		t.Fatal(err)
	}
	fut := sys.ReadBlocksAsync([]BlockAddr{a})
	for i := 0; i < 3; i++ {
		blocks, err := fut.Wait()
		if err != nil || blocks[0].Records.FirstKey() != 5 {
			t.Fatalf("wait %d: %v %v", i, blocks, err)
		}
	}
	if st := sys.Stats(); st.ReadOps != 1 {
		t.Fatalf("ReadOps = %d after repeated Wait, want 1", st.ReadOps)
	}
}

// Injected faults come back as clean errors from Wait, and the worker
// goroutines shut down with the system regardless.
func TestAsyncFaultsSurfaceAndWorkersStop(t *testing.T) {
	base := runtime.NumGoroutine()

	fs := NewFaultStore(NewMemStore(), FaultConfig{FailReadAt: 2})
	sys, err := NewSystem(Config{D: 2, B: 2, Store: fs})
	if err != nil {
		t.Fatal(err)
	}
	a0, a1 := sys.Alloc(0), sys.Alloc(1)
	wf := sys.WriteBlocksAsync([]BlockWrite{
		{Addr: a0, Block: mkBlock(1)},
		{Addr: a1, Block: mkBlock(2)},
	})
	if err := wf.Wait(); err != nil {
		t.Fatal(err)
	}
	// This read fans out to two store reads; one of them is the failing #2.
	_, err = sys.ReadBlocksAsync([]BlockAddr{a0, a1}).Wait()
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("injected read fault came back as %v", err)
	}
	if st := sys.Stats(); st.ReadOps != 0 {
		t.Fatalf("failed read op was counted: %+v", st)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)

	// Async calls after Close fail cleanly.
	if _, err := sys.ReadBlocksAsync([]BlockAddr{a0}).Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close async read: %v, want ErrClosed", err)
	}
}

// Many concurrent issuers hammering one System must neither race nor lose
// operations; run under -race this is the async layer's shakedown.
func TestAsyncConcurrentIssuers(t *testing.T) {
	const (
		d       = 4
		issuers = 8
		opsEach = 25
	)
	sys, err := NewSystem(Config{D: d, B: 2, AsyncQueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	errc := make(chan error, issuers)
	for g := 0; g < issuers; g++ {
		go func(g int) {
			for i := 0; i < opsEach; i++ {
				var writes []BlockWrite
				var addrs []BlockAddr
				for disk := 0; disk < d; disk++ {
					a := sys.Alloc(disk)
					writes = append(writes, BlockWrite{Addr: a, Block: mkBlock(record.Key(g*1000 + i))})
					addrs = append(addrs, a)
				}
				if err := sys.WriteBlocksAsync(writes).Wait(); err != nil {
					errc <- err
					return
				}
				blocks, err := sys.ReadBlocksAsync(addrs).Wait()
				if err != nil {
					errc <- err
					return
				}
				for _, blk := range blocks {
					if blk.Records.FirstKey() != record.Key(g*1000+i) {
						errc <- errors.New("read returned a foreign block")
						return
					}
				}
			}
			errc <- nil
		}(g)
	}
	for g := 0; g < issuers; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	st := sys.Stats()
	want := int64(issuers * opsEach)
	if st.ReadOps != want || st.WriteOps != want {
		t.Fatalf("ops %d/%d, want %d/%d", st.ReadOps, st.WriteOps, want, want)
	}
	if st.BlocksRead != want*d || st.BlocksWritten != want*d {
		t.Fatalf("blocks %d/%d, want %d", st.BlocksRead, st.BlocksWritten, want*d)
	}
}

// The async layer and the synchronous methods may be mixed freely; per-disk
// FIFO makes an async write visible to a later async read from the same
// goroutine without an intervening Wait.
func TestAsyncPerDiskFIFO(t *testing.T) {
	sys, err := NewSystem(Config{D: 1, B: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	a := sys.Alloc(0)
	wf := sys.WriteBlocksAsync([]BlockWrite{{Addr: a, Block: mkBlock(77)}})
	rf := sys.ReadBlocksAsync([]BlockAddr{a}) // enqueued behind the write
	if err := wf.Wait(); err != nil {
		t.Fatal(err)
	}
	blocks, err := rf.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if blocks[0].Records.FirstKey() != 77 {
		t.Fatalf("read-after-write got key %d, want 77", blocks[0].Records.FirstKey())
	}
}

// A System that never used async I/O must not start (or leak) workers; one
// that did must return to the baseline goroutine count after Close.
func TestAsyncLifecycleNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		sys, err := NewSystem(Config{D: 8, B: 2})
		if err != nil {
			t.Fatal(err)
		}
		a := sys.Alloc(3)
		if err := sys.WriteBlocksAsync([]BlockWrite{{Addr: a, Block: mkBlock(1)}}).Wait(); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.ReadBlocksAsync([]BlockAddr{a}).Wait(); err != nil {
			t.Fatal(err)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
	}
	waitGoroutines(t, base)
}
