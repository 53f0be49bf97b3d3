package pdisk

import (
	"errors"
	"sort"
	"testing"

	"srmsort/internal/record"
)

// sortedAddrs returns m.Blocks() in (disk, index) order.
func sortedAddrs(m *MemStore) []BlockAddr {
	out := m.Blocks()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Disk != out[j].Disk {
			return out[i].Disk < out[j].Disk
		}
		return out[i].Index < out[j].Index
	})
	return out
}

func mustWrite(t *testing.T, m *MemStore, addr BlockAddr, b StoredBlock) {
	t.Helper()
	if err := m.WriteBlock(addr, b); err != nil {
		t.Fatalf("write %v: %v", addr, err)
	}
}

func mustFree(t *testing.T, m *MemStore, addr BlockAddr) {
	t.Helper()
	if err := m.Free(addr); err != nil {
		t.Fatalf("free %v: %v", addr, err)
	}
}

func wantFrontier(t *testing.T, m *MemStore, disk, want int) {
	t.Helper()
	if got, err := m.Frontier(disk); err != nil || got != want {
		t.Fatalf("Frontier(%d) = %d, %v; want %d", disk, got, err, want)
	}
}

// Blocks on either side of a page boundary live in different pages but
// must read back, list and bound the frontier like any others; their
// neighbours stay absent.
func TestMemStorePageBoundaries(t *testing.T) {
	m := NewMemStore()
	idxs := []int{0, memPageSize - 1, memPageSize, 2*memPageSize - 1, 2 * memPageSize}
	for _, i := range idxs {
		mustWrite(t, m, BlockAddr{Disk: 1, Index: i}, blk(record.Key(i)))
	}
	for _, i := range idxs {
		got, err := m.ReadBlock(BlockAddr{Disk: 1, Index: i})
		if err != nil || got.Records[0].Key != record.Key(i) {
			t.Fatalf("read d1:%d = %+v, %v", i, got, err)
		}
	}
	for _, i := range []int{1, memPageSize - 2, memPageSize + 1, 2*memPageSize + 1} {
		if _, err := m.ReadBlock(BlockAddr{Disk: 1, Index: i}); !errors.Is(err, ErrAbsent) {
			t.Fatalf("read of unwritten d1:%d: %v, want ErrAbsent", i, err)
		}
	}
	addrs := sortedAddrs(m)
	if len(addrs) != len(idxs) {
		t.Fatalf("Blocks = %v", addrs)
	}
	for k, a := range addrs {
		if a != (BlockAddr{Disk: 1, Index: idxs[k]}) {
			t.Fatalf("Blocks[%d] = %v, want d1:%d", k, a, idxs[k])
		}
	}
	wantFrontier(t, m, 1, 2*memPageSize+1)
	wantFrontier(t, m, 0, 0)
}

// Freeing every block of a page releases it: the frontier and listing
// forget it, its addresses read as absent, and the next page needed —
// here the same range, written again — reuses it.
func TestMemStoreReleasesAndReusesPages(t *testing.T) {
	m := NewMemStore()
	for i := 0; i < memPageSize; i++ {
		mustWrite(t, m, BlockAddr{Disk: 0, Index: memPageSize + i}, blk(record.Key(i)))
	}
	mustWrite(t, m, BlockAddr{Disk: 0, Index: 3}, blk(3))
	wantFrontier(t, m, 0, 2*memPageSize)

	for i := 0; i < memPageSize; i++ {
		mustFree(t, m, BlockAddr{Disk: 0, Index: memPageSize + i})
	}
	if m.disks[0][1] != nil || len(m.spare) != 1 {
		t.Fatalf("emptied page not released: page=%v spare=%d", m.disks[0][1], len(m.spare))
	}
	wantFrontier(t, m, 0, 4)
	if addrs := sortedAddrs(m); len(addrs) != 1 || addrs[0] != (BlockAddr{Disk: 0, Index: 3}) {
		t.Fatalf("Blocks after release = %v", addrs)
	}
	if _, err := m.ReadBlock(BlockAddr{Disk: 0, Index: memPageSize + 7}); !errors.Is(err, ErrAbsent) {
		t.Fatalf("read in released page: %v, want ErrAbsent", err)
	}
	if err := m.Free(BlockAddr{Disk: 0, Index: memPageSize}); !errors.Is(err, ErrAbsent) {
		t.Fatalf("double free in released page: %v, want ErrAbsent", err)
	}

	released := m.spare[0]
	mustWrite(t, m, BlockAddr{Disk: 0, Index: memPageSize + 5}, blk(55))
	if m.disks[0][1] != released || len(m.spare) != 0 {
		t.Fatal("rewriting the released range did not reuse the spare page")
	}
	if got, err := m.ReadBlock(BlockAddr{Disk: 0, Index: memPageSize + 5}); err != nil || got.Records[0].Key != 55 {
		t.Fatalf("read after reuse = %+v, %v", got, err)
	}
	for _, i := range []int{0, 4, memPageSize - 1} {
		if _, err := m.ReadBlock(BlockAddr{Disk: 0, Index: memPageSize + i}); !errors.Is(err, ErrAbsent) {
			t.Fatalf("reused page leaks slot %d: %v", i, err)
		}
	}
	wantFrontier(t, m, 0, memPageSize+6)

	// A page released on one disk serves the next page of another.
	mustFree(t, m, BlockAddr{Disk: 0, Index: memPageSize + 5})
	mustWrite(t, m, BlockAddr{Disk: 2, Index: 9 * memPageSize}, blk(9))
	if m.disks[2][9] != released {
		t.Fatal("released page not reused across disks")
	}
	wantFrontier(t, m, 0, 4)
	wantFrontier(t, m, 2, 9*memPageSize+1)
}

// Usage counts resident blocks and their encoded bytes through rewrites,
// frees and page releases.
func TestMemStoreUsageAcrossRewriteAndFree(t *testing.T) {
	m := NewMemStore()
	want := func(blocks, recs int64) {
		t.Helper()
		if u := m.Usage(); u.Blocks != blocks || u.Bytes != recs*record.Bytes {
			t.Fatalf("Usage = %+v, want %d blocks / %d records", u, blocks, recs)
		}
	}
	a := BlockAddr{Disk: 0, Index: memPageSize - 1}
	b := BlockAddr{Disk: 0, Index: memPageSize}
	mustWrite(t, m, a, blk(1))
	mustWrite(t, m, b, blk(1, 2))
	want(2, 3)
	mustWrite(t, m, a, blk(1, 2, 3, 4))
	want(2, 6)
	mustWrite(t, m, a, StoredBlock{Recs16: []record.Rec16{{Key: 1}}, Forecast: []record.Key{9}})
	if u := m.Usage(); u.Blocks != 2 || u.Bytes != 3*record.Bytes+8 {
		t.Fatalf("Usage after narrow rewrite = %+v", u)
	}
	mustFree(t, m, a)
	want(1, 2)
	mustFree(t, m, b) // releases page 1
	want(0, 0)
	mustWrite(t, m, b, blk(5))
	want(1, 1)
}

// Addresses outside every allocated page — unknown or negative disks,
// negative indices, indices past the last page — are absent, not panics;
// a write to a negative address is invalid.
func TestMemStoreOutOfRange(t *testing.T) {
	m := NewMemStore()
	mustWrite(t, m, BlockAddr{Disk: 1, Index: 2}, blk(1))
	for _, a := range []BlockAddr{
		{Disk: 0, Index: 0}, {Disk: 2, Index: 0}, {Disk: 99, Index: 5},
		{Disk: -1, Index: 0}, {Disk: 1, Index: -1}, {Disk: 1, Index: 50 * memPageSize},
	} {
		if _, err := m.ReadBlock(a); !errors.Is(err, ErrAbsent) {
			t.Fatalf("read %v: %v, want ErrAbsent", a, err)
		}
		if err := m.Free(a); !errors.Is(err, ErrAbsent) {
			t.Fatalf("free %v: %v, want ErrAbsent", a, err)
		}
	}
	for _, a := range []BlockAddr{{Disk: -1, Index: 0}, {Disk: 0, Index: -3}} {
		if err := m.WriteBlock(a, blk(1)); !errors.Is(err, ErrInvalid) {
			t.Fatalf("write %v: %v, want ErrInvalid", a, err)
		}
	}
	wantFrontier(t, m, 7, 0)
	wantFrontier(t, m, -1, 0)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteBlock(BlockAddr{Disk: 0, Index: 0}, blk(1)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("write after Close: %v, want ErrInvalid", err)
	}
	if _, err := m.ReadBlock(BlockAddr{Disk: 1, Index: 2}); !errors.Is(err, ErrAbsent) {
		t.Fatalf("read after Close: %v, want ErrAbsent", err)
	}
}
