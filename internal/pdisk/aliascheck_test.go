//go:build aliascheck

package pdisk

import (
	"strings"
	"testing"

	"srmsort/internal/record"
)

// TestAliasCheckCatchesReaderMutation arms the guard, violates the
// ownership contract on purpose — mutating a record of a block obtained
// through the zero-copy ReadBlock path — and requires the next read of the
// same address to panic.
func TestAliasCheckCatchesReaderMutation(t *testing.T) {
	m := NewMemStore()
	addr := BlockAddr{Disk: 0, Index: 0}
	blk := StoredBlock{
		Records:  record.Block{{Key: 1, Val: 10}, {Key: 2, Val: 20}},
		Forecast: []record.Key{7},
	}
	if err := m.WriteBlock(addr, blk.Clone()); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadBlock(addr)
	if err != nil {
		t.Fatal(err)
	}
	got.Records[0].Key = 99 // the contract violation

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("second ReadBlock did not panic after a reader mutated the block")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "aliascheck") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	m.ReadBlock(addr)
}

// TestAliasCheckCleanPathsStayQuiet runs honest write/read/free/close
// traffic under the armed guard: re-slicing a read block (what the merge
// kernels do) must not trip it.
func TestAliasCheckCleanPathsStayQuiet(t *testing.T) {
	m := NewMemStore()
	defer m.Close()
	addr := BlockAddr{Disk: 1, Index: 3}
	blk := StoredBlock{Records: record.Block{{Key: 5, Val: 1}, {Key: 6, Val: 2}}}
	if err := m.WriteBlock(addr, blk.Clone()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := m.ReadBlock(addr)
		if err != nil {
			t.Fatal(err)
		}
		rest := got.Records[1:] // re-slicing is legal
		_ = rest
	}
	if err := m.Free(addr); err != nil {
		t.Fatal(err)
	}
}

// TestAliasCheckCatchesWriterMutation violates the write side of the
// ownership contract — the caller mutates a block after handing it to
// WriteBlocks, which stores it without a copy — and requires the next
// read, or the free, of that address to panic.
func TestAliasCheckCatchesWriterMutation(t *testing.T) {
	for _, op := range []string{"read", "free"} {
		t.Run(op, func(t *testing.T) {
			sys, err := NewSystem(Config{D: 2, B: 2})
			if err != nil {
				t.Fatal(err)
			}
			addr := sys.Alloc(1)
			blk := StoredBlock{Recs16: []record.Rec16{{Key: 1, Val: 10}, {Key: 2, Val: 20}}}
			if err := sys.WriteBlocks([]BlockWrite{{Addr: addr, Block: blk}}); err != nil {
				t.Fatal(err)
			}
			blk.Recs16[1].Val = 99 // the contract violation

			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s did not panic after a writer mutated the block", op)
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, "aliascheck") {
					t.Fatalf("unexpected panic: %v", r)
				}
			}()
			if op == "read" {
				sys.ReadBlocks([]BlockAddr{addr})
			} else {
				sys.FreeBlock(addr)
			}
		})
	}
}
