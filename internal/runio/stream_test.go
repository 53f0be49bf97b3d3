package runio

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"srmsort/internal/pdisk"
	"srmsort/internal/record"
)

// slowReadStore counts the block reads running on it. Every read after
// the first signals started and then takes a while, so a readahead is
// still in flight when the consumer of the first block gives up.
type slowReadStore struct {
	pdisk.Store
	reads    atomic.Int64
	inFlight atomic.Int64
	started  chan struct{}
}

func (s *slowReadStore) ReadBlock(addr pdisk.BlockAddr) (pdisk.StoredBlock, error) {
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	if s.reads.Add(1) > 1 {
		select {
		case s.started <- struct{}{}:
		default:
		}
		time.Sleep(50 * time.Millisecond)
	}
	return s.Store.ReadBlock(addr)
}

// TestStreamAsyncDrainsReadaheadOnCallbackError: a callback error
// mid-stream returns only after the readahead it abandoned has finished,
// so no read is left running against a store the caller may tear down.
func TestStreamAsyncDrainsReadaheadOnCallbackError(t *testing.T) {
	st := &slowReadStore{Store: pdisk.NewMemStore(), started: make(chan struct{}, 1)}
	sys, err := pdisk.NewSystem(pdisk.Config{D: 2, B: 4, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	run, err := WriteRun(sys, 0, 0, record.NewGenerator(3).Sorted(32))
	if err != nil {
		t.Fatal(err)
	}
	stop := errors.New("consumer stops")
	err = StreamAsync[record.Record](sys, run, func(record.Record) error {
		<-st.started // the readahead of block 1 is running
		return stop
	})
	if !errors.Is(err, stop) {
		t.Fatalf("StreamAsync = %v, want the callback's error", err)
	}
	if n := st.inFlight.Load(); n != 0 {
		t.Fatalf("%d reads still in flight after StreamAsync returned", n)
	}
}
