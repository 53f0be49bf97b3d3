package main

import (
	"errors"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"srmsort/internal/pdisk"
	"srmsort/internal/record"
)

var errNoManifest = errors.New("perfbench: store does not persist manifests")

// Store operation kinds a recorder counts.
const (
	opRead = iota
	opWrite
	opFree
	nOps
)

// maxPhases bounds the phases one traced sort is split into: formation,
// up to maxPhases-3 merge passes, egest and teardown. Deeper sorts fold
// their extra passes into the last pass slot (the workloads here have
// at most three passes).
const maxPhases = 16

// phaseAcc accumulates the store and codec work one phase of a sort did.
type phaseAcc struct {
	ops      [nOps]int64
	busy     [nOps]time.Duration // summed op durations (across disks)
	inflight time.Duration       // wall time with at least one op in flight
	encode   time.Duration
	decode   time.Duration
	encBytes int64
	encRecs  int64
}

// recorder collects one traced sort's (or sortd job's) per-layer
// figures: per-phase store counters, read and write latency histograms
// and codec timings. The current phase is set from outside — by the
// Progress callback — and read by every store and codec call, so per-op
// work is held as counters, never as individual spans.
type recorder struct {
	phase atomic.Int32

	mu            sync.Mutex
	inflight      int
	inflightSince time.Time
	phases        [maxPhases]phaseAcc
	lat           [2]histogram // opRead, opWrite
}

func (r *recorder) setPhase(p int) {
	if p >= maxPhases {
		p = maxPhases - 1
	}
	r.phase.Store(int32(p))
}

func (r *recorder) begin() time.Time {
	now := time.Now()
	r.mu.Lock()
	if r.inflight == 0 {
		r.inflightSince = now
	}
	r.inflight++
	r.mu.Unlock()
	return now
}

func (r *recorder) end(kind int, t0 time.Time) {
	now := time.Now()
	d := now.Sub(t0)
	p := &r.phases[r.phase.Load()]
	r.mu.Lock()
	r.inflight--
	if r.inflight == 0 {
		p.inflight += now.Sub(r.inflightSince)
	}
	p.ops[kind]++
	p.busy[kind] += d
	if kind != opFree {
		r.lat[kind].add(d)
	}
	r.mu.Unlock()
}

func (r *recorder) codecCall(encode bool, d time.Duration, bytes, recs int) {
	p := &r.phases[r.phase.Load()]
	r.mu.Lock()
	if encode {
		p.encode += d
		p.encBytes += int64(bytes)
		p.encRecs += int64(recs)
	} else {
		p.decode += d
	}
	r.mu.Unlock()
}

// total sums the phase accumulators in [from, to).
func (r *recorder) total(from, to int) phaseAcc {
	r.mu.Lock()
	defer r.mu.Unlock()
	var t phaseAcc
	for i := from; i < to && i < maxPhases; i++ {
		p := &r.phases[i]
		for k := 0; k < nOps; k++ {
			t.ops[k] += p.ops[k]
			t.busy[k] += p.busy[k]
		}
		t.inflight += p.inflight
		t.encode += p.encode
		t.decode += p.decode
		t.encBytes += p.encBytes
		t.encRecs += p.encRecs
	}
	return t
}

// tracedStore times every block transfer of the store beneath it into a
// recorder. Everything else is forwarded unchanged, optional interfaces
// included, so the stack above takes the same code paths it takes over
// the bare store: without SerialTransfers a MemStore's transfers would
// fan out to per-disk goroutines instead of running inline.
type tracedStore struct {
	inner pdisk.Store
	rec   *recorder
	// onClose, if set, is called with the start and end of Close.
	onClose func(start, end time.Time)
}

func (s *tracedStore) WriteBlock(addr pdisk.BlockAddr, b pdisk.StoredBlock) error {
	t0 := s.rec.begin()
	err := s.inner.WriteBlock(addr, b)
	s.rec.end(opWrite, t0)
	return err
}

func (s *tracedStore) ReadBlock(addr pdisk.BlockAddr) (pdisk.StoredBlock, error) {
	t0 := s.rec.begin()
	b, err := s.inner.ReadBlock(addr)
	s.rec.end(opRead, t0)
	return b, err
}

func (s *tracedStore) Free(addr pdisk.BlockAddr) error {
	t0 := s.rec.begin()
	err := s.inner.Free(addr)
	s.rec.end(opFree, t0)
	return err
}

func (s *tracedStore) Usage() pdisk.Usage { return s.inner.Usage() }

func (s *tracedStore) Close() error {
	start := time.Now()
	err := s.inner.Close()
	if s.onClose != nil {
		s.onClose(start, time.Now())
	}
	return err
}

func (s *tracedStore) SerialTransfers() bool {
	if ss, ok := s.inner.(pdisk.SerialStore); ok {
		return ss.SerialTransfers()
	}
	return false
}

func (s *tracedStore) Frontier(disk int) (int, error) {
	if fs, ok := s.inner.(pdisk.FrontierStore); ok {
		return fs.Frontier(disk)
	}
	return 0, nil
}

func (s *tracedStore) SaveManifest(data []byte) error {
	if ms, ok := s.inner.(pdisk.ManifestStore); ok {
		return ms.SaveManifest(data)
	}
	return errNoManifest
}

func (s *tracedStore) LoadManifest() ([]byte, bool, error) {
	if ms, ok := s.inner.(pdisk.ManifestStore); ok {
		return ms.LoadManifest()
	}
	return nil, false, nil
}

func (s *tracedStore) ClearManifest() error {
	if ms, ok := s.inner.(pdisk.ManifestStore); ok {
		return ms.ClearManifest()
	}
	return nil
}

func (s *tracedStore) Sync() error {
	if sy, ok := s.inner.(interface{ Sync() error }); ok {
		return sy.Sync()
	}
	return nil
}

func (s *tracedStore) Blocks() []pdisk.BlockAddr {
	if bl, ok := s.inner.(pdisk.BlockLister); ok {
		return bl.Blocks()
	}
	return nil
}

// Counts forwards a retry layer's accounting (pdisk.System.Stats folds
// it in when the top of the stack reports it).
func (s *tracedStore) Counts() pdisk.RetryCounts {
	if rc, ok := s.inner.(interface{ Counts() pdisk.RetryCounts }); ok {
		return rc.Counts()
	}
	return pdisk.RetryCounts{}
}

func (s *tracedStore) HealthSnapshot() *pdisk.HealthStats {
	if hr, ok := s.inner.(pdisk.HealthReporter); ok {
		return hr.HealthSnapshot()
	}
	return nil
}

// tracedCodec times a varlen codec's block encode and decode. Only the
// varlen codecs are wrapped: FileStore type-switches on record.Fixed16
// to take its pointer-free fast path, which a wrapper would disable.
type tracedCodec struct {
	record.Codec
	rec *recorder
}

func (c tracedCodec) AppendBlock(dst []byte, rs []record.Record) ([]byte, error) {
	t0 := time.Now()
	out, err := c.Codec.AppendBlock(dst, rs)
	c.rec.codecCall(true, time.Since(t0), len(out)-len(dst), len(rs))
	return out, err
}

func (c tracedCodec) DecodeBlock(data []byte, nrec int) ([]record.Record, error) {
	t0 := time.Now()
	rs, err := c.Codec.DecodeBlock(data, nrec)
	c.rec.codecCall(false, time.Since(t0), 0, 0)
	return rs, err
}

// histogram is a log-linear latency histogram: exact below 16 ns, then
// 16 buckets per power of two (about 6% resolution).
type histogram struct {
	n int64
	b [16 + 60*16]int64
}

func bucketOf(ns int64) int {
	if ns < 16 {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 5
	return 16 + e*16 + int(ns>>e) - 16
}

// bucketBounds returns the lowest value of bucket i and its width, in
// nanoseconds.
func bucketBounds(i int) (lo, width int64) {
	if i < 16 {
		return int64(i), 1
	}
	e := (i - 16) / 16
	return int64(16+(i-16)%16) << e, int64(1) << e
}

func (h *histogram) add(d time.Duration) {
	h.n++
	h.b[bucketOf(int64(d))]++
}

func (h *histogram) merge(o *histogram) {
	h.n += o.n
	for i, c := range o.b {
		h.b[i] += c
	}
}

// quantile returns the nearest-rank q-quantile in nanoseconds,
// interpolated linearly within its bucket (0 when empty).
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q*float64(h.n) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.b {
		if cum+c >= rank {
			lo, width := bucketBounds(i)
			return float64(lo) + float64(width)*(float64(rank-cum)-0.5)/float64(c)
		}
		cum += c
	}
	lo, width := bucketBounds(len(h.b) - 1)
	return float64(lo + width)
}

// span is one traced interval: a sort or a job at the root, its phases
// or stages as children. Times are offsets from the run's start.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// spanLog holds a run's spans in memory until the run ends.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func (l *spanLog) add(parent int, name string, start, end time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name,
		StartUS: float64(start.Sub(l.origin).Nanoseconds()) / 1e3,
		EndUS:   float64(end.Sub(l.origin).Nanoseconds()) / 1e3,
	})
	return id
}
