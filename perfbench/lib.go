package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"srmsort"
	"srmsort/internal/pdisk"
	"srmsort/internal/record"
)

// libWorkload is a workload that calls the library directly: one
// srmsort.Sort or srmsort.SortVar call per operation, at the paper's
// geometry D=4, B=64, K=4 (M=3,136 records, merge order R=16).
type libWorkload struct {
	n       int
	codec   string
	backend srmsort.Backend
}

// config is the sort configuration of every call. Cores stays at the
// library default (GOMAXPROCS); tmp is the parent of FileBackend's
// scratch directories.
func (w libWorkload) config(tmp string) srmsort.Config {
	return srmsort.Config{
		D: 4, B: 64, K: 4,
		Algorithm: srmsort.SRM,
		Seed:      1,
		Backend:   w.backend,
		Codec:     w.codec,
		TempDir:   tmp,
	}
}

// sortCase is one generated input with its reference output.
type sortCase struct {
	// sort runs one call; check compares its output with the reference.
	sort func(cfg srmsort.Config) (check func() bool, st srmsort.Stats, err error)
}

func (w libWorkload) newCase(seed int64, stream uint64, n int) sortCase {
	r := newRand(seed, stream)
	if w.codec == "fixed16" {
		in := genFixed(r, n)
		want := sortedFixed(in)
		return sortCase{sort: func(cfg srmsort.Config) (func() bool, srmsort.Stats, error) {
			out, st, err := srmsort.Sort(in, cfg)
			return func() bool { return err == nil && slices.Equal(out, want) }, st, err
		}}
	}
	in := genVar(r, n)
	want := sortedVar(in)
	return sortCase{sort: func(cfg srmsort.Config) (func() bool, srmsort.Stats, error) {
		out, st, err := srmsort.SortVar(in, cfg)
		return func() bool { return err == nil && equalVar(out, want) }, st, err
	}}
}

// callResult is one measured call.
type callResult struct {
	d     delta
	stats srmsort.Stats
	ok    bool
	err   error
	trace *sortTrace // nil for an untraced call
}

// call runs one sort of c. An untraced call goes through the library
// exactly as a user's would. A traced call builds the same store
// Config.newSystem would build (same constructor, same temp-dir policy),
// wraps it and its varlen codec in the timing seams, follows the phases
// through Config.Progress, and tears the store down itself, inside the
// timed interval just as the library does.
func (w libWorkload) call(c sortCase, cfg srmsort.Config, traced bool) callResult {
	runtime.GC() // each call starts from a collected heap
	if w.backend == srmsort.FileBackend {
		// Commit the filesystem journal, so this call does not pay for
		// the previous call's scratch-file deletions.
		if err := syncDir(cfg.TempDir); err != nil {
			return callResult{err: err}
		}
	}
	if !traced {
		u := readUsage()
		check, st, err := c.sort(cfg)
		d := since(u)
		return callResult{d: d, stats: st, err: err, ok: err == nil && check()}
	}
	tr := &sortTrace{rec: &recorder{}}
	store, teardown, err := w.tracedStore(cfg, tr.rec)
	if err != nil {
		return callResult{err: err}
	}
	cfg.Store = store
	cfg.Progress = tr.progress
	u := readUsage()
	tr.start = u.wall
	check, st, err := c.sort(cfg)
	tr.rec.setPhase(tr.total + 2)
	if terr := teardown(); err == nil {
		err = terr
	}
	tr.teardownEnd = time.Now()
	d := since(u)
	return callResult{d: d, stats: st, err: err, ok: err == nil && check(), trace: tr}
}

func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// tracedStore mirrors Config.newSystem's store construction with the
// timing seams inserted, and returns the teardown newSystem's cleanup
// would run.
func (w libWorkload) tracedStore(cfg srmsort.Config, rec *recorder) (pdisk.Store, func() error, error) {
	if w.backend == srmsort.MemBackend {
		ms := pdisk.NewMemStore()
		return &tracedStore{inner: ms, rec: rec}, ms.Close, nil
	}
	codec, err := record.CodecByName(cfg.Codec)
	if err != nil {
		return nil, nil, err
	}
	if codec.FixedSize() == 0 {
		codec = tracedCodec{Codec: codec, rec: rec}
	}
	tmp, err := os.MkdirTemp(cfg.TempDir, "srmsort-disks-*")
	if err != nil {
		return nil, nil, err
	}
	fs, err := pdisk.NewFileStoreCodec(tmp, cfg.B, cfg.D, codec)
	if err != nil {
		os.RemoveAll(tmp)
		return nil, nil, err
	}
	teardown := func() error {
		err := fs.Close()
		if rerr := os.RemoveAll(tmp); err == nil {
			err = rerr
		}
		return err
	}
	return &tracedStore{inner: fs, rec: rec}, teardown, nil
}

// sortTrace follows one traced sort through its phases. Phase indices:
// 0 is formation (input load plus run formation), 1..total the merge
// passes, total+1 egest (the final run streaming out to the caller) and
// total+2 teardown.
type sortTrace struct {
	rec *recorder

	start       time.Time
	formed      bool
	total       int // merge passes
	passEnds    []time.Time
	formEnd     time.Time
	lastNote    time.Time // last Progress snapshot: the sink is drained
	teardownEnd time.Time
}

// progress is the Config.Progress hook: the first snapshot marks the end
// of formation, each pass increment the end of a merge pass, and the
// last snapshot the end of egest.
func (t *sortTrace) progress(p srmsort.Progress) {
	now := time.Now()
	t.lastNote = now
	if !t.formed {
		t.formed = true
		t.formEnd = now
		t.total = p.TotalPasses
		t.rec.setPhase(1)
		return
	}
	if p.RecordsOut == 0 && p.Pass > len(t.passEnds) {
		t.passEnds = append(t.passEnds, now)
		t.rec.setPhase(len(t.passEnds) + 1)
	}
}

func (t *sortTrace) mergeEnd() time.Time {
	if len(t.passEnds) == 0 {
		return t.formEnd
	}
	return t.passEnds[len(t.passEnds)-1]
}

func (t *sortTrace) formationS() float64 { return t.formEnd.Sub(t.start).Seconds() }
func (t *sortTrace) mergeS() float64     { return t.mergeEnd().Sub(t.formEnd).Seconds() }
func (t *sortTrace) egestS() float64     { return t.lastNote.Sub(t.mergeEnd()).Seconds() }

// teardownS runs from the drained sink to the store being closed and its
// scratch files removed.
func (t *sortTrace) teardownS() float64 { return t.teardownEnd.Sub(t.lastNote).Seconds() }

// valid reports whether the Progress snapshots arrived as expected.
func (t *sortTrace) valid() bool {
	return t.formed && len(t.passEnds) == t.total
}

// spans records the sort and its phases in log.
func (t *sortTrace) spans(log *spanLog) {
	root := log.add(0, "sort", t.start, t.teardownEnd)
	log.add(root, "formation", t.start, t.formEnd)
	prev := t.formEnd
	for i, end := range t.passEnds {
		log.add(root, fmt.Sprintf("merge.pass%d", i+1), prev, end)
		prev = end
	}
	log.add(root, "egest", prev, t.lastNote)
	log.add(root, "teardown", t.lastNote, t.teardownEnd)
}

// libRun is everything one run of a library workload measured.
type libRun struct {
	start  time.Time
	n      int
	setup  []float64
	warm   []callResult // verified, not measured
	plain  []callResult
	traced []callResult
}

// setupReps is how many warm-up calls a run makes; setup_s is their
// median.
const setupReps = 5

// runLib measures w for the given duration. With trace it alternates
// untraced and traced calls, so both see the same machine state.
func runLib(w libWorkload, seed int64, dur time.Duration, trace bool, tmp string) (*libRun, error) {
	// Scratch directories an interrupted earlier run left behind.
	if err := os.RemoveAll(tmp); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	cfg := w.config(tmp)
	main := w.newCase(seed, 1, w.n)
	warm := w.newCase(seed, 2, w.n/8)
	run := &libRun{start: time.Now(), n: w.n}
	for i := 0; i < setupReps; i++ {
		cr := w.call(warm, cfg, false)
		run.setup = append(run.setup, cr.d.wall)
		run.warm = append(run.warm, cr)
	}
	const minCalls = 3
	deadline := time.Now().Add(dur)
	for i := 0; ; i++ {
		if trace && i%2 == 1 {
			run.traced = append(run.traced, w.call(main, cfg, true))
		} else {
			run.plain = append(run.plain, w.call(main, cfg, false))
		}
		enough := len(run.plain) >= minCalls && (!trace || len(run.traced) >= minCalls)
		if enough && time.Now().After(deadline) {
			return run, nil
		}
	}
}
