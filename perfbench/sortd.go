package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"srmsort"
	"srmsort/internal/jobs"
	"srmsort/internal/pdisk"
)

// The sortd workload: an in-process jobs.Manager behind jobs.NewHandler
// on a loopback listener, driven by a closed loop of sortdClients HTTP
// clients. A volatile manager keeps every job's input and output for its
// whole lifetime, so the load runs in rounds of roundJobs jobs, each
// against a fresh manager; starting it, and one warm-up job, is the
// round's set-up and is not measured.
const (
	sortdClients = 2
	roundJobs    = 36
)

// jobSizes is the job mix, in records; its order is shuffled per seed.
var jobSizes = []int{20_000, 20_000, 50_000, 50_000, 100_000, 100_000}

// jobInput is one job's wire-format body and its reference result.
type jobInput struct {
	n    int
	wire []byte
	want []byte
}

func sortdInputs(seed int64, sizes []int) []jobInput {
	sizes = slices.Clone(sizes)
	newRand(seed, 10).Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	out := make([]jobInput, len(sizes))
	for i, n := range sizes {
		rs := genFixed(newRand(seed, 100+uint64(i)), n)
		out[i] = jobInput{n: n, wire: wire(rs), want: wire(sortedFixed(rs))}
	}
	return out
}

// sortdOptions are cmd/sortd's defaults, volatile (no -root): retries 5,
// gate width 2 over 64 disks, budget 4M records, 3 attempts per job,
// default spec D=8, B=64, K=4, cores 1, fixed16, seed 1. Per-job log
// lines are left off.
func sortdOptions(wrap func(jobID string, inner pdisk.Store) pdisk.Store) jobs.Options {
	policy := srmsort.DefaultRetryPolicy()
	policy.MaxAttempts = 5
	policy.Seed = 1
	return jobs.Options{
		MemoryBudget: 4_000_000,
		GateWidth:    2,
		GateDisks:    64,
		MaxAttempts:  3,
		Defaults: jobs.Spec{
			Algorithm: "srm", D: 8, B: 64, K: 4, Seed: 1, Cores: 1, Codec: "fixed16",
		},
		Retry:     &policy,
		StoreWrap: wrap,
	}
}

// server is one sortd incarnation on a loopback listener.
type server struct {
	m      *jobs.Manager
	srv    *http.Server
	base   string
	client *http.Client
	served chan error
}

func startServer(opts jobs.Options) (*server, error) {
	m, err := jobs.NewManager(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Kill()
		return nil, err
	}
	s := &server{
		m:      m,
		srv:    &http.Server{Handler: jobs.NewHandler(m), ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: sortdClients, DisableCompression: true}},
		served: make(chan error, 1),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the listener and the manager down and waits for both.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // on timeout Close below still severs
	_ = s.srv.Close()
	<-s.served
	s.m.Kill()
	s.client.CloseIdleConnections()
}

// jobResult is one job as a client saw it.
type jobResult struct {
	input    int
	id       string
	start    time.Time // POST issued
	posted   time.Time // POST response read
	done     time.Time // Manager.Get(id).Done() observed
	end      time.Time // last result byte read
	ok       bool
	err      error
	stats    *srmsort.Stats
	attempts int
}

func (r jobResult) latency() float64 { return r.end.Sub(r.start).Seconds() }

// doJob submits one job, waits for it to finish and fetches its result
// into buf, comparing it with the reference.
func (s *server) doJob(in *jobInput, idx int, buf *bytes.Buffer) (jr jobResult) {
	jr = jobResult{input: idx, start: time.Now()}
	resp, err := s.client.Post(s.base+"/jobs", "application/octet-stream", bytes.NewReader(in.wire))
	if err != nil {
		jr.err = err
		return jr
	}
	var st jobs.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusAccepted {
		err = fmt.Errorf("POST /jobs: %s", resp.Status)
	}
	if err != nil {
		jr.err = err
		return jr
	}
	jr.posted = time.Now()
	jr.id = st.ID
	j, ok := s.m.Get(st.ID)
	if !ok {
		jr.err = fmt.Errorf("job %s not in the manager", st.ID)
		return jr
	}
	<-j.Done()
	jr.done = time.Now()
	final := j.Status()
	jr.stats, jr.attempts = final.Stats, final.Attempts
	if final.State != jobs.StateDone {
		jr.err = fmt.Errorf("job %s ended %s: %s", st.ID, final.State, final.Error)
		return jr
	}
	resp, err = s.client.Get(s.base + "/jobs/" + st.ID + "/result")
	if err != nil {
		jr.err = err
		return jr
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET result: %s", resp.Status)
	}
	jr.end = time.Now()
	jr.err = err
	jr.ok = err == nil && bytes.Equal(buf.Bytes(), in.want)
	return jr
}

// jobTrace is one traced job's store-side timeline.
type jobTrace struct {
	rec        *recorder
	wrapAt     time.Time // StoreWrap called: the job was admitted
	closeStart time.Time
	closeEnd   time.Time
}

// jobTracer is the StoreWrap seam of a traced round.
type jobTracer struct {
	mu   sync.Mutex
	jobs map[string]*jobTrace
}

func (t *jobTracer) wrap(id string, inner pdisk.Store) pdisk.Store {
	jt := &jobTrace{rec: &recorder{}, wrapAt: time.Now()}
	t.mu.Lock()
	t.jobs[id] = jt
	t.mu.Unlock()
	return &tracedStore{inner: inner, rec: jt.rec, onClose: func(start, end time.Time) {
		jt.closeStart, jt.closeEnd = start, end
	}}
}

func (t *jobTracer) get(id string) *jobTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.jobs[id]
}

// round is one manager incarnation's measured load.
type round struct {
	traced  bool
	setup   float64
	warm    jobResult
	d       delta
	results []jobResult
	tracer  *jobTracer
}

func runRound(inputs []jobInput, traced bool) (*round, error) {
	rd := &round{traced: traced}
	var wrap func(string, pdisk.Store) pdisk.Store
	if traced {
		rd.tracer = &jobTracer{jobs: make(map[string]*jobTrace)}
		wrap = rd.tracer.wrap
	}
	runtime.GC() // the previous round's jobs are garbage now
	t0 := time.Now()
	s, err := startServer(sortdOptions(wrap))
	if err != nil {
		return nil, err
	}
	defer s.stop()
	smallest := 0
	for i, in := range inputs {
		if in.n < inputs[smallest].n {
			smallest = i
		}
	}
	var buf bytes.Buffer
	rd.warm = s.doJob(&inputs[smallest], smallest, &buf)
	rd.setup = time.Since(t0).Seconds()

	u := readUsage()
	var next atomic.Int64
	per := make([][]jobResult, sortdClients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				k := int(next.Add(1) - 1)
				if k >= roundJobs {
					return
				}
				idx := k % len(inputs)
				per[c] = append(per[c], s.doJob(&inputs[idx], idx, &buf))
			}
		}(c)
	}
	wg.Wait()
	rd.d = since(u)
	for _, rs := range per {
		rd.results = append(rd.results, rs...)
	}
	return rd, nil
}

// sortdRun is everything one run of the sortd workload measured.
type sortdRun struct {
	start  time.Time
	inputs []jobInput
	rounds []*round
}

// runSortd runs rounds until dur of measured load has passed. With
// trace, rounds alternate untraced and traced.
func runSortd(seed int64, dur time.Duration, trace bool) (*sortdRun, error) {
	run := &sortdRun{start: time.Now(), inputs: sortdInputs(seed, jobSizes)}
	var plain, traced time.Duration
	for i := 0; ; i++ {
		t := trace && i%2 == 1
		rd, err := runRound(run.inputs, t)
		if err != nil {
			return nil, err
		}
		run.rounds = append(run.rounds, rd)
		if t {
			traced += time.Duration(rd.d.wall * float64(time.Second))
		} else {
			plain += time.Duration(rd.d.wall * float64(time.Second))
		}
		enough := i >= 1 && (!trace || i >= 3)
		if enough && plain+traced >= dur {
			return run, nil
		}
	}
}
