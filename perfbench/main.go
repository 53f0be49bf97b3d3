// Command perfbench is srmsort's benchmark. Each run measures one
// workload for a fixed time, checks every output against a reference
// sort, and prints its metrics; the last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"setup_s": {"value": 0.41, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones a user of the
// library or of sortd sees; with -trace 1 they are the per-layer
// figures a traced run gets by timing the calls into each layer's
// public seams. See README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"srmsort"
)

type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"throughput_mrec_s", "Mrec/s"},
	{"jobs_per_s", "1/s"},
	{"job_latency_p50_s", "s"},
	{"job_latency_p90_s", "s"},
	{"cpu_s_per_mrec", "s/Mrec"},
	{"alloc_bytes_per_rec", "B/rec"},
	{"peak_rss_mb", "MiB"},
	{"io_ops", "count"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// run reports 0.
var perLayer = []metricDef{
	{"srmsort.formation_s", "s"},
	{"srmsort.merge_s", "s"},
	{"srmsort.pass_ns_per_rec", "ns/rec"},
	{"srmsort.egest_s", "s"},
	{"pdisk.read_ops", "count"},
	{"pdisk.write_ops", "count"},
	{"pdisk.free_ops", "count"},
	{"pdisk.read_busy_s", "s"},
	{"pdisk.write_busy_s", "s"},
	{"pdisk.read_us_p50", "us"},
	{"pdisk.read_us_p99", "us"},
	{"pdisk.write_us_p50", "us"},
	{"pdisk.write_us_p99", "us"},
	{"pdisk.inflight_wall_s", "s"},
	{"pdisk.teardown_s", "s"},
	{"srm.merge_self_s", "s"},
	{"record.encode_s", "s"},
	{"record.decode_s", "s"},
	{"record.encoded_bytes_per_rec", "B/rec"},
	{"srm.initial_runs", "count"},
	{"srm.merge_passes", "count"},
	{"srm.merge_reads", "count"},
	{"srm.merge_writes", "count"},
	{"srm.flushes", "count"},
	{"srm.blocks_reread", "count"},
	{"srm.reread_frac", "ratio"},
	{"srm.read_parallelism", "blocks/op"},
	{"srm.read_balance", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.allocs_per_rec", "1/rec"},
	{"jobs.submit_s", "s"},
	{"jobs.queue_s", "s"},
	{"jobs.run_s", "s"},
	{"jobs.finish_s", "s"},
	{"jobs.result_s", "s"},
	{"jobs.attempts", "count"},
	{"trace.overhead_frac", "ratio"},
}

// libWorkloads are the workloads that call the library directly; the
// fourth, sortd-volatile, drives the sortd service.
var libWorkloads = map[string]libWorkload{
	// CPU-bound: merge kernel, block events, runio copies and radix run
	// formation; the MemStore is a small share and no codec runs.
	"sort-fixed16-mem": {n: 2_000_000, codec: "fixed16", backend: srmsort.MemBackend},
	// Store-bound: FileStore pread/pwrite with CRC32-C, the varlen
	// codec, allocation and teardown, on the wide-record kernel.
	"sortvar-varlen-file": {n: 200_000, codec: "varlen", backend: srmsort.FileBackend},
	// The only workload that runs block compression.
	"sortvar-flate-file": {n: 40_000, codec: "varlen+flate", backend: srmsort.FileBackend},
}

const sortdWorkload = "sortd-volatile"

func main() {
	var (
		workload = flag.String("workload", "", "workload: sort-fixed16-mem, sortvar-varlen-file, sortvar-flate-file or sortd-volatile")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Int("seconds", 20, "seconds of measured load")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		dir      = flag.String("dir", ".bench_build/run", "directory for scratch files and trace output")
	)
	flag.Parse()
	if err := run(os.Stdout, *workload, *seed, *seconds, *trace, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(stdout io.Writer, workload string, seed int64, seconds, trace int, dir string) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds %d, need >= 1", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d, need 0 or 1", trace)
	}
	dur := time.Duration(seconds) * time.Second
	traced := trace == 1
	var s *summary
	if w, ok := libWorkloads[workload]; ok {
		r, err := runLib(w, seed, dur, traced, filepath.Join(dir, "tmp"))
		if err != nil {
			return err
		}
		s = summarizeLib(r, traced)
	} else if workload == sortdWorkload {
		r, err := runSortd(seed, dur, traced)
		if err != nil {
			return err
		}
		s = summarizeSortd(r, traced)
	} else {
		return fmt.Errorf("unknown -workload %q", workload)
	}

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	fmt.Fprintf(stdout, "# workload %s seed %d seconds %d trace %d\n", workload, seed, seconds, trace)
	fmt.Fprintf(stdout, "# host: GOMAXPROCS=%d nproc=%d go=%s %s/%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	for _, line := range s.info {
		fmt.Fprintf(stdout, "# %s\n", line)
	}
	fmt.Fprintf(stdout, "# failed_frac %.6g (%d of %d operations)\n", float64(s.failed)/float64(max(s.attempted, 1)), s.failed, s.attempted)
	out := report{Correct: s.correct && s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := s.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			out.Correct = false
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "# %-30s %14.6g %s\n", d.name, v, d.unit)
	}
	if traced {
		path, err := writeTrace(dir, workload, seed, s, out)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# trace written to %s\n", path)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is a run reduced to metric values plus the lines that explain
// them.
type summary struct {
	values    map[string]float64
	info      []string
	correct   bool
	attempted int
	failed    int
	spans     spanLog
	phases    [][]phaseRecord // per traced sort (library workloads)
}

// newSummary starts a summary of a run that began at start, the origin
// of its spans.
func newSummary(start time.Time) *summary {
	return &summary{values: map[string]float64{}, correct: true, spans: spanLog{origin: start}}
}

func (s *summary) set(name string, v float64) { s.values[name] = v }

func (s *summary) note(format string, args ...any) {
	s.info = append(s.info, fmt.Sprintf(format, args...))
}

// count tallies one verified operation.
func (s *summary) count(ok bool, err error) {
	s.attempted++
	if !ok {
		s.failed++
		if err != nil {
			s.note("failed: %v", err)
		} else {
			s.note("failed: output differs from the reference sort")
		}
	}
}

// phaseRecord is one phase's store and codec figures, as written to the
// trace file.
type phaseRecord struct {
	Phase      string  `json:"phase"`
	ReadOps    int64   `json:"read_ops"`
	WriteOps   int64   `json:"write_ops"`
	FreeOps    int64   `json:"free_ops"`
	ReadBusyS  float64 `json:"read_busy_s"`
	WriteBusyS float64 `json:"write_busy_s"`
	InflightS  float64 `json:"inflight_wall_s"`
	EncodeS    float64 `json:"encode_s"`
	DecodeS    float64 `json:"decode_s"`
}

func phaseName(i, total int) string {
	switch {
	case i == 0:
		return "formation"
	case i <= total:
		return fmt.Sprintf("merge.pass%d", i)
	case i == total+1:
		return "egest"
	default:
		return "teardown"
	}
}

func phaseRecords(tr *sortTrace) []phaseRecord {
	var out []phaseRecord
	for i := 0; i <= tr.total+2 && i < maxPhases; i++ {
		p := tr.rec.total(i, i+1)
		out = append(out, phaseRecord{
			Phase:   phaseName(i, tr.total),
			ReadOps: p.ops[opRead], WriteOps: p.ops[opWrite], FreeOps: p.ops[opFree],
			ReadBusyS: p.busy[opRead].Seconds(), WriteBusyS: p.busy[opWrite].Seconds(),
			InflightS: p.inflight.Seconds(),
			EncodeS:   p.encode.Seconds(), DecodeS: p.decode.Seconds(),
		})
	}
	return out
}

// writeTrace writes the traced run's spans and phase records as JSON.
func writeTrace(dir, workload string, seed int64, s *summary, out report) (string, error) {
	tdir := filepath.Join(dir, "traces")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(tdir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	data, err := json.MarshalIndent(struct {
		Workload   string          `json:"workload"`
		Seed       int64           `json:"seed"`
		GOMAXPROCS int             `json:"gomaxprocs"`
		NProc      int             `json:"nproc"`
		GoVersion  string          `json:"go_version"`
		Info       []string        `json:"info"`
		Report     report          `json:"report"`
		Spans      []span          `json:"spans"`
		Phases     [][]phaseRecord `json:"phases,omitempty"`
	}{workload, seed, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), s.info, out, s.spans.spans, s.phases}, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// ioFigures is the part of Stats that must not depend on tracing, the
// store wrapper or scheduling.
func ioFigures(st srmsort.Stats) srmsort.Stats {
	st.SimTime = 0
	st.Health = nil
	return st
}

// mergeBlocksRead is the number of blocks the merge passes read: all
// blocks read while sorting less the input, which run formation reads
// exactly once.
func mergeBlocksRead(st srmsort.Stats, n int) float64 {
	reads := float64(st.RunFormationReads + st.MergeReads)
	input := float64((n + st.B - 1) / st.B)
	return math.Round(st.ReadParallelism*reads) - input
}

func geometry(st srmsort.Stats, n int) string {
	return fmt.Sprintf("N=%d D=%d B=%d M=%d R=%d initial_runs=%d passes=%d N/M=%.1f",
		n, st.D, st.B, st.M, st.R, st.InitialRuns, st.MergePasses, float64(n)/float64(st.M))
}

func sumBy[T any](xs []T, f func(T) float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += f(x)
	}
	return t
}

func mapBy[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func medianBy[T any](xs []T, f func(T) float64) float64 { return median(mapBy(xs, f)) }
