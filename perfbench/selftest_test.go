package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

// TestTracedMatchesUntraced checks the tracing seams change nothing the
// program computes: at small N, a traced and an untraced call of each
// library workload give identical I/O statistics and outputs equal to
// the reference sort.
func TestTracedMatchesUntraced(t *testing.T) {
	for name, w := range libWorkloads {
		t.Run(name, func(t *testing.T) {
			w.n = 20_000
			cfg := w.config(t.TempDir())
			c := w.newCase(7, 1, w.n)
			plain := w.call(c, cfg, false)
			traced := w.call(c, cfg, true)
			for _, r := range []callResult{plain, traced} {
				if !r.ok {
					t.Fatalf("output differs from the reference (err %v)", r.err)
				}
			}
			if ioFigures(plain.stats) != ioFigures(traced.stats) {
				t.Fatalf("I/O statistics differ:\nplain  %+v\ntraced %+v", plain.stats, traced.stats)
			}
			if !traced.trace.valid() {
				t.Fatalf("traced call saw %d pass snapshots, want %d", len(traced.trace.passEnds), traced.trace.total)
			}
			tot := traced.trace.rec.total(0, maxPhases)
			if tot.ops[opRead] == 0 || tot.ops[opWrite] == 0 {
				t.Fatalf("store wrapper saw no transfers: %+v", tot.ops)
			}
			t0 := traced.trace
			if got, want := float64(t0.rec.total(1, t0.total+1).ops[opRead]), mergeBlocksRead(traced.stats, w.n); got != want {
				t.Fatalf("merge-phase block reads: store saw %v, Stats give %v", got, want)
			}
		})
	}
}

// TestSortdTracedMatchesUntraced is the same check for sortd jobs: the
// StoreWrap seam leaves each job's result bytes and statistics as they
// are without it.
func TestSortdTracedMatchesUntraced(t *testing.T) {
	inputs := sortdInputs(7, []int{2_000, 5_000})
	var stats [2][]jobResult
	for i, traced := range []bool{false, true} {
		var tracer *jobTracer
		opts := sortdOptions(nil)
		if traced {
			tracer = &jobTracer{jobs: map[string]*jobTrace{}}
			opts.StoreWrap = tracer.wrap
		}
		s, err := startServer(opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for k := range inputs {
			jr := s.doJob(&inputs[k], k, &buf)
			if !jr.ok {
				s.stop()
				t.Fatalf("traced=%v job %d: result differs from the reference (err %v)", traced, k, jr.err)
			}
			if traced {
				if jt := tracer.get(jr.id); jt == nil || jt.closeEnd.IsZero() {
					t.Errorf("job %s: store not wrapped and closed", jr.id)
				}
			}
			stats[i] = append(stats[i], jr)
		}
		s.stop()
	}
	for k := range inputs {
		if a, b := ioFigures(*stats[0][k].stats), ioFigures(*stats[1][k].stats); a != b {
			t.Errorf("input %d: I/O statistics differ:\nplain  %+v\ntraced %+v", k, a, b)
		}
	}
}

// TestBenchmarkJSON checks BENCHMARK.json names exactly the workloads
// and metrics this program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for name := range libWorkloads {
		if !slices.Contains(names, name) {
			t.Errorf("workload %s missing from BENCHMARK.json", name)
		}
	}
	if !slices.Contains(names, sortdWorkload) || len(names) != len(libWorkloads)+1 {
		t.Errorf("BENCHMARK.json workloads %v", names)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d reported", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], program reports %s [%s]", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestHistogramQuantile(t *testing.T) {
	for ns := int64(1); ns < 1e12; ns = ns*3 + 1 {
		lo, width := bucketBounds(bucketOf(ns))
		if ns < lo || ns >= lo+width || float64(width) > 0.07*float64(ns)+1 {
			t.Errorf("%d ns lands in bucket [%d, %d)", ns, lo, lo+width)
		}
	}
	var h histogram
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	if p50 := h.quantile(0.5); math.Abs(p50-500e3) > 0.01*500e3 {
		t.Errorf("p50 = %v ns, want about 500µs", p50)
	}
	if p99 := h.quantile(0.99); math.Abs(p99-990e3) > 0.01*990e3 {
		t.Errorf("p99 = %v ns, want about 990µs", p99)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 0.9}, {100, 0.9}, {50, 0.8}, {20, 0.5}, {10, 0.5}} {
		if got := tailQuantile(c.n); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}
