package main

import (
	"strings"
	"testing"
)

// Names parse to the same cell whatever GOMAXPROCS the run had, so a
// baseline from a 1-CPU host diffs against a run on a 2-CPU one.
func TestParseDropsProcsSuffix(t *testing.T) {
	in := `goos: linux
BenchmarkSortShapes/near-sorted-2   	      10	 24600000 ns/op	       246.0 ns/rec
BenchmarkSortEndToEnd/alg=SRM/backend=mem/D=4-2   	      10	 1000 ns/op
BenchmarkServerThroughput/jobs=16   	       3	 2000 ns/op
PASS
`
	got, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"BenchmarkSortShapes/near-sorted",
		"BenchmarkSortEndToEnd/alg=SRM/backend=mem/D=4",
		"BenchmarkServerThroughput/jobs=16",
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d results, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.Name != want[i] {
			t.Errorf("result %d: name %q, want %q", i, r.Name, want[i])
		}
	}
	if got[0].Metrics["ns/rec"] != 246 {
		t.Errorf("metrics = %v", got[0].Metrics)
	}
}
