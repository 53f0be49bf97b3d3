package main

import (
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// usage is a point-in-time reading of the process's CPU and the Go
// runtime's allocation and GC counters.
type usage struct {
	wall       time.Time
	cpu        float64 // user+sys seconds
	allocBytes uint64
	allocObjs  uint64
	gcCycles   uint64
	gcCPU      float64 // seconds
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readUsage() usage {
	samples := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples)
	u := usage{wall: time.Now(), cpu: processCPU()}
	u.allocBytes = samples[0].Value.Uint64()
	u.allocObjs = samples[1].Value.Uint64()
	u.gcCycles = samples[2].Value.Uint64()
	u.gcCPU = samples[3].Value.Float64()
	return u
}

// delta is the work done between two readings.
type delta struct {
	wall       float64
	cpu        float64
	allocBytes float64
	allocObjs  float64
	gcCycles   float64
	gcCPU      float64
}

func since(u usage) delta {
	v := readUsage()
	return delta{
		wall:       v.wall.Sub(u.wall).Seconds(),
		cpu:        v.cpu - u.cpu,
		allocBytes: float64(v.allocBytes - u.allocBytes),
		allocObjs:  float64(v.allocObjs - u.allocObjs),
		gcCycles:   float64(v.gcCycles - u.gcCycles),
		gcCPU:      v.gcCPU - u.gcCPU,
	}
}

func (d *delta) add(o delta) {
	d.wall += o.wall
	d.cpu += o.cpu
	d.allocBytes += o.allocBytes
	d.allocObjs += o.allocObjs
	d.gcCycles += o.gcCycles
	d.gcCPU += o.gcCPU
}

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSSMB is the process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// tailQuantile is the quantile reported as a p90: 0.9 when at least ten
// samples lie beyond it, otherwise the highest quantile that leaves ten
// beyond, and never below the median.
func tailQuantile(n int) float64 {
	q := 0.9
	if n > 0 && float64(n)*(1-q) < 10 {
		q = 1 - 10/float64(n)
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}
