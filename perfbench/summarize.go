package main

import (
	"slices"
	"time"

	"srmsort"
)

// summarizeLib reduces a library workload's run to its metrics.
func summarizeLib(r *libRun, traced bool) *summary {
	s := newSummary(r.start)
	for _, group := range [][]callResult{r.warm, r.plain, r.traced} {
		for _, c := range group {
			s.count(c.ok, c.err)
		}
	}
	okPlain := okCalls(r.plain)
	okTraced := okCalls(r.traced)
	if len(okPlain) == 0 || (traced && len(okTraced) == 0) {
		s.correct = false
		return s
	}
	// Every call sorts the same input under the same seed, so every I/O
	// figure must repeat exactly, traced or not.
	first := ioFigures(okPlain[0].stats)
	for _, c := range slices.Concat(okPlain, okTraced) {
		if ioFigures(c.stats) != first {
			s.correct = false
			s.note("I/O statistics differ between calls: %+v vs %+v", ioFigures(c.stats), first)
			break
		}
	}
	n := float64(r.n)
	mrec := n / 1e6
	wall := func(c callResult) float64 { return c.d.wall }
	s.note("geometry: %s", geometry(first, r.n))
	s.note("calls: %d measured, %d traced, %d warm-up of N=%d", len(r.plain), len(r.traced), len(r.warm), r.n/8)

	if !traced {
		walls := mapBy(okPlain, wall)
		lat := median(walls)
		q := tailQuantile(len(walls))
		s.set("throughput_mrec_s", mrec/lat)
		s.set("jobs_per_s", 1/lat)
		s.set("job_latency_p50_s", lat)
		s.set("job_latency_p90_s", quantile(walls, q))
		s.note("latency: %d samples; job_latency_p90_s is the p%.0f", len(walls), 100*q)
		s.note("call wall times (s): %.3f", walls)
		s.set("cpu_s_per_mrec", medianBy(okPlain, func(c callResult) float64 { return c.d.cpu })/mrec)
		s.set("alloc_bytes_per_rec", medianBy(okPlain, func(c callResult) float64 { return c.d.allocBytes })/n)
		s.set("peak_rss_mb", peakRSSMB())
		s.set("io_ops", float64(first.TotalOps()))
		s.set("setup_s", median(r.setup))
		return s
	}

	for _, c := range okTraced {
		if !c.trace.valid() {
			s.correct = false
			s.note("traced call saw %d pass snapshots, expected %d", len(c.trace.passEnds), c.trace.total)
		}
	}
	tr := func(f func(*sortTrace) float64) float64 {
		return medianBy(okTraced, func(c callResult) float64 { return f(c.trace) })
	}
	acc := func(f func(phaseAcc) float64) float64 {
		return medianBy(okTraced, func(c callResult) float64 { return f(c.trace.rec.total(0, maxPhases)) })
	}
	merge := tr((*sortTrace).mergeS)
	s.set("srmsort.formation_s", tr((*sortTrace).formationS))
	s.set("srmsort.merge_s", merge)
	if first.MergePasses > 0 {
		s.set("srmsort.pass_ns_per_rec", merge/float64(first.MergePasses)/n*1e9)
	}
	s.set("srmsort.egest_s", tr((*sortTrace).egestS))
	var recs []*recorder
	for _, c := range okTraced {
		recs = append(recs, c.trace.rec)
	}
	setStoreMetrics(s, acc, recs)
	s.set("pdisk.teardown_s", tr((*sortTrace).teardownS))
	s.set("srm.merge_self_s", tr(func(t *sortTrace) float64 {
		return t.mergeS() - t.rec.total(1, t.total+1).inflight.Seconds()
	}))
	s.set("record.encode_s", acc(func(p phaseAcc) float64 { return p.encode.Seconds() }))
	s.set("record.decode_s", acc(func(p phaseAcc) float64 { return p.decode.Seconds() }))
	enc := okTraced[0].trace.rec.total(0, maxPhases)
	if enc.encRecs > 0 {
		s.set("record.encoded_bytes_per_rec", float64(enc.encBytes)/float64(enc.encRecs))
	}
	setSRMMetrics(s, []srmStats{{first, r.n}})
	// The blocks the store saw read during the merge passes must be the
	// ones the Stats figures account for.
	t0 := okTraced[0].trace
	if seen, derived := float64(t0.rec.total(1, t0.total+1).ops[opRead]), mergeBlocksRead(first, r.n); seen != derived {
		s.note("merge-phase block reads: store saw %.0f, Stats give %.0f", seen, derived)
	}
	s.set("runtime.gc_cycles", medianBy(okPlain, func(c callResult) float64 { return c.d.gcCycles }))
	s.set("runtime.gc_cpu_s", medianBy(okPlain, func(c callResult) float64 { return c.d.gcCPU }))
	s.set("runtime.allocs_per_rec", medianBy(okPlain, func(c callResult) float64 { return c.d.allocObjs })/n)
	s.set("trace.overhead_frac", 1-median(mapBy(okPlain, wall))/median(mapBy(okTraced, wall)))
	for _, c := range okTraced {
		c.trace.spans(&s.spans)
		s.phases = append(s.phases, phaseRecords(c.trace))
	}
	return s
}

func okCalls(cs []callResult) []callResult {
	var out []callResult
	for _, c := range cs {
		if c.ok {
			out = append(out, c)
		}
	}
	return out
}

// setStoreMetrics sets the pdisk per-op metrics: acc reduces the
// recorders' whole-sort totals (per sort or per job), recs supplies the
// latency histograms.
func setStoreMetrics(s *summary, acc func(func(phaseAcc) float64) float64, recs []*recorder) {
	s.set("pdisk.read_ops", acc(func(p phaseAcc) float64 { return float64(p.ops[opRead]) }))
	s.set("pdisk.write_ops", acc(func(p phaseAcc) float64 { return float64(p.ops[opWrite]) }))
	s.set("pdisk.free_ops", acc(func(p phaseAcc) float64 { return float64(p.ops[opFree]) }))
	s.set("pdisk.read_busy_s", acc(func(p phaseAcc) float64 { return p.busy[opRead].Seconds() }))
	s.set("pdisk.write_busy_s", acc(func(p phaseAcc) float64 { return p.busy[opWrite].Seconds() }))
	s.set("pdisk.inflight_wall_s", acc(func(p phaseAcc) float64 { return p.inflight.Seconds() }))
	var lat [2]histogram
	for _, r := range recs {
		r.mu.Lock()
		lat[opRead].merge(&r.lat[opRead])
		lat[opWrite].merge(&r.lat[opWrite])
		r.mu.Unlock()
	}
	s.set("pdisk.read_us_p50", lat[opRead].quantile(0.5)/1e3)
	s.set("pdisk.read_us_p99", lat[opRead].quantile(0.99)/1e3)
	s.set("pdisk.write_us_p50", lat[opWrite].quantile(0.5)/1e3)
	s.set("pdisk.write_us_p99", lat[opWrite].quantile(0.99)/1e3)
	s.note("store op latency samples: %d reads, %d writes", lat[opRead].n, lat[opWrite].n)
}

// srmStats is one sort's Stats with its input size.
type srmStats struct {
	st srmsort.Stats
	n  int
}

// setSRMMetrics sets the paper's I/O figures, averaged over sorts.
func setSRMMetrics(s *summary, sts []srmStats) {
	k := float64(len(sts))
	avg := func(f func(srmsort.Stats) float64) float64 {
		return sumBy(sts, func(x srmStats) float64 { return f(x.st) }) / k
	}
	s.set("srm.initial_runs", avg(func(st srmsort.Stats) float64 { return float64(st.InitialRuns) }))
	s.set("srm.merge_passes", avg(func(st srmsort.Stats) float64 { return float64(st.MergePasses) }))
	s.set("srm.merge_reads", avg(func(st srmsort.Stats) float64 { return float64(st.MergeReads) }))
	s.set("srm.merge_writes", avg(func(st srmsort.Stats) float64 { return float64(st.MergeWrites) }))
	s.set("srm.flushes", avg(func(st srmsort.Stats) float64 { return float64(st.Flushes) }))
	s.set("srm.blocks_reread", avg(func(st srmsort.Stats) float64 { return float64(st.BlocksReread) }))
	s.set("srm.read_parallelism", avg(func(st srmsort.Stats) float64 { return st.ReadParallelism }))
	s.set("srm.read_balance", avg(func(st srmsort.Stats) float64 { return st.ReadBalance }))
	reread := sumBy(sts, func(x srmStats) float64 { return float64(x.st.BlocksReread) })
	if read := sumBy(sts, func(x srmStats) float64 { return mergeBlocksRead(x.st, x.n) }); read > 0 {
		s.set("srm.reread_frac", reread/read)
	}
}

// summarizeSortd reduces the sortd workload's run to its metrics.
func summarizeSortd(r *sortdRun, traced bool) *summary {
	s := newSummary(r.start)
	var plain, tracedJobs []jobResult
	var plainD, tracedD delta
	var setups []float64
	var plainRounds int
	for _, rd := range r.rounds {
		s.count(rd.warm.ok, rd.warm.err)
		setups = append(setups, rd.setup)
		for _, jr := range rd.results {
			s.count(jr.ok, jr.err)
		}
		if rd.traced {
			tracedJobs = append(tracedJobs, okJobs(rd.results)...)
			tracedD.add(rd.d)
		} else {
			plain = append(plain, okJobs(rd.results)...)
			plainD.add(rd.d)
			plainRounds++
		}
	}
	if len(plain) == 0 || (traced && len(tracedJobs) == 0) {
		s.correct = false
		return s
	}
	// Each input's I/O figures must repeat exactly in every job that
	// sorts it, traced or not, whatever the other client was doing.
	firstOf := map[int]srmsort.Stats{}
	for _, jr := range slices.Concat(plain, tracedJobs) {
		st := ioFigures(*jr.stats)
		if f, ok := firstOf[jr.input]; !ok {
			firstOf[jr.input] = st
		} else if f != st {
			s.correct = false
			s.note("job %s: I/O statistics differ from an earlier job on the same input", jr.id)
		}
	}
	ioOps := 0.0
	for i, in := range r.inputs {
		st, ok := firstOf[i]
		if !ok {
			s.correct = false
			s.note("input %d (N=%d) never completed", i, in.n)
			continue
		}
		ioOps += float64(st.TotalOps())
		s.note("job input %d geometry: %s", i, geometry(st, in.n))
	}
	records := func(js []jobResult) float64 {
		return sumBy(js, func(jr jobResult) float64 { return float64(r.inputs[jr.input].n) })
	}
	recPlain := records(plain)
	s.note("rounds: %d untraced, %d traced, %d jobs each plus one warm-up, %d clients (closed loop)",
		plainRounds, len(r.rounds)-plainRounds, roundJobs, sortdClients)

	if !traced {
		lats := mapBy(plain, jobResult.latency)
		q := tailQuantile(len(lats))
		s.set("throughput_mrec_s", recPlain/1e6/plainD.wall)
		s.set("jobs_per_s", float64(len(plain))/plainD.wall)
		s.set("job_latency_p50_s", median(lats))
		s.set("job_latency_p90_s", quantile(lats, q))
		s.note("latency: %d samples; job_latency_p90_s is the p%.0f", len(lats), 100*q)
		s.set("cpu_s_per_mrec", plainD.cpu/(recPlain/1e6))
		s.set("alloc_bytes_per_rec", plainD.allocBytes/recPlain)
		s.set("peak_rss_mb", peakRSSMB())
		s.set("io_ops", ioOps)
		s.note("io_ops: summed over the %d distinct job inputs", len(r.inputs))
		s.set("setup_s", median(setups))
		return s
	}

	var recs []*recorder
	var traces []*jobTrace
	var submit, queue, run, finish, result []float64
	for _, rd := range r.rounds {
		if !rd.traced {
			continue
		}
		for _, jr := range okJobs(rd.results) {
			jt := rd.tracer.get(jr.id)
			if jt == nil || jt.closeEnd.IsZero() {
				s.correct = false
				s.note("job %s: traced store was not wrapped and closed", jr.id)
				continue
			}
			recs = append(recs, jt.rec)
			traces = append(traces, jt)
			submit = append(submit, jr.posted.Sub(jr.start).Seconds())
			queue = append(queue, max(0, jt.wrapAt.Sub(jr.posted).Seconds()))
			run = append(run, jt.closeStart.Sub(jt.wrapAt).Seconds())
			finish = append(finish, max(0, jr.done.Sub(jt.closeStart).Seconds()))
			result = append(result, jr.end.Sub(jr.done).Seconds())
			jobSpans(&s.spans, jr, jt)
		}
	}
	if len(recs) == 0 {
		s.correct = false
		return s
	}
	k := float64(len(recs))
	acc := func(f func(phaseAcc) float64) float64 {
		return sumBy(recs, func(r *recorder) float64 { return f(r.total(0, maxPhases)) }) / k
	}
	setStoreMetrics(s, acc, recs)
	s.set("pdisk.teardown_s", sumBy(traces, func(jt *jobTrace) float64 { return jt.closeEnd.Sub(jt.closeStart).Seconds() })/k)
	var sts []srmStats
	for _, jr := range tracedJobs {
		sts = append(sts, srmStats{*jr.stats, r.inputs[jr.input].n})
	}
	setSRMMetrics(s, sts)
	jobsPlain := float64(len(plain))
	s.set("runtime.gc_cycles", plainD.gcCycles/jobsPlain)
	s.set("runtime.gc_cpu_s", plainD.gcCPU/jobsPlain)
	s.set("runtime.allocs_per_rec", plainD.allocObjs/recPlain)
	s.set("jobs.submit_s", median(submit))
	s.set("jobs.queue_s", median(queue))
	s.set("jobs.run_s", median(run))
	s.set("jobs.finish_s", median(finish))
	s.set("jobs.result_s", median(result))
	s.set("jobs.attempts", sumBy(tracedJobs, func(jr jobResult) float64 { return float64(jr.attempts) })/float64(len(tracedJobs)))
	thrPlain := recPlain / plainD.wall
	thrTraced := records(tracedJobs) / tracedD.wall
	s.set("trace.overhead_frac", 1-thrTraced/thrPlain)
	s.note("srmsort.* phase splits and record.* codec timings: not reachable in sortd (the manager owns Progress; fixed16 MemStore runs no codec); reported as 0")
	return s
}

func okJobs(js []jobResult) []jobResult {
	var out []jobResult
	for _, jr := range js {
		if jr.ok {
			out = append(out, jr)
		}
	}
	return out
}

// jobSpans records one traced job and its stages.
func jobSpans(log *spanLog, jr jobResult, jt *jobTrace) {
	root := log.add(0, "job "+jr.id, jr.start, jr.end)
	log.add(root, "submit", jr.start, jr.posted)
	if jt.wrapAt.After(jr.posted) {
		log.add(root, "queue", jr.posted, jt.wrapAt)
	}
	log.add(root, "run", jt.wrapAt, jt.closeStart)
	log.add(root, "finish", jt.closeStart, maxTime(jr.done, jt.closeStart))
	log.add(root, "result", jr.done, jr.end)
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}
