package main

import (
	"sort"

	"scikey/internal/obs"
)

// Interval kinds a codec call can fall into. Map tasks run one after another
// under the load model, so intervals of these kinds never overlap.
const (
	inSpillCodec = iota
	inMapMerge
	inReduceMerge
	inReduce
	intervalKinds
)

type interval struct {
	start, end int64
	kind       int
}

// intervals is sorted by start for containment lookups.
type intervals []interval

// kindAt returns the kind of the interval containing t, or -1.
func (iv intervals) kindAt(t int64) int {
	i := sort.Search(len(iv), func(i int) bool { return iv[i].start > t }) - 1
	if i >= 0 && t < iv[i].end {
		return iv[i].kind
	}
	return -1
}

// covered returns the length of the union of the spans' intervals.
func covered(spans []obs.Event) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, end int64
	for _, s := range spans {
		lo, hi := int64(s.Start), int64(s.Start+s.Dur)
		if hi <= end {
			continue
		}
		total += hi - max(lo, end)
		end = hi
	}
	return total
}

// ledger turns one traced query's spans and decorator timings into the
// per-layer metrics that can be read off a single query. Time rows are self
// times: a span's duration minus what its children cover, where the children
// are engine sub-spans or decorator timings that fall inside it. combining
// says whether the query's job runs the in-node combine.
func (r *recorder) ledger(s sample, combining bool) map[string]float64 {
	sec := func(ns int64) float64 { return float64(max(0, ns)) / 1e9 }
	m := make(map[string]float64)

	byID := make(map[obs.SpanID]obs.Event)
	var events []obs.Event
	for _, ev := range r.obs.T().Events() {
		if ev.Start >= r.since {
			events = append(events, ev)
			byID[ev.ID] = ev
		}
	}
	var (
		job                                      obs.Event
		attempts, mapAttempts, spills            []obs.Event
		mapPhaseOf                               = make(map[obs.SpanID]obs.Event) // by attempt span
		mapPhase, spill, spillCodec, mapMerge    int64
		fetch, reduceMerge, reducePhase, hidden  int64
		lastMapEnd, firstReduceStart, reduceSeen int64
		iv                                       intervals
	)
	for _, ev := range events {
		lo, hi := int64(ev.Start), int64(ev.Start+ev.Dur)
		switch ev.Cat {
		case obs.CatJob:
			job = ev
		case obs.CatAttempt:
			attempts = append(attempts, ev)
			if ev.Name == "map" {
				mapAttempts = append(mapAttempts, ev)
				lastMapEnd = max(lastMapEnd, hi)
			} else if reduceSeen == 0 || lo < firstReduceStart {
				firstReduceStart, reduceSeen = lo, 1
			}
		case obs.CatPhase:
			parent := byID[ev.Parent]
			switch {
			case ev.Name == "map":
				mapPhase += int64(ev.Dur)
				mapPhaseOf[ev.Parent] = ev
			case ev.Name == "spill":
				spill += int64(ev.Dur)
				spills = append(spills, ev)
			case ev.Name == "codec":
				spillCodec += int64(ev.Dur)
				iv = append(iv, interval{lo, hi, inSpillCodec})
			case ev.Name == "merge" && parent.Name == "map":
				mapMerge += int64(ev.Dur)
				iv = append(iv, interval{lo, hi, inMapMerge})
			case ev.Name == "merge":
				reduceMerge += int64(ev.Dur)
				iv = append(iv, interval{lo, hi, inReduceMerge})
			case ev.Name == "fetch":
				fetch += int64(ev.Dur)
			case ev.Name == "reduce":
				reducePhase += int64(ev.Dur)
				iv = append(iv, interval{lo, hi, inReduce})
			}
		}
	}
	// The spill worker runs beside the mapper: the part of each spill span
	// that lies inside its attempt's map phase costs no wall-clock time.
	for _, ev := range spills {
		if mp, ok := mapPhaseOf[ev.Parent]; ok {
			lo := max(int64(ev.Start), int64(mp.Start))
			hi := min(int64(ev.Start+ev.Dur), int64(mp.Start+mp.Dur))
			hidden += max(0, hi-lo)
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].start < iv[j].start })

	// Codec time by the interval it fell in: [level][kind].
	var wr, rd [2][intervalKinds]int64
	var mergeLife int64 // summed lifetimes of the map-side merge's writers
	r.mu.Lock()
	for _, st := range r.streams {
		if k := iv.kindAt(st.start); k >= 0 {
			wr[st.level][k] += st.busy
			if k == inMapMerge && st.level == 0 {
				mergeLife += st.end - st.start
			}
		}
	}
	for level, calls := range r.reads {
		for _, c := range calls {
			if k := iv.kindAt(c.start); k >= 0 {
				rd[level][k] += c.dur
			}
		}
	}
	r.mu.Unlock()
	// The map-side merge rewrites partitions on several goroutines at once.
	// How many ran side by side is estimated from below twice over — its
	// writers' summed lifetimes, and the codec time inside it, each over the
	// span's length — and codec time inside the span is divided by the larger,
	// so the rows still add up to wall-clock time.
	par := 1.0
	if mapMerge > 0 {
		busy := wr[0][inMapMerge] + rd[0][inMapMerge]
		par = max(par, float64(mergeLife)/float64(mapMerge), float64(busy)/float64(mapMerge))
	}
	scaled := func(ns int64) int64 { return int64(float64(ns) / par) }
	mmWriteOuter, mmWriteInner := scaled(wr[0][inMapMerge]), scaled(wr[1][inMapMerge])
	mmReadOuter, mmReadInner := scaled(rd[0][inMapMerge]), scaled(rd[1][inMapMerge])

	// One interval's clock read is inside each timed emit, and a second one
	// lands in the caller's own time, so both sides give one back.
	mapEmit := r.mapEmit.Load() - r.mapEmits.Load()*clockCost
	mapFn := r.mapTotal.Load() - r.mapEmit.Load() - r.mapEmits.Load()*clockCost
	// Reduce output writes (the time inside the reducer's emit) stay in
	// reduce_stream_s.
	redFn := r.redTotal.Load() - r.redEmit.Load() - (r.redEmits.Load()+r.redCalls.Load())*clockCost
	if r.mapTotal.Load() == 0 {
		// No decorator reached the mapper (the service builds its own job):
		// the engine's map phase span is all there is.
		mapFn, mapEmit = mapPhase, 0
	}

	readInReduce := rd[0][inReduce]
	m["scihadoop.dataset_setup_s"] = sec(r.datasetSetup.Load())
	m["scihadoop.map_fn_s"] = sec(mapFn)
	m["scihadoop.reduce_fn_s"] = sec(redFn)
	m["scihadoop.merge_transform_s"] = sec(r.mergeTransform.Load())
	m["mapreduce.collect_s"] = sec(mapEmit)
	m["mapreduce.spill_sort_s"] = sec(spill - spillCodec)
	m["mapreduce.spill_hidden_s"] = sec(hidden)
	m["mapreduce.map_merge_s"] = sec(mapMerge - mmWriteOuter - mmReadOuter)
	m["mapreduce.fetch_s"] = sec(fetch)
	m["mapreduce.reduce_merge_s"] = sec(reduceMerge - rd[0][inReduceMerge])
	m["mapreduce.reduce_stream_s"] = sec(reducePhase - redFn - r.mergeTransform.Load() - readInReduce)
	// Between the map barrier and the first reduce attempt the engine runs
	// the in-node combine. Without combining the gap is scheduling and stays
	// in unattributed_share.
	var combine int64
	if combining && lastMapEnd > 0 && reduceSeen > 0 {
		combine = max(0, firstReduceStart-lastMapEnd)
	}
	m["mapreduce.combine_s"] = sec(combine)
	m["ifile.write_s"] = sec(spillCodec - wr[0][inSpillCodec])
	m["predictor.forward_s"] = sec(wr[0][inSpillCodec] - wr[1][inSpillCodec] + mmWriteOuter - mmWriteInner)
	m["predictor.inverse_s"] = sec(mmReadOuter - mmReadInner +
		rd[0][inReduceMerge] - rd[1][inReduceMerge] + rd[0][inReduce] - rd[1][inReduce])
	m["codec.entropy_write_s"] = sec(wr[1][inSpillCodec] + mmWriteInner)
	m["codec.entropy_read_s"] = sec(mmReadInner + rd[1][inReduceMerge] + rd[1][inReduce])
	m["codec.bytes_in"] = float64(r.codecBytesIn.Load())
	m["codec.bytes_out"] = float64(r.codecBytesOut.Load())
	if out := r.codecBytesOut.Load(); out > 0 {
		m["codec.ratio"] = float64(r.codecBytesIn.Load()) / float64(out)
	}

	if job.Dur > 0 {
		m["mapreduce.unattributed_share"] = 1 - float64(covered(attempts)+combine)/float64(job.Dur)
	}
	c := r.counts()
	m["mapreduce.map_output_records"] = float64(c["scikey_map_output_records_total"])
	m["mapreduce.map_output_bytes"] = float64(c["scikey_map_output_bytes_total"])
	m["mapreduce.materialized_bytes"] = float64(c["scikey_map_output_materialized_bytes_total"])
	m["mapreduce.spilled_records"] = float64(c["scikey_spilled_records_total"])
	m["mapreduce.combine_saved_bytes"] = float64(c["scikey_combine_saved_bytes_total"])
	m["mapreduce.partition_key_splits"] = float64(c["scikey_partition_key_splits_total"])
	m["mapreduce.overlap_key_splits"] = float64(c["scikey_overlap_key_splits_total"])
	m["mapreduce.task_retries"] = float64(c["scikey_task_retries_total"])
	m["mapreduce.failed_attempts"] = float64(c["scikey_map_attempts_failed_total"] + c["scikey_reduce_attempts_failed_total"])
	if busy := covered(mapAttempts); busy > 0 {
		m["mapreduce.mapout_mbps"] = float64(c["scikey_map_output_bytes_total"]) / 1e6 / sec(busy)
	}
	m["shufflenet.fetches"] = float64(c["scikey_shuffle_fetches_total"])
	m["shufflenet.fetch_retries"] = float64(c["scikey_shuffle_fetch_retries_total"])
	m["shufflenet.wasted_bytes"] = float64(c["scikey_shuffle_fetch_wasted_bytes_total"])
	if c["scikey_shuffle_fetches_total"] > 0 && fetch > 0 {
		m["shufflenet.fetch_mbps"] = float64(s.shuffle) / 1e6 / sec(fetch)
	}

	run, exec := r.runRemote.Load(), r.workerExec.Load()
	m["clusterd.run_remote_s"] = sec(run)
	m["clusterd.worker_exec_s"] = sec(exec)
	m["clusterd.control_wait_s"] = sec(run - exec)
	m["clusterd.publish_s"] = sec(r.publish.Load())

	m["store.put_s"] = sec(r.putNs.Load())
	m["store.put_bytes"] = float64(r.putBytes.Load())
	m["store.get_s"] = sec(r.getNs.Load())
	m["store.get_bytes"] = float64(r.getBytes.Load())
	m["store.stat_calls"] = float64(r.statCalls.Load())
	if lookups := c["scikey_cache_hit_total"] + c["scikey_cache_miss_total"]; lookups > 0 {
		m["queryd.cache_hit_ratio"] = float64(c["scikey_cache_hit_total"]) / float64(lookups)
	}
	if s.http {
		// What the service spends around the job: per-request Setup, the
		// flight lock's Stat, output hashing, cost-model re-Fit, HTTP. The
		// cache's Get and Put run inside the job span and have their own rows.
		m["queryd.overhead_s"] = s.wall - sec(int64(job.Dur)) - sec(r.statNs.Load())
	}
	return m
}

// timeRows are the ledger's wall-clock rows of a sequential query: disjoint
// slices of the timed region, so they sum to at most its length once the
// spill time hidden behind the mapper is taken off.
var timeRows = []string{
	"scihadoop.dataset_setup_s", "scihadoop.map_fn_s", "scihadoop.reduce_fn_s",
	"scihadoop.merge_transform_s", "mapreduce.collect_s", "mapreduce.spill_sort_s",
	"mapreduce.map_merge_s", "mapreduce.fetch_s", "mapreduce.reduce_merge_s",
	"mapreduce.reduce_stream_s", "mapreduce.combine_s", "ifile.write_s",
	"predictor.forward_s", "predictor.inverse_s", "codec.entropy_write_s",
	"codec.entropy_read_s", "queryd.output_sha_s", "queryd.overhead_s",
	"store.put_s", "store.get_s",
}
