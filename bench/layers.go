package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
)

// perLayer lists the per-layer metrics in BENCHMARK.json's order. Names are
// <package>.<metric>; every workload prints every name, and a layer that did
// not run on a workload reads 0 there.
var perLayer = []metricDef{
	{"scihadoop.dataset_setup_s", "s"},
	{"scihadoop.map_fn_s", "s"},
	{"scihadoop.reduce_fn_s", "s"},
	{"scihadoop.merge_transform_s", "s"},
	{"mapreduce.collect_s", "s"},
	{"mapreduce.spill_sort_s", "s"},
	{"mapreduce.spill_hidden_s", "s"},
	{"mapreduce.map_merge_s", "s"},
	{"mapreduce.fetch_s", "s"},
	{"mapreduce.reduce_merge_s", "s"},
	{"mapreduce.reduce_stream_s", "s"},
	{"mapreduce.combine_s", "s"},
	{"mapreduce.unattributed_share", "ratio"},
	{"mapreduce.map_output_records", "count"},
	{"mapreduce.map_output_bytes", "B"},
	{"mapreduce.materialized_bytes", "B"},
	{"mapreduce.spilled_records", "count"},
	{"mapreduce.combine_saved_bytes", "B"},
	{"mapreduce.partition_key_splits", "count"},
	{"mapreduce.overlap_key_splits", "count"},
	{"mapreduce.task_retries", "count"},
	{"mapreduce.failed_attempts", "count"},
	{"mapreduce.mapout_mbps", "MB/s"},
	{"ifile.write_s", "s"},
	{"predictor.forward_s", "s"},
	{"predictor.inverse_s", "s"},
	{"predictor.forward_mbps", "MB/s"},
	{"predictor.inverse_mbps", "MB/s"},
	{"codec.entropy_write_s", "s"},
	{"codec.entropy_read_s", "s"},
	{"codec.bytes_in", "B"},
	{"codec.bytes_out", "B"},
	{"codec.ratio", "ratio"},
	{"codec.zlib_compress_mbps", "MB/s"},
	{"aggregate.add_mcells_per_s", "Mcells/s"},
	{"aggregate.ranges_per_kcell", "count"},
	{"sfc.index_mcells_per_s", "Mcells/s"},
	{"keys.split_overlaps_s", "s"},
	{"shufflenet.fetches", "count"},
	{"shufflenet.fetch_retries", "count"},
	{"shufflenet.wasted_bytes", "B"},
	{"shufflenet.fetch_mbps", "MB/s"},
	{"clusterd.boot_s", "s"},
	{"clusterd.run_remote_s", "s"},
	{"clusterd.worker_exec_s", "s"},
	{"clusterd.control_wait_s", "s"},
	{"clusterd.publish_s", "s"},
	{"clusterd.journal_bytes", "B"},
	{"clusterd.journal_events", "count"},
	{"clusterd.journal_bytes_per_shuffle_byte", "ratio"},
	{"clusterd.lease_expired", "count"},
	{"queryd.overhead_s", "s"},
	{"queryd.cache_hit_ratio", "ratio"},
	{"queryd.output_sha_s", "s"},
	{"store.put_s", "s"},
	{"store.put_bytes", "B"},
	{"store.get_s", "s"},
	{"store.get_bytes", "B"},
	{"store.stat_calls", "count"},
	{"hdfs.write_mbps", "MB/s"},
	{"hdfs.read_mbps", "MB/s"},
	{"cluster.modeled_over_measured", "ratio"},
	{"runtime.alloc_mb_per_query", "MB"},
	{"runtime.mallocs_per_query", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"host.steal_share", "ratio"},
	{"host.probe_s", "s"},
	{"bench.noisy_reps", "count"},
	{"bench.trace_overhead_share", "ratio"},
}

// tracedPair runs one untraced and one traced query back to back, so the
// tracing overhead is measured under the same host conditions as the ledger,
// and returns the traced one. The untraced numbers never enter a ledger and
// the traced ones never enter an end-to-end metric.
func (b *bench) tracedPair(r runner) (sample, bool) {
	if s, ok := b.one(r, nil); ok {
		b.plain = append(b.plain, s)
	}
	rec := newRecorder()
	rec.wantCapture = b.capture == nil
	before := readRuntime()
	s, ok := b.one(r, rec)
	after := readRuntime()
	if !ok {
		return s, false
	}
	if b.capture == nil && len(rec.capture) > 0 {
		b.capture = rec.capture
	}
	b.lastRec = s.rec
	s.layers["runtime.alloc_mb_per_query"] = float64(after.alloc-before.alloc) / 1e6
	s.layers["runtime.mallocs_per_query"] = float64(after.mallocs - before.mallocs)
	if s.cpu > 0 {
		s.layers["runtime.gc_cpu_share"] = (after.gcCPU - before.gcCPU) / s.cpu
	}
	if s.wall > 0 {
		s.layers["cluster.modeled_over_measured"] = s.modeled / s.wall
	}
	return s, true
}

// layerMetrics reports each per-layer metric as the median over the accepted
// traced queries, then adds the run-level rows and the kernel probes.
func (b *bench) layerMetrics(kept []sample, noisy int) map[string]metric {
	values := make(map[string]float64)
	for _, def := range perLayer {
		var v []float64
		for _, s := range kept {
			v = append(v, s.layers[def.name])
		}
		values[def.name] = median(v)
	}
	var traced, plain, probes []float64
	for _, s := range kept {
		traced = append(traced, s.wall)
		probes = append(probes, s.probe)
		values["host.steal_share"] = max(values["host.steal_share"], s.steal)
	}
	for _, s := range b.plain {
		plain = append(plain, s.wall)
	}
	if base := median(plain); base > 0 {
		values["bench.trace_overhead_share"] = (median(traced) - base) / base
	}
	values["host.probe_s"] = median(probes)
	values["bench.noisy_reps"] = float64(noisy)
	for name, v := range b.probes() {
		values[name] = v
	}
	if u := values["mapreduce.unattributed_share"]; u > 0.10 {
		fmt.Fprintf(b.stderr, "bench: %s: warning: %.0f%% of the job span is outside every attempt span\n", b.w.name, 100*u)
	}
	return toMetrics(perLayer, values)
}

// writeTrace writes the last traced query's spans as Chrome trace JSON when
// -trace-out asks for it; spans are otherwise kept in memory only.
func (b *bench) writeTrace() error {
	if b.o.traceOut == "" || b.lastRec == nil {
		return nil
	}
	f, err := os.CreateTemp(filepath.Dir(b.o.traceOut), filepath.Base(b.o.traceOut)+".tmp-*")
	if err != nil {
		return err
	}
	err = b.lastRec.obs.T().WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), b.o.traceOut)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// runtimeRead is a reading of the Go runtime's cumulative counters: bytes and
// objects allocated, and GC CPU seconds.
type runtimeRead struct {
	alloc, mallocs uint64
	gcCPU          float64
}

func readRuntime() runtimeRead {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	r := runtimeRead{alloc: ms.TotalAlloc, mallocs: ms.Mallocs}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	return r
}
