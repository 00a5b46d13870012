package mapreduce

import (
	"fmt"
	"strings"
	"sync/atomic"

	"scikey/internal/obs"
)

// Counter is a concurrency-safe job counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the counter.
func (c *Counter) Value() int64 { return c.v.Load() }

// Counters are the job-wide statistics, mirroring the Hadoop counters the
// paper reports. "Map output materialized bytes" — the paper's headline
// metric — is the post-codec, post-framing size of the final per-partition
// map output segments.
type Counters struct {
	MapInputRecords Counter
	MapInputBytes   Counter

	MapOutputRecords Counter
	// MapOutputBytes counts serialized key+value bytes before framing and
	// compression (Hadoop's "Map output bytes").
	MapOutputBytes Counter
	// MapOutputKeyBytes / MapOutputValueBytes decompose MapOutputBytes the
	// way Fig. 8 does.
	MapOutputKeyBytes   Counter
	MapOutputValueBytes Counter
	// MapOutputMaterializedBytes is the on-disk size of final map output.
	MapOutputMaterializedBytes Counter

	CombineInputRecords  Counter
	CombineOutputRecords Counter
	SpilledRecords       Counter

	// PartitionKeySplits counts aggregate keys split at routing time;
	// OverlapKeySplits counts reduce-side overlap splits. Both are zero
	// for vanilla Hadoop jobs.
	PartitionKeySplits Counter
	OverlapKeySplits   Counter

	ReduceShuffleBytes  Counter
	ReduceInputGroups   Counter
	ReduceInputRecords  Counter
	ReduceOutputRecords Counter
	ReduceOutputBytes   Counter

	// Fault-tolerance counters. Payload counters above reflect only
	// committed (winning) attempts; the ones below describe the recovery
	// machinery itself and are maintained by the attempt scheduler.

	// MapAttemptsFailed / ReduceAttemptsFailed count attempts that ended
	// in an error or panic (including injected faults).
	MapAttemptsFailed    Counter
	ReduceAttemptsFailed Counter
	// TaskRetries counts re-executions granted after a failed attempt.
	TaskRetries Counter
	// SpeculativeAttempts counts backup attempts launched for stragglers;
	// SpeculativeWasted counts attempts whose twin finished first.
	SpeculativeAttempts Counter
	SpeculativeWasted   Counter
	// CorruptSegmentsDetected counts shuffle reads that failed the IFile
	// CRC (or framing/codec decode) check.
	CorruptSegmentsDetected Counter
	// MapTasksRecovered counts map tasks re-executed to replace corrupt
	// output segments (or segments lost to exhausted shuffle fetches).
	MapTasksRecovered Counter

	// Networked-shuffle counters, populated from the shuffle service's
	// metrics when the job runs with Job.Shuffle in a net mode. Like the
	// other scheduling counters they describe the transport's recovery
	// work; the payload counters above stay byte-identical to an
	// in-memory fault-free run.

	// ShuffleFetches counts segment fetches issued by reducers.
	ShuffleFetches Counter
	// ShuffleFetchRetries counts fetch attempts beyond each fetch's first.
	ShuffleFetchRetries Counter
	// ShuffleFetchesResumed counts fetches that resumed mid-segment from a
	// verified byte offset instead of restarting from zero.
	ShuffleFetchesResumed Counter
	// ShuffleFetchWastedBytes counts verified bytes a fetch had to discard
	// (attempt-change resets and exhausted fetches).
	ShuffleFetchWastedBytes Counter
	// ShuffleBreakerTrips counts per-node circuit breakers opened.
	ShuffleBreakerTrips Counter

	// In-node combining counters (Job.Combine), distinct from the map-side
	// CombineInput/OutputRecords pair: they describe the node-level combine
	// phase between the map barrier and the shuffle, from each node group's
	// most recent combine (recovery recombines replace, never double-count).

	// CombineMergedRecords counts records folded away by in-node combining
	// (input records minus emitted records across all node groups).
	CombineMergedRecords Counter
	// CombineEmittedRecords counts records the combined segments carry.
	CombineEmittedRecords Counter
	// CombineSavedBytes is the raw member segment bytes minus the combined
	// segment bytes — the shuffle traffic in-node combining removed. It can
	// go slightly negative when nothing merges (re-framing overhead).
	CombineSavedBytes Counter
}

// counterTable is the one description of every job counter: where it lives
// in Counters, its Hadoop log label, and the scikey_* series (help text —
// "" repeats the label — and unit) it is published as; DESIGN.md §7's metric
// table is this one. Table order is the wire order: worker snapshots, the
// coordinator journal and cached map-phase snapshots all carry values by
// position, so a new counter is appended, never inserted (the wire form
// still length-checks exactly).
var counterTable = []struct {
	at                        func(*Counters) *Counter
	label, series, help, unit string
}{
	{func(c *Counters) *Counter { return &c.MapInputRecords }, "Map input records", "scikey_map_input_records_total", "", ""},
	{func(c *Counters) *Counter { return &c.MapInputBytes }, "Map input bytes", "scikey_map_input_bytes_total", "", "bytes"},
	{func(c *Counters) *Counter { return &c.MapOutputRecords }, "Map output records", "scikey_map_output_records_total", "", ""},
	{func(c *Counters) *Counter { return &c.MapOutputBytes }, "Map output bytes", "scikey_map_output_bytes_total", "Serialized map output bytes before framing and compression", "bytes"},
	{func(c *Counters) *Counter { return &c.MapOutputKeyBytes }, "Map output key bytes", "scikey_map_output_key_bytes_total", "Key share of map output bytes", "bytes"},
	{func(c *Counters) *Counter { return &c.MapOutputValueBytes }, "Map output value bytes", "scikey_map_output_value_bytes_total", "Value share of map output bytes", "bytes"},
	{func(c *Counters) *Counter { return &c.MapOutputMaterializedBytes }, "Map output materialized bytes", "scikey_map_output_materialized_bytes_total", "On-disk size of final map output (the paper's headline metric)", "bytes"},
	{func(c *Counters) *Counter { return &c.CombineInputRecords }, "Combine input records", "scikey_combine_input_records_total", "Records entering map-side combiners", ""},
	{func(c *Counters) *Counter { return &c.CombineOutputRecords }, "Combine output records", "scikey_combine_output_records_total", "Records leaving map-side combiners", ""},
	{func(c *Counters) *Counter { return &c.SpilledRecords }, "Spilled records", "scikey_spilled_records_total", "Records written during spills and merge passes", ""},
	{func(c *Counters) *Counter { return &c.PartitionKeySplits }, "Partition key splits", "scikey_partition_key_splits_total", "Aggregate keys split at routing time", ""},
	{func(c *Counters) *Counter { return &c.OverlapKeySplits }, "Overlap key splits", "scikey_overlap_key_splits_total", "Reduce-side overlap splits", ""},
	{func(c *Counters) *Counter { return &c.ReduceShuffleBytes }, "Reduce shuffle bytes", "scikey_reduce_shuffle_bytes_total", "Segment bytes fetched by reducers", "bytes"},
	{func(c *Counters) *Counter { return &c.ReduceInputGroups }, "Reduce input groups", "scikey_reduce_input_groups_total", "Distinct key groups reduced", ""},
	{func(c *Counters) *Counter { return &c.ReduceInputRecords }, "Reduce input records", "scikey_reduce_input_records_total", "Records entering reducers", ""},
	{func(c *Counters) *Counter { return &c.ReduceOutputRecords }, "Reduce output records", "scikey_reduce_output_records_total", "Records written by reducers", ""},
	{func(c *Counters) *Counter { return &c.ReduceOutputBytes }, "Reduce output bytes", "scikey_reduce_output_bytes_total", "Bytes written by reducers", "bytes"},
	{func(c *Counters) *Counter { return &c.MapAttemptsFailed }, "Failed map attempts", "scikey_map_attempts_failed_total", "Map attempts that ended in an error or panic", ""},
	{func(c *Counters) *Counter { return &c.ReduceAttemptsFailed }, "Failed reduce attempts", "scikey_reduce_attempts_failed_total", "Reduce attempts that ended in an error or panic", ""},
	{func(c *Counters) *Counter { return &c.TaskRetries }, "Task retries", "scikey_task_retries_total", "Re-executions granted after failed attempts", ""},
	{func(c *Counters) *Counter { return &c.SpeculativeAttempts }, "Speculative attempts", "scikey_speculative_attempts_total", "Backup attempts launched for stragglers", ""},
	{func(c *Counters) *Counter { return &c.SpeculativeWasted }, "Speculative wasted attempts", "scikey_speculative_wasted_total", "Attempts whose twin finished first", ""},
	{func(c *Counters) *Counter { return &c.CorruptSegmentsDetected }, "Corrupt segments detected", "scikey_corrupt_segments_detected_total", "Shuffle reads failing CRC or decode checks", ""},
	{func(c *Counters) *Counter { return &c.MapTasksRecovered }, "Map tasks recovered", "scikey_map_tasks_recovered_total", "Map tasks re-executed to replace corrupt or lost output", ""},
	{func(c *Counters) *Counter { return &c.ShuffleFetches }, "Shuffle fetches", "scikey_shuffle_fetches_total", "Segment fetches issued by reducers", ""},
	{func(c *Counters) *Counter { return &c.ShuffleFetchRetries }, "Shuffle fetch retries", "scikey_shuffle_fetch_retries_total", "Fetch attempts beyond each fetch's first", ""},
	{func(c *Counters) *Counter { return &c.ShuffleFetchesResumed }, "Shuffle fetches resumed", "scikey_shuffle_fetches_resumed_total", "Fetches resumed from a verified byte offset", ""},
	{func(c *Counters) *Counter { return &c.ShuffleFetchWastedBytes }, "Shuffle fetch wasted bytes", "scikey_shuffle_fetch_wasted_bytes_total", "Verified bytes fetches had to discard", "bytes"},
	{func(c *Counters) *Counter { return &c.ShuffleBreakerTrips }, "Shuffle breaker trips", "scikey_shuffle_breaker_trips_total", "Per-node circuit breakers opened", ""},
	{func(c *Counters) *Counter { return &c.CombineMergedRecords }, "Node combine merged records", "scikey_combine_merged_records_total", "Records folded away by in-node combining", ""},
	{func(c *Counters) *Counter { return &c.CombineEmittedRecords }, "Node combine emitted records", "scikey_combine_emitted_records_total", "Records carried by in-node combined segments", ""},
	{func(c *Counters) *Counter { return &c.CombineSavedBytes }, "Node combine saved bytes", "scikey_combine_saved_bytes_total", "Shuffle bytes removed by in-node combining", "bytes"},
}

// Merge adds every counter of o into c. The engine gives each attempt its
// own Counters and merges only the winning attempt's, so failed and
// speculatively-discarded attempts never skew the job totals.
func (c *Counters) Merge(o *Counters) {
	for _, row := range counterTable {
		row.at(c).Add(row.at(o).Value())
	}
}

// Snapshot returns every counter's value in counterTable order — the wire
// form a worker process ships an attempt's private counters in. A snapshot
// restored with AddSnapshot on the coordinator merges exactly like an
// in-process attempt's counters, so cluster runs keep the byte-identity
// invariant.
func (c *Counters) Snapshot() []int64 {
	out := make([]int64, len(counterTable))
	for i, row := range counterTable {
		out[i] = row.at(c).Value()
	}
	return out
}

// AddSnapshot adds a Snapshot's values into c. Snapshots from a different
// engine version (wrong length) are rejected rather than misattributed.
func (c *Counters) AddSnapshot(vs []int64) error {
	if len(vs) != len(counterTable) {
		return fmt.Errorf("mapreduce: counter snapshot has %d values, want %d", len(vs), len(counterTable))
	}
	for i, row := range counterTable {
		row.at(c).Add(vs[i])
	}
	return nil
}

// String renders the counters in Hadoop's log style.
func (c *Counters) String() string {
	var sb strings.Builder
	sb.WriteString("  Counters:\n")
	for _, row := range counterTable {
		fmt.Fprintf(&sb, "    %s=%d\n", row.label, row.at(c).Value())
	}
	return sb.String()
}

// publishCounters copies a completed job's Counters into the metrics
// registry as scikey_* counter series (a nil registry no-ops). Registry
// counters accumulate, so an Observer shared across jobs (an experiment
// driver, a long-lived scijob process) reports fleet totals.
func publishCounters(r *obs.Registry, c *Counters) {
	if r == nil || c == nil {
		return
	}
	for _, row := range counterTable {
		help := row.help
		if help == "" {
			help = row.label
		}
		r.Counter(row.series, help, row.unit).Add(row.at(c).Value())
	}
}
