// Package mapreduce is an in-process MapReduce engine reproducing the
// Hadoop data path of Fig. 1: mappers read input splits, map output is
// partitioned, sorted, optionally combined, and spilled to IFile segments
// (optionally through a compression codec); reducers fetch their partitions,
// merge-sort the segments, group equal keys and reduce; output lands on the
// simulated HDFS.
//
// Two extensions implement the paper's Section IV-B changes, removing
// Hadoop's assumption that key/value pairs are atomic:
//
//   - Job.PartitionSplit lets an aggregate key that spans several reducers
//     be split at routing time instead of being routed whole.
//   - Job.MergeTransform runs over each reducer's merged, sorted stream
//     before grouping — the hook where unequal overlapping aggregate keys
//     are split along overlap boundaries (Fig. 7).
//
// Combining has one contract, the value Monoid, applied at two levels:
// Job.MapCombiner folds every spill inside a map task (step 3 of Fig. 1),
// and Job.Combine — beyond the paper — pools committed map outputs per node
// group and folds them once more before the shuffle, cutting shuffle bytes
// while the reduce output stays byte-identical (see Monoid, CombineConfig,
// and NodeBuffer).
//
// The engine measures, per task, the byte volumes and CPU seconds that the
// cluster cost model turns into modeled runtimes, and maintains the Hadoop
// counters the paper quotes (notably "Map output materialized bytes").
package mapreduce

import (
	"fmt"
	"math"
	"time"

	"scikey/internal/codec"
	"scikey/internal/faults"
	"scikey/internal/hdfs"
	"scikey/internal/obs"
)

// KV is one serialized key/value pair.
type KV struct {
	Key   []byte
	Value []byte
}

// RoutedKV is a pair assigned to a reducer partition.
type RoutedKV struct {
	Partition int
	KV
}

// Split describes one map task's input. Data is an application payload
// (e.g. a grid.Box slab for array inputs).
type Split struct {
	ID    int
	Hosts []string
	Data  any
}

// Emit delivers one output pair from user code to the framework, which
// copies what it keeps before the call returns: the caller may reuse key
// and value at once (a mapper's serialization buffer, a reducer's scratch).
type Emit func(key, value []byte)

// Mapper transforms one input split into intermediate pairs. A fresh Mapper
// is built per task, so implementations may keep per-task state (such as an
// aggregation buffer) without locking.
type Mapper interface {
	Map(ctx *TaskContext, split Split, emit Emit) error
}

// Reducer folds the values of one intermediate key.
//
// key and values are framework-owned and valid only for the duration of the
// Reduce call — Hadoop's iterator-reuse contract. The reduce path recycles
// the backing memory for the next group; a Reducer that needs a key or value
// beyond the call (e.g. buffering for a Finalizer) must copy it.
type Reducer interface {
	Reduce(ctx *TaskContext, key []byte, values [][]byte, emit Emit) error
}

// MapperFunc adapts a function to Mapper.
type MapperFunc func(ctx *TaskContext, split Split, emit Emit) error

// Map implements Mapper.
func (f MapperFunc) Map(ctx *TaskContext, split Split, emit Emit) error {
	return f(ctx, split, emit)
}

// Finalizer is an optional Reducer extension: Finish runs after the last
// group of a reduce task, letting reducers that buffer output (e.g. for
// reduce-side re-aggregation of split keys, the follow-up Section IV-B
// sketches) flush their state.
type Finalizer interface {
	Finish(ctx *TaskContext, emit Emit) error
}

// ReducerFunc adapts a function to Reducer.
type ReducerFunc func(ctx *TaskContext, key []byte, values [][]byte, emit Emit) error

// Reduce implements Reducer.
func (f ReducerFunc) Reduce(ctx *TaskContext, key []byte, values [][]byte, emit Emit) error {
	return f(ctx, key, values, emit)
}

// TaskContext carries per-task services to user code.
type TaskContext struct {
	// TaskID identifies the map or reduce task.
	TaskID int
	// Attempt is this execution's attempt number, 0 for the first try.
	// Retries and speculative twins see higher numbers.
	Attempt int
	// IsMap distinguishes map from reduce tasks.
	IsMap bool
	// FS is the job filesystem, for mappers that read their split's data.
	FS *hdfs.FileSystem

	counters   *Counters
	inputBytes int64           // this task's reported input volume
	done       <-chan struct{} // the attempt context's Done; nil when nothing can cancel it
}

// Canceled reports whether this attempt's result is no longer wanted — the
// job failed fatally elsewhere or hit its deadline, or a speculative twin
// already finished. The framework stops accepting emits once this turns
// true; long-running user code may poll it to bail out early. It runs once
// per emit, so it polls the cached Done channel rather than ctx.Err, which
// takes the context's lock.
func (c *TaskContext) Canceled() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// CountInput records input consumed by a mapper, feeding both the
// MapInput counters and the task's modeled disk traffic.
func (c *TaskContext) CountInput(records, bytes int64) {
	c.counters.MapInputRecords.Add(records)
	c.counters.MapInputBytes.Add(bytes)
	c.inputBytes += bytes
}

// Job configures one MapReduce execution.
type Job struct {
	// Name labels the job in diagnostics.
	Name string
	// FS is the filesystem for input and output.
	FS *hdfs.FileSystem
	// Splits enumerates the map inputs.
	Splits []Split
	// NewMapper builds a mapper per map task.
	NewMapper func() Mapper
	// NewReducer builds a reducer per reduce task.
	NewReducer func() Reducer
	// MapCombiner, when non-nil, is the map-side combiner (step 3 of
	// Fig. 1): every spill folds its runs of equal keys with this Monoid
	// before the segment is written.
	MapCombiner Monoid
	// Combine, when non-nil, enables the second level of the same contract,
	// in-node combining: after the map phase, committed map outputs are
	// pooled per node group and runs of equal keys are folded with the
	// configured Monoid before anything is published to the shuffle. See
	// CombineConfig for the grouping, windowing, and byte-identity contract.
	Combine *CombineConfig
	// NumReducers is the reduce-partition count.
	NumReducers int
	// Compare is the intermediate-key sort and grouping comparator.
	Compare func(a, b []byte) int
	// SortWords, when set, gives the spill sort and the merges a key's
	// words: two fixed-width integers that order keys of one variable
	// section as Compare does, equality included, compared unsigned, hi
	// first. end is where the variable section ends; ok is false for a key
	// it cannot answer. A partition whose every key yields words under the
	// first key's variable section bytes is radix-sorted on them, and a
	// merge compares words for as long as every key it has read does so;
	// any other partition, the rest of such a merge, and grouping use
	// Compare.
	SortWords func(key []byte) (hi, lo uint64, end int, ok bool)
	// Partition routes one key to a reducer. Ignored when PartitionSplit
	// is set.
	Partition func(key []byte, numReducers int) int
	// PartitionSplit, when set, may split a pair across reducers
	// (Section IV-B, case one): it appends the pair's fragments to dst, in
	// key order, and returns the extended slice. The map task passes the
	// same scratch, truncated, for every pair and copies each fragment's
	// key and value before the next call, so a pair that stays in one
	// partition costs no allocation: it is appended as it came. A fragment
	// may alias key and value.
	PartitionSplit func(dst []RoutedKV, key, value []byte, numReducers int) []RoutedKV
	// MergeTransform, when set, rewrites each reducer's merged sorted
	// stream before grouping (Section IV-B, case two: overlap splitting).
	// The reduce path feeds it bounded windows of the stream (cut by
	// MergeCut; the whole stream when MergeCut is nil), so the slice
	// signature keeps working without materializing the partition. Its
	// argument is valid until its output has been consumed: the output may
	// alias it, but the transform must not keep it past that.
	MergeTransform func(pairs []KV) []KV
	// MergeCut, set alongside MergeTransform, builds one cut predicate per
	// reduce attempt. The predicate is fed every merged key in stream order
	// and returns true when that key starts an independent window: the
	// transform's output for everything before it cannot be affected by
	// this key or any later one. Overlap splitting already works in such
	// windows (transitively-overlapping clusters), so the output stays
	// byte-identical while the lookahead stays bounded. Nil keeps
	// correctness for arbitrary transforms by buffering the entire stream
	// as one window — the transform's defining form.
	MergeCut func() func(key []byte) bool
	// MapOutputCodec compresses each task's final map output segments, the
	// ones the shuffle moves ("Map output materialized bytes" is measured
	// after this codec); intermediate spills stay raw. Nil means no
	// compression.
	MapOutputCodec codec.Codec
	// OutputPath is the HDFS directory for reducer output files.
	OutputPath string
	// SpillBufferBytes bounds the in-memory map output buffer before a
	// sort-and-spill (Hadoop's io.sort.mb). Default 16 MiB; at most
	// math.MaxUint32, since buffered records are addressed by 32-bit
	// offsets.
	SpillBufferBytes int
	// MergeFactor bounds how many segments one merge pass combines
	// (Hadoop's io.sort.factor); more segments than this trigger extra
	// on-disk merge passes whose I/O the cost model charges. Default 10.
	MergeFactor int
	// RunOptions says how the job runs; see the type.
	RunOptions
}

// RunOptions are the run-time settings of a job: how it is scheduled,
// transported, bounded, cached and observed — never what bytes it produces
// (every combination yields the output and payload counters of the
// sequential in-memory fault-free run). Job embeds it, and so does
// scihadoop.QueryConfig, whose builders hand it to the Job whole: a new
// run-time setting is declared here and nowhere else.
type RunOptions struct {
	// Parallelism caps concurrently executing task attempts. Default 1:
	// tasks run one at a time, and the spare cores go to the attempt's own
	// spill worker and per-partition merges. Whatever its value, an attempt
	// computes only while it holds a token of the process's CPU pool (one
	// per core, see cpu), and its clock (footprint CPU seconds, calibration
	// wall) starts once it holds one, so raising it never inflates
	// per-task measurements. The query service runs one attempt per core,
	// and cluster mode wants it above 1 so several workers hold grants at
	// once.
	Parallelism int
	// Retry configures the attempt scheduler: per-task retry budgets,
	// deterministic backoff, and speculative execution. The zero value
	// fails the job on the first task error.
	Retry RetryPolicy
	// Faults optionally injects deterministic failures into task attempts,
	// IFile segments, and codec streams — the harness recovery tests and
	// chaos runs use. Nil disables injection.
	Faults *faults.Injector
	// Shuffle selects the map→reduce segment transport. Nil (or mode "mem")
	// hands committed segments to reducers in-process; mode "tcp" runs the
	// full shufflenet data path — per-node servers on loopback TCP,
	// CRC-framed chunked responses, deadlines, retries with resume, circuit
	// breakers.
	Shuffle *ShuffleConfig
	// Timeout bounds the whole job's wall-clock time: it is the deadline of
	// the job's context. When it expires, in-flight attempts stop at their
	// next cancellation check, backoff sleeps and shuffle fetches return at
	// once, and Run returns a *TimeoutError after every attempt has drained.
	// 0 means no limit. Only Go callers set it; queryd.QuerySpec has no
	// field for it.
	Timeout time.Duration
	// Remote, when non-nil, delegates task attempt execution to an external
	// control plane — the cluster coordinator hands each attempt to a worker
	// process as a lease and returns its result (or its loss). The attempt
	// scheduler, retry budgets, speculation, and first-finisher commit run
	// unchanged on the coordinator, so recovered cluster runs stay
	// byte-identical to single-process ones. Mutually exclusive with a
	// networked Shuffle: map output travels through the coordinator's
	// segment channel instead.
	Remote Remote
	// MapCache, when non-nil together with a non-empty CacheKey, lets the
	// run reuse a previously published map phase: before scheduling any map
	// attempts the engine asks the cache for CacheKey, and on a hit commits
	// each map task from the snapshot as a remote attempt commits — its
	// published row, footprint and counters — skipping the map and combine
	// phases entirely (Result.MapPhaseCached reports this; zero map
	// attempts run). Restored output a reducer finds corrupt or lost turns
	// the run into a miss. On a miss the job runs normally and, on success,
	// stores its published map state under CacheKey. The query service's
	// shared segment cache plugs in here. The caller owns key derivation: a
	// key must cover every input that shapes map output bytes — dataset,
	// splits, transform, codec.
	MapCache MapOutputCache
	// CacheKey names this job's map output in MapCache. Empty disables
	// caching even when MapCache is set.
	CacheKey string
	// Obs, when non-nil, records the run: a job → attempt → phase span tree
	// in the tracer (attempt spans carry won/lost/failed/canceled outcomes)
	// and the job counters, attempt-duration histograms, and shuffle
	// transport metrics in the registry. Nil disables all of it; either way
	// the job's output bytes and payload counters are identical.
	Obs *obs.Observer
}

func (j *Job) validate() error {
	switch {
	case j.FS == nil:
		return fmt.Errorf("mapreduce: job %q needs FS", j.Name)
	case len(j.Splits) == 0:
		return fmt.Errorf("mapreduce: job %q has no splits", j.Name)
	case j.NewMapper == nil || j.NewReducer == nil:
		return fmt.Errorf("mapreduce: job %q needs mapper and reducer", j.Name)
	case j.NumReducers <= 0:
		return fmt.Errorf("mapreduce: job %q needs NumReducers > 0", j.Name)
	case j.Compare == nil:
		return fmt.Errorf("mapreduce: job %q needs Compare", j.Name)
	case j.Partition == nil && j.PartitionSplit == nil:
		return fmt.Errorf("mapreduce: job %q needs Partition or PartitionSplit", j.Name)
	case j.OutputPath == "":
		return fmt.Errorf("mapreduce: job %q needs OutputPath", j.Name)
	}
	if j.Shuffle != nil {
		if err := j.Shuffle.validate(); err != nil {
			return fmt.Errorf("mapreduce: job %q: %w", j.Name, err)
		}
	}
	if j.Combine != nil {
		if j.Combine.Combiner == nil {
			return fmt.Errorf("mapreduce: job %q: Combine needs a Combiner", j.Name)
		}
		if j.Combine.Nodes < 1 {
			return fmt.Errorf("mapreduce: job %q: Combine.Nodes must be >= 1, got %d", j.Name, j.Combine.Nodes)
		}
	}
	if j.SpillBufferBytes > 0 && uint64(j.SpillBufferBytes) > math.MaxUint32 {
		// A buffered record's 32-bit arena offset stays below the limit.
		return fmt.Errorf("mapreduce: job %q: SpillBufferBytes %d exceeds the 32-bit spill-buffer limit of %d", j.Name, j.SpillBufferBytes, uint64(math.MaxUint32))
	}
	if j.Remote != nil && j.Shuffle.networked() {
		return fmt.Errorf("mapreduce: job %q: remote execution and a networked shuffle are mutually exclusive (map output travels through the coordinator)", j.Name)
	}
	return nil
}

func (j *Job) spillLimit() int {
	if j.SpillBufferBytes > 0 {
		return j.SpillBufferBytes
	}
	return 16 << 20
}

func (j *Job) mergeFactor() int {
	if j.MergeFactor >= 2 {
		return j.MergeFactor
	}
	return 10
}

func (j *Job) parallelism() int {
	if j.Parallelism > 0 {
		return j.Parallelism
	}
	return 1
}

func (j *Job) codec() codec.Codec {
	if j.MapOutputCodec != nil {
		return j.MapOutputCodec
	}
	return codec.None
}
