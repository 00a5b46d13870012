package mapreduce

import (
	"context"
	"fmt"

	"scikey/internal/cluster"
)

// Phase names a task phase for remote executors.
const (
	PhaseMap    = "map"
	PhaseReduce = "reduce"
)

// Remote delegates task attempt execution to an external control plane —
// the cluster coordinator, which grants the attempt as a lease to a worker
// process and waits for its completion. The attempt scheduler stays the
// single source of truth for retries, speculation, and first-finisher
// commit; a Remote only changes *where* one attempt's bytes are produced.
//
// RunRemote blocks until the attempt completes, fails, loses its lease
// (worker death, heartbeat lapse), or canceled() turns true; the engine's
// canceled polls the attempt's context. On failure it
// may still return a partial RemoteResult carrying the attempt's footprint
// so the scheduler charges the lost work as waste. PublishRemote installs a
// committed map attempt's per-partition segments where reduce workers can
// fetch them; the engine calls it for every committed or recovered map task.
type Remote interface {
	RunRemote(phase string, task, attempt int, canceled func() bool) (*RemoteResult, error)
	PublishRemote(mapTask, attempt int, parts [][]byte)
}

// RemoteResult is one remotely executed attempt's outcome: the bytes the
// attempt materialized plus the bookkeeping the engine needs to keep
// recovered runs byte-identical to fault-free ones (per-attempt counters,
// cost-model footprint, calibration wall clock). A MapPhaseSnapshot keeps
// each committed map attempt in this shape too.
type RemoteResult struct {
	// Parts holds a map attempt's final per-partition segments.
	Parts [][]byte
	// Output holds a reduce attempt's materialized output file.
	Output []byte
	// Counters is the attempt's private counter snapshot (Counters.Snapshot);
	// the engine merges it only if the attempt wins.
	Counters []int64
	// Footprint is the attempt's modeled resource usage. Failed attempts may
	// report a partial footprint, charged as waste.
	Footprint cluster.Task
	// InputBytes is a map attempt's reported input volume (locality model).
	InputBytes int64
	// Hosts are the block hosts of a map attempt's split.
	Hosts []string
	// WallSeconds is the attempt's wall-clock duration (calibration sample).
	WallSeconds float64
}

// RemoteFetch retrieves one committed map output segment for a remotely
// executing reduce attempt. It returns the segment bytes (possibly empty)
// and the map attempt that produced them.
type RemoteFetch func(mapTask, part int) (data []byte, attempt int, err error)

// RunMapAttempt executes one map task attempt of job in this process and
// packages its committed output for the wire — the worker-process half of a
// Remote executor. The attempt runs exactly the in-process data path
// (collect, partition, sort, combine, spill, merge, fault injection), so a
// cluster run's bytes are identical to a single-process run's. Canceling ctx
// stops the attempt with ErrAttemptCanceled.
func RunMapAttempt(ctx context.Context, job *Job, task, attempt int) (*RemoteResult, error) {
	if task < 0 || task >= len(job.Splits) {
		return nil, fmt.Errorf("mapreduce: map task %d out of range [0,%d)", task, len(job.Splits))
	}
	t := newMapTask(ctx, job, task, attempt)
	if err := t.run(job.Splits[task]); err != nil {
		return &RemoteResult{Footprint: t.footprint, WallSeconds: t.wallSeconds}, err
	}
	parts := make([][]byte, len(t.finals))
	for p := range t.finals {
		parts[p] = t.finals[p].data
	}
	rr := t.result(parts)
	return &rr, nil
}

// result packages a committed map attempt with parts as its row: the one
// shape a committed map attempt travels in, from a worker or into the map
// output cache.
func (t *mapTask) result(parts [][]byte) RemoteResult {
	return RemoteResult{
		Parts:       parts,
		Counters:    t.counters().Snapshot(),
		Footprint:   t.footprint,
		InputBytes:  t.ctx.inputBytes,
		Hosts:       t.hosts,
		WallSeconds: t.wallSeconds,
	}
}

// RunReduceAttempt executes one reduce task attempt of job in this process,
// fetching map output segments through fetch — the worker-process half of a
// Remote executor. Corruption detected while merging surfaces as the same
// *ErrCorruptSegment the in-process path produces, naming the producing map
// attempt, so the coordinator can re-execute the producer. The attempt's
// materialized output is returned as bytes; the coordinator commits them
// under the first-finisher rule. Canceling ctx stops the attempt with
// ErrAttemptCanceled; fetch should watch the same context.
func RunReduceAttempt(ctx context.Context, job *Job, task, attempt int, fetch RemoteFetch) (*RemoteResult, error) {
	if task < 0 || task >= job.NumReducers {
		return nil, fmt.Errorf("mapreduce: reduce task %d out of range [0,%d)", task, job.NumReducers)
	}
	t := newReduceTask(ctx, job, task, attempt)
	if err := t.run(&remoteFetchSource{n: len(job.Splits), do: fetch}); err != nil {
		t.abort()
		return &RemoteResult{Footprint: t.footprint, WallSeconds: t.wallSeconds}, err
	}
	data, err := job.FS.ReadAll(t.tmpPath)
	if err != nil {
		t.abort()
		return &RemoteResult{Footprint: t.footprint, WallSeconds: t.wallSeconds}, err
	}
	t.abort() // the temp file's bytes travel back to the coordinator
	return &RemoteResult{
		Output:      data,
		Counters:    t.counters().Snapshot(),
		Footprint:   t.footprint,
		WallSeconds: t.wallSeconds,
	}, nil
}

// remoteFetchSource adapts a RemoteFetch to the reduce path's segment
// source. Fetched segments carry the producing attempt's provenance so CRC
// failures name the right map attempt.
type remoteFetchSource struct {
	n  int
	do RemoteFetch
}

func (s *remoteFetchSource) numMaps() int { return s.n }

func (s *remoteFetchSource) fetch(m, part int) (segment, int64, error) {
	data, attempt, err := s.do(m, part)
	if err != nil {
		return segment{}, 0, err
	}
	return segment{data: data, src: m, attempt: attempt}, 0, nil
}

// newRemoteMapTask wraps a remotely executed or cached map attempt's result
// in the scheduler's task shape, each segment naming task id as its
// producer. rr may be nil (total failure with no report); a partial result
// still carries the footprint charged as waste.
func newRemoteMapTask(job *Job, id, attempt int, rr *RemoteResult) *mapTask {
	t := &mapTask{
		job:     job,
		id:      id,
		attempt: attempt,
		ctx: &TaskContext{
			TaskID:   id,
			Attempt:  attempt,
			IsMap:    true,
			FS:       job.FS,
			counters: &Counters{},
		},
	}
	if rr == nil {
		return t
	}
	_ = t.ctx.counters.AddSnapshot(rr.Counters) // length-checked by the wire layer
	t.ctx.inputBytes = rr.InputBytes
	t.hosts = rr.Hosts
	t.footprint = rr.Footprint
	t.wallSeconds = rr.WallSeconds
	if rr.Parts != nil {
		t.finals = make([]segment, len(rr.Parts))
		for p, data := range rr.Parts {
			t.finals[p] = segment{data: data, src: id, attempt: attempt}
		}
	}
	return t
}

// newRemoteReduceTask wraps a remotely executed reduce attempt's result in
// the scheduler's task shape; commit writes the returned output bytes to the
// task's final path.
func newRemoteReduceTask(job *Job, id, attempt int, rr *RemoteResult) *reduceTask {
	t := newReduceTask(context.Background(), job, id, attempt)
	t.remote = true
	if rr == nil {
		return t
	}
	_ = t.ctx.counters.AddSnapshot(rr.Counters) // length-checked by the wire layer
	t.footprint = rr.Footprint
	t.wallSeconds = rr.WallSeconds
	t.remoteData = rr.Output
	return t
}
