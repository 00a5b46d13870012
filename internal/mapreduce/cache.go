package mapreduce

import (
	"fmt"
)

// MapPhaseSnapshot captures everything the reduce phase consumes from a
// finished map phase, in the shape a remote map attempt commits in: for
// each map task, the attempt its row was published under and a
// RemoteResult holding that row — the post-combine view when the job
// combines in-node: the node group's combined segments for its
// representative, empty segments for every other member — with the
// attempt's own counters, footprint, input bytes, hosts and wall seconds.
// Groups holds each node group's combine accounting.
//
// A run that restores a snapshot commits each task from it as it commits a
// remote map attempt, runs no map attempt and no combine, and assembles a
// Result whose output bytes, payload counters, and cost-model inputs are
// identical to the run that produced the snapshot — the invariant the
// configuration lattice pins. A reducer that finds restored output corrupt
// or lost makes the run drop the restore and run its map phase as a miss.
type MapPhaseSnapshot struct {
	// Attempts[task] is the attempt number task's row was published under
	// (the shuffle service indexes segments by it).
	Attempts []int
	// Tasks[task] is the committed attempt: Parts is the published row.
	Tasks []RemoteResult
	// Groups[g] is node group g's combine accounting; empty when the job
	// does not combine in-node.
	Groups []NodeStats
	// NumReducers is the partition count the rows were routed for; a
	// snapshot only fits a job with the same value.
	NumReducers int
}

// MapOutputCache stores MapPhaseSnapshots by cache key. Get reports a miss
// as ok=false; corrupt or stale entries must surface as misses, never as
// errors that fail the job (the engine falls back to running the map
// phase). Put's snapshot aliases the run's published segments: its part
// bytes are read-only, and an implementation that keeps them past Put
// copies them. Get's snapshot may alias what the cache holds, so the engine
// treats its part bytes as read-only too: nothing on the read path writes a
// segment. Implementations are safe for concurrent use.
type MapOutputCache interface {
	Get(key string) (*MapPhaseSnapshot, bool)
	Put(key string, snap *MapPhaseSnapshot) error
}

// matches reports whether the snapshot fits the job's shape: a task, a row
// of every partition and a full counter set per map task, and a combine
// account per node group. A mismatch (a different split, reducer or
// node-group count under a colliding key, or another engine version's
// counters) is treated as a cache miss.
func (s *MapPhaseSnapshot) matches(job *Job) bool {
	n, groups := len(job.Splits), 0
	if job.Combine != nil {
		groups = job.combineGroupCount()
	}
	if s == nil || len(s.Attempts) != n || len(s.Tasks) != n || len(s.Groups) != groups || s.NumReducers != job.NumReducers {
		return false
	}
	for _, t := range s.Tasks {
		if len(t.Parts) != job.NumReducers || len(t.Counters) != len(counterTable) {
			return false
		}
	}
	return true
}

// snapshotMapPhase captures a finished run's published map state for the
// cache: pub is the published (post-combine) view, tasks the committed
// attempts, nb the combine buffer when the job combined. Each part aliases
// its published segment with its capacity capped at its length, so an
// append by the cache reallocates instead of writing past it. Aliasing is
// safe because published segments (src >= 0) are never recycled into
// bufpool and never written after finalize, so the bytes stay valid after
// the job ends.
func snapshotMapPhase(job *Job, tasks []*mapTask, pub *publishedRows, nb *NodeBuffer) (*MapPhaseSnapshot, error) {
	pub.mu.Lock()
	defer pub.mu.Unlock()
	snap := &MapPhaseSnapshot{
		Attempts:    append([]int(nil), pub.attempts...),
		Tasks:       make([]RemoteResult, len(tasks)),
		NumReducers: job.NumReducers,
	}
	for i, t := range tasks {
		if t == nil {
			return nil, fmt.Errorf("mapreduce: job %q: map task %d has no committed attempt to snapshot", job.Name, i)
		}
		parts := make([][]byte, len(pub.rows[i]))
		for p, seg := range pub.rows[i] {
			parts[p] = seg.data[:len(seg.data):len(seg.data)]
		}
		snap.Tasks[i] = t.result(parts)
	}
	if nb != nil {
		snap.Groups = nb.groupStats()
	}
	return snap, nil
}
