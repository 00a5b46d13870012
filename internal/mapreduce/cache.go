package mapreduce

import (
	"fmt"

	"scikey/internal/cluster"
)

// SegmentSnapshot is one published map-output segment in cacheable form:
// the framed IFile bytes plus the provenance (producing task and attempt)
// the shuffle and corruption-recovery paths key on.
type SegmentSnapshot struct {
	Data    []byte
	Records int64
	Src     int
	Attempt int
}

// MapPhaseSnapshot captures everything the reduce phase consumes from a
// finished map phase — the published per-task, per-partition segments (the
// post-combine view when the job combines in-node), the attempt numbers
// they were published under, the winning attempts' cost-model footprints,
// and the map side's contribution to the job counters (payload counters
// merged from the winning attempts plus the in-node combine accounting,
// in Counters.Snapshot wire order).
//
// A job that restores a snapshot skips its map and combine phases entirely
// and still assembles a Result whose output bytes, payload counters, and
// cost-model inputs are identical to the run that produced the snapshot —
// the invariant the differential tests pin.
type MapPhaseSnapshot struct {
	// Segments[task][partition] is the published map output view.
	Segments [][]SegmentSnapshot
	// Attempts[task] is the attempt number task's segments were published
	// under (the shuffle service indexes segments by it).
	Attempts []int
	// Footprints, InputBytes, Hosts, WallSeconds describe the winning map
	// attempts for Result.MapTasks / MapSpecs / CalSamples.
	Footprints  []cluster.Task
	InputBytes  []int64
	Hosts       [][]string
	WallSeconds []float64
	// Counters is the map side's counter contribution in Snapshot order.
	Counters []int64
	// NumReducers is the partition count the segments were routed for; a
	// snapshot only fits a job with the same value.
	NumReducers int
}

// MapOutputCache stores MapPhaseSnapshots by cache key. Get reports a miss
// as ok=false; corrupt or stale entries must surface as misses, never as
// errors that fail the job (the engine falls back to running the map
// phase). Implementations are safe for concurrent use.
type MapOutputCache interface {
	Get(key string) (*MapPhaseSnapshot, bool)
	Put(key string, snap *MapPhaseSnapshot) error
}

// matches reports whether the snapshot fits the job's shape. A mismatch
// (different split or reducer count under a colliding key) is treated as a
// cache miss.
func (s *MapPhaseSnapshot) matches(job *Job) bool {
	n := len(job.Splits)
	return s != nil &&
		len(s.Segments) == n && len(s.Attempts) == n &&
		len(s.Footprints) == n && len(s.InputBytes) == n &&
		len(s.Hosts) == n && len(s.WallSeconds) == n &&
		s.NumReducers == job.NumReducers
}

// restoreSegments converts the snapshot's published view back into engine
// segments, one row per map task, ready to install.
func (s *MapPhaseSnapshot) restoreSegments() [][]segment {
	outs := make([][]segment, len(s.Segments))
	for i, row := range s.Segments {
		outs[i] = make([]segment, len(row))
		for p, seg := range row {
			outs[i][p] = segment{
				data:    seg.Data,
				records: seg.Records,
				src:     seg.Src,
				attempt: seg.Attempt,
			}
		}
	}
	return outs
}

// snapshotMapPhase captures a finished run's published map state for the
// cache: pub is the published (post-combine) view, tasks the winning
// attempts, nb the combine buffer when the job combined. Segment bytes are
// copied, so the snapshot stays valid after the job's memory is reused.
func snapshotMapPhase(job *Job, tasks []*mapTask, pub *publishedRows, nb *NodeBuffer) (*MapPhaseSnapshot, error) {
	n := len(tasks)
	pub.mu.Lock()
	defer pub.mu.Unlock()
	snap := &MapPhaseSnapshot{
		Segments:    make([][]SegmentSnapshot, n),
		Attempts:    append([]int(nil), pub.attempts...),
		Footprints:  make([]cluster.Task, n),
		InputBytes:  make([]int64, n),
		Hosts:       make([][]string, n),
		WallSeconds: make([]float64, n),
		NumReducers: job.NumReducers,
	}
	mapSide := &Counters{}
	for i, t := range tasks {
		if t == nil {
			return nil, fmt.Errorf("mapreduce: job %q: map task %d has no committed attempt to snapshot", job.Name, i)
		}
		row := pub.rows[i]
		snap.Segments[i] = make([]SegmentSnapshot, len(row))
		for p, seg := range row {
			snap.Segments[i][p] = SegmentSnapshot{
				Data:    append([]byte(nil), seg.data...),
				Records: seg.records,
				Src:     seg.src,
				Attempt: seg.attempt,
			}
		}
		snap.Footprints[i] = t.footprint
		snap.InputBytes[i] = t.ctx.inputBytes
		snap.Hosts[i] = append([]string(nil), t.hosts...)
		snap.WallSeconds[i] = t.wallSeconds
		mapSide.Merge(t.counters())
	}
	if nb != nil {
		nb.fold(mapSide)
	}
	snap.Counters = mapSide.Snapshot()
	return snap, nil
}
