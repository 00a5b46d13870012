package mapreduce

// One combiner contract, two levels. The contract is the monoid
// ("Monoidify!", arXiv:1304.7544): an associative merge with an identity can
// be applied per spill, per node, or not at all, and the reduce output is
// the same bytes either way. The spill level (Job.MapCombiner) folds each
// sorted spill buffer inside a map task; the node level (Job.Combine,
// "In-node Combiners", arXiv:1511.04861) pools committed map outputs per
// node group and folds them once more before anything crosses the shuffle.
// Both run the same combineStream. DESIGN.md "Combiner algebra" is the
// authoritative spec for the laws, the MergeCut/cluster-boundary
// interaction, the byte-identity argument, and why the levels are switched
// separately.

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Monoid is the algebraic contract for mergeable aggregate values: a binary
// Merge that is associative — Merge(Merge(a,b),c) == Merge(a,Merge(b,c)) —
// with Identity as its neutral element — Merge(Identity(),x) == x ==
// Merge(x,Identity()). The engine additionally requires commutativity
// (Merge(a,b) == Merge(b,a)) for node-level combining: the k-way merge
// interleaves equal keys from different tasks in heap order, not emission
// order, so the fold order of a key's values is not stable across
// groupings. Every built-in combiner satisfies all three laws
// (TestCombinerLaws holds them property-style).
//
// Ownership: Merge folds b into a and returns the result. It may reuse a's
// backing storage (callers must treat a as consumed) and must not retain b,
// which may alias a buffer that is reused after the record.
type Monoid interface {
	// Identity returns the neutral aggregate. Built-ins return nil: the
	// empty byte slice merges with any value of any lane width.
	Identity() []byte
	// Merge folds b into a and returns the combined aggregate, or an error
	// when the two values are not mergeable (e.g. mismatched lane counts).
	Merge(a, b []byte) ([]byte, error)
}

// laneCombiner folds equal-length values lane by lane, each lane a
// big-endian int32 — the element encoding every scihadoop value uses (one
// lane for simple keys, Range.Len()/NumCells lanes for aggregate and box
// keys). Values for equal keys always carry the same lane count, so a
// length mismatch is a corruption-grade error, not a valid merge.
type laneCombiner struct {
	name string // for merge-error diagnostics
	fold func(a, b int32) int32
}

// Identity implements Monoid: nil merges with any lane width.
func (l *laneCombiner) Identity() []byte { return nil }

// Merge implements Monoid, folding b into a lane by lane in place.
func (l *laneCombiner) Merge(a, b []byte) ([]byte, error) {
	if len(b) == 0 {
		return a, nil
	}
	if len(a) == 0 {
		return append(a, b...), nil
	}
	if len(a) != len(b) || len(a)%4 != 0 {
		return nil, fmt.Errorf("mapreduce: combiner %s: cannot merge %d-byte and %d-byte values", l.name, len(a), len(b))
	}
	for i := 0; i < len(a); i += 4 {
		va := int32(binary.BigEndian.Uint32(a[i:]))
		vb := int32(binary.BigEndian.Uint32(b[i:]))
		binary.BigEndian.PutUint32(a[i:], uint32(l.fold(va, vb)))
	}
	return a, nil
}

// Built-in combiners, all lane-wise over big-endian int32 values. Max and
// min model distributive window operators (the paper's max query); sum
// models additive partial aggregates. Holistic operators like the paper's
// median have no monoid — that absence is the point of Section III: no
// combiner can shrink a holistic query's intermediate data, only key/value
// encoding can.
var (
	// MaxInt32 keeps the lane-wise maximum.
	MaxInt32 Monoid = &laneCombiner{name: "max32", fold: func(a, b int32) int32 {
		if a > b {
			return a
		}
		return b
	}}
	// MinInt32 keeps the lane-wise minimum.
	MinInt32 Monoid = &laneCombiner{name: "min32", fold: func(a, b int32) int32 {
		if a < b {
			return a
		}
		return b
	}}
	// SumInt32 adds lanes with wrap-around.
	SumInt32 Monoid = &laneCombiner{name: "sum32", fold: func(a, b int32) int32 {
		return a + b
	}}
)

// CombineConfig enables in-node combining on a Job: after the map phase
// commits, the engine groups map tasks into node groups (task t joins group
// t % groups), k-way merges each group's committed segments per partition,
// folds runs of equal keys with the Combiner, and publishes the combined
// segment in place of the members' raw ones. Combining never crosses a
// MergeCut window boundary: the job's cut predicate runs over each combined
// stream, so keys in independent windows stay separate and the reduce-side
// windowed transform sees the same window structure it would uncombined —
// the byte-identity argument in DESIGN.md "Combiner algebra".
//
// Jobs with a MergeTransform must use a Combiner whose merge commutes with
// the transform (lane-wise folds commute with the key-splitting rewrites,
// since slicing a folded value equals folding the slices); jobs without a
// monoid for their reduce operator (holistic operators like median) must
// not set Combine at all.
type CombineConfig struct {
	// Combiner is the value monoid. Required.
	Combiner Monoid
	// Nodes is the node-group count, at least 1: how many per-node combine
	// buffers the run simulates, map task t feeding group t % Nodes. Query
	// configurations default it to the shuffle's default node count
	// (scihadoop.QueryConfig.WithDefaults), whatever the shuffle or
	// executor. Grouping only changes which duplicates meet — the monoid
	// laws make the reduce output identical for every value.
	Nodes int
}

// combineGroupCount is the job's node-group count: Combine.Nodes, but never
// more groups than map tasks. The shuffle has no say in it.
func (j *Job) combineGroupCount() int { return min(j.Combine.Nodes, len(j.Splits)) }

// NodeBuffer is the shared per-node combine buffer: every committed map
// attempt on a node feeds its final segments in, and the node's combined
// output is merged from the freshest committed member outputs on demand.
// One NodeBuffer instance serves all of a run's node groups.
//
// Concurrency contract: all methods are safe for concurrent use; a single
// mutex serializes them. feed is called by committing map attempts (and by
// recovery re-executions) and only records the new output — it never blocks
// on a merge. combine(g) does the heavy work under the same lock and returns
// the group's rows for the engine to publish; the engine re-runs combine(g)
// after any member re-execution, so a published combined segment always
// reflects the committed attempts of every member. The raw member segments
// stay in the buffer as the durable source of truth: corruption found while
// combining names the true producing attempt (and the engine re-runs it),
// while corruption of a published combined segment names the group's
// representative task, whose re-execution re-feeds and re-combines.
type NodeBuffer struct {
	job    *Job
	groups int

	mu    sync.Mutex
	raw   []nodeInput // per map task: freshest committed finals
	stats []NodeStats // per group: last combine's record/byte accounting
}

// nodeInput is one member task's freshest committed output.
type nodeInput struct {
	attempt int
	finals  []segment
}

// nodeRow is one member task's share of its group's combined view: what the
// engine publishes for the task, and the attempt to publish it under.
type nodeRow struct {
	task, attempt int
	row           []segment
}

// NodeStats accounts one node group's most recent combine. Recombines
// after a member re-execution overwrite the group's stats, so the job-level
// fold reflects exactly the published segments; a MapPhaseSnapshot carries
// them, so a restored run folds what its producer folded.
type NodeStats struct {
	In, Out            int64 // records entering / leaving the combine merge
	RawBytes, OutBytes int64 // member segment bytes vs combined segment bytes
}

// newNodeBuffer builds the run's combine buffer, or nil when the job does
// not combine.
func newNodeBuffer(job *Job) *NodeBuffer {
	if job.Combine == nil {
		return nil
	}
	g := job.combineGroupCount()
	return &NodeBuffer{
		job:    job,
		groups: g,
		raw:    make([]nodeInput, len(job.Splits)),
		stats:  make([]NodeStats, g),
	}
}

// groupOf names the node group a map task feeds.
func (b *NodeBuffer) groupOf(task int) int { return task % b.groups }

// numGroups is the node-group count.
func (b *NodeBuffer) numGroups() int { return b.groups }

// members lists a group's map tasks in ascending order. The first member is
// the group's representative: combined segments are published under its
// task id (and its committed attempt), the other members publish empty
// segments, so the (map task, partition) fetch topology — and with it every
// shuffle transport and the corruption-recovery provenance — is unchanged.
func (b *NodeBuffer) members(g int) []int {
	var out []int
	for t := g; t < len(b.raw); t += b.groups {
		out = append(out, t)
	}
	return out
}

// groupSize counts a group's members.
func (b *NodeBuffer) groupSize(g int) int { return len(b.members(g)) }

// feed records a committed map attempt's final segments, replacing any
// earlier attempt's.
func (b *NodeBuffer) feed(task, attempt int, finals []segment) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.raw[task] = nodeInput{attempt: attempt, finals: finals}
}

// combine merges group g's committed member segments per partition —
// folding runs of equal keys with the job's Combiner inside MergeCut
// windows — and returns the group's published view, one row per member in
// ascending task order: the combined row for the representative, an
// all-empty row for every other member, each under the member's committed
// attempt. Errors from a member segment that fails to decode surface as
// *ErrCorruptSegment naming the producing map attempt; the engine re-runs
// it, feeds the fresh output, and calls combine again.
func (b *NodeBuffer) combine(g int) ([]nodeRow, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	members := b.members(g)
	rep := members[0]
	nparts := b.job.NumReducers
	combined := make([]segment, nparts)
	var st NodeStats
	for p := 0; p < nparts; p++ {
		var segs []segment
		var rawBytes int64
		for _, m := range members {
			if p >= len(b.raw[m].finals) {
				continue // not fed yet
			}
			seg := b.raw[m].finals[p]
			if len(seg.data) == 0 {
				continue
			}
			segs = append(segs, seg)
			rawBytes += int64(len(seg.data))
		}
		if len(segs) == 0 {
			continue
		}
		// The members' raw segments are read without fault injection: the
		// bytes were already written (corruption is in the data); injected
		// transient read faults keep firing where they always did, at the
		// reduce attempts. Validate-then-combine, mirroring the reduce
		// side's validate-then-reduce: each member segment is scanned to its
		// end first, forcing the codec and IFile CRC checks, so corruption
		// surfaces as an ErrCorruptSegment naming the producing attempt —
		// never as the Combiner choking on (or worse, folding) a
		// garbage-but-parseable record the trailer check hasn't reached yet.
		// On a coded job that scan is the one decode and the merge reads
		// its plaintext raw.
		env := readEnv{codec: b.job.codec(), part: p}
		level, _, err := validateSegments(segs, env)
		if err != nil {
			return nil, err
		}
		ms, err := newMergeStream(level, env, b.job.order())
		if err != nil {
			for _, s := range level {
				recycleSegment(s)
			}
			return nil, err
		}
		var cut func(key []byte) bool
		if b.job.MergeCut != nil {
			cut = b.job.MergeCut()
		}
		cs := &combineStream{src: ms, cmp: b.job.Compare, m: b.job.Combine.Combiner, cut: cut}
		seg, err := writeSegmentStream(cs, b.job.codec(), int(rawBytes))
		cs.close()
		for _, s := range level {
			recycleSegment(s)
		}
		if err != nil {
			return nil, err
		}
		// The combined segment carries the representative's provenance:
		// reduce-side corruption re-runs the representative, whose commit
		// re-feeds this buffer and recombines the group.
		seg.src, seg.attempt = rep, b.raw[rep].attempt
		combined[p] = seg
		st.In += cs.inRecords
		st.Out += cs.outRecords
		st.RawBytes += rawBytes
		st.OutBytes += int64(len(seg.data))
	}
	rows := make([]nodeRow, len(members))
	for i, m := range members {
		row := combined
		if m != rep {
			row = make([]segment, nparts)
		}
		rows[i] = nodeRow{task: m, attempt: b.raw[m].attempt, row: row}
	}
	b.stats[g] = st
	return rows, nil
}

// fold adds the buffer's combine accounting — from each group's most recent
// combine, so recombined groups count once — into the job counters.
func (b *NodeBuffer) fold(jc *Counters) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var st NodeStats
	for _, s := range b.stats {
		st.In += s.In
		st.Out += s.Out
		st.RawBytes += s.RawBytes
		st.OutBytes += s.OutBytes
	}
	jc.CombineMergedRecords.Add(st.In - st.Out)
	jc.CombineEmittedRecords.Add(st.Out)
	jc.CombineSavedBytes.Add(st.RawBytes - st.OutBytes)
}

// groupStats copies each group's combine accounting, for a snapshot.
func (b *NodeBuffer) groupStats() []NodeStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]NodeStats(nil), b.stats...)
}

// combineStream folds runs of equal keys in a sorted stream with a monoid,
// never across a cut-window boundary: the cut predicate (the job's MergeCut,
// fed every incoming key once, in stream order) marks keys that start an
// independent window, and a pending aggregate is flushed — not merged —
// when one arrives. Input records are valid only until the next pull (the
// kvStream rule); the stream owns its pending and emitted copies, and each
// emitted record stays valid until the next pull, which is all
// writeSegmentStream needs.
type combineStream struct {
	src kvStream
	cmp func(a, b []byte) int
	m   Monoid
	cut func(key []byte) bool

	pendKey, pendVal []byte // accumulating run (owned)
	emitKey, emitVal []byte // last emitted record's backing (owned, reused)
	out              KV     // the record pull last returned
	have             bool
	eof              bool

	inRecords  int64
	outRecords int64
}

func (s *combineStream) pull() (*KV, error) {
	for {
		if s.eof {
			if s.have {
				s.have = false
				s.outRecords++
				s.out = KV{Key: s.pendKey, Value: s.pendVal}
				return &s.out, nil
			}
			return nil, nil
		}
		kv, err := s.src.pull()
		if kv == nil {
			if err != nil {
				return nil, err
			}
			s.eof = true
			continue
		}
		s.inRecords++
		startsWindow := s.cut != nil && s.cut(kv.Key)
		if s.have && !startsWindow && s.cmp(s.pendKey, kv.Key) == 0 {
			merged, err := s.m.Merge(s.pendVal, kv.Value)
			if err != nil {
				return nil, err
			}
			s.pendVal = merged
			continue
		}
		if s.have {
			// Flush the finished run, stash the new key. The emitted copy
			// lives in its own buffers so the pending pair can keep
			// accumulating while the caller consumes it.
			s.emitKey = append(s.emitKey[:0], s.pendKey...)
			s.emitVal = append(s.emitVal[:0], s.pendVal...)
			s.pendKey = append(s.pendKey[:0], kv.Key...)
			s.pendVal = append(s.pendVal[:0], kv.Value...)
			s.outRecords++
			s.out = KV{Key: s.emitKey, Value: s.emitVal}
			return &s.out, nil
		}
		s.pendKey = append(s.pendKey[:0], kv.Key...)
		s.pendVal = append(s.pendVal[:0], kv.Value...)
		s.have = true
	}
}

func (s *combineStream) close() { s.src.close() }
