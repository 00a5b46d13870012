package clusterd

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"scikey/internal/mapreduce"
)

// The coordinator journal makes the control plane crash-recoverable. Every
// durable state transition — worker ID assignment, lease grant, lease
// settlement (completion, failure, expiry, loss, revocation) with its full
// outcome, outcome delivery to the driver, and map-output publication — is
// appended as a record and fsynced before it is applied to the live state,
// so nothing acts on it until it is durable; an append that fails ends the
// coordinator's incarnation (see journalApply). A record is exactly a wire
// message (see wire.go): a CRC-framed JSON header, then one CRC-framed blob
// per byte field, so a settle's or a publish's segments sit in the file
// verbatim. One record is one vectored write and one fsync. Heartbeat
// renewals are deliberately NOT journaled: deadlines are volatile, and
// replay resets every surviving lease's deadline to replay-time+TTL — the
// grace window in which its worker must reconnect and re-adopt it.
//
// Replay is O(live state), not O(history): every checkpointEvery appended
// events the journal compacts itself by atomically replacing the file with a
// single checkpoint record (write tmp, fsync, rename), after which replay
// loads the checkpoint and applies only the suffix. A torn tail — the record
// a crash interrupted mid-append, its header or any of its blobs — is
// detected by the frame CRCs and truncated whole; everything before it
// replays intact.
//
// All mutations, live or replayed, flow through coordState.apply, and every
// apply is idempotent (re-applying any prefix of events converges on the
// same state). The replay-determinism property test pins this: any prefix of
// the event stream replayed into a fresh state equals the live state at that
// point.

// Journal record kinds (distinct from the wire kind space; readRecord does
// not interpret header kinds, so the two spaces share the framing helpers
// and kindBlob only).
const (
	jkHeader byte = iota + 100
	jkCheckpoint
	jkBoot
	jkWorker
	jkGrant
	jkSettle
	jkDeliver
	jkPublish
)

// journalMagic identifies a journal file and its format version: in v2 a
// record's byte fields follow its header as blob frames. A file of any
// other version is refused whole, neither replayed nor truncated: a journal
// lives as long as one coordinator's job.
const journalMagic = "scikey-coord-journal-v2"

// checkpointEvery is the compaction cadence in appended events.
const checkpointEvery = 256

type jHeader struct {
	Magic string
}

// fileHeader is the record that opens a journal file.
func fileHeader() message {
	m, _ := encodeMsg(jkHeader, jHeader{Magic: journalMagic}) // a constant string always marshals
	return m
}

// attemptKey identifies one submitted attempt — the idempotency key a
// driver's re-sent run request rebinds on after a coordinator restart. A
// delivery record is one: the attempt whose outcome reached the driver.
type attemptKey struct {
	Phase   string
	Task    int
	Attempt int
}

// storedOutcome is one settled attempt's full outcome, journaled so a
// completion that the coordinator accepted but never delivered to the driver
// survives a crash and is delivered on the driver's re-submission instead of
// re-running the attempt.
type storedOutcome struct {
	Phase    string
	Task     int
	Attempt  int
	State    string // completed | failed | expired | lost | revoked
	Result   *mapreduce.RemoteResult
	Error    string
	Canceled bool
	Corrupt  *corruptInfo
}

func (o *storedOutcome) key() attemptKey {
	return attemptKey{Phase: o.Phase, Task: o.Task, Attempt: o.Attempt}
}

// segEntry is one map task's published output: its per-partition segments
// and the attempt that produced them.
type segEntry struct {
	attempt int
	parts   [][]byte
}

// The journal event payloads.
type evBoot struct {
	Epoch int
}

type evWorker struct {
	ID int
}

type evGrant struct {
	Lease leaseInfo
}

type evSettle struct {
	blobList
	Lease   int
	Outcome storedOutcome
}

// evPublish installs one map task's published output; a checkpoint lists the
// segment store in the same form.
type evPublish struct {
	blobList
	MapTask int
	Attempt int
	Parts   [][]byte
}

// evCheckpoint is the compacted whole-state record.
type evCheckpoint struct {
	blobList
	Epoch      int
	NextWorker int
	NextLease  int
	Grants     []grantCount
	Leases     []leaseInfo
	Outcomes   []storedOutcome
	Segs       []evPublish
}

func (e evSettle) detach(b *[][]byte) announcer {
	e.Outcome.Result = detachResult(e.Outcome.Result, b)
	return &e
}

func (e *evSettle) fields() []*[]byte { return resultFields(nil, e.Outcome.Result) }

func (e evPublish) detach(b *[][]byte) announcer {
	e.Parts = detachParts(e.Parts, b)
	return &e
}

func (e *evPublish) fields() []*[]byte { return partsFields(nil, e.Parts) }

// A checkpoint's blobs are its outcomes' results, then its segments' parts.
func (e evCheckpoint) detach(b *[][]byte) announcer {
	e.Outcomes = slices.Clone(e.Outcomes)
	for i := range e.Outcomes {
		e.Outcomes[i].Result = detachResult(e.Outcomes[i].Result, b)
	}
	e.Segs = slices.Clone(e.Segs)
	for i := range e.Segs {
		e.Segs[i].Parts = detachParts(e.Segs[i].Parts, b)
	}
	return &e
}

func (e *evCheckpoint) fields() []*[]byte {
	var f []*[]byte
	for i := range e.Outcomes {
		f = resultFields(f, e.Outcomes[i].Result)
	}
	for i := range e.Segs {
		f = partsFields(f, e.Segs[i].Parts)
	}
	return f
}

// coordState is the durable control-plane state: coordinator epoch, worker
// ID high-water mark, the lease table, settled-but-undelivered outcomes, and
// the published segment store. It is mutated only via apply (under the
// coordinator's mutex), which is also the replay entry point.
type coordState struct {
	epoch      int
	nextWorker int
	leases     *leaseTable
	outcomes   map[attemptKey]*storedOutcome
	segs       map[int]*segEntry
}

func newCoordState(ttl time.Duration) *coordState {
	return &coordState{
		leases:   newLeaseTable(ttl),
		outcomes: make(map[attemptKey]*storedOutcome),
		segs:     make(map[int]*segEntry),
	}
}

// decodeEvent decodes a journal record into a pointer to its event.
func decodeEvent(m message) (any, error) {
	var ev any
	switch m.kind {
	case jkBoot:
		ev = new(evBoot)
	case jkWorker:
		ev = new(evWorker)
	case jkGrant:
		ev = new(evGrant)
	case jkSettle:
		ev = new(evSettle)
	case jkDeliver:
		ev = new(attemptKey)
	case jkPublish:
		ev = new(evPublish)
	case jkCheckpoint:
		ev = new(evCheckpoint)
	default:
		return nil, fmt.Errorf("clusterd: unknown journal record kind %d", m.kind)
	}
	return ev, m.decode(ev)
}

// apply folds one event, encoded as a journal record, into the state. Its
// blobs become the state's byte fields as they are. Every branch is
// idempotent: applying the same event again (or replaying any journal
// prefix) converges on the same state. now is the application time, used
// only for volatile deadlines.
func (s *coordState) apply(m message, now time.Time) error {
	ev, err := decodeEvent(m)
	if err != nil {
		return err
	}
	switch e := ev.(type) {
	case *evBoot:
		s.epoch = max(s.epoch, e.Epoch)
	case *evWorker:
		s.nextWorker = max(s.nextWorker, e.ID+1)
	case *evGrant:
		s.leases.install(&e.Lease, now)
	case *evSettle:
		if _, ok := s.leases.complete(e.Lease); ok {
			s.outcomes[e.Outcome.key()] = &e.Outcome
		}
	case *attemptKey:
		delete(s.outcomes, *e)
	case *evPublish:
		if !s.holdsPublish(e.MapTask, e.Attempt) {
			s.segs[e.MapTask] = &segEntry{attempt: e.Attempt, parts: e.Parts}
		}
	case *evCheckpoint:
		*s = *newCoordState(s.leases.ttl)
		s.epoch = e.Epoch
		s.nextWorker = e.NextWorker
		s.leases.restore(e.NextLease, e.Leases, e.Grants, now)
		for i := range e.Outcomes {
			s.outcomes[e.Outcomes[i].key()] = &e.Outcomes[i]
		}
		for _, seg := range e.Segs {
			s.segs[seg.MapTask] = &segEntry{attempt: seg.Attempt, parts: seg.Parts}
		}
	}
	return nil
}

// holdsPublish reports whether the segment store already holds mapTask's
// output from attempt or a later one. A publish it holds is not journaled
// and not applied: newer output is never replaced with older, and the
// re-send of a publish whose ack a crash lost adds no record.
func (s *coordState) holdsPublish(mapTask, attempt int) bool {
	cur, ok := s.segs[mapTask]
	return ok && cur.attempt >= attempt
}

// checkpoint captures the full state as a single compacted record.
func (s *coordState) checkpoint() evCheckpoint {
	ck := evCheckpoint{
		Epoch:      s.epoch,
		NextWorker: s.nextWorker,
		NextLease:  s.leases.nextID,
		Grants:     s.leases.snapshotGrants(),
		Leases:     s.leases.snapshotLeases(),
	}
	for _, o := range s.outcomes {
		ck.Outcomes = append(ck.Outcomes, *o)
	}
	for mt, e := range s.segs {
		ck.Segs = append(ck.Segs, evPublish{MapTask: mt, Attempt: e.attempt, Parts: e.parts})
	}
	sortCheckpoint(&ck)
	return ck
}

func sortCheckpoint(ck *evCheckpoint) {
	// Canonical ordering keeps checkpoints deterministic for a given state,
	// which the replay property test compares byte-for-byte.
	slices.SortFunc(ck.Outcomes, func(a, b storedOutcome) int {
		if c := strings.Compare(a.Phase, b.Phase); c != 0 {
			return c
		}
		if a.Task != b.Task {
			return a.Task - b.Task
		}
		return a.Attempt - b.Attempt
	})
	slices.SortFunc(ck.Segs, func(a, b evPublish) int { return a.MapTask - b.MapTask })
}

// journal is the append-only on-disk record of coordState transitions.
type journal struct {
	path string
	f    *os.File
	// eventsSinceCkpt counts appended records since the last checkpoint;
	// reaching cadence (checkpointEvery; tests shorten it) triggers compaction.
	eventsSinceCkpt int
	cadence         int
}

// crashHook, set only by tests, sees each appended record and its framed
// size once durable; an error it returns is the append's.
var crashHook func(m message, size int64) error

// replayStats reports what opening a journal found.
type replayStats struct {
	// Events is the number of non-checkpoint records replayed.
	Events int
	// Checkpoint reports whether a checkpoint record was loaded.
	Checkpoint bool
	// Truncated is non-zero when a torn or corrupt tail was cut off, giving
	// the number of bytes discarded.
	Truncated int64
}

// openJournal opens (or creates) the journal at path and replays it into a
// fresh coordState. A torn tail — a partial or corrupt trailing record from
// a crash mid-append — is truncated; the state reflects every record before
// it. The returned journal is positioned for appending.
func openJournal(path string, ttl time.Duration, now time.Time) (*journal, *coordState, replayStats, error) {
	state := newCoordState(ttl)
	var stats replayStats

	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, stats, fmt.Errorf("clusterd: open journal %s: %w", path, err)
	}
	j := &journal{path: path, f: f, cadence: checkpointEvery}

	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, stats, err
	}
	if info.Size() == 0 {
		// Fresh journal: stamp the header.
		if _, err := j.writeRecord(fileHeader()); err != nil {
			f.Close()
			return nil, nil, stats, err
		}
		return j, state, stats, nil
	}

	// Replay. Track the offset of the last intact record so a torn tail can
	// be truncated precisely.
	good, err := replayInto(f, state, &stats, now)
	if err != nil {
		f.Close()
		return nil, nil, stats, err
	}
	if good < info.Size() {
		stats.Truncated = info.Size() - good
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, stats, fmt.Errorf("clusterd: truncate torn journal tail: %w", err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, stats, err
	}
	j.eventsSinceCkpt = stats.Events
	return j, state, stats, nil
}

// replayInto reads records from f applying each to state, returning the
// offset just past the last intact record (f is read unbuffered, so that is
// its offset after the record). Record errors (torn tail, CRC mismatch, a
// blob group cut short, bad header) end the replay without failing it,
// dropping that record whole; a bad file header does fail — the file is not
// a journal, or not one of this version.
func replayInto(f *os.File, state *coordState, stats *replayStats, now time.Time) (int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	m, err := readRecord(f)
	if err != nil {
		return 0, fmt.Errorf("clusterd: journal %s has no header: %w", f.Name(), err)
	}
	var hdr jHeader
	if m.kind != jkHeader || m.decode(&hdr) != nil {
		return 0, fmt.Errorf("clusterd: %s is not a coordinator journal", f.Name())
	}
	if hdr.Magic != journalMagic {
		return 0, fmt.Errorf("clusterd: journal %s is %q; this build reads only %q", f.Name(), hdr.Magic, journalMagic)
	}
	good, err := f.Seek(0, io.SeekCurrent)
	for err == nil {
		if m, err = readRecord(f); err != nil {
			return good, nil // torn or corrupt tail: cut here
		}
		if err := state.apply(m, now); err != nil {
			return good, nil // undecodable record: treat as tail tear
		}
		if m.kind == jkCheckpoint {
			stats.Checkpoint = true
			stats.Events = 0
		} else {
			stats.Events++
		}
		good, err = f.Seek(0, io.SeekCurrent)
	}
	return 0, err
}

// writeRecord appends one record — its header frame and blob frames, in one
// vectored write — and fsyncs it, returning its size.
func (j *journal) writeRecord(m message) (int64, error) {
	n, err := m.writeTo(j.f)
	if err != nil {
		return n, fmt.Errorf("clusterd: append journal record: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return n, fmt.Errorf("clusterd: fsync journal: %w", err)
	}
	return n, nil
}

// append journals one encoded event and returns its size. Once it returns
// nil the record is durable and the caller applies it to the state; when
// due() turns true it should follow with compact(state).
func (j *journal) append(m message) (int64, error) {
	n, err := j.writeRecord(m)
	if err == nil && crashHook != nil {
		err = crashHook(m, n)
	}
	if err != nil {
		return 0, err
	}
	j.eventsSinceCkpt++
	return n, nil
}

// due reports whether the compaction cadence has been reached.
func (j *journal) due() bool { return j.eventsSinceCkpt >= j.cadence }

// compact atomically replaces the journal with a single checkpoint of the
// given state: write to a temp file, fsync, rename over the journal, fsync
// the directory. After compact, replay is exactly one checkpoint record.
func (j *journal) compact(state *coordState) error {
	tmp := j.path + ".tmp"
	nf, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("clusterd: checkpoint: %w", err)
	}
	ck, err := encodeMsg(jkCheckpoint, state.checkpoint())
	if err != nil {
		nf.Close()
		return err
	}
	if _, err = fileHeader().writeTo(nf); err == nil {
		_, err = ck.writeTo(nf)
	}
	if err == nil {
		err = nf.Sync()
	}
	if err != nil {
		nf.Close()
		os.Remove(tmp)
		return fmt.Errorf("clusterd: write checkpoint: %w", err)
	}
	if err := os.Rename(tmp, j.path); err != nil {
		nf.Close()
		os.Remove(tmp)
		return fmt.Errorf("clusterd: install checkpoint: %w", err)
	}
	syncDir(filepath.Dir(j.path))
	j.f.Close()
	j.f = nf // nf's descriptor now backs the journal path
	j.eventsSinceCkpt = 0
	return nil
}

// Close releases the file handle (without checkpointing; a clean shutdown
// compacts first so the next replay applies zero events).
func (j *journal) Close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// syncDir fsyncs a directory so a rename within it is durable. Best-effort:
// some filesystems refuse directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
