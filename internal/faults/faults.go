// Package faults is a deterministic fault-injection harness for the
// MapReduce engine. A Schedule — parsed from a compact spec string or built
// programmatically — names which task attempts fail, panic, slow down, or
// produce bit-flipped IFile segments. Every decision is a pure function of
// (seed, site, task, partition, attempt), so a schedule replays identically
// across runs and regardless of task scheduling order or parallelism: the
// property the engine's recovery tests rely on.
//
// Sites:
//
//   - map / reduce: injected at attempt start, before user code runs.
//     Actions error (transient), panic, slow.
//   - segment: bit-flips a map task's final IFile segment at materialization
//     time, modeling at-rest corruption of intermediate data. The flip is
//     silent; the reducer's IFile CRC check detects it.
//   - codec: fails a reducer's read of a given map task's output with a
//     transient error before it decodes or parses a byte, modeling a failed
//     shuffle fetch.
//   - out: fails a reduce attempt's output-file writes (the IFile the
//     attempt materializes under its temp path), modeling a full or failing
//     local disk. The error is transient; the attempt scheduler retries.
//   - net: fires on one networked shuffle fetch attempt of a (producing map
//     task, partition) pair — connection refused, mid-stream disconnect,
//     stall past the fetch deadline, truncated transfer, or wire bit-flips
//     the chunk CRCs catch.
//   - node: takes a whole shuffle node down for a duration, measured from
//     the first dial the injector observes for that node; every dial inside
//     the window is refused.
//   - proc: kills (SIGKILL) or hangs (SIGSTOP for a duration, then SIGCONT)
//     a real worker process of the cluster runtime, fired by the coordinator
//     as the worker starts a matching task attempt. Targets are
//     worker[.phase] where phase 0 is map and 1 is reduce; attempt numbers
//     are the worker's per-phase grant sequence. The special target
//     coord[.op] instead kills or hangs the coordinator process itself at a
//     seeded journal point: op 0 fires mid-grant (lease journaled, grant
//     frame never sent) and op 1 mid-commit (outcome journaled, never
//     delivered); attempt numbers are lease IDs, which the journal keeps
//     monotonic across restarts so a respawned coordinator never re-fires
//     the same point.
package faults

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"sync"
	"time"
)

// Site names an injection point in the engine.
type Site string

// The injection sites.
const (
	SiteMap     Site = "map"
	SiteReduce  Site = "reduce"
	SiteSegment Site = "segment"
	SiteCodec   Site = "codec"
	SiteNet     Site = "net"
	SiteNode    Site = "node"
	SiteOut     Site = "out"
	SiteProc    Site = "proc"
)

// Action names what a rule does when it fires.
type Action string

// The injectable actions.
const (
	ActError   Action = "error"
	ActPanic   Action = "panic"
	ActSlow    Action = "slow"
	ActCorrupt Action = "corrupt"
	// Net-site actions (the shuffle transport's failure modes).
	ActRefuse   Action = "refuse"
	ActCut      Action = "cut"
	ActStall    Action = "stall"
	ActTruncate Action = "truncate"
	// ActDown is the node-site outage action.
	ActDown Action = "down"
	// Proc-site actions: kill delivers SIGKILL to a real worker process,
	// hang SIGSTOPs it for a duration and then SIGCONTs it — the two shapes
	// of genuine node death the cluster runtime must survive.
	ActKill Action = "kill"
	ActHang Action = "hang"
)

// Proc-site phase coordinates: a proc rule's partition selects which task
// phase the targeted worker must be starting for the rule to fire (-1, i.e.
// an omitted partition, matches either).
const (
	ProcPhaseMap    = 0
	ProcPhaseReduce = 1
)

// Coordinator fault operations: a proc:coord rule's partition selects which
// journal point the coordinator fault fires at (-1, i.e. an omitted op,
// matches either).
const (
	// CoordOpGrant fires after a lease grant is journaled, before the grant
	// frame reaches the worker — the mid-grant crash window.
	CoordOpGrant = 0
	// CoordOpCommit fires after a lease settlement is journaled, before the
	// outcome reaches the driver — the mid-commit crash window.
	CoordOpCommit = 1
)

// ErrInjected marks transient injected failures (error and codec actions).
// The engine retries these; it distinguishes them from data corruption,
// which instead triggers re-execution of the producing map task.
var ErrInjected = errors.New("faults: injected transient error")

// IsTransient reports whether err is an injected transient failure.
func IsTransient(err error) bool { return errors.Is(err, ErrInjected) }

// Rule fires an action at one site for matching (task, partition, attempt)
// coordinates.
type Rule struct {
	Site   Site
	Action Action
	// Task selects the task ID; -1 matches any task. For segment and codec
	// rules this is the *producing map task*.
	Task int
	// Part selects the partition of a segment rule; -1 matches any.
	Part int
	// Attempts lists the attempt numbers the rule fires on. Empty means
	// attempt 0 only unless AllAttempts is set. For segment rules this is
	// the producing map attempt; for codec rules, the reading reduce
	// attempt.
	Attempts    []int
	AllAttempts bool
	// Prob, when in (0,1), gates firing on a deterministic seeded draw per
	// coordinate. 0 (or >=1) means the rule always fires when it matches.
	Prob float64
	// Delay is the sleep for slow rules.
	Delay time.Duration
	// Flips is how many deterministic bit-flips a corrupt rule applies
	// (default 3).
	Flips int
	// Coord marks a proc rule targeting the coordinator process itself
	// (target "coord[.op]") rather than a worker; Part then selects the
	// journal operation (CoordOpGrant or CoordOpCommit, -1 for both) and
	// attempt numbers are lease IDs.
	Coord bool
}

func (r Rule) matches(site Site, task, part, attempt int) bool {
	if r.Site != site {
		return false
	}
	if r.Task != -1 && r.Task != task {
		return false
	}
	if r.Part != -1 && part != -1 && r.Part != part {
		return false
	}
	if !r.AllAttempts {
		if len(r.Attempts) == 0 {
			if attempt != 0 {
				return false
			}
		} else {
			ok := false
			for _, a := range r.Attempts {
				if a == attempt {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
	}
	return true
}

// String renders the rule in the spec syntax Parse accepts.
func (r Rule) String() string {
	var sb strings.Builder
	sb.WriteString(string(r.Site))
	sb.WriteByte(':')
	if r.Coord {
		sb.WriteString("coord")
		if r.Part != -1 {
			fmt.Fprintf(&sb, ".%d", r.Part)
		}
	} else if r.Task == -1 {
		sb.WriteByte('*')
	} else {
		fmt.Fprintf(&sb, "%d", r.Task)
		if r.Part != -1 {
			fmt.Fprintf(&sb, ".%d", r.Part)
		}
	}
	sb.WriteByte(':')
	switch r.Action {
	case ActSlow, ActStall, ActDown, ActHang:
		fmt.Fprintf(&sb, "%s=%s", r.Action, r.Delay)
	case ActCorrupt:
		if r.Flips > 0 {
			fmt.Fprintf(&sb, "corrupt=%d", r.Flips)
		} else {
			sb.WriteString("corrupt")
		}
	default:
		sb.WriteString(string(r.Action))
	}
	if r.AllAttempts {
		sb.WriteString("@*")
	} else if len(r.Attempts) > 0 {
		sb.WriteByte('@')
		for i, a := range r.Attempts {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", a)
		}
	}
	if r.Prob > 0 && r.Prob < 1 {
		fmt.Fprintf(&sb, "%%%g", r.Prob)
	}
	return sb.String()
}

// Schedule is a seeded set of rules.
type Schedule struct {
	Seed  int64
	Rules []Rule
}

// String renders the schedule in the spec syntax Parse accepts.
func (s *Schedule) String() string {
	parts := make([]string, 0, len(s.Rules)+1)
	if s.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", s.Seed))
	}
	for _, r := range s.Rules {
		parts = append(parts, r.String())
	}
	return strings.Join(parts, ";")
}

// Injector applies a Schedule at the engine's injection sites and records
// what fired. All methods are safe for concurrent use and tolerate a nil
// receiver (no faults).
type Injector struct {
	sched Schedule

	mu    sync.Mutex
	fired map[string]int
	// outageStart records, per (node, rule), when the injector first saw a
	// dial to a node a down rule targets; the outage window runs from there.
	outageStart map[outageKey]time.Time

	// sleep is a test seam for slow rules.
	sleep func(time.Duration)
}

type outageKey struct {
	node int
	rule int
}

// New builds an Injector for the schedule.
func New(s Schedule) *Injector {
	return &Injector{
		sched:       s,
		fired:       make(map[string]int),
		outageStart: make(map[outageKey]time.Time),
		sleep:       time.Sleep,
	}
}

// NewFromSpec parses spec and builds an Injector. An empty spec yields a nil
// Injector (no faults).
func NewFromSpec(spec string) (*Injector, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	s, err := Parse(spec)
	if err != nil {
		return nil, err
	}
	return New(*s), nil
}

func (in *Injector) record(r Rule) {
	in.mu.Lock()
	in.fired[string(r.Site)+"/"+string(r.Action)]++
	in.mu.Unlock()
}

// Fired returns how many times each "site/action" pair has fired.
func (in *Injector) Fired() map[string]int {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]int, len(in.fired))
	for k, v := range in.fired {
		out[k] = v
	}
	return out
}

// draw is the deterministic [0,1) coin for probabilistic rules: a pure
// function of the schedule seed, the rule index, and the coordinates.
func (in *Injector) draw(ruleIdx int, site Site, task, part, attempt int) float64 {
	h := hash64(in.sched.Seed, int64(ruleIdx), int64(len(site)), int64(task), int64(part), int64(attempt))
	return float64(h%1_000_000) / 1_000_000
}

func (in *Injector) fires(i int, r Rule, site Site, task, part, attempt int) bool {
	if !r.matches(site, task, part, attempt) {
		return false
	}
	if r.Prob > 0 && r.Prob < 1 && in.draw(i, site, task, part, attempt) >= r.Prob {
		return false
	}
	return true
}

// Attempt runs the map/reduce-site rules for one task attempt. Slow rules
// sleep; an error rule returns a transient error; a panic rule panics (the
// engine's attempt scheduler must convert it). Call it at attempt start —
// the engine does, and user code may call it again around its own work.
func (in *Injector) Attempt(site Site, task, attempt int) error {
	if in == nil {
		return nil
	}
	for i, r := range in.sched.Rules {
		if !in.fires(i, r, site, task, -1, attempt) {
			continue
		}
		switch r.Action {
		case ActSlow:
			in.record(r)
			in.sleep(r.Delay)
		case ActError:
			in.record(r)
			return fmt.Errorf("%w: %s task %d attempt %d", ErrInjected, site, task, attempt)
		case ActPanic:
			in.record(r)
			panic(fmt.Sprintf("faults: injected panic in %s task %d attempt %d", site, task, attempt))
		}
	}
	return nil
}

// CorruptSegment applies segment-site corrupt rules to the final IFile
// segment (task, part) produced by the given map attempt. It returns a
// bit-flipped copy and true when a rule fired; the input is never modified.
// Flip offsets are deterministic in the seed and coordinates.
func (in *Injector) CorruptSegment(task, part, attempt int, data []byte) ([]byte, bool) {
	if in == nil || len(data) == 0 {
		return nil, false
	}
	var out []byte
	for i, r := range in.sched.Rules {
		if r.Site != SiteSegment || r.Action != ActCorrupt {
			continue
		}
		if !in.fires(i, r, SiteSegment, task, part, attempt) {
			continue
		}
		if out == nil {
			out = append([]byte(nil), data...)
		}
		flips := r.Flips
		if flips <= 0 {
			flips = 3
		}
		for f := 0; f < flips; f++ {
			h := hash64(in.sched.Seed, int64(i), int64(task), int64(part), int64(attempt), int64(f))
			off := int(h % uint64(len(out)))
			bit := byte(1) << ((h >> 32) % 8)
			out[off] ^= bit
		}
		in.record(r)
	}
	return out, out != nil
}

// SegmentRead applies codec-site rules to a reducer's read of map task
// src's output. When a rule fires for (src, readerAttempt) it returns a
// transient error, and the read must fail with it before it parses or
// decodes a byte; otherwise it returns nil.
func (in *Injector) SegmentRead(src, readerAttempt int) error {
	if in == nil || src < 0 {
		return nil
	}
	for i, rule := range in.sched.Rules {
		if rule.Site != SiteCodec || rule.Action != ActError {
			continue
		}
		if !in.fires(i, rule, SiteCodec, src, -1, readerAttempt) {
			continue
		}
		in.record(rule)
		return fmt.Errorf("%w: codec stream of map task %d (reduce attempt %d)",
			ErrInjected, src, readerAttempt)
	}
	return nil
}

// WrapReduceOutput applies out-site rules to a reduce attempt's output
// writes. When a rule fires for (task, attempt) the returned writer fails
// every Write with a transient error — the first block flush, or Close
// (the IFile writer gathers records by the block), hits it, failing the
// attempt the way a full disk would; otherwise w is returned unchanged.
func (in *Injector) WrapReduceOutput(task, attempt int, w io.Writer) io.Writer {
	if in == nil {
		return w
	}
	for i, r := range in.sched.Rules {
		if r.Site != SiteOut || r.Action != ActError {
			continue
		}
		if !in.fires(i, r, SiteOut, task, -1, attempt) {
			continue
		}
		in.record(r)
		return &failingWriter{err: fmt.Errorf("%w: output of reduce task %d attempt %d",
			ErrInjected, task, attempt)}
	}
	return w
}

// failingWriter rejects every write — the injected shape of a dead output
// disk.
type failingWriter struct{ err error }

func (f *failingWriter) Write([]byte) (int, error) { return 0, f.err }

// NetFault describes what a fired net-site rule does to one shuffle fetch.
// The shuffle transport interprets the action: refuse closes the connection
// before any response, cut disconnects mid-stream, stall sleeps Delay while
// serving (so the client's deadline expires), truncate ends the response
// early but cleanly, and corrupt flips bits in the payload for the chunk
// CRCs to catch.
type NetFault struct {
	Action Action
	// Delay is the stall duration.
	Delay time.Duration
	flips int
	seed  [5]int64
}

// FetchFault consults the net-site rules for one shuffle fetch attempt of
// the given (producing map task, partition) pair; payload reports that the
// served segment has bytes. A cut, truncate or corrupt rule acts on those
// bytes, so without them it neither fires nor is recorded; refuse and
// stall act on the connection and fire either way. The first firing rule
// wins and is recorded; nil means the fetch proceeds cleanly. Like every
// injector decision it is a pure function of (seed, coordinates), so chaos
// runs replay identically.
func (in *Injector) FetchFault(task, part, attempt int, payload bool) *NetFault {
	if in == nil {
		return nil
	}
	for i, r := range in.sched.Rules {
		if r.Site != SiteNet || !payload && r.Action != ActRefuse && r.Action != ActStall {
			continue
		}
		if !in.fires(i, r, SiteNet, task, part, attempt) {
			continue
		}
		in.record(r)
		flips := r.Flips
		if flips <= 0 {
			flips = 3
		}
		return &NetFault{
			Action: r.Action,
			Delay:  r.Delay,
			flips:  flips,
			seed:   [5]int64{in.sched.Seed, int64(i), int64(task), int64(part), int64(attempt)},
		}
	}
	return nil
}

// CorruptBytes returns a copy of data with the fault's deterministic bit
// flips applied — the on-the-wire corruption of a net corrupt rule. The
// input is never modified.
func (f *NetFault) CorruptBytes(data []byte) []byte {
	if len(data) == 0 {
		return data
	}
	out := append([]byte(nil), data...)
	for n := 0; n < f.flips; n++ {
		h := hash64(f.seed[0], f.seed[1], f.seed[2], f.seed[3], f.seed[4], int64(n))
		out[h%uint64(len(out))] ^= 1 << ((h >> 32) % 8)
	}
	return out
}

// NodeDown reports whether a node-site down rule currently has the node
// refusing connections. The outage window opens at the first dial the
// injector observes for that (node, rule) pair and lasts the rule's
// duration, so with enough retry budget and backoff the caller outlives it.
func (in *Injector) NodeDown(node int) bool {
	if in == nil {
		return false
	}
	now := time.Now()
	down := false
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, r := range in.sched.Rules {
		if r.Site != SiteNode || r.Action != ActDown {
			continue
		}
		if !in.fires(i, r, SiteNode, node, -1, 0) {
			continue
		}
		key := outageKey{node: node, rule: i}
		first, ok := in.outageStart[key]
		if !ok {
			first = now
			in.outageStart[key] = now
		}
		if now.Sub(first) < r.Delay {
			in.fired[string(SiteNode)+"/"+string(ActDown)]++
			down = true
		}
	}
	return down
}

// ProcFault describes what a fired proc-site rule does to one worker
// process: kill delivers SIGKILL (the worker vanishes mid-lease; the
// coordinator must recover by reassigning its leases), hang SIGSTOPs the
// process for Delay and then SIGCONTs it (heartbeats lapse, leases expire,
// and the thawed worker's stale completions must be reconciled).
type ProcFault struct {
	Action Action
	// Delay is the hang (SIGSTOP) duration.
	Delay time.Duration
}

// WorkerFault consults the proc-site rules when worker starts executing its
// grantSeq-th task attempt of the given phase (ProcPhaseMap or
// ProcPhaseReduce). Coordinates are (worker, phase, per-worker-per-phase
// grant sequence), so "kill worker 1 on its first reduce grant" is
// proc:1.1:kill@0. The first firing rule wins and is recorded; nil means
// the worker runs undisturbed. Like every injector decision it is a pure
// function of (seed, coordinates).
func (in *Injector) WorkerFault(worker, phase, grantSeq int) *ProcFault {
	if in == nil {
		return nil
	}
	for i, r := range in.sched.Rules {
		if r.Site != SiteProc || r.Coord {
			continue
		}
		if !in.fires(i, r, SiteProc, worker, phase, grantSeq) {
			continue
		}
		in.record(r)
		return &ProcFault{Action: r.Action, Delay: r.Delay}
	}
	return nil
}

// CoordFault consults the proc:coord rules at one of the coordinator's own
// seeded journal points: op is CoordOpGrant or CoordOpCommit and seq is the
// lease ID being granted or settled. Lease IDs are journaled monotonic
// across coordinator restarts, so a schedule point fires exactly once per
// job no matter how many times the coordinator respawns. The first firing
// rule wins and is recorded; nil means the coordinator proceeds undisturbed.
func (in *Injector) CoordFault(op, seq int) *ProcFault {
	if in == nil {
		return nil
	}
	for i, r := range in.sched.Rules {
		if r.Site != SiteProc || !r.Coord {
			continue
		}
		if !in.fires(i, r, SiteProc, -1, op, seq) {
			continue
		}
		in.record(r)
		return &ProcFault{Action: r.Action, Delay: r.Delay}
	}
	return nil
}

// hash64 is a stable FNV-1a mix of the given values — the package's only
// source of randomness, so schedules replay bit-identically.
func hash64(vs ...int64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range vs {
		u := uint64(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}
