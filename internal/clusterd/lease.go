package clusterd

import (
	"slices"
	"strings"
	"time"

	"scikey/internal/mapreduce"
)

// A lease is the coordinator's claim check for one task attempt handed to
// one worker: the attempt runs remotely only while its lease is alive, and
// the lease stays alive only while the worker's heartbeats keep renewing it.
// The rules the rest of the package (and the kill-recovery tests) rely on:
//
//   - Grant: a lease binds (phase, task, attempt) to a worker and gets a
//     deadline of now+TTL. Each grant also gets the worker's next per-phase
//     grant sequence number — the coordinate the proc fault site targets —
//     and is stamped with the coordinator's epoch (incarnation), which a
//     worker must present to re-adopt the lease after a coordinator restart.
//   - Renew: a heartbeat naming the lease pushes the deadline to now+TTL. A
//     renewal arriving exactly at the deadline still saves the lease; only
//     now strictly after the deadline is the lease lapsed(now).
//   - Settle: complete removes a lease, whatever settled it — a worker's
//     report, a cancellation, a forfeit. A completion (or failure) that
//     arrives later for that lease ID is stale and must be ignored — the
//     attempt was already reissued under a new lease, and the first-finisher
//     commit rule upstream decides among live attempts only.
//   - Forfeit: the coordinator settles every lease a selector picks —
//     lapsed(now) on its sweep, heldBy(worker) the moment that worker's
//     connection drops or it re-registers without claiming them — without
//     waiting for anything further from the worker.
//   - Coordinator death: replaying the journal rebuilds the table with every
//     deadline reset to replay-time+TTL — one grace TTL for the worker to
//     reconnect and re-adopt; a lease not re-adopted in time expires as
//     usual and its attempt is reissued with the lost work charged as waste.
//
// leaseInfo and leaseTable are pure bookkeeping: every method takes the
// current time explicitly, so tests drive the state machine with a fake
// clock and real servers pass time.Now(). All durable mutations flow through
// journal events applied by coordState.apply, which keeps the live table and
// a journal replay byte-for-byte convergent (the replay-determinism property
// test pins this).

// leaseInfo is one outstanding lease.
type leaseInfo struct {
	ID      int
	Worker  int
	Phase   string
	Task    int
	Attempt int
	// Epoch is the coordinator incarnation that granted this lease. A worker
	// re-registering after a coordinator restart presents (ID, Epoch) to
	// re-adopt the lease; a mismatched epoch is a stale claim and forfeits.
	Epoch int
	// GrantSeq is this grant's rank among the worker's grants of this phase
	// (0 for the worker's first map or first reduce grant). Fault schedules
	// address workers by it: proc:1.1:kill@0 fires on worker 1's reduce
	// grant with GrantSeq 0.
	GrantSeq int
	Granted  time.Time
	// Deadline is volatile: it is never journaled, and replay resets it to
	// replay-time+TTL (the re-adoption grace window).
	Deadline time.Time `json:"-"`
}

// leaseTable tracks outstanding leases. It is not safe for concurrent use;
// the coordinator guards it with its own mutex.
type leaseTable struct {
	ttl    time.Duration
	nextID int
	active map[int]*leaseInfo
	// grants counts past grants per (worker, phase), assigning GrantSeq.
	grants map[grantKey]int
}

type grantKey struct {
	worker int
	phase  string
}

func newLeaseTable(ttl time.Duration) *leaseTable {
	return &leaseTable{
		ttl:    ttl,
		active: make(map[int]*leaseInfo),
		grants: make(map[grantKey]int),
	}
}

// install applies one grant event: it creates the lease exactly as granted
// (same ID, epoch, grant sequence) and advances the ID and per-worker grant
// counters past it. Both the live grant path and journal replay go through
// here, so a replayed table converges on the live one; re-installing an
// already-known or already-settled lease is a no-op (idempotent replay).
func (t *leaseTable) install(li *leaseInfo, now time.Time) {
	if li.ID < t.nextID {
		if existing, ok := t.active[li.ID]; ok {
			existing.Deadline = now.Add(t.ttl)
		}
		return // already applied (or already settled): never resurrect
	}
	cp := *li
	cp.Deadline = now.Add(t.ttl)
	t.active[cp.ID] = &cp
	t.nextID = cp.ID + 1
	k := grantKey{cp.Worker, cp.Phase}
	if cp.GrantSeq >= t.grants[k] {
		t.grants[k] = cp.GrantSeq + 1
	}
}

// next builds (without installing) the lease a grant to worker would create.
func (t *leaseTable) next(worker int, epoch int, phase string, task, attempt int, now time.Time) *leaseInfo {
	return &leaseInfo{
		ID:       t.nextID,
		Worker:   worker,
		Phase:    phase,
		Task:     task,
		Attempt:  attempt,
		Epoch:    epoch,
		GrantSeq: t.grants[grantKey{worker, phase}],
		Granted:  now,
	}
}

// renew pushes the deadline of each listed lease that is still active and
// still held by worker. It returns the IDs the coordinator no longer tracks
// for this worker — the worker must be told to abandon those attempts.
func (t *leaseTable) renew(worker int, ids []int, now time.Time) (unknown []int) {
	for _, id := range ids {
		li, ok := t.active[id]
		if !ok || li.Worker != worker {
			unknown = append(unknown, id)
			continue
		}
		li.Deadline = now.Add(t.ttl)
	}
	return unknown
}

// readopt re-binds a surviving lease to a re-registering worker: the claim
// must name a tracked lease held by this worker under the claimed epoch. A
// successful re-adoption renews the deadline; the attempt continues as if
// the coordinator had never been away.
func (t *leaseTable) readopt(worker int, claim leaseClaim, now time.Time) (*leaseInfo, bool) {
	li, ok := t.active[claim.Lease]
	if !ok || li.Worker != worker || li.Epoch != claim.Epoch {
		return nil, false
	}
	li.Deadline = now.Add(t.ttl)
	return li, true
}

// A selector picks leases out of the table; the coordinator's forfeit rule
// is phrased in them.
type selector func(*leaseInfo) bool

// lapsed selects the leases whose deadline has strictly passed at now. A
// lease whose deadline equals now survives: renewal at the deadline is on
// time.
func lapsed(now time.Time) selector {
	return func(li *leaseInfo) bool { return now.After(li.Deadline) }
}

// heldBy selects every lease held by worker.
func heldBy(worker int) selector {
	return func(li *leaseInfo) bool { return li.Worker == worker }
}

// pick returns the active leases sel selects, oldest grant first.
func (t *leaseTable) pick(sel selector) []*leaseInfo {
	var out []*leaseInfo
	for _, li := range t.active {
		if sel(li) {
			out = append(out, li)
		}
	}
	slices.SortFunc(out, func(a, b *leaseInfo) int { return a.ID - b.ID })
	return out
}

// complete removes lease id on its way to commitment. ok is false when the
// lease is no longer tracked — an expired, revoked, or reassigned attempt
// whose late result must be dropped.
func (t *leaseTable) complete(id int) (li *leaseInfo, ok bool) {
	li, ok = t.active[id]
	delete(t.active, id)
	return li, ok
}

// byAttempt finds the active lease executing (phase, task, attempt), if
// any — the rebind point for a driver re-submitting an attempt after a
// coordinator restart.
func (t *leaseTable) byAttempt(phase string, task, attempt int) (*leaseInfo, bool) {
	for _, li := range t.active {
		if li.Phase == phase && li.Task == task && li.Attempt == attempt {
			return li, true
		}
	}
	return nil, false
}

// load counts worker's active leases (grant placement balances on it).
func (t *leaseTable) load(worker int) int { return len(t.pick(heldBy(worker))) }

// count is the number of active leases.
func (t *leaseTable) count() int { return len(t.active) }

// grantCount is the checkpoint form of one (worker, phase) grant counter.
type grantCount struct {
	Worker int
	Phase  string
	N      int
}

// snapshotGrants exports the grant counters in a canonical order.
func (t *leaseTable) snapshotGrants() []grantCount {
	out := make([]grantCount, 0, len(t.grants))
	for k, n := range t.grants {
		out = append(out, grantCount{Worker: k.worker, Phase: k.phase, N: n})
	}
	slices.SortFunc(out, func(a, b grantCount) int {
		if a.Worker != b.Worker {
			return a.Worker - b.Worker
		}
		return strings.Compare(a.Phase, b.Phase)
	})
	return out
}

// snapshotLeases exports the active leases sorted by ID (deadlines omitted:
// they are volatile and reset on replay).
func (t *leaseTable) snapshotLeases() []leaseInfo {
	out := make([]leaseInfo, 0, len(t.active))
	for _, li := range t.active {
		cp := *li
		cp.Deadline = time.Time{}
		out = append(out, cp)
	}
	slices.SortFunc(out, func(a, b leaseInfo) int { return a.ID - b.ID })
	return out
}

// restore loads a checkpoint's lease set and counters into an empty table.
func (t *leaseTable) restore(nextID int, leases []leaseInfo, grants []grantCount, now time.Time) {
	for i := range leases {
		cp := leases[i]
		cp.Deadline = now.Add(t.ttl)
		t.active[cp.ID] = &cp
	}
	if nextID > t.nextID {
		t.nextID = nextID
	}
	for _, g := range grants {
		k := grantKey{g.Worker, g.Phase}
		if g.N > t.grants[k] {
			t.grants[k] = g.N
		}
	}
}

// procPhase maps a phase name to the fault site's phase coordinate.
func procPhase(phase string) int {
	if phase == mapreduce.PhaseReduce {
		return 1
	}
	return 0
}
