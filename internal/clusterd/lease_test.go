package clusterd

import (
	"testing"
	"time"

	"scikey/internal/mapreduce"
)

// The lease state machine is pure — every method takes now explicitly — so
// these tests drive its edges with a fake clock: expiry strictly after the
// deadline, renewal exactly at the deadline, zero-TTL leases, duplicate
// completion after reassignment, and whole-worker forfeiture. They go
// through what the coordinator's forfeit rule goes through: a selector
// (lapsed, heldBy) picks the leases and complete — the settle event's effect
// — removes each.

// grant is the tests' shorthand for the live path's next+install pair (the
// production grant flow journals the built lease in between). It returns
// the installed copy, whose deadline is set.
func (t *leaseTable) grant(worker int, phase string, task, attempt int, now time.Time) *leaseInfo {
	li := t.next(worker, 1, phase, task, attempt, now)
	t.install(li, now)
	return t.active[li.ID]
}

func TestLeaseExpiryEdges(t *testing.T) {
	t0 := time.Unix(1000, 0)
	lt := newLeaseTable(100 * time.Millisecond)
	li := lt.grant(0, mapreduce.PhaseMap, 3, 0, t0)
	if li.Deadline != t0.Add(100*time.Millisecond) {
		t.Fatalf("deadline = %v, want t0+100ms", li.Deadline)
	}

	// At the deadline the lease survives; expiry needs now strictly after.
	if got := lt.pick(lapsed(li.Deadline)); len(got) != 0 {
		t.Errorf("lease expired exactly at its deadline: %v", got)
	}
	got := lt.pick(lapsed(li.Deadline.Add(time.Nanosecond)))
	if len(got) != 1 || got[0].ID != li.ID {
		t.Fatalf("lease did not expire after its deadline: %v", got)
	}
	if _, ok := lt.complete(got[0].ID); !ok || lt.count() != 0 {
		t.Errorf("expired lease still tracked, count=%d", lt.count())
	}
}

func TestLeaseRenewAtDeadline(t *testing.T) {
	t0 := time.Unix(1000, 0)
	lt := newLeaseTable(time.Second)
	li := lt.grant(1, mapreduce.PhaseReduce, 0, 0, t0)

	// A heartbeat arriving exactly at the deadline is on time and pushes
	// the deadline a full TTL further.
	atDeadline := li.Deadline
	if unknown := lt.renew(1, []int{li.ID}, atDeadline); len(unknown) != 0 {
		t.Fatalf("renew at deadline reported unknown leases %v", unknown)
	}
	if got := lt.pick(lapsed(atDeadline.Add(time.Nanosecond))); len(got) != 0 {
		t.Errorf("renewed lease expired: %v", got)
	}
	if got := lt.pick(lapsed(atDeadline.Add(time.Second))); len(got) != 0 {
		t.Errorf("renewed lease expired exactly at its new deadline: %v", got)
	}
	if got := lt.pick(lapsed(atDeadline.Add(time.Second + time.Nanosecond))); len(got) != 1 {
		t.Errorf("renewed lease outlived its new deadline: %v", got)
	}

	// Renewal from the wrong worker does not touch the lease.
	li2 := lt.grant(1, mapreduce.PhaseReduce, 1, 0, t0)
	if unknown := lt.renew(2, []int{li2.ID}, t0); len(unknown) != 1 || unknown[0] != li2.ID {
		t.Errorf("cross-worker renew not rejected: %v", unknown)
	}
	if li2.Deadline != t0.Add(time.Second) {
		t.Errorf("cross-worker renew moved the deadline to %v", li2.Deadline)
	}
}

func TestLeaseZeroTTL(t *testing.T) {
	// A zero-budget lease: any strictly later sweep collects it. The
	// coordinator never configures this, but the table must not wedge.
	t0 := time.Unix(1000, 0)
	lt := newLeaseTable(0)
	lt.grant(0, mapreduce.PhaseMap, 0, 0, t0)
	if got := lt.pick(lapsed(t0)); len(got) != 0 {
		t.Errorf("zero-TTL lease expired at grant time: %v", got)
	}
	if got := lt.pick(lapsed(t0.Add(time.Nanosecond))); len(got) != 1 {
		t.Errorf("zero-TTL lease survived past grant time: %v", got)
	}
}

func TestDuplicateCompletionAfterReassignment(t *testing.T) {
	// Worker 0's lease lapses, the attempt is reissued to worker 1, and
	// then worker 0 comes back from its stop and reports completion. The
	// old lease ID must read as stale while the replacement stays live.
	t0 := time.Unix(1000, 0)
	lt := newLeaseTable(50 * time.Millisecond)
	old := lt.grant(0, mapreduce.PhaseMap, 7, 0, t0)
	if got := lt.pick(lapsed(t0.Add(time.Minute))); len(got) != 1 || got[0].ID != old.ID {
		t.Fatalf("lease did not lapse: %v", got)
	}
	if _, ok := lt.complete(old.ID); !ok {
		t.Fatal("settling the lapsed lease found it already gone")
	}
	replacement := lt.grant(1, mapreduce.PhaseMap, 7, 1, t0.Add(time.Minute))

	if _, ok := lt.complete(old.ID); ok {
		t.Errorf("stale completion for expired lease %d accepted", old.ID)
	}
	if li, ok := lt.complete(replacement.ID); !ok || li.Task != 7 || li.Attempt != 1 {
		t.Errorf("live replacement lease rejected: %+v ok=%v", li, ok)
	}
	// Completing twice is also stale the second time.
	if _, ok := lt.complete(replacement.ID); ok {
		t.Error("double completion accepted")
	}
}

func TestGrantSeqAndDropWorker(t *testing.T) {
	t0 := time.Unix(1000, 0)
	lt := newLeaseTable(time.Second)
	m0 := lt.grant(0, mapreduce.PhaseMap, 0, 0, t0)
	m1 := lt.grant(0, mapreduce.PhaseMap, 5, 0, t0)
	r0 := lt.grant(0, mapreduce.PhaseReduce, 0, 0, t0)
	other := lt.grant(1, mapreduce.PhaseMap, 1, 0, t0)
	if m0.GrantSeq != 0 || m1.GrantSeq != 1 || r0.GrantSeq != 0 || other.GrantSeq != 0 {
		t.Errorf("grant sequences = %d,%d,%d,%d; phases count independently per worker",
			m0.GrantSeq, m1.GrantSeq, r0.GrantSeq, other.GrantSeq)
	}
	if lt.load(0) != 3 || lt.load(1) != 1 {
		t.Errorf("load = %d,%d, want 3,1", lt.load(0), lt.load(1))
	}

	dropped := lt.pick(heldBy(0))
	for _, li := range dropped {
		lt.complete(li.ID)
	}
	if len(dropped) != 3 || dropped[0] != m0 || dropped[1] != m1 || dropped[2] != r0 || lt.count() != 1 {
		t.Errorf("forfeiting worker 0 removed %v (oldest grant first?), %d left", dropped, lt.count())
	}
	// Grant sequences keep counting across the worker's death: a restarted
	// worker gets a fresh worker ID, so old coordinates stay unique.
	m2 := lt.grant(0, mapreduce.PhaseMap, 0, 1, t0)
	if m2.GrantSeq != 2 {
		t.Errorf("grant seq after drop = %d, want 2", m2.GrantSeq)
	}
}
