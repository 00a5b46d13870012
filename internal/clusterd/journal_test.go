package clusterd

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"scikey/internal/mapreduce"
)

// The journal tests drive the durable control plane without any sockets:
// events are applied and appended exactly as the live coordinator does, then
// the file is reopened and the replayed state compared. stateFingerprint uses
// the canonical checkpoint encoding, so "equal" means equal in every field
// that survives a crash (deadlines are volatile by design).

func stateFingerprint(t *testing.T, s *coordState) string {
	t.Helper()
	b, err := json.Marshal(s.checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// journalApply mirrors the coordinator's journalApply for tests: apply to the
// live state, append to the journal.
func applyAndAppend(t *testing.T, j *journal, s *coordState, kind byte, ev any, now time.Time) {
	t.Helper()
	m := mustEncode(t, kind, ev)
	if err := s.apply(m, now); err != nil {
		t.Fatalf("apply kind %d: %v", kind, err)
	}
	if _, err := j.append(m); err != nil {
		t.Fatal(err)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord.journal")
	now := time.Unix(5000, 0)
	j, live, stats, err := openJournal(path, time.Second, now)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != 0 || stats.Checkpoint || stats.Truncated != 0 {
		t.Fatalf("fresh journal replay stats = %+v, want zero", stats)
	}

	applyAndAppend(t, j, live, jkBoot, evBoot{Epoch: 1}, now)
	applyAndAppend(t, j, live, jkWorker, evWorker{ID: 0}, now)
	applyAndAppend(t, j, live, jkWorker, evWorker{ID: 1}, now)
	li := live.leases.next(0, 1, mapreduce.PhaseMap, 0, 0, now)
	applyAndAppend(t, j, live, jkGrant, evGrant{Lease: *li}, now)
	li2 := live.leases.next(1, 1, mapreduce.PhaseMap, 1, 0, now)
	applyAndAppend(t, j, live, jkGrant, evGrant{Lease: *li2}, now)
	applyAndAppend(t, j, live, jkSettle, evSettle{Lease: li.ID, Outcome: storedOutcome{
		Phase: mapreduce.PhaseMap, Task: 0, Attempt: 0, State: "completed",
		Result: &mapreduce.RemoteResult{Output: []byte("out-0")},
	}}, now)
	applyAndAppend(t, j, live, jkPublish, evPublish{MapTask: 0, Attempt: 0, Parts: [][]byte{[]byte("p0"), []byte("p1")}}, now)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, replayed, stats, err := openJournal(path, time.Second, now.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != 7 || stats.Checkpoint {
		t.Errorf("replay stats = %+v, want 7 events, no checkpoint", stats)
	}
	if got, want := stateFingerprint(t, replayed), stateFingerprint(t, live); got != want {
		t.Errorf("replayed state diverged:\n got %s\nwant %s", got, want)
	}
	// The undelivered outcome is an orphan awaiting the driver's re-ask; the
	// surviving lease got a fresh grace deadline at replay time.
	if _, ok := replayed.outcomes[attemptKey{Phase: mapreduce.PhaseMap, Task: 0, Attempt: 0}]; !ok {
		t.Error("settled-but-undelivered outcome missing after replay")
	}
	surv, ok := replayed.leases.active[li2.ID]
	if !ok {
		t.Fatalf("lease %d missing after replay", li2.ID)
	}
	if want := now.Add(time.Minute).Add(time.Second); surv.Deadline != want {
		t.Errorf("replayed lease deadline = %v, want replay-time+TTL %v", surv.Deadline, want)
	}
}

func TestJournalCompactionKeepsReplaySmall(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord.journal")
	now := time.Unix(5000, 0)
	j, live, _, err := openJournal(path, time.Second, now)
	if err != nil {
		t.Fatal(err)
	}
	j.cadence = 4
	applyAndAppend(t, j, live, jkBoot, evBoot{Epoch: 1}, now)
	applyAndAppend(t, j, live, jkWorker, evWorker{ID: 0}, now)
	compactions := 0
	for task := 0; task < 10; task++ {
		li := live.leases.next(0, 1, mapreduce.PhaseMap, task, 0, now)
		applyAndAppend(t, j, live, jkGrant, evGrant{Lease: *li}, now)
		if j.due() {
			if err := j.compact(live); err != nil {
				t.Fatal(err)
			}
			compactions++
		}
	}
	if compactions == 0 {
		t.Fatal("checkpoint cadence of 4 never compacted across 12 events")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, replayed, stats, err := openJournal(path, time.Second, now)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Checkpoint {
		t.Error("replay found no checkpoint after compaction")
	}
	if stats.Events >= 4 {
		t.Errorf("replayed %d loose events after compaction, want < cadence", stats.Events)
	}
	if got, want := stateFingerprint(t, replayed), stateFingerprint(t, live); got != want {
		t.Errorf("state after compacted replay diverged:\n got %s\nwant %s", got, want)
	}
}

func TestJournalRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-journal")
	if err := os.WriteFile(path, []byte("just some text, definitely not framed"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := openJournal(path, time.Second, time.Unix(5000, 0)); err == nil {
		t.Fatal("opening a non-journal file succeeded")
	}
}

// TestShutdownCompactsToZeroReplay pins the clean-shutdown contract: SIGTERM
// drain (Coordinator.Shutdown) compacts the journal into a single checkpoint,
// so the next start replays zero loose events.
func TestShutdownCompactsToZeroReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord.journal")
	runner := &stubRunner{}
	c, err := Start(Config{Journal: path, HeartbeatEvery: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(WorkerConfig{
		Addr:  c.Addr(),
		Build: func(spec []byte) (Runner, error) { return runner, nil },
	})
	go w.Run()
	defer w.Stop()
	cl := dialClient(t, c)

	for task := 0; task < 3; task++ {
		if _, err := cl.RunRemote(mapreduce.PhaseMap, task, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	cl.PublishRemote(0, 0, [][]byte{[]byte("seg")})
	if c.Epoch() != 1 {
		t.Fatalf("fresh journal epoch = %d, want 1", c.Epoch())
	}
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}

	_, state, stats, err := openJournal(path, time.Second, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != 0 || !stats.Checkpoint {
		t.Errorf("post-shutdown replay = %+v, want checkpoint only, zero events", stats)
	}
	if state.epoch != 1 {
		t.Errorf("checkpointed epoch = %d, want 1", state.epoch)
	}
	if _, ok := state.segs[0]; !ok {
		t.Error("published segment missing from the shutdown checkpoint")
	}
}

// TestJournalRefusesParentV1File: a journal written before the blob
// framing (scikey-coord-journal-v1, byte fields inline as base64) is refused
// with an error that names its version, and left as it is: neither replayed
// into a state nor truncated.
func TestJournalRefusesParentV1File(t *testing.T) {
	var raw bytes.Buffer
	mustEncode(t, jkHeader, jHeader{Magic: "scikey-coord-journal-v1"}).writeTo(&raw)
	mustEncode(t, jkBoot, evBoot{Epoch: 1}).writeTo(&raw)
	path := filepath.Join(t.TempDir(), "coord.journal")
	if err := os.WriteFile(path, raw.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := openJournal(path, time.Second, time.Unix(5000, 0))
	if err == nil || !strings.Contains(err.Error(), "scikey-coord-journal-v1") {
		t.Errorf("opening a v1 journal: error %v, want one naming scikey-coord-journal-v1", err)
	}
	if onDisk, _ := os.ReadFile(path); !bytes.Equal(onDisk, raw.Bytes()) {
		t.Error("refusing a v1 journal changed the file")
	}
}

// TestJournalReplaysParentV2File pins the on-disk format across refactors:
// testdata/parent.v2.journal is the parent scenario as this format's writer
// records it — each record, decoded into its event and encoded again, gives
// the same bytes — and it must replay to the same checkpoint. Its segments
// sit in the file as raw bytes, not base64.
func TestJournalReplaysParentV2File(t *testing.T) {
	raw, err := os.ReadFile("testdata/parent.v2.journal")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/parent.checkpoint.json")
	if err != nil {
		t.Fatal(err)
	}
	var rewritten bytes.Buffer
	fileHeader().writeTo(&rewritten)
	for _, m := range journalRecords(t, "testdata/parent.v2.journal") {
		ev, err := decodeEvent(m)
		if err != nil {
			t.Fatal(err)
		}
		mustEncode(t, m.kind, ev).writeTo(&rewritten)
	}
	if !bytes.Equal(rewritten.Bytes(), raw) {
		t.Error("this build no longer writes testdata/parent.v2.journal for the parent scenario; a deliberate format change needs a new magic")
	}
	if !bytes.Contains(raw, []byte("partition-two")) || bytes.Contains(raw, []byte("cGFydGl0aW9uLXR3bw==")) {
		t.Error("the v2 journal's segments are not raw bytes")
	}
	path := filepath.Join(t.TempDir(), "coord.journal")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j, state, stats, err := openJournal(path, time.Second, time.Unix(5000, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if !stats.Checkpoint || stats.Events != 7 || stats.Truncated != 0 {
		t.Errorf("replay stats = %+v, want the checkpoint plus 7 events, nothing torn", stats)
	}
	if got := stateFingerprint(t, state); got != string(want) {
		t.Errorf("v2 journal replayed to a different checkpoint:\n got %s\nwant %s", got, want)
	}
	if onDisk, _ := os.ReadFile(path); !bytes.Equal(onDisk, raw) {
		t.Error("opening a v2 journal rewrote it")
	}
}
