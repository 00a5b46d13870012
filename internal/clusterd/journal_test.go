package clusterd

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
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
	m, err := encodeMsg(kind, ev)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.apply(m, now); err != nil {
		t.Fatalf("apply kind %d: %v", kind, err)
	}
	if err := j.append(m); err != nil {
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

func TestJournalTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord.journal")
	now := time.Unix(5000, 0)
	j, live, _, err := openJournal(path, time.Second, now)
	if err != nil {
		t.Fatal(err)
	}
	applyAndAppend(t, j, live, jkBoot, evBoot{Epoch: 1}, now)
	applyAndAppend(t, j, live, jkWorker, evWorker{ID: 0}, now)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// A crash mid-append leaves a partial frame; a bit flip leaves a full
	// frame with a bad CRC. Both must be cut off, keeping everything before.
	for _, tear := range []struct {
		name string
		tail func() []byte
	}{
		{"partial frame", func() []byte {
			var buf bytes.Buffer
			payload, _ := json.Marshal(evWorker{ID: 9})
			message{kind: jkWorker, header: payload}.writeTo(&buf)
			return buf.Bytes()[:buf.Len()-3]
		}},
		{"corrupt frame", func() []byte {
			var buf bytes.Buffer
			payload, _ := json.Marshal(evWorker{ID: 9})
			message{kind: jkWorker, header: payload}.writeTo(&buf)
			raw := buf.Bytes()
			raw[len(raw)-1] ^= 0x40
			return raw
		}},
		// A record with blobs is dropped whole, header included, when any
		// of its blobs is missing, cut short or corrupt.
		{"header without its blobs", func() []byte {
			raw := publishRecord(t)
			return raw[:frameHeader+binary.BigEndian.Uint32(raw[1:5])]
		}},
		{"blob group cut short", func() []byte {
			raw := publishRecord(t)
			return raw[:len(raw)-3]
		}},
		{"corrupt blob", func() []byte {
			raw := publishRecord(t)
			raw[len(raw)-1] ^= 0x40
			return raw
		}},
	} {
		good, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(append([]byte{}, good...), tear.tail()...), 0o644); err != nil {
			t.Fatal(err)
		}
		j2, replayed, stats, err := openJournal(path, time.Second, now)
		if err != nil {
			t.Fatalf("%s: %v", tear.name, err)
		}
		if stats.Truncated == 0 {
			t.Errorf("%s: no torn bytes reported", tear.name)
		}
		if stats.Events != 2 {
			t.Errorf("%s: replayed %d events, want the 2 intact ones", tear.name, stats.Events)
		}
		if replayed.nextWorker != 1 {
			t.Errorf("%s: torn record leaked into state (nextWorker=%d)", tear.name, replayed.nextWorker)
		}
		// The file was physically truncated: a second open is clean.
		if info, _ := os.Stat(path); info.Size() != int64(len(good)) {
			t.Errorf("%s: file is %d bytes after truncation, want %d", tear.name, info.Size(), len(good))
		}
		j2.Close()
	}
}

// publishRecord is a journaled publish of one two-part map output, framed.
func publishRecord(t *testing.T) []byte {
	m, err := encodeMsg(jkPublish, evPublish{MapTask: 9, Parts: [][]byte{[]byte("part-zero"), []byte("part-one")}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	m.writeTo(&buf)
	return buf.Bytes()
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
	j.onCheckpoint = func() { compactions++ }
	for task := 0; task < 10; task++ {
		li := live.leases.next(0, 1, mapreduce.PhaseMap, task, 0, now)
		applyAndAppend(t, j, live, jkGrant, evGrant{Lease: *li}, now)
		if j.due() {
			if err := j.compact(live); err != nil {
				t.Fatal(err)
			}
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

// TestReplayPrefixDeterminism is the property test behind the whole design:
// replaying ANY prefix of the journaled event stream into a fresh state
// yields exactly the live state at that point, and re-applying any event a
// second time (duplicate delivery) changes nothing. The event stream is
// generated from seeded randomness and includes mid-stream checkpoints, so
// the restore path is covered too.
func TestReplayPrefixDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		now := time.Unix(9000, 0)
		live := newCoordState(time.Second)

		var log []message
		var wantAt []string // live fingerprint after each event
		emit := func(kind byte, ev any) {
			m, err := encodeMsg(kind, ev)
			if err != nil {
				t.Fatal(err)
			}
			if err := live.apply(m, now); err != nil {
				t.Fatalf("seed %d: live apply kind %d: %v", seed, kind, err)
			}
			log = append(log, m)
			wantAt = append(wantAt, stateFingerprint(t, live))
		}

		emit(jkBoot, evBoot{Epoch: 1})
		phases := []string{mapreduce.PhaseMap, mapreduce.PhaseReduce}
		for i := 0; i < 120; i++ {
			switch rng.Intn(10) {
			case 0:
				emit(jkBoot, evBoot{Epoch: live.epoch + 1})
			case 1:
				emit(jkWorker, evWorker{ID: live.nextWorker})
			case 2, 3, 4:
				if live.nextWorker == 0 {
					emit(jkWorker, evWorker{ID: 0})
				}
				li := live.leases.next(rng.Intn(live.nextWorker), live.epoch,
					phases[rng.Intn(2)], rng.Intn(6), rng.Intn(3), now)
				emit(jkGrant, evGrant{Lease: *li})
			case 5, 6:
				// Settle a random lease ID — sometimes active, sometimes
				// already settled or never granted (both must be no-ops).
				id := rng.Intn(live.leases.nextID + 1)
				o := storedOutcome{State: "completed",
					Result: &mapreduce.RemoteResult{Output: []byte(fmt.Sprintf("o%d", id))}}
				if li, ok := live.leases.active[id]; ok {
					o.Phase, o.Task, o.Attempt = li.Phase, li.Task, li.Attempt
				}
				emit(jkSettle, evSettle{Lease: id, Outcome: o})
			case 7:
				// Deliver a random orphan (or a key with no orphan: no-op).
				for k := range live.outcomes {
					emit(jkDeliver, evDeliver{Phase: k.Phase, Task: k.Task, Attempt: k.Attempt})
					break
				}
			case 8:
				emit(jkPublish, evPublish{MapTask: rng.Intn(6), Attempt: rng.Intn(3),
					Parts: [][]byte{[]byte(fmt.Sprintf("part-%d", rng.Intn(100)))}})
			case 9:
				// Compaction mid-stream: the file would restart from a
				// checkpoint record; the event stream sees it inline.
				emit(jkCheckpoint, live.checkpoint())
			}
		}

		for prefix := 0; prefix <= len(log); prefix++ {
			replayed := newCoordState(time.Second)
			for _, r := range log[:prefix] {
				if err := replayed.apply(r, now); err != nil {
					t.Fatalf("seed %d: replay apply kind %d: %v", seed, r.kind, err)
				}
			}
			want := stateFingerprint(t, newCoordState(time.Second))
			if prefix > 0 {
				want = wantAt[prefix-1]
			}
			if got := stateFingerprint(t, replayed); got != want {
				t.Fatalf("seed %d: prefix %d/%d replay diverged:\n got %s\nwant %s",
					seed, prefix, len(log), got, want)
			}
			// Idempotence: re-applying the last event must change nothing.
			if prefix > 0 {
				r := log[prefix-1]
				if err := replayed.apply(r, now); err != nil {
					t.Fatalf("seed %d: re-apply kind %d: %v", seed, r.kind, err)
				}
				if got := stateFingerprint(t, replayed); got != want {
					t.Fatalf("seed %d: prefix %d re-application not idempotent:\n got %s\nwant %s",
						seed, prefix, got, want)
				}
			}
		}
	}
}

// TestJournalReplaysParentFile pins the on-disk format across refactors:
// testdata/parent.journal was written by the build at 1e89eed (a real
// coordinator, worker and Client: two map commits compacted into a
// checkpoint, then a grant, a settle carrying Parts, its publish and deliver,
// a reduce settled for a driver that had hung up — an undelivered orphan —
// and a grant still running when the coordinator was closed), and
// testdata/parent.checkpoint.json is the checkpoint that build replayed it
// to. This build must replay the same file to the same bytes.
func TestJournalReplaysParentFile(t *testing.T) {
	raw, err := os.ReadFile("testdata/parent.journal")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/parent.checkpoint.json")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "coord.journal") // replay opens read-write
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
		t.Errorf("parent journal replayed to a different checkpoint:\n got %s\nwant %s", got, want)
	}
}

// transcodeJournal re-records a journal's events with this build's writer:
// every record is decoded into its event and appended as journalApply would
// append it, under this build's magic. Applied to testdata/parent.journal it
// yields testdata/parent.v2.journal.
func transcodeJournal(t *testing.T, raw []byte) []byte {
	t.Helper()
	events := map[byte]func() any{
		jkCheckpoint: func() any { return new(evCheckpoint) },
		jkBoot:       func() any { return new(evBoot) },
		jkWorker:     func() any { return new(evWorker) },
		jkGrant:      func() any { return new(evGrant) },
		jkSettle:     func() any { return new(evSettle) },
		jkDeliver:    func() any { return new(evDeliver) },
		jkPublish:    func() any { return new(evPublish) },
	}
	var out bytes.Buffer
	fileHeader().writeTo(&out)
	r := bytes.NewReader(raw)
	if m, err := readRecord(r); err != nil || m.kind != jkHeader {
		t.Fatalf("journal header: kind %d, %v", m.kind, err)
	}
	for r.Len() > 0 {
		m, err := readRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		ev := events[m.kind]()
		if err := m.decode(ev); err != nil {
			t.Fatal(err)
		}
		if m, err = encodeMsg(m.kind, ev); err != nil {
			t.Fatal(err)
		}
		m.writeTo(&out)
	}
	return out.Bytes()
}

// TestJournalReplaysParentV2File pins v2 the way TestJournalReplaysParentFile
// pins v1: testdata/parent.v2.journal is the parent scenario recorded by
// this format's writer (transcodeJournal over testdata/parent.journal), and
// it must replay to the same checkpoint. Its segments sit in the file as
// raw bytes, not base64.
func TestJournalReplaysParentV2File(t *testing.T) {
	raw, err := os.ReadFile("testdata/parent.v2.journal")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/parent.checkpoint.json")
	if err != nil {
		t.Fatal(err)
	}
	v1, err := os.ReadFile("testdata/parent.journal")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(transcodeJournal(t, v1), raw) {
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

// TestJournalUpgradesV1OnOpen: opening a v1 journal compacts it into a v2
// checkpoint before anything is appended, so no file mixes the formats and
// an older build refuses the file instead of truncating its blobs.
func TestJournalUpgradesV1OnOpen(t *testing.T) {
	raw, err := os.ReadFile("testdata/parent.journal")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "coord.journal")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	now := time.Unix(5000, 0)
	j, live, _, err := openJournal(path, time.Second, now)
	if err != nil {
		t.Fatal(err)
	}
	applyAndAppend(t, j, live, jkPublish, evPublish{MapTask: 3, Parts: [][]byte{[]byte("after-upgrade")}}, now)
	j.Close()

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := readRecord(f)
	if err != nil {
		t.Fatal(err)
	}
	var hdr jHeader
	if err := m.decode(&hdr); err != nil || hdr.Magic != journalMagic {
		t.Fatalf("upgraded journal header %s, want magic %q", m.header, journalMagic)
	}
	_, replayed, stats, err := openJournal(path, time.Second, now)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Checkpoint || stats.Events != 1 {
		t.Errorf("replay stats = %+v, want the upgrade checkpoint plus 1 event", stats)
	}
	if got, want := stateFingerprint(t, replayed), stateFingerprint(t, live); got != want {
		t.Errorf("upgraded journal replayed to a different state:\n got %s\nwant %s", got, want)
	}
}
