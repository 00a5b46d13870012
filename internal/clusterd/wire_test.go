package clusterd

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"scikey/internal/mapreduce"
)

// allocBytes reports the fewest bytes f allocated over runs calls; the
// minimum discounts what other goroutines allocate meanwhile.
func allocBytes(runs int, f func()) uint64 {
	best := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range runs {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestReadFrameGrowsInPlace pins readPayload's growth rule: a large frame
// is read straight into a buffer that grows in place, and a length field
// with no bytes behind it costs one chunk at most.
func TestReadFrameGrowsInPlace(t *testing.T) {
	payload := make([]byte, 3<<20)
	rand.New(rand.NewSource(1)).Read(payload)
	var buf bytes.Buffer
	if _, err := (message{kind: kindPublish, header: payload}).writeTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	var got []byte
	n := allocBytes(3, func() {
		_, got, _ = readFrame(bytes.NewReader(raw))
	})
	if !bytes.Equal(got, payload) {
		t.Fatal("3 MiB frame read back different bytes")
	}
	if limit := uint64(len(payload)) * 3 / 2; n > limit {
		t.Errorf("reading a %d-byte frame allocated %d bytes, want at most %d", len(payload), n, limit)
	}

	var lie [frameHeader + 10]byte
	lie[0] = kindPublish
	binary.BigEndian.PutUint32(lie[1:], maxFrame)
	n = allocBytes(3, func() {
		if _, _, err := readFrame(bytes.NewReader(lie[:])); err == nil {
			t.Error("a 1 GiB frame over 10 bytes of input was accepted")
		}
	})
	if limit := uint64(frameAllocChunk + 4<<10); n > limit {
		t.Errorf("a 1 GiB length over 10 bytes allocated %d bytes, want at most one chunk (%d)", n, frameAllocChunk)
	}
}

// TestNilAndEmptyPartsStayDistinct: a nil byte field and an empty one cross
// the wire and the journal as different things (the parent journal has
// null parts; a map attempt leaves an empty partition's part nil).
func TestNilAndEmptyPartsStayDistinct(t *testing.T) {
	parts := [][]byte{nil, {}, []byte("x")}
	check := func(where string, got [][]byte) {
		t.Helper()
		if len(got) != 3 || got[0] != nil || got[1] == nil || len(got[1]) != 0 || string(got[2]) != "x" {
			t.Errorf("%s: parts %#v, want [nil, empty, \"x\"]", where, got)
		}
	}

	var buf bytes.Buffer
	if err := writeMsg(&buf, kindPublish, publishMsg{Seq: 1, MapTask: 2, Parts: parts}); err != nil {
		t.Fatal(err)
	}
	msg, err := readMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var pub publishMsg
	if err := msg.decode(&pub); err != nil {
		t.Fatal(err)
	}
	check("publish", pub.Parts)

	for _, out := range [][]byte{nil, {}} {
		buf.Reset()
		if err := writeMsg(&buf, kindRunResult, runResultMsg{Seq: 1, Result: &mapreduce.RemoteResult{Output: out}}); err != nil {
			t.Fatal(err)
		}
		msg, err := readMsg(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var m runResultMsg
		if err := msg.decode(&m); err != nil {
			t.Fatal(err)
		}
		if (m.Result.Output == nil) != (out == nil) || len(m.Result.Output) != 0 || m.Result.Parts != nil {
			t.Errorf("result Output %#v Parts %#v, want Output %#v and nil Parts", m.Result.Output, m.Result.Parts, out)
		}
	}

	path := filepath.Join(t.TempDir(), "coord.journal")
	now := time.Unix(5000, 0)
	j, live, _, err := openJournal(path, time.Second, now)
	if err != nil {
		t.Fatal(err)
	}
	applyAndAppend(t, j, live, jkPublish, evPublish{MapTask: 0, Parts: parts}, now)
	li := live.leases.next(0, 1, mapreduce.PhaseMap, 1, 0, now)
	applyAndAppend(t, j, live, jkGrant, evGrant{Lease: *li}, now)
	applyAndAppend(t, j, live, jkSettle, evSettle{Lease: li.ID, Outcome: storedOutcome{
		Phase: mapreduce.PhaseMap, Task: 1, State: "completed", Result: &mapreduce.RemoteResult{Parts: parts},
	}}, now)
	if err := j.compact(live); err != nil {
		t.Fatal(err)
	}
	applyAndAppend(t, j, live, jkPublish, evPublish{MapTask: 1, Parts: parts}, now)
	j.Close()
	_, replayed, _, err := openJournal(path, time.Second, now)
	if err != nil {
		t.Fatal(err)
	}
	check("checkpointed segment", replayed.segs[0].parts)
	check("checkpointed outcome", replayed.outcomes[attemptKey{Phase: mapreduce.PhaseMap, Task: 1}].Result.Parts)
	check("published segment", replayed.segs[1].parts)
	if got, want := stateFingerprint(t, replayed), stateFingerprint(t, live); got != want {
		t.Errorf("replayed state diverged:\n got %s\nwant %s", got, want)
	}
}

// bytesRemote is the driver's mapreduce.Remote with a tally of the byte
// fields that cross it: every attempt result's parts and output, and every
// published part.
type bytesRemote struct {
	*Client
	mu        sync.Mutex
	settled   int
	published [][]byte
}

func (r *bytesRemote) RunRemote(phase string, task, attempt int, canceled func() bool) (*mapreduce.RemoteResult, error) {
	rr, err := r.Client.RunRemote(phase, task, attempt, canceled)
	if rr != nil {
		r.mu.Lock()
		r.settled += len(rr.Output)
		for _, p := range rr.Parts {
			r.settled += len(p)
		}
		r.mu.Unlock()
	}
	return rr, err
}

func (r *bytesRemote) PublishRemote(mapTask, attempt int, parts [][]byte) {
	r.mu.Lock()
	r.published = append(r.published, parts...)
	r.mu.Unlock()
	r.Client.PublishRemote(mapTask, attempt, parts)
}

// TestSegmentBytesCrossRaw pins what the blob frames buy: the e2e fixture's
// job, over an input large enough that segments dwarf the control messages,
// runs through a journaled coordinator, and the journal holds every
// published part verbatim, no header carries segment bytes, and the file is
// within 5 % of the raw settle and publish bytes plus the header frames and
// blob framing. Byte fields inline as base64, the v1 format, fail the first
// two. Decoding a complete frame that carries a 1 MiB part allocates the
// part and little else.
func TestSegmentBytesCrossRaw(t *testing.T) {
	spec := e2eSpecFixture
	spec.SleepMs = 0
	rng := rand.New(rand.NewSource(7))
	spec.Docs = make([]string, 6)
	for i := range spec.Docs {
		var doc strings.Builder
		for range 20000 {
			fmt.Fprintf(&doc, "w%d ", rng.Intn(5000))
		}
		spec.Docs[i] = doc.String()
	}

	journal := filepath.Join(t.TempDir(), "coord.journal")
	// A generous TTL: under -race on a small host a lapse would fail the job.
	c, err := Start(Config{Journal: journal, HeartbeatEvery: 20 * time.Millisecond, LeaseTTL: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	for range 2 {
		w := NewWorker(WorkerConfig{
			Addr:  c.Addr(),
			Build: func([]byte) (Runner, error) { return &JobRunner{Job: e2eJob(spec, e2eFS())}, nil },
		})
		go w.Run()
		t.Cleanup(w.Stop)
	}
	remote := &bytesRemote{Client: dialClient(t, c)}
	job := e2eJob(spec, e2eFS())
	job.Remote = remote
	job.Parallelism = 4
	if _, err := mapreduce.Run(job); err != nil {
		t.Fatal(err)
	}
	c.Close() // no compaction: the journal keeps every settle and publish

	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	published := 0
	for i, p := range remote.published {
		published += len(p)
		if len(p) > 0 && !bytes.Contains(raw, p) {
			t.Errorf("published part %d (%d bytes) is not in the journal verbatim", i, len(p))
		}
	}
	if published < 1<<20 {
		t.Fatalf("the job published %d bytes; the fixture is meant to dwarf its headers", published)
	}
	headers := 0
	for r := bytes.NewReader(raw); r.Len() > 0; {
		kind, payload, err := readFrame(r)
		if err != nil {
			t.Fatalf("journal frame at offset %d: %v", len(raw)-r.Len(), err)
		}
		if kind == kindBlob {
			headers += frameHeader
			continue
		}
		if len(payload) > 1<<10 {
			t.Errorf("a kind %d header is %d bytes; headers carry no segment bytes", kind, len(payload))
		}
		headers += frameHeader + len(payload)
	}
	rawBytes := remote.settled + published
	if limit := 1.05 * float64(rawBytes+headers); float64(len(raw)) >= limit {
		t.Errorf("journal is %d bytes for %d raw settle and publish bytes plus %d header bytes (%.2f×), want under 1.05×",
			len(raw), rawBytes, headers, float64(len(raw))/float64(rawBytes+headers))
	}

	part := make([]byte, 1<<20)
	rng.Read(part)
	var buf bytes.Buffer
	msg := completeMsg{Lease: 3, Result: &mapreduce.RemoteResult{
		Parts: [][]byte{part, nil}, Counters: make([]int64, 40), Hosts: []string{"n0", "n1"}, WallSeconds: 0.5,
	}}
	if err := writeMsg(&buf, kindComplete, msg); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	var got completeMsg
	n := allocBytes(5, func() {
		got = completeMsg{}
		msg, err := readMsg(bytes.NewReader(frame))
		if err == nil {
			err = msg.decode(&got)
		}
		if err != nil {
			t.Fatal(err)
		}
	})
	if got.Result == nil || len(got.Result.Parts) != 2 || !bytes.Equal(got.Result.Parts[0], part) || got.Result.Parts[1] != nil {
		t.Fatal("complete frame decoded to different parts")
	}
	if limit := uint64(len(part) + 64<<10); n > limit {
		t.Errorf("decoding a complete frame with a %d-byte part allocated %d bytes, want at most %d", len(part), n, limit)
	}
}

// TestReadRecordRejectsBrokenBlobGroups walks the ways a header and its
// blobs can disagree; each must fail the read, not misassign bytes.
func TestReadRecordRejectsBrokenBlobGroups(t *testing.T) {
	frame := func(kind byte, payload string) string {
		var b bytes.Buffer
		message{kind: kind, header: []byte(payload)}.writeTo(&b)
		return b.String()
	}
	blob := func(payload string) string { return frame(kindBlob, payload) }
	for _, tc := range []struct {
		name, data, err string
	}{
		{"fewer blobs than announced", frame(kindPublish, `{"Blobs":[2,2]}`) + blob("ab"), "EOF"},
		{"header frame where a blob is due", frame(kindPublish, `{"Blobs":[2]}`) + frame(kindPublish, "ab"), "where blob 0 of 1 is due"},
		{"blob longer than announced", frame(kindPublish, `{"Blobs":[2]}`) + blob("abc"), "header announced 2"},
		{"nil field with bytes", frame(kindPublish, `{"Blobs":[-1]}`) + blob("a"), "header announced -1"},
		{"negative length", frame(kindPublish, `{"Blobs":[-2]}`), "blob of -2 bytes"},
		{"blobs beyond maxFrame", frame(kindPublish, fmt.Sprintf(`{"Blobs":[%d,%d]}`, maxFrame/2, maxFrame/2)), "exceeds limit"},
		{"blob where a header is due", blob("ab"), "blob frame where a header is due"},
		{"header is not JSON", frame(kindPublish, "{"), "bad header"},
	} {
		if _, err := readRecord(strings.NewReader(tc.data)); err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.err)
		}
	}

	// A corrupt blob fails its CRC like any frame.
	var b bytes.Buffer
	if err := writeMsg(&b, kindSegData, segDataMsg{Seq: 1, Data: []byte("segment")}); err != nil {
		t.Fatal(err)
	}
	corrupt := b.Bytes()
	corrupt[len(corrupt)-1] ^= 0x40
	if _, err := readMsg(bytes.NewReader(corrupt)); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Errorf("corrupt blob error = %v", err)
	}
}
