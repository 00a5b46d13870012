package clusterd

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"scikey/internal/mapreduce"
)

// The control plane's fuzz targets share one structure-aware harness: a
// frame CRC fails nearly every mutation of framed bytes before decode or
// apply, so the fuzzer mutates a damage and a list of records (a kind, a
// JSON header, the blobs it announces), which the harness frames validly
// with message.writeTo and then cuts at an offset or flips one byte of.
//
//	input  := damage u8 | at u32 | xor u8 | record*
//	record := kind u8 | len u16 | header [len] | the blobs' bytes
//
// Decoding is total: a field the input is too short for takes what is left,
// the header's Blobs member cuts its blobs from the bytes that follow (a
// negative entry is a nil blob), and a header that is not JSON has none.
const damageNone, damageCut, damageFlip = 0, 1, 2

// fuzzDamage is, by kind modulo 3: none, a cut at at (modulo the length
// plus one), or a flip of the byte at at (modulo the length) by xor (by 1
// when xor is 0).
type fuzzDamage struct {
	kind byte
	at   uint32
	xor  byte
}

// fuzzRecords decodes a harness input.
func fuzzRecords(in []byte) (d fuzzDamage, ms []message) {
	in = append([]byte{}, in...) // never nil: an empty blob stays empty
	take := func(n int) []byte {
		n = min(max(n, 0), len(in))
		b := in[:n:n]
		in = in[n:]
		return b
	}
	word := func(n int) (v uint32) {
		for _, b := range take(n) {
			v = v<<8 | uint32(b)
		}
		return v
	}
	d = fuzzDamage{kind: byte(word(1)), at: word(4), xor: byte(word(1))}
	for len(in) > 0 {
		m := message{kind: byte(word(1)), header: take(int(word(2)))}
		var ann blobList
		if json.Unmarshal(m.header, &ann) == nil {
			for _, n := range ann.Blobs {
				var b []byte // nil for a negative entry
				if n >= 0 {
					b = take(n)
				}
				m.blobs = append(m.blobs, b)
			}
		}
		ms = append(ms, m)
	}
	return d, ms
}

// fuzzInput encodes d and ms as fuzzRecords decodes them.
func fuzzInput(d fuzzDamage, ms ...message) []byte {
	b := binary.BigEndian.AppendUint32([]byte{d.kind}, d.at)
	b = append(b, d.xor)
	for _, m := range ms {
		b = binary.BigEndian.AppendUint16(append(b, m.kind), uint16(len(m.header)))
		b = append(b, m.header...)
		for _, blob := range m.blobs {
			b = append(b, blob...)
		}
	}
	return b
}

// frameRecords frames ms and applies d. No intact prefix of what is left
// may pass bound: the end of the last record a cut leaves whole, or the
// start of the record a flip lands in, unless on its kind byte, which no
// CRC covers.
func frameRecords(d fuzzDamage, ms ...message) (data []byte, bound int) {
	var buf bytes.Buffer
	ends := []int{0}
	for _, m := range ms {
		m.writeTo(&buf)
		ends = append(ends, buf.Len())
	}
	data = buf.Bytes()
	// start is the offset of the record that holds byte p.
	start := func(p int) int { return ends[sort.SearchInts(ends, p+1)-1] }
	switch d.kind % 3 {
	case damageCut:
		c := int(d.at % uint32(len(data)+1))
		return data[:c], start(c)
	case damageFlip:
		if p := int(d.at % uint32(max(len(data), 1))); p < len(data) {
			data[p] ^= max(d.xor, 1)
			if s := start(p); s != p {
				return data, s
			}
		}
	}
	return data, len(data)
}

// framed is ms framed back to back.
func framed(ms ...message) []byte {
	data, _ := frameRecords(fuzzDamage{}, ms...)
	return data
}

func mustEncode(tb testing.TB, kind byte, v any) message {
	m, err := encodeMsg(kind, v)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// announces reports whether m's header is JSON announcing exactly its
// blobs: one length each, -1 for a nil one.
func announces(m message) bool {
	var ann blobList
	if json.Unmarshal(m.header, &ann) != nil || len(ann.Blobs) != len(m.blobs) {
		return false
	}
	for i, n := range ann.Blobs {
		if b := m.blobs[i]; !(n == -1 && b == nil || n >= 0 && b != nil && len(b) == n) {
			return false
		}
	}
	return true
}

// wireTypes lists each wire kind's message type, kindHello first.
var wireTypes = []any{helloMsg{}, welcomeMsg{}, heartbeatMsg{}, grantMsg{}, startedMsg{}, completeMsg{},
	failMsg{}, revokeMsg{}, segReqMsg{}, segDataMsg{}, goodbyeMsg{}, driverHelloMsg{}, driverWelcomeMsg{},
	runReqMsg{}, runResultMsg{}, cancelMsg{}, publishMsg{}, pubAckMsg{}}

// decodeWire decodes m into a new value of its kind's type.
func decodeWire(m message) (any, error) {
	v := reflect.New(reflect.TypeOf(wireTypes[m.kind-kindHello])).Interface()
	return v, m.decode(v)
}

// FuzzWire reads wire messages from the input (raw, where hostile length
// fields live) or the harness's framed records. On any stream: no panic;
// reading a message allocates at most the input, one growth chunk and 64
// KiB; a frame that parses has its CRC and re-frames to the bytes consumed;
// an accepted message has a wire kind, announces exactly its blobs and
// re-encodes to the bytes consumed; and if it decodes into its kind's type,
// encoding and decoding that once more is a fixed point, nil and empty
// blobs distinct. Undamaged, the well-formed records (a wire kind, a header
// announcing its blobs) up to the first that is not are read back as
// framed, and decode if the header fits the type with one byte field per
// blob.
func FuzzWire(f *testing.F) {
	frame := func(kind byte, header string) []byte { return framed(message{kind: kind, header: []byte(header)}) }
	good := framed(mustEncode(f, kindHello, helloMsg{PID: 7, Worker: -1}))
	corrupt := bytes.Clone(good)
	corrupt[len(corrupt)-1] ^= 0x40
	huge := func(n uint32) []byte { // a length field with no payload behind it
		return append(binary.BigEndian.AppendUint32([]byte{kindGrant}, n), 0, 0, 0, 0)
	}
	msgs := []message{
		mustEncode(f, kindHello, helloMsg{PID: 7, Worker: -1, Claims: []leaseClaim{{Lease: 3, Epoch: 1}}}),
		mustEncode(f, kindComplete, completeMsg{Lease: 4, Result: &mapreduce.RemoteResult{
			Parts: [][]byte{[]byte("part-zero"), nil, {}}, Counters: []int64{1, 2}, WallSeconds: 0.25,
		}}),
		mustEncode(f, kindSegData, segDataMsg{Seq: 2, Attempt: 1, Data: []byte("segment")}),
		mustEncode(f, kindPublish, publishMsg{Seq: 3, MapTask: 1, Parts: [][]byte{[]byte("p0"), nil}}),
		mustEncode(f, kindRunResult, runResultMsg{Seq: 5, Error: "boom"}),
		mustEncode(f, kindHeartbeat, heartbeatMsg{Leases: []int{1, 2}}),
	}
	complete := framed(msgs[1])
	for _, raw := range [][]byte{good, good[:5], good[:len(good)-2], corrupt, huge(maxFrame + 1), huge(maxFrame), {},
		complete[:frameHeader+len(msgs[1].header)],                                  // more blobs announced than follow
		complete[:len(complete)-3],                                                  // the last blob torn
		append(frame(kindComplete, `{"Blobs":[2]}`), frame(kindHeartbeat, "{}")...), // a non-blob frame where a blob is due
		append(frame(kindComplete, `{"Blobs":[3]}`), frame(kindBlob, "ab")...),      // a blob of another length
		frame(kindPublish, `{"Blobs":[1073741824,1073741824]}`),                     // a total beyond maxFrame
		frame(kindPublish, `{"Blobs":[`+strings.Repeat("0,", 2000)+`0]}`),           // a large count, nothing behind it
	} {
		f.Add(true, raw)
	}
	n := uint32(len(framed(msgs...)))
	for _, d := range []fuzzDamage{{}, {kind: damageCut, at: n - 3}, {kind: damageFlip, at: n / 2, xor: 0x20}} {
		f.Add(false, fuzzInput(d, msgs...))
	}
	for _, m := range msgs {
		f.Add(true, framed(m))
		f.Add(false, fuzzInput(fuzzDamage{}, m))
	}

	f.Fuzz(func(t *testing.T, raw bool, in []byte) {
		data, d, ms := in, fuzzDamage{}, []message(nil)
		if !raw {
			d, ms = fuzzRecords(in)
			data, _ = frameRecords(d, ms...)
		}
		got := readWireStream(t, data)
		for i, m := range ms {
			if d.kind%3 != damageNone || m.kind < kindHello || m.kind > kindPubAck || !announces(m) {
				break
			}
			if i >= len(got) || !reflect.DeepEqual(got[i], m) {
				t.Fatalf("well-formed record %d of kind %d was not read back as framed", i, m.kind)
			}
			v, err := decodeWire(message{kind: m.kind, header: m.header}) // the header alone
			var fields []*[]byte
			if s, ok := v.(blobSink); ok {
				fields = s.fields()
			}
			if err == nil && len(fields) == len(m.blobs) {
				if _, err := decodeWire(m); err != nil {
					t.Fatalf("record %d of kind %d fits its type but does not decode: %v", i, m.kind, err)
				}
			}
		}
		for _, m := range got {
			if v, err := decodeWire(m); err == nil {
				again := mustEncode(t, m.kind, v)
				v, err = decodeWire(again)
				if err != nil || !reflect.DeepEqual(mustEncode(t, m.kind, v), again) {
					t.Fatalf("kind %d is not a fixed point of encode and decode (%v): %q %q", m.kind, err, again.header, again.blobs)
				}
			}
		}
	})
}

// readWireStream checks FuzzWire's stream invariants on data and returns
// the messages accepted before the first error.
func readWireStream(t *testing.T, data []byte) (got []message) {
	if kind, payload, err := readFrame(bytes.NewReader(data)); err == nil {
		if !bytes.HasPrefix(data, framed(message{kind: kind, header: payload})) {
			t.Fatal("a parsed frame does not re-frame to the bytes it was read from")
		}
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(data[5:9]) {
			t.Fatal("a payload was accepted with a mismatched CRC")
		}
	}
	for r := bytes.NewReader(data); ; {
		start := len(data) - r.Len()
		var m message
		var err error
		if n := allocBytes(1, func() { m, err = readMsg(r) }); n > uint64(len(data))+frameAllocChunk+64<<10 {
			t.Fatalf("reading %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return got
		}
		if m.kind < kindHello || m.kind > kindPubAck || !announces(m) {
			t.Fatalf("accepted a kind %d message that is not a wire kind or carries blobs its header does not announce", m.kind)
		}
		if !bytes.Equal(framed(m), data[start:len(data)-r.Len()]) {
			t.Fatalf("an accepted kind %d message does not re-encode to the bytes it was read from", m.kind)
		}
		got = append(got, m)
	}
}

// FuzzJournalReplay opens a journal file of a v2 header and the harness's
// damaged records. Invariants: no panic; replay gives the state of the
// longest intact record prefix (records read and applied one by one here,
// none past the damage), so a torn or corrupt record is dropped whole, and
// counts that prefix's events after its last checkpoint; the file is cut
// right after the prefix and reopens to the same state with nothing to cut;
// re-applying a record changes nothing; and the replayed state's
// checkpoint, applied to a fresh state, gives the same state.
func FuzzJournalReplay(f *testing.F) {
	for _, in := range journalSeeds(f) {
		f.Add(in)
	}
	head := framed(fileHeader())
	path := filepath.Join(f.TempDir(), "coord.journal") // per process; inputs run one at a time

	f.Fuzz(func(t *testing.T, in []byte) {
		d, ms := fuzzRecords(in)
		body, bound := frameRecords(d, ms...)
		now := time.Unix(5000, 0)
		want, intact, events, ckpt := newCoordState(time.Second), 0, 0, false
		for r := bytes.NewReader(body); ; intact = len(body) - r.Len() {
			m, err := readRecord(r)
			if err != nil || want.apply(m, now) != nil {
				break
			}
			if events++; m.kind == jkCheckpoint {
				events, ckpt = 0, true
			}
			once := stateFingerprint(t, want)
			if err := want.apply(m, now); err != nil || stateFingerprint(t, want) != once {
				t.Fatalf("re-applying a kind %d record changed the state (%v)", m.kind, err)
			}
		}
		if intact > bound {
			t.Fatalf("%d bytes replay intact, past the damage at %d", intact, bound)
		}
		if err := os.WriteFile(path, append(bytes.Clone(head), body...), 0o644); err != nil {
			t.Fatal(err)
		}
		wantFP := stateFingerprint(t, want)
		var got *coordState
		for _, cut := range []int{len(body) - intact, 0} { // open, then reopen
			j, replayed, stats, err := openJournal(path, time.Second, now)
			if err != nil {
				t.Fatalf("a journal with a valid header was refused: %v", err)
			}
			j.Close()
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Truncated != int64(cut) || info.Size() != int64(len(head)+intact) {
				t.Fatalf("cut %d bytes to leave %d, want %d to leave %d", stats.Truncated, info.Size(), cut, len(head)+intact)
			}
			if stats.Events != events || stats.Checkpoint != ckpt {
				t.Fatalf("replayed %d events after checkpoint %v, want %d after %v", stats.Events, stats.Checkpoint, events, ckpt)
			}
			if g := stateFingerprint(t, replayed); g != wantFP {
				t.Fatalf("replay diverged from the %d-byte intact prefix:\n got %s\nwant %s", intact, g, wantFP)
			}
			got = replayed
		}
		restored := newCoordState(time.Second)
		if err := restored.apply(mustEncode(t, jkCheckpoint, got.checkpoint()), now); err != nil || stateFingerprint(t, restored) != wantFP {
			t.Fatalf("the replayed state's checkpoint restores a different state (%v)", err)
		}
	})
}

// journalRecords returns the records of the journal file at path after its
// header.
func journalRecords(tb testing.TB, path string) (ms []message) {
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	r := bytes.NewReader(raw)
	if m, err := readRecord(r); err != nil || m.kind != jkHeader {
		tb.Fatalf("journal header: kind %d, %v", m.kind, err)
	}
	for r.Len() > 0 {
		m, err := readRecord(r)
		if err != nil {
			tb.Fatal(err)
		}
		ms = append(ms, m)
	}
	return ms
}

// journalSeeds: a real coordinator's journal, whole, torn and corrupt; two
// records and each way a crash or a bad disk tears the next (a partial
// frame, a corrupt one, a header without its blobs, a blob group cut short,
// a corrupt blob); four seeded event streams; testdata/parent.v2.journal.
func journalSeeds(f *testing.F) [][]byte {
	real := recordJournal(f)
	n := uint32(len(framed(real...)))
	seeds := [][]byte{fuzzInput(fuzzDamage{}, real...),
		fuzzInput(fuzzDamage{kind: damageCut, at: n - 3}, real...),
		fuzzInput(fuzzDamage{kind: damageFlip, at: n / 2, xor: 0x20}, real...)}
	base := []message{mustEncode(f, jkBoot, evBoot{Epoch: 1}), mustEncode(f, jkWorker, evWorker{ID: 0})}
	worker := mustEncode(f, jkWorker, evWorker{ID: 9})
	pub := mustEncode(f, jkPublish, evPublish{MapTask: 9, Parts: [][]byte{[]byte("part-zero"), []byte("part-one")}})
	end := func(m message) uint32 { return uint32(len(framed(append(base, m)...))) }
	for _, tear := range []struct {
		next message
		d    fuzzDamage
	}{
		{worker, fuzzDamage{kind: damageCut, at: end(worker) - 3}},
		{worker, fuzzDamage{kind: damageFlip, at: end(worker) - 1, xor: 0x40}},
		{pub, fuzzDamage{kind: damageCut, at: end(message{kind: pub.kind, header: pub.header})}},
		{pub, fuzzDamage{kind: damageCut, at: end(pub) - 3}},
		{pub, fuzzDamage{kind: damageFlip, at: end(pub) - 1, xor: 0x40}},
	} {
		seeds = append(seeds, fuzzInput(tear.d, append(base, tear.next)...))
	}
	for seed := int64(1); seed <= 4; seed++ {
		seeds = append(seeds, fuzzInput(fuzzDamage{}, eventStream(f, seed)...))
	}
	return append(seeds, fuzzInput(fuzzDamage{}, journalRecords(f, "testdata/parent.v2.journal")...))
}

// eventStream is a seeded stream of 121 events as the coordinator journals
// them: boots, registrations, grants, settles of active, settled and
// never-granted leases (the last two no-ops), deliveries, publishes, and
// checkpoints inline, as compaction writes them.
func eventStream(tb testing.TB, seed int64) (log []message) {
	rng := rand.New(rand.NewSource(seed))
	now := time.Unix(9000, 0)
	live := newCoordState(time.Second)
	emit := func(kind byte, ev any) {
		log = append(log, mustEncode(tb, kind, ev))
		if err := live.apply(log[len(log)-1], now); err != nil {
			tb.Fatalf("seed %d: apply kind %d: %v", seed, kind, err)
		}
	}
	emit(jkBoot, evBoot{Epoch: 1})
	phases := []string{mapreduce.PhaseMap, mapreduce.PhaseReduce}
	for range 120 {
		switch rng.Intn(10) {
		case 0:
			emit(jkBoot, evBoot{Epoch: live.epoch + 1})
		case 1:
			emit(jkWorker, evWorker{ID: live.nextWorker})
		case 2, 3, 4:
			if live.nextWorker == 0 {
				emit(jkWorker, evWorker{ID: 0})
			}
			li := live.leases.next(rng.Intn(live.nextWorker), live.epoch, phases[rng.Intn(2)], rng.Intn(6), rng.Intn(3), now)
			emit(jkGrant, evGrant{Lease: *li})
		case 5, 6:
			id := rng.Intn(live.leases.nextID + 1)
			o := storedOutcome{State: "completed", Result: &mapreduce.RemoteResult{Output: []byte(fmt.Sprintf("o%d", id))}}
			if li, ok := live.leases.active[id]; ok {
				o.Phase, o.Task, o.Attempt = li.Phase, li.Task, li.Attempt
			}
			emit(jkSettle, evSettle{Lease: id, Outcome: o})
		case 7:
			for k := range live.outcomes {
				emit(jkDeliver, k)
				break
			}
		case 8:
			emit(jkPublish, evPublish{MapTask: rng.Intn(6), Attempt: rng.Intn(3),
				Parts: [][]byte{[]byte(fmt.Sprintf("part-%d", rng.Intn(100)))}})
		case 9:
			emit(jkCheckpoint, live.checkpoint())
		}
	}
	return log
}

// recordJournal runs a real coordinator — a worker, a driver Client, map
// attempts whose results carry parts (one nil, one empty), their publishes
// and a reduce — closes it without compaction and returns its journal's
// records.
func recordJournal(f *testing.F) []message {
	c, cl, workers := startCluster(f, Config{HeartbeatEvery: 20 * time.Millisecond, LeaseTTL: 5 * time.Second}, 1,
		&stubRunner{hook: func(_ context.Context, phase string, task, _ int, _ mapreduce.RemoteFetch) (*mapreduce.RemoteResult, error) {
			if phase == mapreduce.PhaseReduce {
				return &mapreduce.RemoteResult{Output: []byte(fmt.Sprintf("out-%d", task)), WallSeconds: 0.1}, nil
			}
			return &mapreduce.RemoteResult{Parts: [][]byte{[]byte(fmt.Sprintf("map-%d-part-0", task)), nil, {}},
				Counters: []int64{int64(task), 3}, Hosts: []string{"n0"}, WallSeconds: 0.2}, nil
		}})
	for task := range 2 {
		rr, err := cl.RunRemote(mapreduce.PhaseMap, task, 0, nil)
		if err != nil {
			f.Fatal(err)
		}
		cl.PublishRemote(task, 0, rr.Parts)
	}
	if _, err := cl.RunRemote(mapreduce.PhaseReduce, 0, 0, nil); err != nil {
		f.Fatal(err)
	}
	cl.Close()
	workers[0].Stop()
	c.Close()
	return journalRecords(f, c.cfg.Journal)
}
