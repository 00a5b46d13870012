package clusterd

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"scikey/internal/mapreduce"
)

// recordJournal runs a real coordinator with a journal — a worker, a
// driver Client, map attempts whose results carry parts (one nil, one
// empty), their publishes and a reduce — closes it without compaction, and
// returns the file.
func recordJournal(f *testing.F) []byte {
	path := filepath.Join(f.TempDir(), "coord.journal")
	c, err := Start(Config{Journal: path, HeartbeatEvery: 20 * time.Millisecond, LeaseTTL: 5 * time.Second})
	if err != nil {
		f.Fatal(err)
	}
	runner := &stubRunner{hook: func(_ context.Context, phase string, task, attempt int, _ mapreduce.RemoteFetch) (*mapreduce.RemoteResult, error) {
		if phase == mapreduce.PhaseReduce {
			return &mapreduce.RemoteResult{Output: []byte(fmt.Sprintf("out-%d", task)), WallSeconds: 0.1}, nil
		}
		return &mapreduce.RemoteResult{
			Parts:    [][]byte{[]byte(fmt.Sprintf("map-%d-part-0", task)), nil, {}},
			Counters: []int64{int64(task), 3}, Hosts: []string{"n0"}, WallSeconds: 0.2,
		}, nil
	}}
	w := NewWorker(WorkerConfig{Addr: c.Addr(), Build: func([]byte) (Runner, error) { return runner, nil }})
	go w.Run()
	cl, err := Dial(ClientConfig{Addr: c.Addr()})
	if err != nil {
		f.Fatal(err)
	}
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
	w.Stop()
	c.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

// FuzzJournalReplay feeds openJournal a valid v2 file header followed by
// arbitrary records and blob groups. It is seeded with the records of a real
// coordinator's journal and of both parent journals (v1 records are headers
// without blobs, valid in a v2 file). Invariants: replay never panics; the
// replayed state is the state of the longest intact record prefix — read
// and applied record by record here — so a record whose blob group is torn
// or corrupt is dropped whole, header included, and the file is cut right
// after that prefix; and reopening the cut file replays to the same state
// with nothing left to cut.
func FuzzJournalReplay(f *testing.F) {
	body := func(journal []byte) []byte {
		return journal[frameHeader+binary.BigEndian.Uint32(journal[1:5]):]
	}
	real := body(recordJournal(f))
	f.Add(real)
	f.Add(real[:len(real)-3]) // torn inside the last record
	corrupt := bytes.Clone(real)
	corrupt[len(corrupt)/2] ^= 0x20
	f.Add(corrupt)
	for _, name := range []string{"testdata/parent.journal", "testdata/parent.v2.journal"} {
		raw, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body(raw))
	}
	path := filepath.Join(f.TempDir(), "coord.journal") // per process; inputs run one at a time

	f.Fuzz(func(t *testing.T, data []byte) {
		now := time.Unix(5000, 0)
		want := newCoordState(time.Second)
		intact := 0
		for r := bytes.NewReader(data); ; {
			m, err := readRecord(r)
			if err != nil || want.apply(m, now) != nil {
				break
			}
			intact = len(data) - r.Len()
		}

		var file bytes.Buffer
		fileHeader().writeTo(&file)
		prefix := file.Len()
		file.Write(data)
		if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		j, got, stats, err := openJournal(path, time.Second, now)
		if err != nil {
			t.Fatalf("a journal with a valid header was refused: %v", err)
		}
		j.Close()
		if g, w := stateFingerprint(t, got), stateFingerprint(t, want); g != w {
			t.Fatalf("replay diverged from the %d-byte intact prefix:\n got %s\nwant %s", intact, g, w)
		}
		if stats.Truncated != int64(len(data)-intact) {
			t.Fatalf("cut %d bytes, want %d", stats.Truncated, len(data)-intact)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() != int64(prefix+intact) {
			t.Fatalf("file is %d bytes after the cut, want %d", info.Size(), prefix+intact)
		}
		j, again, stats, err := openJournal(path, time.Second, now)
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		if stats.Truncated != 0 {
			t.Fatalf("reopening the cut file cut %d more bytes", stats.Truncated)
		}
		if g, w := stateFingerprint(t, again), stateFingerprint(t, want); g != w {
			t.Fatalf("reopened journal diverged:\n got %s\nwant %s", g, w)
		}
	})
}
