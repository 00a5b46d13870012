package mapreduce

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"scikey/internal/codec"
)

// codeOnceDocs (TestSpillCombinePinned's documents) are long enough that a
// 128 B spill buffer gives every task some thirty spills — past the merge
// factor at 2 and at 10 — and a 512 B one six to eight.
var codeOnceDocs = []string{
	strings.Repeat("alpha beta gamma delta alpha beta alpha ", 60),
	strings.Repeat("beta gamma epsilon zeta alpha ", 80),
	strings.Repeat("the quick brown fox jumps over the lazy dog ", 40),
}

// mapFinals runs every map task of job once, directly, and returns the
// published segment bytes by [task][partition].
func mapFinals(t *testing.T, job *Job) [][][]byte {
	t.Helper()
	out := make([][][]byte, len(job.Splits))
	for m, split := range job.Splits {
		mt := newMapTask(context.Background(), job, m, 0)
		if err := mt.run(split); err != nil {
			t.Fatalf("map task %d: %v", m, err)
		}
		for _, seg := range mt.finals {
			out[m] = append(out[m], seg.data)
		}
	}
	return out
}

func decodeSegment(t *testing.T, c codec.Codec, data []byte) []byte {
	t.Helper()
	rc, err := c.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	plain, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	return plain
}

// codeOnceCheck holds build(c) to the rule "a segment is coded iff it is a
// task's final map output", against build(nil) as the oracle: the map side
// passes codeOnceMapSide, and the whole job's output and payload counters
// equal the codec.None job's, the two byte counters the codec exists to
// shrink aside — SpilledRecords plus extraSpilled, the records of lone raw
// spills, whose re-encode is a merge pass the codec.None job does not need.
func codeOnceCheck(t *testing.T, c codec.Codec, build func(codec.Codec) *Job, extraSpilled int64) {
	t.Helper()
	codeOnceMapSide(t, c, build)
	run := func(c codec.Codec) ([]string, map[string]int64) {
		job := build(c)
		res, err := Run(job)
		if err != nil {
			t.Fatal(err)
		}
		return readRawOutputs(t, job.FS, res.OutputPaths), payload(res.Counters)
	}
	wantOuts, want := run(nil)
	gotOuts, got := run(c)
	for i := range wantOuts {
		if gotOuts[i] != wantOuts[i] {
			t.Errorf("partition %d output differs from the codec.None job's", i)
		}
	}
	want["Spilled records"] += extraSpilled
	for name, w := range want {
		if name == "Map output materialized bytes" || name == "Reduce shuffle bytes" {
			continue
		}
		if got[name] != w {
			t.Errorf("counter %s = %d, codec.None job %d", name, got[name], w)
		}
	}
}

// codeOnceMapSide runs every map task of build(nil) and build(c) once: every
// segment the coded job publishes decodes to the codec.None job's segment of
// the same (task, partition), and its map side opens one codec writer per
// non-empty one and no codec reader.
func codeOnceMapSide(t *testing.T, c codec.Codec, build func(codec.Codec) *Job) {
	t.Helper()
	plain := mapFinals(t, build(nil))
	cc := &countingCodec{inner: c}
	coded := mapFinals(t, build(cc))
	var nonEmpty int64
	for m := range plain {
		for p := range plain[m] {
			if len(plain[m][p]) == 0 {
				if len(coded[m][p]) != 0 {
					t.Errorf("task %d partition %d: coded job published %d B, codec.None job nothing", m, p, len(coded[m][p]))
				}
				continue
			}
			nonEmpty++
			if got := decodeSegment(t, c, coded[m][p]); !bytes.Equal(got, plain[m][p]) {
				t.Errorf("task %d partition %d: published segment decodes to %d B that differ from the codec.None job's %d B",
					m, p, len(got), len(plain[m][p]))
			}
		}
	}
	if got := cc.writers.Load(); got != nonEmpty {
		t.Errorf("map side opened %d codec writers for %d non-empty (task, partition)s", got, nonEmpty)
	}
	if got := cc.created.Load(); got != 0 {
		t.Errorf("map side opened %d codec readers, want 0", got)
	}
}

// TestCodeOnceLoneRawSpill: "solo" is alone in partition 1 and lands in
// exactly one of the task's many spills, so that partition reaches finalize
// as a single raw run: the same mergeDown pass re-encodes it, and counts its
// record as spilled.
func TestCodeOnceLoneRawSpill(t *testing.T) {
	build := func(c codec.Codec) *Job {
		docs := []string{"solo " + strings.Repeat("alpha beta gamma ", 100)}
		job := wordCountJob(testFS(), docs, 2, false)
		job.Partition = func(key []byte, _ int) int {
			if string(key) == "solo" {
				return 1
			}
			return 0
		}
		job.SpillBufferBytes = 128
		job.MapOutputCodec = c
		return job
	}
	codeOnceCheck(t, codec.NewTransform(codec.Zlib), build, 1)
}

// TestCodeOnceMergeError: a two-pass merge whose coded last pass fails
// partway through its output: repeated, it must run from the warm pools —
// the six raw readers of the failing pass and the raw writer of the pass
// before it all went back. (The failed writer itself is dropped by design:
// mid-stream codec state is not pooled.) A run opens twelve raw readers and
// twelve raw writers, twice the leak tests' six, so the race detector's
// dropped pool Puts cost ~72 constructions over leakIters runs; stranding
// the failing pass's readers would cost ~180.
func TestCodeOnceMergeError(t *testing.T) {
	const slack = 5 * leakIters
	raw := &countingCodec{inner: codec.None}
	failing := &failingCodec{Codec: codec.Zlib, after: 64}
	env := readEnv{codec: raw, part: -1}
	run := func() {
		segs := leakSegments(t, raw, 11, 40, func(i, s int) string {
			return fmt.Sprintf("k%03d-%02d", i, s)
		})
		if _, err := mergeDown(segs, env, keyOrder{compare: bytes.Compare}, 6, 1, failing, nil); !errors.Is(err, errFailingWriter) {
			t.Fatalf("mergeDown error = %v, want the injected write error", err)
		}
	}
	run() // warm the pools
	readers, writers := raw.created.Load(), raw.writersCreated.Load()
	for i := 0; i < leakIters; i++ {
		run()
	}
	if grown := raw.created.Load() - readers; grown > slack {
		t.Errorf("raw readers leaked: %d constructed across %d failing merges, want ~0", grown, leakIters)
	}
	if grown := raw.writersCreated.Load() - writers; grown > slack {
		t.Errorf("raw writers leaked: %d constructed across %d failing merges, want ~0", grown, leakIters)
	}
}

var errFailingWriter = errors.New("injected codec write error")

// failingCodec's writers fail once they have been handed more than after
// bytes.
type failingCodec struct {
	codec.Codec
	after int
}

func (f *failingCodec) NewWriter(w io.Writer) io.WriteCloser {
	return &failingWriter{WriteCloser: f.Codec.NewWriter(w), left: f.after}
}

type failingWriter struct {
	io.WriteCloser
	left int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.left -= len(p); w.left < 0 {
		return 0, errFailingWriter
	}
	return w.WriteCloser.Write(p)
}
