package mapreduce

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"scikey/internal/codec"
)

// decodeOnceCodecs are the coded stacks the decode-once tests run: the
// paper's transform over zlib, and the same behind the parallel block codec
// with frames small enough that every segment has several.
func decodeOnceCodecs() []struct {
	name string
	c    codec.Codec
} {
	blk := codec.NewBlock(codec.NewTransform(codec.Zlib))
	blk.BlockBytes = 1 << 10
	return []struct {
		name string
		c    codec.Codec
	}{
		{"transform+zlib", codec.NewTransform(codec.Zlib)},
		{"block+transform+zlib", blk},
	}
}

// TestDecodedBuffersReturnToPool holds every exit of a coded reduce attempt
// and of a node combine to the ownership rule: the plaintext buffers
// validateSegments decoded go back to the pool, after success, after an
// ErrCorruptSegment verdict and after a canceled attempt. The retried
// attempts re-read the fetched map outputs, which must still be intact:
// recovery reproduces the fault-free output.
func TestDecodedBuffersReturnToPool(t *testing.T) {
	live := decodedLive.Load()
	leaked := func(t *testing.T) {
		t.Helper()
		if n := decodedLive.Load() - live; n != 0 {
			t.Errorf("%d decoded buffers never went back to the pool", n)
		}
	}
	for _, cd := range decodeOnceCodecs() {
		t.Run(cd.name, func(t *testing.T) {
			clean, err := runCodedFaultJob(t, cd.c, "", RetryPolicy{})
			if err != nil {
				t.Fatal(err)
			}
			leaked(t)
			wantOut := readRawOutputs(t, clean.fs, clean.res.OutputPaths)
			for _, spec := range []string{
				"seed=7;segment:1.0:corrupt@0",
				"codec:0:error@0;codec:2:error@0",
				"seed=3;segment:0.1:corrupt@0;codec:1:error@0",
			} {
				got, err := runCodedFaultJob(t, cd.c, spec, RetryPolicy{MaxAttempts: 4})
				if err != nil {
					t.Fatalf("%s: recovery failed: %v", spec, err)
				}
				if !slices.Equal(readRawOutputs(t, got.fs, got.res.OutputPaths), wantOut) {
					t.Errorf("%s: output differs from the fault-free run", spec)
				}
				if got.res.Counters.TaskRetries.Value() == 0 {
					t.Errorf("%s: no attempt was retried", spec)
				}
				leaked(t)
			}

			// Without a retry budget the first verdict fails the job.
			_, err = runCodedFaultJob(t, cd.c, "seed=7;segment:1.0:corrupt@0", RetryPolicy{})
			var ce *ErrCorruptSegment
			if !errors.As(err, &ce) || ce.MapTask != 1 {
				t.Fatalf("error = %v, want an ErrCorruptSegment naming map 1", err)
			}
			leaked(t)

			// The node combine validates with the same scan and recycles
			// its level once the combined segment is written.
			for _, spec := range []string{"", "seed=7;segment:1.0:corrupt@0"} {
				job := faultJob(t, testFS(), spec, RetryPolicy{MaxAttempts: 3}, 1)
				job.MapOutputCodec = cd.c
				job.Combine = &CombineConfig{Combiner: SumInt32, Nodes: 2}
				res, err := Run(job)
				if err != nil {
					t.Fatalf("node combine %q: %v", spec, err)
				}
				if !slices.Equal(readRawOutputs(t, job.FS, res.OutputPaths), wantOut) {
					t.Errorf("node combine %q: output differs from the fault-free run", spec)
				}
				leaked(t)
			}

			t.Run("canceled", func(t *testing.T) { canceledReduceReleases(t, cd.c, leaked) })
		})
	}

	// A codec with no checksum of its own decodes a flipped byte without
	// complaint, so the raw IFile scan of the decoded buffer is what
	// rejects it — naming the producer, with every buffer back.
	t.Run("scan-verdict", func(t *testing.T) {
		unchecked := &countingCodec{inner: codec.None}
		segs := leakSegments(t, unchecked, 3, 40, func(i, s int) string {
			return fmt.Sprintf("k%03d-%02d", i, s)
		})
		for i := range segs {
			segs[i].src = i
		}
		segs[1].data[len(segs[1].data)/2] ^= 0x10
		_, _, err := validateSegments(segs, readEnv{codec: unchecked, part: 0})
		var ce *ErrCorruptSegment
		if !errors.As(err, &ce) || ce.MapTask != 1 {
			t.Fatalf("error = %v, want an ErrCorruptSegment naming map 1", err)
		}
		if got := unchecked.decoded.Load(); got == 0 {
			t.Fatal("nothing was decoded")
		}
		leaked(t)
	})
}

// canceledReduceReleases runs one reduce attempt directly over fetched
// coded segments and cancels it from inside its first Reduce call, after
// the level was decoded. The attempt must end canceled with its buffers
// back in the pool and the fetched bytes untouched.
func canceledReduceReleases(t *testing.T, c codec.Codec, leaked func(*testing.T)) {
	job := wordCountJob(testFS(), codeOnceDocs, 1, false)
	job.MapOutputCodec = c
	finals := mapFinals(t, job)
	outs := make([][]segment, len(finals))
	var fetched [][]byte
	for m, row := range finals {
		outs[m] = []segment{{data: row[0], src: m}}
		fetched = append(fetched, bytes.Clone(row[0]))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inner := job.NewReducer
	job.NewReducer = func() Reducer {
		r := inner()
		return ReducerFunc(func(tc *TaskContext, key []byte, values [][]byte, emit Emit) error {
			cancel()
			return r.Reduce(tc, key, values, emit)
		})
	}
	rt := newReduceTask(ctx, job, 0, 0)
	if err := rt.run(memSource{outs}); !errors.Is(err, ErrAttemptCanceled) {
		t.Fatalf("err = %v, want ErrAttemptCanceled", err)
	}
	rt.abort()
	leaked(t)
	for m, row := range outs {
		if !bytes.Equal(row[0].data, fetched[m]) {
			t.Errorf("map %d's fetched segment changed under the canceled attempt", m)
		}
	}
}
