package shufflenet

import "testing"

// BenchmarkShuffleFetch drives the wire fetch path end to end over loopback
// TCP: request, header, 64 chunk frames, CRC verification. allocs/op is the
// zero-copy gate for the committed-segment path — the server hands
// Publish-time bytes straight to the socket (writev, CRC from the
// commit-time table) and the client lands chunks directly in the one result
// buffer sized from the response header, so per-op allocations are
// connection scaffolding plus that single buffer, independent of chunk
// count and segment size (TestFetchAllocsIndependentOfSegmentSize).
func BenchmarkShuffleFetch(b *testing.B) {
	const segBytes = 4 << 20
	s := newTestService(b, Config{Nodes: 1})
	s.Publish(0, 0, [][]byte{testBytes(segBytes, 3)})

	b.SetBytes(segBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Fetch(nil, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Data) != segBytes {
			b.Fatalf("fetched %d bytes, want %d", len(res.Data), segBytes)
		}
	}
}

// TestFetchAllocsIndependentOfSegmentSize holds the invariant
// BenchmarkShuffleFetch's gate stands on: a 16 MiB fetch (256 chunks) costs
// the allocations a 64 KiB fetch (one chunk) does, give or take two. A
// per-chunk allocation on either end of the socket shows as ~255 more.
func TestFetchAllocsIndependentOfSegmentSize(t *testing.T) {
	allocs := func(segBytes int) float64 {
		s := newTestService(t, Config{Nodes: 1})
		s.Publish(0, 0, [][]byte{testBytes(segBytes, 5)})
		fetch := func() {
			res, err := s.Fetch(nil, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Data) != segBytes {
				t.Fatalf("fetched %d bytes, want %d", len(res.Data), segBytes)
			}
		}
		fetch() // warm the per-node metrics and the runtime's poller
		return testing.AllocsPerRun(5, fetch)
	}
	small, large := allocs(64<<10), allocs(16<<20)
	if d := large - small; d > 2 || d < -2 {
		t.Fatalf("allocs per fetch: %v at 64 KiB, %v at 16 MiB — fetch allocations grow with segment size", small, large)
	}
}
