package mapreduce

import (
	"errors"
	"fmt"
	"time"

	"scikey/internal/shufflenet"
)

// Shuffle transport modes.
const (
	// ShuffleMem hands committed segments to reducers in-process (the
	// historical data path; the byte-identity baseline).
	ShuffleMem = "mem"
	// ShuffleTCP runs the networked shuffle: per-node segment servers on
	// loopback TCP sockets.
	ShuffleTCP = "tcp"
)

// ShuffleConfig selects and tunes the shuffle transport. The zero value of
// every field takes the shufflenet default.
type ShuffleConfig struct {
	// Mode is ShuffleMem (default when empty) or ShuffleTCP.
	Mode string
	// Nodes is the simulated shuffle-server count; map task t serves from
	// node t % Nodes.
	Nodes int
	// FetchTimeout is the per-attempt deadline for one segment fetch.
	FetchTimeout time.Duration
	// FetchAttempts bounds one segment fetch's attempts; when they exhaust,
	// the map output counts as lost and the producing map task re-executes.
	FetchAttempts int
	// BreakerThreshold is the consecutive-failure count that opens a node's
	// circuit breaker (negative disables breakers).
	BreakerThreshold int
	// ChunkBytes is the CRC-framed response chunk size — the granularity of
	// verified-offset resume.
	ChunkBytes int
}

func (sc *ShuffleConfig) validate() error {
	switch sc.Mode {
	case "", ShuffleMem, ShuffleTCP:
		return nil
	}
	return fmt.Errorf("shuffle mode %q is not %s|%s", sc.Mode, ShuffleMem, ShuffleTCP)
}

// networked reports whether the job shuffles over shufflenet.
func (sc *ShuffleConfig) networked() bool {
	return sc != nil && sc.Mode == ShuffleTCP
}

// newShuffleService starts the job's shuffle service, or returns nil for the
// in-memory mode. Fetch retries ride the job's deterministic backoff policy.
func newShuffleService(job *Job) (*shufflenet.Service, error) {
	if !job.Shuffle.networked() {
		return nil, nil
	}
	sc := job.Shuffle
	svc := shufflenet.NewService(shufflenet.Config{
		Nodes:            sc.Nodes,
		ChunkBytes:       sc.ChunkBytes,
		FetchTimeout:     sc.FetchTimeout,
		FetchAttempts:    sc.FetchAttempts,
		Backoff:          job.Retry.backoff(),
		BreakerThreshold: sc.BreakerThreshold,
		Injector:         job.Faults,
		Obs:              job.Obs,
	})
	if err := svc.Start(); err != nil {
		return nil, err
	}
	return svc, nil
}

// segmentSource is a reduce attempt's view of the map outputs: one committed
// final segment per (map task, partition). fetch also reports wasted network
// bytes — verified data the transport had to discard — charged to the
// attempt's footprint.
type segmentSource interface {
	numMaps() int
	fetch(m, part int) (segment, int64, error)
}

// memSource serves a snapshot of the in-memory map outputs: the historical
// zero-copy hand-off.
type memSource struct {
	outs [][]segment
}

func (s memSource) numMaps() int { return len(s.outs) }

func (s memSource) fetch(m, part int) (segment, int64, error) {
	return s.outs[m][part], 0, nil
}

// netSource fetches segments through the shuffle service. Failures
// translate into the engine's existing recovery vocabulary: an exhausted
// fetch means the map output is lost, which is the same repair problem as a
// corrupt segment — re-execute the producer and retry the reducer.
type netSource struct {
	svc  *shufflenet.Service
	n    int
	stop <-chan struct{}
	// attemptOf names the currently committed attempt of a map task, for
	// exhaustion reports (the transport never saw the segment's bytes).
	attemptOf func(m int) int
}

func (s *netSource) numMaps() int { return s.n }

func (s *netSource) fetch(m, part int) (segment, int64, error) {
	res, err := s.svc.Fetch(s.stop, m, part)
	if err != nil {
		if errors.Is(err, shufflenet.ErrCanceled) {
			return segment{}, res.WastedBytes, errAttemptCanceled
		}
		var fe *shufflenet.FetchError
		if errors.As(err, &fe) {
			return segment{}, res.WastedBytes, &ErrCorruptSegment{
				MapTask: m, Partition: part, Attempt: s.attemptOf(m), Err: err,
			}
		}
		return segment{}, res.WastedBytes, err
	}
	return segment{data: res.Data, src: m, attempt: res.Attempt}, res.WastedBytes, nil
}

// mergeShuffleMetrics folds the transport's end-of-run metrics into the job
// counters.
func mergeShuffleMetrics(jc *Counters, m shufflenet.MetricsSnapshot) {
	jc.ShuffleFetches.Add(m.Fetches)
	jc.ShuffleFetchRetries.Add(m.Retries)
	jc.ShuffleFetchesResumed.Add(m.Resumes)
	jc.ShuffleFetchWastedBytes.Add(m.WastedBytes)
	jc.ShuffleBreakerTrips.Add(m.BreakerTrips)
}
