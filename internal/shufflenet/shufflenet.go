// Package shufflenet is the networked shuffle transport: the mapper→reducer
// segment hand-off as a real client/server data path instead of a slice
// copy, so every failure mode the paper's compression is meant to survive in
// a deployment — slow links, dropped connections, truncated transfers, dead
// nodes — can actually occur (and be injected deterministically).
//
// The moving parts:
//
//   - One server per simulated node listens on its own loopback TCP port,
//     holds the committed map-output segments of the map tasks it hosts and
//     serves them over a CRC-framed chunk protocol that supports byte-offset
//     range reads, so an interrupted fetch resumes from its last verified
//     offset instead of from zero.
//   - The reduce-side fetcher bounds per-node concurrency, applies a
//     per-fetch deadline, retries with the engine's deterministic
//     backoff/jitter, and keeps a per-node circuit breaker so one sick node
//     degrades gracefully: fetches to it fail fast while the breaker is
//     open, other nodes' partitions keep flowing, and the breaker half-opens
//     on the backoff schedule to probe for recovery.
//
// Fault injection (the net/node sites of internal/faults) happens inside
// the server and dial paths, exactly where a real network would fail; the
// client only ever sees the symptoms: refused connections, unexpected EOFs,
// deadline timeouts, short responses, chunk CRC mismatches.
package shufflenet

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"scikey/internal/backoff"
	"scikey/internal/faults"
	"scikey/internal/obs"
)

// DefaultNodes is the shuffle server count when Config.Nodes is unset.
const DefaultNodes = 3

// Config parameterizes a shuffle Service.
type Config struct {
	// Nodes is the shuffle server count; map task t publishes to node
	// t % Nodes. Default DefaultNodes.
	Nodes int
	// ChunkBytes is the response chunk size (each chunk carries its own
	// CRC; the verified-resume granularity). Default 64 KiB.
	ChunkBytes int
	// FetchTimeout is the per-attempt deadline covering dial, request, and
	// response. Default 2s.
	FetchTimeout time.Duration
	// FetchAttempts bounds the attempts of one segment fetch before it is
	// reported lost. Default 4.
	FetchAttempts int
	// Backoff is the deterministic delay schedule between fetch retries and
	// the breaker's reopen schedule. The zero value retries immediately.
	Backoff backoff.Policy
	// PerNodeFetchers caps concurrent fetches against one node. Default 4.
	PerNodeFetchers int
	// BreakerThreshold is the consecutive-failure count that opens a node's
	// circuit breaker. 0 uses the default (3); negative disables breakers.
	BreakerThreshold int
	// Injector optionally injects net/node faults. Nil means a clean
	// network.
	Injector *faults.Injector
	// Obs optionally records per-node fetch-latency histograms
	// (scikey_shuffle_fetch_seconds{node}) and breaker state transitions
	// (scikey_shuffle_breaker_transitions_total{node,state}). Nil disables
	// both; the aggregate Metrics counters are always maintained.
	Obs *obs.Observer
}

func (c Config) nodes() int {
	if c.Nodes > 0 {
		return c.Nodes
	}
	return DefaultNodes
}

func (c Config) chunkBytes() int {
	if c.ChunkBytes > 0 {
		return c.ChunkBytes
	}
	return 64 << 10
}

func (c Config) fetchTimeout() time.Duration {
	if c.FetchTimeout > 0 {
		return c.FetchTimeout
	}
	return 2 * time.Second
}

func (c Config) fetchAttempts() int {
	if c.FetchAttempts > 0 {
		return c.FetchAttempts
	}
	return 4
}

func (c Config) perNodeFetchers() int {
	if c.PerNodeFetchers > 0 {
		return c.PerNodeFetchers
	}
	return 4
}

func (c Config) breakerThreshold() int {
	switch {
	case c.BreakerThreshold > 0:
		return c.BreakerThreshold
	case c.BreakerThreshold < 0:
		return 0 // disabled
	}
	return 3
}

// Metrics counts the fetcher's work, including the work that was lost.
// All fields are read with Snapshot.
type Metrics struct {
	Fetches      atomic.Int64 // segment fetches requested
	Retries      atomic.Int64 // fetch attempts beyond the first
	Resumes      atomic.Int64 // attempts that resumed from a verified offset
	ResumedBytes atomic.Int64 // bytes NOT refetched thanks to resume
	WastedBytes  atomic.Int64 // verified bytes discarded (resets, exhaustion)
	BreakerTrips atomic.Int64 // circuit breakers opened
	BreakerSkips atomic.Int64 // fetch attempts refused by an open breaker
	CRCErrors    atomic.Int64 // chunks rejected by their CRC
	SegmentsLost atomic.Int64 // fetches that exhausted their budget
	BytesFetched atomic.Int64 // verified payload bytes received
}

// MetricsSnapshot is a plain-value copy of Metrics.
type MetricsSnapshot struct {
	Fetches, Retries, Resumes, ResumedBytes, WastedBytes int64
	BreakerTrips, BreakerSkips, CRCErrors, SegmentsLost  int64
	BytesFetched                                         int64
}

// Snapshot reads the counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Fetches:      m.Fetches.Load(),
		Retries:      m.Retries.Load(),
		Resumes:      m.Resumes.Load(),
		ResumedBytes: m.ResumedBytes.Load(),
		WastedBytes:  m.WastedBytes.Load(),
		BreakerTrips: m.BreakerTrips.Load(),
		BreakerSkips: m.BreakerSkips.Load(),
		CRCErrors:    m.CRCErrors.Load(),
		SegmentsLost: m.SegmentsLost.Load(),
		BytesFetched: m.BytesFetched.Load(),
	}
}

// published is one map task's committed output on its node.
type published struct {
	attempt int
	parts   [][]byte
	// crcs[p] holds the CRC32 of every chunkBytes-sized slice of parts[p],
	// computed once at Publish. Handlers serve straight from parts with
	// these commit-time CRCs, so the wire path neither copies nor rescans
	// the committed bytes.
	crcs [][]uint32
}

// Service runs the per-node shuffle servers and the reduce-side fetcher of
// one job.
type Service struct {
	cfg Config

	mu        sync.Mutex
	segments  map[int]published // map task -> its committed output
	listeners []net.Listener
	conns     map[net.Conn]struct{}
	started   bool
	closed    bool

	done     chan struct{}
	handlers sync.WaitGroup

	slots     []chan struct{} // per-node fetch concurrency
	breakers  []*breaker
	fetchHist []obs.Histogram // per-node fetch attempt latency

	metrics Metrics
}

// NewService builds a Service; call Start to begin listening.
func NewService(cfg Config) *Service {
	s := &Service{
		cfg:      cfg,
		segments: make(map[int]published),
		conns:    make(map[net.Conn]struct{}),
		done:     make(chan struct{}),
	}
	n := cfg.nodes()
	s.slots = make([]chan struct{}, n)
	s.breakers = make([]*breaker, n)
	s.fetchHist = make([]obs.Histogram, n)
	r := cfg.Obs.R() // nil-safe: a nil registry hands out no-op handles
	for i := range s.slots {
		s.slots[i] = make(chan struct{}, cfg.perNodeFetchers())
		b := newBreaker(i, cfg.breakerThreshold(), cfg.Backoff, &s.metrics)
		node := obs.L("node", strconv.Itoa(i))
		b.transOpen = r.Counter("scikey_shuffle_breaker_transitions_total",
			"Circuit breaker state transitions by node and target state", "", node, obs.L("state", "open"))
		b.transHalfOpen = r.Counter("scikey_shuffle_breaker_transitions_total",
			"Circuit breaker state transitions by node and target state", "", node, obs.L("state", "half_open"))
		b.transClosed = r.Counter("scikey_shuffle_breaker_transitions_total",
			"Circuit breaker state transitions by node and target state", "", node, obs.L("state", "closed"))
		s.breakers[i] = b
		s.fetchHist[i] = r.Histogram("scikey_shuffle_fetch_seconds",
			"Latency of individual shuffle fetch attempts by serving node", "seconds", nil, node)
	}
	return s
}

// NodeOf names the node hosting a map task's output.
func (s *Service) NodeOf(mapTask int) int { return mapTask % s.cfg.nodes() }

// Metrics exposes the service's counters.
func (s *Service) Metrics() MetricsSnapshot { return s.metrics.Snapshot() }

// Start brings up one server per node, each on an ephemeral loopback port.
func (s *Service) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return fmt.Errorf("shufflenet: already started")
	}
	s.started = true
	for node := 0; node < s.cfg.nodes(); node++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.closeLocked()
			return fmt.Errorf("shufflenet: node %d listen: %w", node, err)
		}
		s.listeners = append(s.listeners, l)
		s.handlers.Add(1)
		go s.serve(node, l)
	}
	return nil
}

// Publish installs (or replaces, for a re-executed map task) one map
// attempt's committed per-partition segments on the task's node. The byte
// slices are shared, not copied: the engine never mutates committed map
// output.
func (s *Service) Publish(mapTask, attempt int, parts [][]byte) {
	crcs := make([][]uint32, len(parts))
	for i, p := range parts {
		crcs[i] = chunkCRCs(p, s.cfg.chunkBytes())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.segments[mapTask] = published{attempt: attempt, parts: parts, crcs: crcs}
}

// lookup returns the published output of one map task.
func (s *Service) lookup(mapTask int) (published, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.segments[mapTask]
	return p, ok
}

// addr returns a node's listening address; false means the node is not
// listening — before Start or after Close — and a dial must be refused.
func (s *Service) addr(node int) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || node >= len(s.listeners) {
		return "", false
	}
	return s.listeners[node].Addr().String(), true
}

// Close shuts the servers down and waits for in-flight handlers to exit.
func (s *Service) Close() error {
	s.mu.Lock()
	s.closeLocked()
	s.mu.Unlock()
	s.handlers.Wait()
	return nil
}

func (s *Service) closeLocked() {
	if s.closed {
		return
	}
	s.closed = true
	close(s.done)
	for _, l := range s.listeners {
		l.Close()
	}
	for c := range s.conns {
		c.Close()
	}
}

func (s *Service) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Service) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}
