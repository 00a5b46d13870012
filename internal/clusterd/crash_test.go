package clusterd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"scikey/internal/mapreduce"
	"scikey/internal/obs"
)

// everyAppend selects the full crash enumeration: a crash at every append of
// the fault-free run, under every variant. Without it the enumerator crashes
// each record kind once per variant.
var everyAppend = flag.Bool("every-append", false, "TestCoordinatorCrashAtEveryAppend: crash at every append, not once per record kind and variant")

// The crash enumerator drives one real job — e2eJob's word count, three
// in-process workers, a driver Client — against a coordinator that crashes
// at one journal append, then restarts on the same address and journal. A
// crash is an append that fails, so it takes the one path a failed write or
// fsync takes in production: the incarnation ends before the event is acted
// on (journalApply).

// crashVariant is what a crash leaves of the record being appended.
type crashVariant int

const (
	crashDurable   crashVariant = iota // the record is whole, then the append reports failure
	crashTorn                          // the record is cut to a prefix of its frame
	crashUnwritten                     // the record never reached the file (ENOSPC)
)

var crashVariants = []crashVariant{crashDurable, crashTorn, crashUnwritten}

func (v crashVariant) String() string {
	return [...]string{"durable", "torn", "unwritten"}[v]
}

// appendKinds are the record kinds journalApply appends, named for the rows.
var appendKinds = map[byte]string{
	jkBoot: "boot", jkWorker: "worker", jkGrant: "grant",
	jkSettle: "settle", jkDeliver: "deliver", jkPublish: "publish",
}

// crashPoint addresses one append of a run: the occ-th record of kind
// (counting from 0). Record k of the fault-free run is one such point; the
// address by kind holds it to the same kind of record when concurrent
// attempts reorder the appends around it.
type crashPoint struct {
	kind byte
	occ  int
}

type crashRow struct {
	k       int // the append's index in the fault-free run
	at      crashPoint
	variant crashVariant
	cadence int // the first incarnation's compaction cadence; 0 keeps the default
}

func (r crashRow) String() string {
	if r.k < 0 {
		return "fault-free"
	}
	return fmt.Sprintf("k=%d/%s#%d/%s/cadence=%d", r.k, appendKinds[r.at.kind], r.at.occ, r.variant, r.cadence)
}

// crashOutcome is what one run showed, for the self-test.
type crashOutcome struct {
	crashed     bool
	readopted   int64 // leases re-adopted by the restarted coordinator
	redelivered int64 // journaled orphans answered from the journal
	reruns      int   // attempts that ran more than once
	compacted   bool  // the crashed incarnation wrote a checkpoint first
	kinds       []byte
}

var crashSpec = e2eSpec{Docs: e2eSpecFixture.Docs, Reducers: e2eSpecFixture.Reducers, SleepMs: 20}

// TestCoordinatorCrashAtEveryAppend crashes the coordinator at each append
// of a fault-free run, three ways, and requires every row to end as that run
// ends: output bytes and payload counters equal to the single-process run,
// one durable publish per map task across all incarnations, no undelivered
// outcome left, and a journal that, closed and reopened, replays to the live
// final state. An outcome the driver received may be left over only when
// the crash cut its delivery record: one the crashed incarnation settled.
func TestCoordinatorCrashAtEveryAppend(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one job per crash point")
	}
	t.Cleanup(func() { crashHook = nil })
	refFS := e2eFS()
	ref, err := mapreduce.Run(e2eJob(crashSpec, refFS))
	if err != nil {
		t.Fatal(err)
	}
	refOuts := readOutputs(t, refFS, ref)

	clean := runCrashRow(t, crashRow{k: -1}, ref, refOuts)
	counts := map[byte]int{}
	var rows []crashRow
	for k, kind := range clean.kinds {
		at := crashPoint{kind, counts[kind]}
		counts[kind]++
		for _, v := range crashVariants {
			rows = append(rows, crashRow{k: k, at: at, variant: v})
		}
	}
	if !*everyAppend {
		// One row per kind and variant: the kind's first record crashed
		// durable, a middle one torn, its last one unwritten.
		var picked []crashRow
		for _, r := range rows {
			if r.at.occ == (counts[r.at.kind]-1)*int(r.variant)/2 {
				picked = append(picked, r)
			}
		}
		rows = picked
	}
	for i := range rows {
		if i%2 == 1 {
			rows[i].cadence = 4 // checkpoints inside the enumerated range
		}
	}
	t.Logf("fault-free run: N = %d appends, %d rows", len(clean.kinds), len(rows))

	crashed := map[crashVariant]map[byte]bool{}
	var readopted, redelivered, compacted bool
	for _, row := range rows {
		if t.Failed() {
			break
		}
		out := runCrashRow(t, row, ref, refOuts)
		if !out.crashed {
			t.Errorf("%v: the run never reached its crash point", row)
			continue
		}
		if crashed[row.variant] == nil {
			crashed[row.variant] = map[byte]bool{}
		}
		crashed[row.variant][row.at.kind] = true
		readopted = readopted || out.readopted > 0
		redelivered = redelivered || (out.redelivered > 0 && out.reruns == 0)
		compacted = compacted || out.compacted
	}

	// The self-test: the rows covered what the enumerator exists for.
	if t.Failed() {
		return
	}
	for _, v := range crashVariants {
		for kind, name := range appendKinds {
			if !crashed[v][kind] {
				t.Errorf("no %s record was crashed %s", name, v)
			}
		}
	}
	if !readopted {
		t.Error("no row re-adopted a lease across the crash")
	}
	if !redelivered {
		t.Error("no row redelivered a journaled orphan without re-running its attempt")
	}
	if !compacted {
		t.Error("no row crashed after a checkpoint inside the enumerated range")
	}
}

// runCrashRow runs the job once with the coordinator crashing at row's
// append (row.k < 0: nowhere) and checks that it ends as the single-process
// reference run does.
func runCrashRow(t *testing.T, row crashRow, ref *mapreduce.Result, refOuts [][]byte) crashOutcome {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	path := filepath.Join(t.TempDir(), "coord.journal")

	var (
		mu        sync.Mutex
		out       crashOutcome
		seen      = map[byte]int{}
		publishes int // durable publish records, every incarnation
		crash     = make(chan struct{})
		// settled holds the attempts the crashed incarnation settled.
		settled = map[attemptKey]bool{}
	)
	crashHook = func(m message, size int64) error {
		mu.Lock()
		defer mu.Unlock()
		kind := m.kind
		at := crashPoint{kind, seen[kind]}
		seen[kind]++
		var e evSettle
		if kind == jkSettle && row.k >= 0 && !out.crashed && m.decode(&e) == nil {
			settled[e.Outcome.key()] = true
		}
		if out.crashed || row.k < 0 || at != row.at {
			out.kinds = append(out.kinds, kind)
			if kind == jkPublish {
				publishes++
			}
			return nil
		}
		out.crashed = true
		close(crash)
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		start := info.Size() - size
		switch row.variant {
		case crashDurable:
			if kind == jkPublish {
				publishes++
			}
			return errors.New("crash: fsync failed after the record was written")
		case crashTorn:
			if err := os.Truncate(path, start+1+int64(row.k*7919)%(size-1)); err != nil {
				return err
			}
			return errors.New("crash: record torn")
		default:
			if err := os.Truncate(path, start); err != nil {
				return err
			}
			return fmt.Errorf("crash: %w", syscall.ENOSPC)
		}
	}

	specJSON, err := json.Marshal(crashSpec)
	if err != nil {
		t.Fatal(err)
	}
	var redelivered atomic.Int64
	cfg := Config{
		Addr: addr, Spec: specJSON, Journal: path,
		HeartbeatEvery: 20 * time.Millisecond, LeaseTTL: 2 * time.Second,
		Logf: func(format string, _ ...any) {
			if strings.HasPrefix(format, "clusterd: re-delivering journaled outcome") {
				redelivered.Add(1)
			}
		},
	}
	c, err := Start(cfg)
	restarted := err != nil // the boot record crashed
	if restarted {
		cfg.Obs = obs.New()
		c = restartCoordinator(t, cfg)
	} else if row.cadence > 0 {
		c.mu.Lock()
		c.jnl.cadence = row.cadence
		c.mu.Unlock()
	}
	defer func() { c.Close() }()

	cl, err := Dial(ClientConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	runs := &runCounter{n: map[attemptKey]int{}}
	workers := make([]*Worker, 3)
	for i := range workers {
		w := NewWorker(WorkerConfig{
			Addr: addr,
			Build: func(raw []byte) (Runner, error) {
				var spec e2eSpec
				if err := json.Unmarshal(raw, &spec); err != nil {
					return nil, err
				}
				return &countingRunner{JobRunner{Job: e2eJob(spec, e2eFS())}, runs}, nil
			},
		})
		workers[i] = w
		go w.Run()
		defer w.Stop()
	}

	fs := e2eFS()
	job := e2eJob(crashSpec, fs)
	received := &receivedRemote{Client: cl, got: map[attemptKey]bool{}}
	job.Remote = received
	job.Parallelism = 4
	job.Retry = mapreduce.RetryPolicy{MaxAttempts: 5}
	type result struct {
		res *mapreduce.Result
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := mapreduce.Run(job)
		done <- result{res, err}
	}()
	timeout := time.After(60 * time.Second)
	if row.k >= 0 && !restarted {
		select {
		case <-crash:
			// The failed append ends the incarnation on its own.
			select {
			case <-c.Done():
			case <-time.After(10 * time.Second):
				t.Fatalf("%v: the coordinator still runs 10 s after an append failed", row)
			}
			mu.Lock()
			out.compacted = c.cCkpt.Value() > 0
			mu.Unlock()
			cfg.Obs = obs.New()
			c = restartCoordinator(t, cfg)
		case <-timeout:
			t.Fatalf("%v: no crash within 60 s", row)
		}
	}
	var r result
	select {
	case r = <-done:
	case <-timeout:
		t.Fatalf("%v: the job did not finish within 60 s", row)
	}
	if r.err != nil {
		t.Fatalf("%v: %v", row, r.err)
	}

	outs := readOutputs(t, fs, r.res)
	if len(outs) != len(refOuts) {
		t.Fatalf("%v: %d outputs, want %d", row, len(outs), len(refOuts))
	}
	for i := range refOuts {
		if !bytes.Equal(outs[i], refOuts[i]) {
			t.Errorf("%v: output %d differs from the single-process run", row, i)
		}
	}
	if got, want := fmt.Sprint(payloadFingerprint(r.res)), fmt.Sprint(payloadFingerprint(ref)); got != want {
		t.Errorf("%v: payload counters %s, want %s", row, got, want)
	}

	// Quiesce everything but the coordinator. A delivery is journaled just
	// after its send, so the last ones may still be on their way: wait until
	// every outcome left is one whose delivery record the crash cut (settled
	// by the crashed incarnation, received by the driver). Then stop the
	// coordinator, so nothing more is appended, and compare its live state
	// with what its journal replays to.
	cl.Close()
	for _, w := range workers {
		w.Stop()
	}
	var undelivered []attemptKey
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		undelivered = undelivered[:0]
		c.mu.Lock()
		mu.Lock()
		for key := range c.state.outcomes {
			if !settled[key] || !received.has(key) {
				undelivered = append(undelivered, key)
			}
		}
		mu.Unlock()
		c.mu.Unlock()
		if len(undelivered) == 0 || time.Now().After(deadline) {
			break
		}
	}
	for _, key := range undelivered {
		t.Errorf("%v: outcome %+v is left undelivered in the final state", row, key)
	}
	c.Close()
	live := stateFingerprint(t, c.state)
	mu.Lock()
	if segs := len(c.state.segs); publishes != len(crashSpec.Docs) || segs != len(crashSpec.Docs) {
		t.Errorf("%v: %d durable publishes for %d published map tasks, want one for each of %d",
			row, publishes, segs, len(crashSpec.Docs))
	}
	mu.Unlock()
	j, replayed, _, err := openJournal(path, time.Second, time.Now())
	if err != nil {
		t.Fatalf("%v: reopening the journal: %v", row, err)
	}
	j.Close()
	if got := stateFingerprint(t, replayed); got != live {
		t.Errorf("%v: the journal replays to a different state:\n got %s\nwant %s", row, got, live)
	}

	mu.Lock()
	defer mu.Unlock()
	if cfg.Obs != nil {
		out.readopted = cfg.Obs.R().Counter("scikey_lease_readopted_total",
			"leases re-adopted by reconnecting workers after a coordinator restart", "").Value()
	}
	out.redelivered = redelivered.Load()
	out.reruns = runs.reruns()
	return out
}

// readOutputs reads a finished job's output files.
func readOutputs(t *testing.T, fs interface{ ReadAll(string) ([]byte, error) }, res *mapreduce.Result) [][]byte {
	t.Helper()
	outs := make([][]byte, len(res.OutputPaths))
	for i, p := range res.OutputPaths {
		var err error
		if outs[i], err = fs.ReadAll(p); err != nil {
			t.Fatal(err)
		}
	}
	return outs
}

// receivedRemote is a driver Client that records which attempts it answered.
type receivedRemote struct {
	*Client
	mu  sync.Mutex
	got map[attemptKey]bool
}

func (r *receivedRemote) RunRemote(phase string, task, attempt int, canceled func() bool) (*mapreduce.RemoteResult, error) {
	rr, err := r.Client.RunRemote(phase, task, attempt, canceled)
	r.mu.Lock()
	r.got[attemptKey{Phase: phase, Task: task, Attempt: attempt}] = true
	r.mu.Unlock()
	return rr, err
}

func (r *receivedRemote) has(key attemptKey) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.got[key]
}

// runCounter counts the executions of each attempt across every worker.
type runCounter struct {
	mu sync.Mutex
	n  map[attemptKey]int
}

// reruns is the number of attempts that ran more than once.
func (c *runCounter) reruns() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, runs := range c.n {
		if runs > 1 {
			n++
		}
	}
	return n
}

// countingRunner is a JobRunner that counts its attempts in runs.
type countingRunner struct {
	JobRunner
	runs *runCounter
}

func (r *countingRunner) Run(ctx context.Context, phase string, task, attempt int, fetch mapreduce.RemoteFetch) (*mapreduce.RemoteResult, error) {
	r.runs.mu.Lock()
	r.runs.n[attemptKey{Phase: phase, Task: task, Attempt: attempt}]++
	r.runs.mu.Unlock()
	return r.JobRunner.Run(ctx, phase, task, attempt, fetch)
}
