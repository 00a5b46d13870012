package clusterd

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"scikey/internal/faults"
	"scikey/internal/hdfs"
	"scikey/internal/keys"
	"scikey/internal/mapreduce"
	"scikey/internal/obs"
	"scikey/internal/serial"
)

// The kill-recovery end-to-end test runs the real thing: a coordinator in
// the test process and worker subprocesses that are re-executions of this
// test binary (TestMain diverts to worker duty when CLUSTERD_E2E_WORKER is
// set). Fault rules SIGKILL one worker during its first map attempt and
// another during its first reduce attempt — kill -9 on live PIDs, no
// simulation — and the run must still produce byte-identical output and
// payload counters, with the killed attempts' work charged as waste.

const (
	e2eWorkerEnv  = "CLUSTERD_E2E_WORKER"
	e2eCoordEnv   = "CLUSTERD_E2E_COORD"
	e2eJournalEnv = "CLUSTERD_E2E_JOURNAL"
	e2eFaultsEnv  = "CLUSTERD_E2E_FAULTS"
)

func TestMain(m *testing.M) {
	if addr := os.Getenv(e2eWorkerEnv); addr != "" {
		os.Exit(runE2EWorker(addr))
	}
	if addr := os.Getenv(e2eCoordEnv); addr != "" {
		os.Exit(runE2ECoord(addr, os.Getenv(e2eJournalEnv), os.Getenv(e2eFaultsEnv)))
	}
	// The fuzzer minimizes each input that widens coverage before adding it
	// to the corpus, with O(n²) runs of the target for n input bytes. At the
	// default 60 s, a kilobyte input of journal records holds its worker for
	// the whole budget, and a 30 s run adds nothing. Here the default is 1 s;
	// -fuzzminimizetime on the command line still overrides it.
	if err := flag.Set("test.fuzzminimizetime", "1s"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	os.Exit(m.Run())
}

// e2eSpec is the job description the coordinator pushes to workers.
type e2eSpec struct {
	Docs     []string
	Reducers int
	SleepMs  int
}

// e2eJob builds the deterministic word-count job both sides run. Every
// attempt sleeps SleepMs before doing its work, so an injected SIGKILL
// reliably lands mid-attempt.
func e2eJob(spec e2eSpec, fs *hdfs.FileSystem) *mapreduce.Job {
	splits := make([]mapreduce.Split, len(spec.Docs))
	for i, d := range spec.Docs {
		splits[i] = mapreduce.Split{ID: i, Data: d}
	}
	sleep := time.Duration(spec.SleepMs) * time.Millisecond
	return &mapreduce.Job{
		Name:        "e2e-wordcount",
		FS:          fs,
		Splits:      splits,
		NumReducers: spec.Reducers,
		Compare:     serial.CompareBytes,
		Partition:   keys.HashPartition,
		OutputPath:  "/out",
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(ctx *mapreduce.TaskContext, split mapreduce.Split, emit mapreduce.Emit) error {
				time.Sleep(sleep)
				doc := split.Data.(string)
				ctx.CountInput(1, int64(len(doc)))
				one := []byte{0, 0, 0, 1}
				for _, w := range strings.Fields(doc) {
					emit([]byte(w), one)
				}
				return nil
			})
		},
		NewReducer: func() mapreduce.Reducer {
			return mapreduce.ReducerFunc(func(ctx *mapreduce.TaskContext, key []byte, values [][]byte, emit mapreduce.Emit) error {
				time.Sleep(sleep / 4)
				var sum uint32
				for _, v := range values {
					sum += binary.BigEndian.Uint32(v)
				}
				var out [4]byte
				binary.BigEndian.PutUint32(out[:], sum)
				emit(key, out[:])
				return nil
			})
		},
	}
}

func e2eFS() *hdfs.FileSystem {
	return hdfs.New(1<<20, 1, []string{"n0", "n1", "n2"})
}

// runE2EWorker is worker-subprocess duty: serve attempts until the
// connection story ends or SIGTERM asks for a graceful drain.
func runE2EWorker(addr string) int {
	w := NewWorker(WorkerConfig{
		Addr: addr,
		Build: func(raw []byte) (Runner, error) {
			var spec e2eSpec
			if err := json.Unmarshal(raw, &spec); err != nil {
				return nil, err
			}
			return &JobRunner{Job: e2eJob(spec, e2eFS())}, nil
		},
	})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	go func() {
		<-sig
		w.Drain()
	}()
	if err := w.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "e2e worker: %v\n", err)
		return 1
	}
	return 0
}

var e2eSpecFixture = e2eSpec{
	Docs: []string{
		"the quick brown fox jumps over the lazy dog",
		"pack my box with five dozen liquor jugs",
		"the five boxing wizards jump quickly",
		"how vexingly quick daft zebras jump",
		"sphinx of black quartz judge my vow",
		"the dog and the fox and the sphinx",
	},
	Reducers: 3,
	SleepMs:  120,
}

// procHandle wraps a worker subprocess with a single-flight Wait, so test
// assertions and cleanup can both reap it without racing.
type procHandle struct {
	cmd  *exec.Cmd
	once sync.Once
	err  error
}

func (p *procHandle) wait() error {
	p.once.Do(func() { p.err = p.cmd.Wait() })
	return p.err
}

// waitTimeout reaps the process, failing the test if it never exits.
func (p *procHandle) waitTimeout(t *testing.T, d time.Duration) bool {
	t.Helper()
	done := make(chan struct{})
	go func() { p.wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(d):
		t.Error("worker subprocess never exited")
		return false
	}
}

// clusterRun is one full cluster execution with real worker subprocesses.
type clusterRun struct {
	res   *mapreduce.Result
	outs  [][]byte
	obs   *obs.Observer
	procs []*procHandle
}

// runE2ECluster executes the fixture job on a coordinator plus nWorkers
// subprocesses, under the given fault schedule ("" for none).
func runE2ECluster(t *testing.T, nWorkers int, faultSpec string) *clusterRun {
	t.Helper()
	var inj *faults.Injector
	if faultSpec != "" {
		var err error
		inj, err = faults.NewFromSpec(faultSpec)
		if err != nil {
			t.Fatal(err)
		}
	}
	specJSON, err := json.Marshal(e2eSpecFixture)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	c, err := Start(Config{
		Spec:           specJSON,
		Journal:        filepath.Join(t.TempDir(), "coord.journal"),
		HeartbeatEvery: 25 * time.Millisecond,
		LeaseTTL:       125 * time.Millisecond,
		Faults:         inj,
		Obs:            o,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	procs := make([]*procHandle, nWorkers)
	for i := range procs {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), e2eWorkerEnv+"="+c.Addr())
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		procs[i] = &procHandle{cmd: cmd}
	}
	t.Cleanup(func() {
		for _, p := range procs {
			p.cmd.Process.Kill()
			p.wait()
		}
	})

	fs := e2eFS()
	job := e2eJob(e2eSpecFixture, fs)
	job.Remote = dialClient(t, c)
	job.Parallelism = 4
	job.Retry = mapreduce.RetryPolicy{MaxAttempts: 5}
	res, err := mapreduce.Run(job)
	if err != nil {
		t.Fatalf("cluster job (faults=%q): %v", faultSpec, err)
	}
	outs := make([][]byte, len(res.OutputPaths))
	for i, p := range res.OutputPaths {
		if outs[i], err = fs.ReadAll(p); err != nil {
			t.Fatal(err)
		}
	}
	return &clusterRun{res: res, outs: outs, obs: o, procs: procs}
}

// payloadFingerprint lists the data-path counters that must be identical
// across fault-free and recovered runs (scheduler bookkeeping like retry
// counts legitimately differs).
func payloadFingerprint(res *mapreduce.Result) []int64 {
	c := res.Counters
	return []int64{
		c.MapInputRecords.Value(), c.MapInputBytes.Value(),
		c.MapOutputRecords.Value(), c.MapOutputBytes.Value(),
		c.MapOutputMaterializedBytes.Value(), c.SpilledRecords.Value(),
		c.ReduceShuffleBytes.Value(), c.ReduceInputGroups.Value(),
		c.ReduceInputRecords.Value(), c.ReduceOutputRecords.Value(),
		c.ReduceOutputBytes.Value(),
	}
}

func transitionCount(o *obs.Observer, state string) int64 {
	return o.R().Counter("scikey_cluster_lease_transitions_total",
		"lease state transitions", "", obs.L("state", state)).Value()
}

// TestE2EKillRecoveryByteIdentical is the acceptance test: SIGKILL one real
// worker subprocess mid-map and another mid-reduce; the recovered run's
// output bytes and payload counters must match both a fault-free cluster
// run and the single-process reference, and the killed attempts' work must
// be charged as waste.
func TestE2EKillRecoveryByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}

	// Single-process reference: no Remote at all.
	refFS := e2eFS()
	refRes, err := mapreduce.Run(e2eJob(e2eSpecFixture, refFS))
	if err != nil {
		t.Fatal(err)
	}
	refOuts := make([][]byte, len(refRes.OutputPaths))
	for i, p := range refRes.OutputPaths {
		if refOuts[i], err = refFS.ReadAll(p); err != nil {
			t.Fatal(err)
		}
	}

	clean := runE2ECluster(t, 3, "")
	// Worker 0 dies at its first map attempt, worker 1 at its first reduce
	// attempt — real SIGKILLs delivered by the coordinator's fault hook.
	killed := runE2ECluster(t, 3, "seed=1;proc:0.0:kill@0;proc:1.1:kill@0")

	for name, run := range map[string]*clusterRun{"fault-free": clean, "killed": killed} {
		if len(run.outs) != len(refOuts) {
			t.Fatalf("%s: %d outputs, want %d", name, len(run.outs), len(refOuts))
		}
		for i := range refOuts {
			if !bytes.Equal(run.outs[i], refOuts[i]) {
				t.Errorf("%s: output %d differs from single-process reference (%d vs %d bytes)",
					name, i, len(run.outs[i]), len(refOuts[i]))
			}
		}
	}
	refPayload := payloadFingerprint(refRes)
	for name, run := range map[string]*clusterRun{"fault-free": clean, "killed": killed} {
		got := payloadFingerprint(run.res)
		for i := range refPayload {
			if got[i] != refPayload[i] {
				t.Errorf("%s: payload counter %d = %d, want %d", name, i, got[i], refPayload[i])
			}
		}
	}

	// The fault-free run wasted nothing; the killed run charged both lost
	// attempts' occupancy to the waste ledger.
	if n := len(clean.res.WastedMapTasks) + len(clean.res.WastedReduceTasks); n != 0 {
		t.Errorf("fault-free cluster run charged %d wasted attempts", n)
	}
	if len(killed.res.WastedMapTasks) == 0 {
		t.Error("no wasted map attempt recorded for the mid-map kill")
	} else if killed.res.WastedMapTasks[0].CPUSeconds <= 0 {
		t.Error("mid-map kill charged zero occupancy")
	}
	if len(killed.res.WastedReduceTasks) == 0 {
		t.Error("no wasted reduce attempt recorded for the mid-reduce kill")
	} else if killed.res.WastedReduceTasks[0].CPUSeconds <= 0 {
		t.Error("mid-reduce kill charged zero occupancy")
	}
	if got := killed.res.Counters.MapAttemptsFailed.Value(); got == 0 {
		t.Error("map kill did not register as a failed attempt")
	}
	if got := killed.res.Counters.ReduceAttemptsFailed.Value(); got == 0 {
		t.Error("reduce kill did not register as a failed attempt")
	}

	// Exactly the two victims died of SIGKILL; the survivor drains cleanly
	// on SIGTERM and exits 0.
	dead := 0
	for _, p := range killed.procs {
		p.cmd.Process.Signal(syscall.SIGTERM)
		if !p.waitTimeout(t, 10*time.Second) {
			continue
		}
		if st, ok := p.cmd.ProcessState.Sys().(syscall.WaitStatus); ok &&
			st.Signaled() && st.Signal() == syscall.SIGKILL {
			dead++
		} else if code := p.cmd.ProcessState.ExitCode(); code != 0 {
			t.Errorf("surviving worker exited %d, want 0", code)
		}
	}
	if dead != 2 {
		t.Errorf("%d workers died of SIGKILL, want 2", dead)
	}
}

// runE2ECoord is coordinator-subprocess duty: start a journaled coordinator
// on the fixed address (retrying while a predecessor's port is released),
// serve until SIGTERM, then drain through Shutdown and exit 0. proc:coord
// fault rules use the default self-signal, so injected kills are real
// SIGKILLs of this process.
func runE2ECoord(addr, journal, faultSpec string) int {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "e2e coord[%d]: %s\n", os.Getpid(), fmt.Sprintf(format, args...))
	}
	var inj *faults.Injector
	if faultSpec != "" {
		var err error
		if inj, err = faults.NewFromSpec(faultSpec); err != nil {
			fmt.Fprintf(os.Stderr, "e2e coord: %v\n", err)
			return 1
		}
	}
	specJSON, err := json.Marshal(e2eSpecFixture)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e coord: %v\n", err)
		return 1
	}
	var c *Coordinator
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err = Start(Config{
			Addr:           addr,
			Spec:           specJSON,
			Journal:        journal,
			HeartbeatEvery: 25 * time.Millisecond,
			LeaseTTL:       400 * time.Millisecond,
			Faults:         inj,
			Logf:           logf,
		})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "e2e coord: %v\n", err)
			return 1
		}
		time.Sleep(10 * time.Millisecond)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	<-sig
	if err := c.Shutdown(); err != nil {
		fmt.Fprintf(os.Stderr, "e2e coord shutdown: %v\n", err)
		return 1
	}
	return 0
}

// coordSupervisor keeps a coordinator subprocess alive the way scijob's
// cluster mode does: spawn, reap, respawn from the same journal, recording
// how each incarnation died. SIGKILL exits come from injected proc:coord
// faults firing inside the subprocess.
type coordSupervisor struct {
	t   *testing.T
	env []string

	mu     sync.Mutex
	cur    *exec.Cmd
	closed bool
	kills  int // incarnations that died of SIGKILL

	done chan struct{} // closed when the reap loop ends
}

func startE2ECoordSupervisor(t *testing.T, addr, journal, faultSpec string) *coordSupervisor {
	t.Helper()
	s := &coordSupervisor{
		t: t,
		env: append(os.Environ(),
			e2eCoordEnv+"="+addr,
			e2eJournalEnv+"="+journal,
			e2eFaultsEnv+"="+faultSpec),
		done: make(chan struct{}),
	}
	if err := s.spawn(); err != nil {
		t.Fatal(err)
	}
	go s.reap()
	t.Cleanup(func() {
		s.mu.Lock()
		closed, cur := s.closed, s.cur
		s.mu.Unlock()
		if !closed {
			s.mu.Lock()
			s.closed = true
			s.mu.Unlock()
			cur.Process.Kill()
			<-s.done
		}
	})
	return s
}

func (s *coordSupervisor) spawn() error {
	cmd := exec.Command(os.Args[0])
	cmd.Env = s.env
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	s.mu.Lock()
	s.cur = cmd
	s.mu.Unlock()
	return nil
}

func (s *coordSupervisor) reap() {
	defer close(s.done)
	for {
		s.mu.Lock()
		cmd := s.cur
		s.mu.Unlock()
		cmd.Wait()
		s.mu.Lock()
		if st, ok := cmd.ProcessState.Sys().(syscall.WaitStatus); ok &&
			st.Signaled() && st.Signal() == syscall.SIGKILL {
			s.kills++
		}
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return
		}
		if err := s.spawn(); err != nil {
			s.t.Errorf("respawning coordinator: %v", err)
			return
		}
	}
}

// stop ends supervision, SIGTERMs the live incarnation, and reports how many
// incarnations died of SIGKILL and whether the final exit was clean.
func (s *coordSupervisor) stop() (kills int, cleanExit bool) {
	s.mu.Lock()
	s.closed = true
	cmd := s.cur
	s.mu.Unlock()
	cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		s.t.Error("coordinator subprocess never exited after SIGTERM")
		cmd.Process.Kill()
		<-s.done
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.kills, cmd.ProcessState.ExitCode() == 0
}

// runE2ECoordCluster is runE2ECluster with the coordinator itself pushed out
// of process: a supervised, journaled subprocess driven over the wire by a
// reconnecting Client, with worker subprocesses riding out its deaths.
func runE2ECoordCluster(t *testing.T, nWorkers int, faultSpec string) (*clusterRun, *coordSupervisor, int) {
	t.Helper()
	// Fix the address up front so every incarnation listens at the same place.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	journal := filepath.Join(t.TempDir(), "coord.journal")

	sup := startE2ECoordSupervisor(t, addr, journal, faultSpec)
	procs := make([]*procHandle, nWorkers)
	for i := range procs {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), e2eWorkerEnv+"="+addr)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		procs[i] = &procHandle{cmd: cmd}
	}
	t.Cleanup(func() {
		for _, p := range procs {
			p.cmd.Process.Kill()
			p.wait()
		}
	})

	// The first incarnation may still be binding; dial until it answers.
	var cl *Client
	clLogf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "e2e driver: %s\n", fmt.Sprintf(format, args...))
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		cl, err = Dial(ClientConfig{Addr: addr, Logf: clLogf})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dialing coordinator subprocess: %v", err)
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Cleanup(func() { cl.Close() })

	fs := e2eFS()
	job := e2eJob(e2eSpecFixture, fs)
	job.Remote = cl
	job.Parallelism = 4
	job.Retry = mapreduce.RetryPolicy{MaxAttempts: 6}
	res, err := mapreduce.Run(job)
	if err != nil {
		t.Fatalf("coordinator-kill cluster job (faults=%q): %v", faultSpec, err)
	}
	outs := make([][]byte, len(res.OutputPaths))
	for i, p := range res.OutputPaths {
		if outs[i], err = fs.ReadAll(p); err != nil {
			t.Fatal(err)
		}
	}
	return &clusterRun{res: res, outs: outs, procs: procs}, sup, cl.Epoch()
}

// TestE2ECoordinatorKillRecoveryByteIdentical is the e15 acceptance test:
// SIGKILL the coordinator subprocess at three seeded journal points — once
// mid-commit (after fsyncing a settle, before delivering the outcome to the
// driver) and twice mid-grant (after fsyncing a grant, before any worker
// hears of it) — while real worker subprocesses reconnect and re-adopt their
// leases. The supervisor respawns each incarnation from the same journal;
// final output bytes and payload counters must match the fault-free run and
// the single-process reference.
func TestE2ECoordinatorKillRecoveryByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns coordinator and worker subprocesses")
	}

	refFS := e2eFS()
	refRes, err := mapreduce.Run(e2eJob(e2eSpecFixture, refFS))
	if err != nil {
		t.Fatal(err)
	}
	refOuts := make([][]byte, len(refRes.OutputPaths))
	for i, p := range refRes.OutputPaths {
		if refOuts[i], err = refFS.ReadAll(p); err != nil {
			t.Fatal(err)
		}
	}

	clean, cleanSup, cleanEpoch := runE2ECoordCluster(t, 3, "")
	// Lease 0's settle is the first commit; lease 7 and the retry-spawned
	// lease 9 are grants that can only happen in later incarnations, so the
	// three kills land in three distinct coordinator processes.
	killed, killedSup, killedEpoch := runE2ECoordCluster(t, 3,
		"seed=1;proc:coord.1:kill@0;proc:coord.0:kill@7;proc:coord.0:kill@9")

	for name, run := range map[string]*clusterRun{"fault-free": clean, "killed": killed} {
		if len(run.outs) != len(refOuts) {
			t.Fatalf("%s: %d outputs, want %d", name, len(run.outs), len(refOuts))
		}
		for i := range refOuts {
			if !bytes.Equal(run.outs[i], refOuts[i]) {
				t.Errorf("%s: output %d differs from single-process reference (%d vs %d bytes)",
					name, i, len(run.outs[i]), len(refOuts[i]))
			}
		}
		got := payloadFingerprint(run.res)
		want := payloadFingerprint(refRes)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: payload counter %d = %d, want %d", name, i, got[i], want[i])
			}
		}
	}

	kills, clean0 := cleanSup.stop()
	if kills != 0 || !clean0 {
		t.Errorf("fault-free coordinator: %d SIGKILLs, clean exit %v; want 0 and true", kills, clean0)
	}
	if cleanEpoch != 1 {
		t.Errorf("fault-free run finished on epoch %d, want 1", cleanEpoch)
	}

	kills, clean0 = killedSup.stop()
	if kills != 3 {
		t.Errorf("coordinator died of SIGKILL %d times, want 3", kills)
	}
	if !clean0 {
		t.Error("final coordinator incarnation did not exit 0 on SIGTERM")
	}
	if killedEpoch < 4 {
		t.Errorf("driver finished on epoch %d, want >= 4 after three kills", killedEpoch)
	}

	// Workers rode out every coordinator death: SIGTERM drains all of them
	// cleanly; none was killed.
	for name, run := range map[string]*clusterRun{"fault-free": clean, "killed": killed} {
		for i, p := range run.procs {
			p.cmd.Process.Signal(syscall.SIGTERM)
			if p.waitTimeout(t, 10*time.Second) {
				if code := p.cmd.ProcessState.ExitCode(); code != 0 {
					t.Errorf("%s worker %d exited %d, want 0", name, i, code)
				}
			}
		}
	}
}

// TestE2EGracefulShutdown: SIGTERM drains workers cleanly — they finish
// their leases, deregister, and exit 0 without a single lease expiry.
func TestE2EGracefulShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	run := runE2ECluster(t, 2, "")

	for _, p := range run.procs {
		p.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, p := range run.procs {
		if p.waitTimeout(t, 10*time.Second) {
			if code := p.cmd.ProcessState.ExitCode(); code != 0 {
				t.Errorf("drained worker exited %d, want 0", code)
			}
		}
	}

	if n := transitionCount(run.obs, "expired"); n != 0 {
		t.Errorf("%d leases expired across a clean run + drain, want 0", n)
	}
	if n := transitionCount(run.obs, "lost"); n != 0 {
		t.Errorf("%d leases lost across a clean run + drain, want 0", n)
	}
}
