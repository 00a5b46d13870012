// Cluster-mode wiring: the job spec workers rebuild the query from, the
// worker-process duty loop, and the local supervisor that turns one scijob
// invocation into a coordinator plus N real worker subprocesses.
package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"scikey/internal/clusterd"
	"scikey/internal/faults"
	"scikey/internal/obs"
	"scikey/internal/queryd"
)

// The JSON job description the coordinator pushes to each worker at
// registration is queryd.QuerySpec — the same wire shape the resident query
// service accepts, so cluster workers, the service, and the one-shot CLI
// all rebuild jobs through one Setup path and cannot drift.

// runWorkerMode is the -worker entrypoint: connect to the coordinator,
// rebuild the job from the welcomed spec, and execute granted attempts until
// the coordinator is gone or SIGTERM asks for a graceful drain.
func runWorkerMode(addr string) {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "scijob worker[pid %d]: %s\n", os.Getpid(), fmt.Sprintf(format, args...))
	}
	w := clusterd.NewWorker(clusterd.WorkerConfig{
		Addr:  addr,
		Build: queryd.BuildRunner,
		Logf:  logf,
	})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	go func() {
		<-sig
		logf("SIGTERM: draining")
		w.Drain()
	}()
	if err := w.Run(); err != nil {
		fatal(fmt.Errorf("worker: %w", err))
	}
}

// runCoordinatorMode is the -coordinator entrypoint: a pure control-plane
// daemon. It journals every state transition, serves workers and drivers
// until SIGTERM, then drains — flush, checkpoint, fsync — and exits 0, so a
// clean restart replays zero events. A SIGKILLed daemon restarted on the
// same address and journal recovers by replay instead; proc:coord fault
// rules self-deliver real signals for exactly that drill. A failed journal
// append ends the incarnation, and the daemon exits non-zero to be
// respawned the same way. The bind is retried briefly so a supervisor can
// respawn the daemon while the dead incarnation's port is still being
// released.
func runCoordinatorMode(o *options) {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "scijob coordinator[pid %d]: %s\n", os.Getpid(), fmt.Sprintf(format, args...))
	}
	// The daemon owns the proc fault site; Validate already parsed the
	// schedule once, so this cannot fail.
	inj, err := faults.NewFromSpec(o.spec.Faults)
	if err != nil {
		fatal(err)
	}
	leaseTTL := o.leaseTTL
	if leaseTTL == 0 {
		// Journaled grants and settles fsync inside the coordinator's
		// critical section, which can delay heartbeat processing under load;
		// give renewals more slack than the package default of five
		// heartbeats so a busy disk doesn't masquerade as a dead worker.
		leaseTTL = 2 * time.Second
	}
	specBytes, err := json.Marshal(o.spec)
	if err != nil {
		fatal(err)
	}
	ob := obs.New()
	var c *clusterd.Coordinator
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err = clusterd.Start(clusterd.Config{
			Addr:           o.coordAddr,
			Spec:           specBytes,
			Journal:        o.journal,
			HeartbeatEvery: o.heartbeat,
			LeaseTTL:       leaseTTL,
			Faults:         inj,
			Obs:            ob,
			Logf:           logf,
		})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			fatal(fmt.Errorf("starting coordinator: %w", err))
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Printf("coordinator listening on %s (journal %s, epoch %d)\n", c.Addr(), o.journal, c.Epoch())
	if o.debugAddr != "" {
		dbg, err := obs.NewServer(o.debugAddr, ob)
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
		fmt.Printf("debug server on http://%s (metrics, pprof)\n", dbg.Addr())
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	if err := awaitCoordinator(c, sig, logf); err != nil {
		fatal(err)
	}
}

// awaitCoordinator serves until the daemon's end. SIGTERM drains the
// coordinator. An incarnation that stopped on its own — a journal append
// failed — is an error, so the daemon exits non-zero and the -cluster
// supervisor respawns it on the same journal, which replays what is durable.
func awaitCoordinator(c *clusterd.Coordinator, sig <-chan os.Signal, logf func(string, ...any)) error {
	select {
	case <-sig:
		logf("SIGTERM: draining journal and shutting down")
		if err := c.Shutdown(); err != nil {
			return fmt.Errorf("coordinator shutdown: %w", err)
		}
		return nil
	case <-c.Done():
		return fmt.Errorf("coordinator epoch %d stopped: its journal failed", c.Epoch())
	}
}

// supervisor keeps n copies of one scijob subprocess alive for -cluster
// mode — the coordinator daemon with n = 1, the workers with n = N. It
// respawns any that dies while the job is still running (a SIGKILLed worker
// comes back like a restarted TaskTracker; a proc:coord kill fault brings
// the daemon back on the same address and journal, so its respawn is a
// crash recovery) and SIGTERMs the survivors on shutdown so they drain —
// deregister, or flush the journal — and exit.
type supervisor struct {
	what string // names the subprocess in diagnostics
	args []string

	mu     sync.Mutex
	alive  map[*exec.Cmd]bool
	closed bool
	wg     sync.WaitGroup
}

// startSupervisor spawns n subprocesses re-executing this binary with args
// and begins supervising them. If one cannot be spawned, those that were are
// shut down again.
func startSupervisor(what string, n int, args []string) (*supervisor, error) {
	s := &supervisor{what: what, args: args, alive: make(map[*exec.Cmd]bool)}
	for i := 0; i < n; i++ {
		if err := s.spawn(); err != nil {
			s.shutdown()
			return nil, err
		}
	}
	return s, nil
}

func (s *supervisor) spawn() error {
	cmd := exec.Command(os.Args[0], s.args...)
	cmd.Stdout = os.Stderr // a daemon's banner is driver-side noise
	cmd.Stderr = os.Stderr
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("spawning %s: %w", s.what, err)
	}
	s.alive[cmd] = true
	s.wg.Add(1)
	go s.reap(cmd)
	return nil
}

// reap waits for one subprocess and respawns it if it died while the job
// was still running — which is exactly what a proc:kill fault causes.
func (s *supervisor) reap(cmd *exec.Cmd) {
	defer s.wg.Done()
	err := cmd.Wait()
	s.mu.Lock()
	delete(s.alive, cmd)
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "scijob: %s pid %d died (%v); respawning\n", s.what, cmd.Process.Pid, err)
	} else {
		fmt.Fprintf(os.Stderr, "scijob: %s pid %d exited early; respawning\n", s.what, cmd.Process.Pid)
	}
	// Exiting from here would skip the driver's shutdowns and leave the
	// other subprocesses running; the job goes on with one fewer.
	if err := s.spawn(); err != nil {
		fmt.Fprintln(os.Stderr, "scijob:", err)
	}
}

// shutdown SIGTERMs every live subprocess and waits for them to drain and
// exit, killing whatever is still up after ten seconds.
func (s *supervisor) shutdown() {
	s.mu.Lock()
	s.closed = true
	for cmd := range s.alive {
		_ = cmd.Process.Signal(syscall.SIGTERM)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		s.mu.Lock()
		for cmd := range s.alive {
			_ = cmd.Process.Kill()
		}
		s.mu.Unlock()
		<-done
	}
}

// pickLoopbackAddr reserves a loopback port and releases it, fixing an
// address every coordinator incarnation can re-listen on.
func pickLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// dialCoordinator connects a driver Client, retrying for up to patience —
// the coordinator subprocess may still be binding its listener.
func dialCoordinator(addr string, patience time.Duration) (*clusterd.Client, error) {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "scijob driver: %s\n", fmt.Sprintf(format, args...))
	}
	deadline := time.Now().Add(patience)
	for {
		cl, err := clusterd.Dial(clusterd.ClientConfig{Addr: addr, Logf: logf})
		if err == nil {
			return cl, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(25 * time.Millisecond)
	}
}
