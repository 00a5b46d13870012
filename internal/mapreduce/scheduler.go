package mapreduce

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"scikey/internal/backoff"
	"scikey/internal/obs"
)

// RetryPolicy configures the attempt scheduler: how many times a task may
// fail before the job aborts, how retries back off, and whether straggler
// attempts are speculatively re-executed. The zero value reproduces the
// historical one-shot behaviour: any task failure fails the job.
type RetryPolicy struct {
	// MaxAttempts bounds the failed attempts one task may accumulate
	// before the job aborts with an AttemptError. 0 or 1 disables retries.
	// Speculative attempts do not consume the budget; only failures do.
	MaxAttempts int
	// Backoff is the base delay before the first retry; each further retry
	// doubles it. 0 retries immediately (the default, and what tests want).
	Backoff time.Duration
	// BackoffMax caps the exponential growth. 0 means uncapped.
	BackoffMax time.Duration
	// Seed drives the deterministic backoff jitter: the same
	// (seed, task, failures) always produces the same delay.
	Seed int64
	// SpeculativeAfter > 0 enables re-execution of straggler attempts:
	// when an attempt runs longer than this and the job is parallel, a
	// backup attempt launches and the first finisher wins. The loser's
	// output is discarded and its work charged as waste.
	SpeculativeAfter time.Duration
}

func (p RetryPolicy) maxAttempts() int {
	if p.MaxAttempts > 1 {
		return p.MaxAttempts
	}
	return 1
}

// policy converts the task-retry fields to the shared backoff policy.
func (p RetryPolicy) backoff() backoff.Policy {
	return backoff.Policy{Base: p.Backoff, Max: p.BackoffMax, Seed: p.Seed}
}

// delay computes the backoff before retrying task after the given number of
// consecutive failures, with deterministic jitter in [d/2, d).
func (p RetryPolicy) delay(task, failures int) time.Duration {
	return p.backoff().Delay(int64(task), 0, failures)
}

// stopState is a one-shot cancel signal readable both as a cheap atomic
// flag (for per-record checks on the emit path) and as a channel (for
// select-based waits).
type stopState struct {
	flag atomic.Bool
	ch   chan struct{}
	once sync.Once
}

func newStopState() *stopState { return &stopState{ch: make(chan struct{})} }

func (s *stopState) stop() {
	s.once.Do(func() {
		s.flag.Store(true)
		close(s.ch)
	})
}

func (s *stopState) stopped() bool { return s.flag.Load() }

// phaseRunner schedules the attempts of one phase's tasks: it retries
// failures within the policy's budget, backs off deterministically, runs
// speculative twins for stragglers, and guarantees commit is called exactly
// once per task — only for the winning attempt.
type phaseRunner struct {
	phase  string // "map" or "reduce", for errors and counters
	n      int
	limit  int
	policy RetryPolicy
	jc     *Counters // job-level scheduling counters

	// run executes one attempt. It must be safe for concurrent calls with
	// distinct attempts (including two live attempts of the same task) and
	// should poll canceled() to stop early once its result is unwanted.
	// sp is the attempt's span (possibly the zero span), under which the
	// attempt may open phase spans.
	run func(task, attempt int, canceled func() bool, sp obs.Span) (any, error)
	// commit installs the winning attempt's result; called once per task.
	commit func(task, attempt int, result any) error
	// discard releases a failed, canceled, or speculatively-lost attempt
	// (wasted-work accounting, temp-file cleanup). Optional.
	discard func(task, attempt int, result any, err error)
	// repair, when set, is consulted before retrying a corruption failure;
	// it returns true once the corrupted input has been regenerated.
	// Without repair (or when it fails), corruption aborts the task:
	// re-reading the same bytes cannot succeed.
	repair func(task, attempt int, err error) bool
	// onFailure observes every counted attempt failure. Optional.
	onFailure func(task, attempt int, err error)

	// jobStop, when set, is the job-wide cancel signal (deadline or fatal
	// failure in another phase); it trips this phase's stop as soon as the
	// phase is running, interrupting backoff sleeps and straggler waits.
	jobStop *stopState

	// tracer/jobSpan parent the attempt spans; attemptHist records each
	// attempt's duration. All are zero-value no-ops without an Observer.
	tracer      *obs.Tracer
	jobSpan     obs.SpanID
	attemptHist obs.Histogram

	stop *stopState
	mu   sync.Mutex
	next []int // next attempt number per task
}

func (p *phaseRunner) runAll() error {
	p.stop = newStopState()
	p.next = make([]int, p.n)
	if p.jobStop != nil {
		if p.jobStop.stopped() {
			return nil
		}
		phaseDone := make(chan struct{})
		defer close(phaseDone)
		go func() {
			select {
			case <-p.jobStop.ch:
				p.stop.stop()
			case <-phaseDone:
			}
		}()
	}
	return forEachLimitStop(p.n, p.limit, p.stop, p.runTask)
}

func (p *phaseRunner) nextAttempt(task int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	a := p.next[task]
	p.next[task]++
	return a
}

func (p *phaseRunner) discardAttempt(task, attempt int, res any, err error) {
	if p.discard != nil {
		p.discard(task, attempt, res, err)
	}
}

func (p *phaseRunner) countFailure(task, attempt int, err error) {
	if errors.Is(err, errAttemptCanceled) {
		return
	}
	if p.phase == "map" {
		p.jc.MapAttemptsFailed.Add(1)
	} else {
		p.jc.ReduceAttemptsFailed.Add(1)
	}
	if p.onFailure != nil {
		p.onFailure(task, attempt, err)
	}
}

// runTask drives one task through attempts until commit or budget
// exhaustion.
func (p *phaseRunner) runTask(task int) error {
	failures := 0
	for {
		if p.stop.stopped() {
			return nil // the phase already failed elsewhere
		}
		attempt := p.nextAttempt(task)
		res, att, err := p.runMaybeSpeculate(task, attempt)
		if err == nil {
			return p.commit(task, att, res)
		}
		if errors.Is(err, errAttemptCanceled) {
			p.discardAttempt(task, att, res, err)
			return nil
		}
		failures++
		p.countFailure(task, att, err)
		p.discardAttempt(task, att, res, err)
		if failures >= p.policy.maxAttempts() {
			return &AttemptError{Phase: p.phase, Task: task, Attempt: att, Err: err}
		}
		var ce *ErrCorruptSegment
		if errors.As(err, &ce) && (p.repair == nil || !p.repair(task, att, err)) {
			// Retrying would re-read the same corrupt bytes.
			return &AttemptError{Phase: p.phase, Task: task, Attempt: att, Err: err}
		}
		p.jc.TaskRetries.Add(1)
		if d := p.policy.delay(task, failures); d > 0 {
			p.sleepStop(d)
		}
	}
}

// sleepStop waits for d or until the phase stops, whichever is first.
func (p *phaseRunner) sleepStop(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-p.stop.ch:
	}
}

func (p *phaseRunner) speculating() bool {
	return p.policy.SpeculativeAfter > 0 && p.limit > 1
}

// startSpan opens an attempt span under the phase's job span.
func (p *phaseRunner) startSpan(task, attempt int, speculative bool) obs.Span {
	sp := p.tracer.Start(obs.CatAttempt, p.phase, p.jobSpan, task, attempt)
	if speculative {
		sp = sp.Speculative()
	}
	return sp
}

// attemptOutcome maps an attempt's error (and whether a nil error means its
// output was committed) to the span outcome vocabulary.
func attemptOutcome(err error, won bool) string {
	switch {
	case err == nil && won:
		return obs.OutcomeWon
	case err == nil:
		return obs.OutcomeLost
	case errors.Is(err, errAttemptCanceled):
		return obs.OutcomeCanceled
	default:
		return obs.OutcomeFailed
	}
}

// runMaybeSpeculate executes one attempt round: the given attempt, plus —
// when it straggles past SpeculativeAfter — a backup twin. The first
// finisher with a result wins; the loser is canceled, drained, and charged
// as speculative waste. Returns the winning (or last failing) attempt.
func (p *phaseRunner) runMaybeSpeculate(task, firstAttempt int) (any, int, error) {
	if !p.speculating() {
		sp := p.startSpan(task, firstAttempt, false)
		res, err := p.runOne(task, firstAttempt, nil, sp)
		sp.EndOutcome(attemptOutcome(err, true))
		return res, firstAttempt, err
	}
	type outcome struct {
		res     any
		attempt int
		err     error
		sp      obs.Span
	}
	ch := make(chan outcome, 2)
	var lostPrimary, lostBackup atomic.Bool
	start := func(attempt int, lost *atomic.Bool, speculative bool) {
		sp := p.startSpan(task, attempt, speculative)
		go func() {
			res, err := p.runOne(task, attempt, lost, sp)
			ch <- outcome{res, attempt, err, sp}
		}()
	}
	start(firstAttempt, &lostPrimary, false)
	timer := time.NewTimer(p.policy.SpeculativeAfter)
	defer timer.Stop()

	running := 1
	spawned := false
	var pending *outcome // a failed attempt held while its twin still runs
	for {
		select {
		case o := <-ch:
			running--
			if o.err != nil {
				// The attempt is definitively over whatever happens to its
				// twin; record its span now.
				o.sp.EndOutcome(attemptOutcome(o.err, false))
			}
			if o.err == nil {
				// Winner. Cancel and drain the twin before returning so no
				// attempt outlives the job.
				o.sp.EndOutcome(obs.OutcomeWon)
				lostPrimary.Store(true)
				lostBackup.Store(true)
				for running > 0 {
					loser := <-ch
					running--
					loser.sp.EndOutcome(attemptOutcome(loser.err, false))
					p.jc.SpeculativeWasted.Add(1)
					if loser.err != nil {
						p.countFailure(task, loser.attempt, loser.err)
					}
					p.discardAttempt(task, loser.attempt, loser.res, errAttemptCanceled)
				}
				if pending != nil {
					p.countFailure(task, pending.attempt, pending.err)
					p.discardAttempt(task, pending.attempt, pending.res, pending.err)
				}
				return o.res, o.attempt, nil
			}
			if running > 0 {
				pending = &o
				continue
			}
			if pending != nil {
				// Both attempts failed: surface the earlier failure, account
				// for the later one here.
				p.countFailure(task, o.attempt, o.err)
				p.discardAttempt(task, o.attempt, o.res, o.err)
				return pending.res, pending.attempt, pending.err
			}
			return o.res, o.attempt, o.err
		case <-timer.C:
			if !spawned && running == 1 && !p.stop.stopped() {
				spawned = true
				running++
				p.jc.SpeculativeAttempts.Add(1)
				start(p.nextAttempt(task), &lostBackup, true)
			}
		}
	}
}

// runOne executes a single attempt with panic containment, timing it into
// the phase's attempt-duration histogram.
func (p *phaseRunner) runOne(task, attempt int, lost *atomic.Bool, sp obs.Span) (res any, err error) {
	canceled := func() bool {
		return (lost != nil && lost.Load()) || p.stop.stopped()
	}
	t0 := time.Now()
	defer func() {
		p.attemptHist.Observe(time.Since(t0).Seconds())
		if r := recover(); r != nil {
			err = fmt.Errorf("%s task %d attempt %d panicked: %v", p.phase, task, attempt, r)
		}
	}()
	return p.run(task, attempt, canceled, sp)
}

// forEachLimitStop runs fn(0..n-1) with at most limit concurrent goroutines
// and returns the first error. Panics in fn are recovered and converted to
// errors in both the sequential and parallel paths. The first failure trips
// st, so queued iterations never start; callers may share st with in-flight
// work (e.g. task contexts) so those stop emitting too.
func forEachLimitStop(n, limit int, st *stopState, fn func(i int) error) error {
	recovered := func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("mapreduce: task %d panicked: %v", i, r)
			}
		}()
		return fn(i)
	}
	if limit <= 1 {
		for i := 0; i < n; i++ {
			if st.stopped() {
				break
			}
			if err := recovered(i); err != nil {
				st.stop()
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		st.stop()
	}
	sem := make(chan struct{}, limit)
loop:
	for i := 0; i < n; i++ {
		select {
		case <-st.ch:
			break loop
		case sem <- struct{}{}:
		}
		if st.stopped() {
			<-sem
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if st.stopped() {
				return
			}
			if err := recovered(i); err != nil {
				fail(err)
			}
		}(i)
	}
	wg.Wait()
	return firstErr
}
