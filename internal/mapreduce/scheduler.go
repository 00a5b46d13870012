package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"sync"
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
	// should stop early once ctx is done: its result is no longer wanted.
	// sp is the attempt's span (possibly the zero span), under which the
	// attempt may open phase spans.
	run func(ctx context.Context, task, attempt int, sp obs.Span) (any, error)
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

	// ctx is the phase's cancel signal, a child of the job's: the job's
	// deadline or end cancels it, and so does the first fatal task failure
	// (cancel, with that failure as the cause). It interrupts
	// in-flight attempts, backoff sleeps and shuffle fetches, and outlives
	// the phase, so a map re-execution during the reduce phase still
	// answers to the job.
	ctx    context.Context
	cancel context.CancelCauseFunc

	// tracer/jobSpan parent the attempt spans; attemptHist records each
	// attempt's duration. All are zero-value no-ops without an Observer.
	tracer      *obs.Tracer
	jobSpan     obs.SpanID
	attemptHist obs.Histogram

	mu   sync.Mutex
	next []int // next attempt number per task
}

// runAll drives every task to a committed attempt, each task on its own
// goroutine with at most limit running at once. A panic becomes an error.
// The first fatal task failure cancels the phase with itself as the cause,
// so queued tasks never start and in-flight attempts stop too; at limit 1
// the tasks run one at a time, in order, and none starts after a failure.
// It returns the phase's cause: nil once every task committed, else the
// first failure or why the job was canceled.
func (p *phaseRunner) runAll() error {
	var wg sync.WaitGroup
	sem := make(chan struct{}, max(p.limit, 1))
loop:
	for task := 0; task < p.n; task++ {
		select {
		case <-p.ctx.Done():
			break loop
		case sem <- struct{}{}:
		}
		if p.ctx.Err() != nil {
			break // the slot was freed by a task that failed
		}
		wg.Add(1)
		go func(task int) {
			defer wg.Done()
			// Fail before the slot frees, so the next task sees it.
			defer func() { <-sem }()
			defer func() {
				if r := recover(); r != nil {
					p.cancel(fmt.Errorf("mapreduce: task %d panicked: %v", task, r))
				}
			}()
			if err := p.runTask(task); err != nil {
				p.cancel(err)
			}
		}(task)
	}
	wg.Wait()
	return context.Cause(p.ctx)
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
	if errors.Is(err, ErrAttemptCanceled) {
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
		if p.ctx.Err() != nil {
			return nil // the phase already stopped; runAll reports why
		}
		attempt := p.nextAttempt(task)
		res, att, err := p.runMaybeSpeculate(task, attempt)
		if err == nil {
			return p.commit(task, att, res)
		}
		if errors.Is(err, ErrAttemptCanceled) {
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
		backoff.Sleep(p.ctx, p.policy.delay(task, failures))
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
	case errors.Is(err, ErrAttemptCanceled):
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
		res, err := p.runOne(p.ctx, task, firstAttempt, sp)
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
	// The twins share one child of the phase context: the winner cancels
	// it, which is how the loser learns that it lost.
	twins, cancelTwins := context.WithCancel(p.ctx)
	defer cancelTwins()
	start := func(attempt int, speculative bool) {
		sp := p.startSpan(task, attempt, speculative)
		go func() {
			res, err := p.runOne(twins, task, attempt, sp)
			ch <- outcome{res, attempt, err, sp}
		}()
	}
	start(firstAttempt, false)
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
				cancelTwins()
				for running > 0 {
					loser := <-ch
					running--
					loser.sp.EndOutcome(attemptOutcome(loser.err, false))
					p.jc.SpeculativeWasted.Add(1)
					if loser.err != nil {
						p.countFailure(task, loser.attempt, loser.err)
					}
					p.discardAttempt(task, loser.attempt, loser.res, ErrAttemptCanceled)
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
			if !spawned && running == 1 && p.ctx.Err() == nil {
				spawned = true
				running++
				p.jc.SpeculativeAttempts.Add(1)
				start(p.nextAttempt(task), true)
			}
		}
	}
}

// runOne executes a single attempt under ctx with panic containment, timing
// it into the phase's attempt-duration histogram.
func (p *phaseRunner) runOne(ctx context.Context, task, attempt int, sp obs.Span) (res any, err error) {
	t0 := time.Now()
	defer containPanic(p.phase, task, attempt, &err)
	defer func() { p.attemptHist.Observe(time.Since(t0).Seconds()) }()
	return p.run(ctx, task, attempt, sp)
}

// containPanic, deferred directly, turns a panic into the attempt's error.
// Map and reduce attempts defer it first thing in their run, so a panic —
// the user code's or an injected one — ends the attempt like a failing one:
// it still returns its task, which the scheduler discards, charging its
// footprint as waste and removing its temp output. runOne's own is the
// backstop for a panic outside a task's run.
func containPanic(phase string, task, attempt int, err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%s task %d attempt %d panicked: %v", phase, task, attempt, r)
	}
}
