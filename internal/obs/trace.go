package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span categories, forming the trace hierarchy: one job span, one attempt
// span per task attempt beneath it, and phase spans beneath each attempt.
const (
	CatJob     = "job"
	CatAttempt = "attempt"
	CatPhase   = "phase"
)

// Attempt-span outcomes. An attempt span's outcome is decided by the
// scheduler, not the attempt itself: a successful execution can still lose
// to a speculative twin.
const (
	// OutcomeWon marks the attempt whose output the job committed.
	OutcomeWon = "won"
	// OutcomeLost marks a successful attempt beaten by its speculative
	// twin; its work is charged as waste.
	OutcomeLost = "lost"
	// OutcomeFailed marks an attempt that ended in an error or panic
	// (including injected faults).
	OutcomeFailed = "failed"
	// OutcomeCanceled marks an attempt interrupted because its result was
	// no longer wanted (job stop, deadline, or a twin finishing first).
	OutcomeCanceled = "canceled"
)

// SpanID identifies a span within one Tracer; 0 is "no span" and is what
// nil tracers hand out.
type SpanID uint64

// Event is one completed span.
type Event struct {
	ID     SpanID
	Parent SpanID
	// Cat is the span category (CatJob, CatAttempt, CatPhase).
	Cat string
	// Name labels the span: the job name, "map"/"reduce" for attempts, or
	// the phase name (map, spill, codec, fetch, merge, reduce, cache.get,
	// cache.put).
	Name string
	// Task and Attempt locate the span in the job; -1 when inapplicable.
	Task    int
	Attempt int
	// Speculative marks backup attempts launched for stragglers.
	Speculative bool
	// Start and Dur are relative to the tracer's epoch.
	Start time.Duration
	Dur   time.Duration
	// Outcome is set on attempt spans (see the Outcome constants), on the
	// job span ("ok" or "failed") and on the cache.get phase span ("hit" or
	// "miss").
	Outcome string
}

const traceShards = 16

// traceShard is one ring of completed events. End() takes exactly one
// shard lock; shards are chosen by span ID, so concurrent attempts spread
// across locks. The ring grows with the events recorded up to the tracer's
// cap and only then wraps: the cap is a bound, not a size (a 416 KiB ring
// zeroed inside the first End to reach a shard was a millisecond charged to
// no span — a tenth of a small job).
type traceShard struct {
	mu   sync.Mutex
	ring []Event
	next int // once the ring is at cap: the oldest event, overwritten next
}

// Tracer records span events into a bounded, lock-sharded in-memory ring.
// When a ring wraps, the oldest events in that shard are overwritten and
// counted in Dropped. A nil *Tracer is valid and records nothing.
type Tracer struct {
	epoch   time.Time
	seq     atomic.Uint64
	dropped atomic.Int64
	cap     int
	shards  [traceShards]traceShard
}

// NewTracer returns a Tracer keeping up to capPerShard completed spans per
// shard (16 shards; capPerShard <= 0 means the default 4096, i.e. 64k
// events total).
func NewTracer(capPerShard int) *Tracer {
	if capPerShard <= 0 {
		capPerShard = 4096
	}
	return &Tracer{epoch: time.Now(), cap: capPerShard}
}

// Span is an in-flight span handle. The zero value (and anything started
// from a nil Tracer) no-ops on End.
type Span struct {
	tr    *Tracer
	ev    Event
	ended bool
}

// Start opens a span. parent may be 0 for a root span; task/attempt are -1
// when inapplicable.
func (t *Tracer) Start(cat, name string, parent SpanID, task, attempt int) Span {
	if t == nil {
		return Span{}
	}
	return Span{
		tr: t,
		ev: Event{
			ID:      SpanID(t.seq.Add(1)),
			Parent:  parent,
			Cat:     cat,
			Name:    name,
			Task:    task,
			Attempt: attempt,
			Start:   time.Since(t.epoch),
		},
	}
}

// ID returns the span's identifier (0 for the zero span), for parenting
// child spans.
func (s Span) ID() SpanID { return s.ev.ID }

// Tracer returns the tracer this span records to (nil for the zero span),
// so code handed a span can open child spans under it.
func (s Span) Tracer() *Tracer { return s.tr }

// Speculative marks the span as a speculative backup attempt and returns
// it (builder style, before End).
func (s Span) Speculative() Span {
	s.ev.Speculative = true
	return s
}

// End completes the span with no outcome.
func (s *Span) End() { s.EndOutcome("") }

// EndOutcome completes the span, recording the given outcome. Multiple
// calls are idempotent: only the first records.
func (s *Span) EndOutcome(outcome string) {
	if s.tr == nil || s.ended {
		return
	}
	s.ended = true
	s.ev.Dur = time.Since(s.tr.epoch) - s.ev.Start
	s.ev.Outcome = outcome
	s.tr.record(s.ev)
}

func (t *Tracer) record(ev Event) {
	sh := &t.shards[uint64(ev.ID)%traceShards]
	sh.mu.Lock()
	if len(sh.ring) < t.cap {
		sh.ring = append(sh.ring, ev)
	} else {
		t.dropped.Add(1)
		sh.ring[sh.next] = ev
		sh.next = (sh.next + 1) % len(sh.ring)
	}
	sh.mu.Unlock()
}

// Dropped reports how many completed spans were overwritten by ring wrap.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Events returns every retained completed span, ordered by start time.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	var out []Event
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		out = append(out, sh.ring...)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// WriteChromeTrace renders the retained spans as Chrome trace_event JSON
// (the "JSON array format"), loadable in chrome://tracing or Perfetto.
// Each span becomes one complete ("X") event; pid is always 1 and tid is
// the task index (job-level spans use tid 0), so per-task attempt lanes
// line up visually. Attempt metadata lands in args.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, ev := range events {
		tid := ev.Task + 1 // task 0 on tid 1; job spans (task -1) on tid 0
		var args strings.Builder
		fmt.Fprintf(&args, `{"id":%d,"parent":%d`, ev.ID, ev.Parent)
		if ev.Task >= 0 {
			fmt.Fprintf(&args, `,"task":%d,"attempt":%d`, ev.Task, ev.Attempt)
		}
		if ev.Speculative {
			args.WriteString(`,"speculative":true`)
		}
		if ev.Outcome != "" {
			fmt.Fprintf(&args, `,"outcome":%q`, ev.Outcome)
		}
		args.WriteString("}")
		sep := ","
		if i == len(events)-1 {
			sep = ""
		}
		_, err := fmt.Fprintf(w,
			`  {"name":%q,"cat":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":%s}%s`+"\n",
			displayName(ev), ev.Cat, tid,
			float64(ev.Start)/float64(time.Microsecond),
			float64(ev.Dur)/float64(time.Microsecond),
			args.String(), sep)
		if err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}

// displayName renders a span's human label: phase and job spans keep their
// name; attempt spans append task/attempt provenance.
func displayName(ev Event) string {
	if ev.Cat != CatAttempt {
		return ev.Name
	}
	name := fmt.Sprintf("%s %d/%d", ev.Name, ev.Task, ev.Attempt)
	if ev.Speculative {
		name += " (spec)"
	}
	return name
}

// WriteTimeline renders the retained spans as an indented, time-ordered
// text timeline — the quick look that doesn't need a trace viewer.
func (t *Tracer) WriteTimeline(w io.Writer) error {
	for _, ev := range t.Events() {
		indent := ""
		switch ev.Cat {
		case CatAttempt:
			indent = "  "
		case CatPhase:
			indent = "    "
		}
		outcome := ""
		if ev.Outcome != "" {
			outcome = " [" + ev.Outcome + "]"
		}
		if _, err := fmt.Fprintf(w, "%10.3fms %s%-28s %8.3fms%s\n",
			float64(ev.Start)/float64(time.Millisecond), indent, displayName(ev),
			float64(ev.Dur)/float64(time.Millisecond), outcome); err != nil {
			return err
		}
	}
	if d := t.Dropped(); d > 0 {
		if _, err := fmt.Fprintf(w, "(%d older spans dropped by ring wrap)\n", d); err != nil {
			return err
		}
	}
	return nil
}
