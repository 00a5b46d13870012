package faults

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestParseRoundTrip(t *testing.T) {
	specs := []string{
		"seed=42;map:1:error",
		"map:*:error@*",
		"reduce:2:panic@0,2",
		"map:3:slow=5ms@1",
		"segment:1.0:corrupt@0",
		"segment:2:corrupt=4",
		"codec:3:error@0",
		"map:*:error@*%0.25",
	}
	for _, spec := range specs {
		s, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		s2, err := Parse(s.String())
		if err != nil {
			t.Fatalf("Parse(String(%q)) = %q: %v", spec, s.String(), err)
		}
		if s.String() != s2.String() {
			t.Errorf("round trip drifted: %q -> %q", s.String(), s2.String())
		}
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"",
		"seed=42",                // no rules
		"map:1",                  // missing action
		"bogus:1:error",          // unknown site
		"map:x:error",            // bad task
		"map:1:explode",          // unknown action
		"map:1:slow",             // missing duration
		"map:1:corrupt",          // corrupt is segment-only
		"segment:1.0:error",      // segment is corrupt-only
		"codec:1:panic",          // codec is error-only
		"map:1.2:error",          // map targets have no partition
		"map:1:error%2",          // probability out of range
		"map:1:error@-1",         // bad attempt
		"segment:1.-2:corrupt@0", // bad partition
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestAttemptMatching(t *testing.T) {
	in, err := NewFromSpec("seed=1;map:1:error@1;reduce:*:error@*")
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Attempt(SiteMap, 1, 0); err != nil {
		t.Errorf("map task 1 attempt 0 should pass: %v", err)
	}
	if err := in.Attempt(SiteMap, 1, 1); err == nil {
		t.Error("map task 1 attempt 1 should fail")
	} else if !IsTransient(err) {
		t.Errorf("injected error not transient: %v", err)
	}
	if err := in.Attempt(SiteMap, 2, 1); err != nil {
		t.Errorf("map task 2 should pass: %v", err)
	}
	for attempt := 0; attempt < 3; attempt++ {
		if err := in.Attempt(SiteReduce, 7, attempt); err == nil {
			t.Errorf("reduce attempt %d should fail under @*", attempt)
		}
	}
	fired := in.Fired()
	if fired["map/error"] != 1 || fired["reduce/error"] != 3 {
		t.Errorf("fired = %v", fired)
	}
}

func TestDefaultAttemptIsZero(t *testing.T) {
	in, _ := NewFromSpec("map:0:error")
	if err := in.Attempt(SiteMap, 0, 0); err == nil {
		t.Error("attempt 0 should fail")
	}
	if err := in.Attempt(SiteMap, 0, 1); err != nil {
		t.Errorf("attempt 1 should pass: %v", err)
	}
}

func TestPanicAction(t *testing.T) {
	in, _ := NewFromSpec("map:0:panic@0")
	defer func() {
		if r := recover(); r == nil {
			t.Error("expected injected panic")
		}
	}()
	in.Attempt(SiteMap, 0, 0)
}

func TestSlowAction(t *testing.T) {
	in, _ := NewFromSpec("map:0:slow=3s@0")
	var slept time.Duration
	in.sleep = func(d time.Duration) { slept += d }
	if err := in.Attempt(SiteMap, 0, 0); err != nil {
		t.Fatal(err)
	}
	if slept != 3*time.Second {
		t.Errorf("slept %v, want 3s", slept)
	}
}

func TestCorruptSegmentDeterministic(t *testing.T) {
	in, _ := NewFromSpec("seed=7;segment:2.1:corrupt@0")
	data := bytes.Repeat([]byte{0xAA}, 64)
	orig := append([]byte(nil), data...)

	got1, ok := in.CorruptSegment(2, 1, 0, data)
	if !ok {
		t.Fatal("rule did not fire")
	}
	if !bytes.Equal(data, orig) {
		t.Fatal("input mutated")
	}
	if bytes.Equal(got1, orig) {
		t.Fatal("no bits flipped")
	}
	got2, _ := in.CorruptSegment(2, 1, 0, data)
	if !bytes.Equal(got1, got2) {
		t.Error("corruption not deterministic")
	}
	// Non-matching coordinates stay clean.
	if _, ok := in.CorruptSegment(2, 0, 0, data); ok {
		t.Error("wrong partition fired")
	}
	if _, ok := in.CorruptSegment(2, 1, 1, data); ok {
		t.Error("recovery attempt 1 should produce a clean segment")
	}
}

func TestProbDeterministicAndSeedSensitive(t *testing.T) {
	run := func(seed string) []bool {
		in, err := NewFromSpec(seed + "map:*:error@*%0.5")
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 64)
		for task := range out {
			out[task] = in.Attempt(SiteMap, task, 0) != nil
		}
		return out
	}
	a, b := run("seed=1;"), run("seed=1;")
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("task %d differs across identical runs", i)
		}
		if a[i] {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Errorf("p=0.5 draw fired %d/%d times", hits, len(a))
	}
	c := run("seed=2;")
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical schedules")
	}
}

// TestSegmentRead: a codec rule fails the read of its own (src, attempt)
// only, with a transient error, and every firing is counted.
func TestSegmentRead(t *testing.T) {
	in, _ := NewFromSpec("codec:4:error@0")
	if err := in.SegmentRead(4, 0); err == nil || !IsTransient(err) {
		t.Fatalf("SegmentRead(4, 0) = %v, want a transient failure", err)
	}
	// Other tasks and attempts, and engine-internal segments, read clean.
	for _, c := range []struct{ src, attempt int }{{3, 0}, {4, 1}, {-1, 0}} {
		if err := in.SegmentRead(c.src, c.attempt); err != nil {
			t.Errorf("src=%d attempt=%d: %v", c.src, c.attempt, err)
		}
	}
	if err := in.SegmentRead(4, 0); err == nil {
		t.Error("the rule fired once only")
	}
	if got := in.Fired()["codec/error"]; got != 2 {
		t.Errorf("codec/error fired %d times, want 2", got)
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if err := in.Attempt(SiteMap, 0, 0); err != nil {
		t.Error(err)
	}
	if _, ok := in.CorruptSegment(0, 0, 0, []byte{1}); ok {
		t.Error("nil injector corrupted data")
	}
	if err := in.SegmentRead(0, 0); err != nil {
		t.Errorf("nil injector failed a segment read: %v", err)
	}
	if in.Fired() != nil {
		t.Error("nil injector has fired stats")
	}
	in2, err := NewFromSpec("   ")
	if err != nil || in2 != nil {
		t.Errorf("empty spec: %v %v", in2, err)
	}
}

func TestTransientErrorIdentity(t *testing.T) {
	in, _ := NewFromSpec("map:0:error@0")
	err := in.Attempt(SiteMap, 0, 0)
	if !errors.Is(err, ErrInjected) {
		t.Errorf("errors.Is(err, ErrInjected) false for %v", err)
	}
	if !strings.Contains(err.Error(), "map task 0 attempt 0") {
		t.Errorf("error does not name the attempt: %v", err)
	}
}

func TestParseNetAndNodeRules(t *testing.T) {
	for _, spec := range []string{
		"net:1:refuse@0",
		"net:*:cut@*",
		"net:2.0:corrupt=5@1",
		"net:3:stall=20ms@0,1",
		"net:*:truncate@*%0.5",
		"node:1:down=50ms",
		"seed=9;net:*:cut@*%0.3;node:0:down=10ms",
	} {
		s, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		s2, err := Parse(s.String())
		if err != nil || s.String() != s2.String() {
			t.Errorf("round trip of %q drifted: %q -> %v, %v", spec, s.String(), s2, err)
		}
	}
	for _, spec := range []string{
		"net:1:panic",       // not a net action
		"net:1:down=5ms",    // down is node-only
		"net:1:stall",       // missing duration
		"node:1:refuse",     // node is down-only
		"node:1:down",       // missing duration
		"node:1.0:down=5ms", // node targets have no partition
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

// TestFetchFaultDeterministic: net rules fire as a pure function of
// (task, part, fetch attempt), and CorruptBytes flips the same bits on
// every replay without touching the input.
func TestFetchFaultDeterministic(t *testing.T) {
	mk := func() *Injector {
		inj, err := NewFromSpec("seed=3;net:1:cut@0;net:2.0:corrupt@1;net:*:stall=7ms@3")
		if err != nil {
			t.Fatal(err)
		}
		return inj
	}
	in := mk()
	if f := in.FetchFault(1, 0, 0, true); f == nil || f.Action != ActCut {
		t.Fatalf("FetchFault(1, 0, 0, true) = %+v, want cut", f)
	}
	if f := in.FetchFault(1, 0, 1, true); f != nil {
		t.Fatalf("FetchFault(1, 0, 1, true) = %+v, want nil (rule is @0)", f)
	}
	if f := in.FetchFault(1, 0, 0, false); f != nil {
		t.Fatalf("FetchFault(1, 0, 0, false) = %+v, want nil (a cut needs bytes to cut)", f)
	}
	if f := in.FetchFault(2, 1, 1, true); f != nil {
		t.Fatalf("FetchFault(2, 1, 1, true) = %+v, want nil (rule targets partition 0)", f)
	}
	if f := in.FetchFault(0, 0, 3, true); f == nil || f.Action != ActStall || f.Delay != 7*time.Millisecond {
		t.Fatalf("FetchFault(0, 0, 3, true) = %+v, want stall=7ms", f)
	}
	data := []byte("hello shuffle chunk payload")
	orig := append([]byte(nil), data...)
	f1 := mk().FetchFault(2, 0, 1, true)
	f2 := mk().FetchFault(2, 0, 1, true)
	if f1 == nil || f1.Action != ActCorrupt {
		t.Fatalf("corrupt rule did not fire: %+v", f1)
	}
	c1, c2 := f1.CorruptBytes(data), f2.CorruptBytes(data)
	if !bytes.Equal(data, orig) {
		t.Error("CorruptBytes modified its input")
	}
	if bytes.Equal(c1, data) {
		t.Error("CorruptBytes flipped nothing")
	}
	if !bytes.Equal(c1, c2) {
		t.Error("CorruptBytes not deterministic across replays")
	}
	if got := mk().Fired(); got["net/cut"] != 0 {
		// Fired counts accumulate only on firing injectors.
		t.Errorf("fresh injector has fired counts: %v", got)
	}
}

// TestNodeDownWindow: the outage opens at the first observed dial, refuses
// dials inside the window, and lifts after the configured duration.
func TestNodeDownWindow(t *testing.T) {
	inj, err := NewFromSpec("node:1:down=60ms")
	if err != nil {
		t.Fatal(err)
	}
	if inj.NodeDown(0) {
		t.Error("untargeted node reported down")
	}
	if !inj.NodeDown(1) {
		t.Error("first dial inside the window not refused")
	}
	if !inj.NodeDown(1) {
		t.Error("second dial inside the window not refused")
	}
	deadline := time.Now().Add(2 * time.Second)
	for inj.NodeDown(1) {
		if time.Now().After(deadline) {
			t.Fatal("node never came back up")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if inj.Fired()["node/down"] < 2 {
		t.Errorf("refused dials not recorded: %v", inj.Fired())
	}
	var nilInj *Injector
	if nilInj.NodeDown(1) || nilInj.FetchFault(0, 0, 0, true) != nil {
		t.Error("nil injector must be inert for net/node sites")
	}
}

// TestProcRules: proc-site parse round trips, shape rejection, and
// deterministic WorkerFault matching on (worker, phase, grant-sequence)
// coordinates.
func TestProcRules(t *testing.T) {
	for _, spec := range []string{
		"proc:1:kill",
		"proc:0.0:kill@0",
		"proc:2.1:hang=50ms@1",
		"proc:*:kill@*%0.5",
		"seed=7;proc:0.0:kill@0;proc:1.1:hang=20ms@0",
	} {
		s, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		s2, err := Parse(s.String())
		if err != nil || s.String() != s2.String() {
			t.Errorf("round trip of %q drifted: %q -> %v, %v", spec, s.String(), s2, err)
		}
	}
	for _, spec := range []string{
		"proc:1:error",  // not a proc action
		"proc:1:hang",   // missing duration
		"proc:1.2:kill", // phase must be 0 or 1
		"proc:1:kill=5", // kill takes no argument
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}

	in, err := NewFromSpec("proc:1.1:kill@0;proc:0:hang=30ms@1")
	if err != nil {
		t.Fatal(err)
	}
	if f := in.WorkerFault(1, ProcPhaseReduce, 0); f == nil || f.Action != ActKill {
		t.Errorf("worker 1 first reduce grant: got %+v, want kill", f)
	}
	if f := in.WorkerFault(1, ProcPhaseMap, 0); f != nil {
		t.Errorf("worker 1 map grant fired %+v, want nil (rule is reduce-phase)", f)
	}
	if f := in.WorkerFault(1, ProcPhaseReduce, 1); f != nil {
		t.Errorf("worker 1 second reduce grant fired %+v, want nil (rule is @0)", f)
	}
	// The no-phase hang rule matches either phase, grant 1 only.
	if f := in.WorkerFault(0, ProcPhaseMap, 1); f == nil || f.Action != ActHang || f.Delay != 30*time.Millisecond {
		t.Errorf("worker 0 grant 1: got %+v, want hang=30ms", f)
	}
	if f := in.WorkerFault(0, ProcPhaseMap, 0); f != nil {
		t.Errorf("worker 0 grant 0 fired %+v, want nil", f)
	}
	if got := in.Fired()["proc/kill"]; got != 1 {
		t.Errorf("proc/kill fired %d times, want 1", got)
	}
	var nilInj *Injector
	if f := nilInj.WorkerFault(0, ProcPhaseMap, 0); f != nil {
		t.Errorf("nil injector fired %+v", f)
	}
}
