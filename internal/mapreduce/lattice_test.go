package mapreduce

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"scikey/internal/codec"
	"scikey/internal/faults"
	"scikey/internal/hdfs"
	"scikey/internal/obs"
	"scikey/internal/pairwise"
)

// The configuration lattice is the engine's one "same bytes as the
// reference" suite, and its one recovery oracle. Every run-time feature is
// an axis, a row picks one value per axis, and one oracle holds every row to
// referenceRun of its job with the run-time axes at their defaults, and a
// faulty row to the rules of recovery, keyed on what its schedule fired.
// The rows are those of the per-feature tables the lattice replaced, plus
// the rows a seeded greedy generator adds until every pair of axis values
// some valid row can hold appears in one. A new run-time feature adds an
// axis value here, and mutants under scripts/mutants that the lattice must
// kill — not a table of its own.

// Axes. Value 0 of each is its default.
const (
	axCodec     = iota
	axSpill     // SpillBufferBytes × MergeFactor
	axShape     // documents and reducers: what the job computes
	axComb      // map-side combiner
	axNodes     // in-node combine groups
	axTransform // merge transform
	axShuffle
	axExec   // in-process or a loopbackRemote
	axPar    // Parallelism
	axProcs  // GOMAXPROCS
	axCache  // off, or a cold run then a warm one on the same MapCache
	axFaults // fault schedule, with three attempts per task
	axObs    // tracing: an Observer attached
	numAxes
)

var latticeAxes = [numAxes]struct {
	name   string
	values []string
}{
	axCodec:     {"codec", []string{"none", "gzip", "bzip2", "zlib", "transform+zlib", "block+transform+zlib"}},
	axSpill:     {"spill", []string{"default", "128Bx2", "128Bx10"}},
	axShape:     {"shape", []string{"faultDocs", "codeOnceDocs", "manyDocs-1r", "oneDoc", "routeAll0"}},
	axComb:      {"comb", []string{"off", "on"}},
	axNodes:     {"nodes", []string{"off", "1", "2", "3"}},
	axTransform: {"transform", []string{"none", "whole", "windowed"}},
	axShuffle:   {"shuffle", []string{"default", "mem", "tcp"}},
	axExec:      {"exec", []string{"local", "remote"}},
	axPar:       {"par", []string{"1", "2", "3"}},
	axProcs:     {"procs", []string{"2", "1", "4"}},
	axCache:     {"cache", []string{"off", "cold+warm"}},
	axFaults:    {"faults", []string{"none", "local", "block", "net", "attempt"}},
	axObs:       {"obs", []string{"off", "on"}},
}

var manyDocs = append(slices.Clone(faultDocs),
	"sphinx of black quartz judge my vow",
	"the five boxing wizards jump quickly",
	"jackdaws love my big sphinx of quartz",
)

// latticeShapes are the shapes' documents and reducers; routeAll0 sends
// every key to partition 0, so the others take the empty-stream path.
var latticeShapes = []struct {
	docs     []string
	reducers int
}{{faultDocs, 2}, {codeOnceDocs, 2}, {manyDocs, 1}, {faultDocs[:1], 1}, {faultDocs, 3}}

var latticeSpills = [][2]int{{0, 0}, {128, 2}, {128, 10}}

// latticeProcs are the GOMAXPROCS values; the default is two, a CI
// runner's, so the block pipeline has frames in flight side by side.
var latticeProcs = []int{2, 1, 4}

// latticeFaults are the fault schedules; attempt reaches the sites the
// others do not: a map panic, a reduce error and a failing output write.
var latticeFaults = []string{
	"",
	"seed=9;map:1:error@0;segment:0.1:corrupt@0;codec:2:error@0",
	"seed=5;segment:2.0:corrupt@0;codec:0:error@0",
	"seed=3;net:1:cut@0;net:0.1:corrupt@0",
	"seed=11;map:0:panic@0;reduce:1:error@0;out:0:error@0",
}

func latticeCodec(v int) codec.Codec {
	c, _ := codec.Get(latticeAxes[axCodec].values[v])
	if blk, ok := c.(*codec.Block); ok {
		blk.BlockBytes = 1 << 10 // many frames even on word-count segments
	}
	return c
}

// latticeSizes is the number of values of each axis.
func latticeSizes() []int {
	sizes := make([]int, numAxes)
	for a, ax := range latticeAxes {
		sizes[a] = len(ax.values)
	}
	return sizes
}

func valueName(v pairwise.Value) string {
	return latticeAxes[v.Axis].name + "=" + latticeAxes[v.Axis].values[v.Value]
}

// latticeRow holds one value per axis.
type latticeRow [numAxes]int

// lrow is the row with the given axis, value pairs set.
func lrow(kv ...int) latticeRow {
	var r latticeRow
	for i := 0; i < len(kv); i += 2 {
		r[kv[i]] = kv[i+1]
	}
	return r
}

func (r latticeRow) String() string {
	var parts []string
	for a, v := range r {
		if v != 0 {
			parts = append(parts, valueName(pairwise.Value{Axis: a, Value: v}))
		}
	}
	if parts == nil {
		return "defaults"
	}
	return strings.Join(parts, ",")
}

// job builds the row's job on fs. A cache row stores into cache; a remote
// row runs its attempts on a loopbackRemote over fresh worker-side jobs,
// which share the job's codec and fault injector, so that what the workers
// decode and fire is counted where the coordinator's is.
func (r latticeRow) job(t *testing.T, fs *hdfs.FileSystem, cache MapOutputCache) (*Job, *loopbackRemote) {
	sh := latticeShapes[r[axShape]]
	job := wordCountJob(fs, sh.docs, sh.reducers, r[axComb] == 1)
	if r[axShape] == 4 {
		job.Partition = func([]byte, int) int { return 0 }
	}
	job.MapOutputCodec = latticeCodec(r[axCodec])
	job.SpillBufferBytes, job.MergeFactor = latticeSpills[r[axSpill]][0], latticeSpills[r[axSpill]][1]
	if n := r[axNodes]; n > 0 {
		job.Combine = &CombineConfig{Combiner: SumInt32, Nodes: n}
	}
	if r[axTransform] > 0 {
		job.MergeTransform = dupTransform
	}
	if r[axTransform] == 2 {
		job.MergeCut = keyChangeCut
	}
	if r[axShuffle] > 0 {
		job.Shuffle = &ShuffleConfig{Mode: latticeAxes[axShuffle].values[r[axShuffle]], Nodes: 2, FetchAttempts: 4}
	}
	job.Parallelism = r[axPar] + 1
	if spec := latticeFaults[r[axFaults]]; spec != "" {
		job.Faults = mustInjector(t, spec)
		job.Retry = RetryPolicy{MaxAttempts: 3}
	}
	if r[axCache] == 1 {
		job.MapCache, job.CacheKey = cache, "lattice"
	}
	if r[axObs] == 1 {
		job.Obs = obs.New()
	}
	var remote *loopbackRemote
	if r[axExec] == 1 {
		worker := r
		worker[axExec], worker[axCache] = 0, 0
		remote = newLoopbackRemote(func() *Job {
			wj, _ := worker.job(t, testFS(), nil)
			wj.MapOutputCodec, wj.Faults = job.MapOutputCodec, job.Faults
			return wj
		})
		job.Remote = remote
	}
	return job, remote
}

// reference keeps the axes that fix a row's reference — what the job
// computes and how often it spills — and sets every other to its default.
func (r latticeRow) reference() latticeRow {
	return lrow(axSpill, r[axSpill], axShape, r[axShape], axComb, r[axComb], axTransform, r[axTransform])
}

// payload is a run's payload counters by label: counterTable's rows before
// MapAttemptsFailed, where the scheduler's bookkeeping starts.
func payload(c *Counters) map[string]int64 {
	out := make(map[string]int64)
	for _, row := range counterTable {
		if row.at(c) == &c.MapAttemptsFailed {
			break
		}
		out[row.label] = row.at(c).Value()
	}
	return out
}

// lattice checks rows, computing each reference and each map-side
// code-once check once.
type lattice struct {
	refs  map[latticeRow]latticeRef
	coded map[latticeRow]bool
}

// latticeRef is referenceRun's output bytes and counters.
type latticeRef struct {
	outs []string
	c    *Counters
}

func newLattice() *lattice {
	return &lattice{refs: make(map[latticeRow]latticeRef), coded: make(map[latticeRow]bool)}
}

// reference is referenceRun of r.reference().
func (l *lattice) reference(t *testing.T, r latticeRow) latticeRef {
	key := r.reference()
	if ref, ok := l.refs[key]; ok {
		return ref
	}
	job, _ := key.job(t, testFS(), nil)
	outs, c := referenceRun(t, job)
	// The spill regime is what its name says: one write per record with
	// the default buffer; with the tiny one — on the only documents long
	// enough — more than a spill and a final merge.
	perSpill, spilled := c.MapOutputRecords.Value(), c.SpilledRecords.Value()
	if key[axComb] == 1 {
		perSpill = c.CombineOutputRecords.Value()
	}
	if key[axSpill] == 0 && spilled != perSpill || key[axSpill] > 0 && key[axShape] == 1 && spilled <= 2*perSpill {
		t.Fatalf("%s: SpilledRecords %d for %d spilled once: not its spill regime", key, spilled, perSpill)
	}
	l.refs[key] = latticeRef{outs, c}
	return l.refs[key]
}

// check runs row r — twice for a cache row, cold then warm — and holds each
// run to the reference: the same output bytes and payload counters, except
// where an axis is defined to change them, by an exact rule of its own. A
// coded row's codec is wrapped in a countingCodec, and a faulty row's
// recovery is held to checkRecovery's rules.
func (l *lattice) check(t *testing.T, r latticeRow) {
	prev := runtime.GOMAXPROCS(latticeProcs[r[axProcs]])
	defer runtime.GOMAXPROCS(prev)
	ref := l.reference(t, r)
	key := r.reference()
	if key[axCodec] = r[axCodec]; key[axCodec] != 0 && !l.coded[key] {
		l.coded[key] = true
		codeOnceMapSide(t, latticeCodec(key[axCodec]), func(c codec.Codec) *Job {
			job, _ := key.job(t, testFS(), nil)
			job.MapOutputCodec = c
			return job
		})
	}
	cache := &memCache{}
	var cold *Result
	var coldEncoded int64
	for run := 0; run <= r[axCache]; run++ {
		fs := testFS()
		job, remote := r.job(t, fs, cache)
		var cc *countingCodec
		if r[axCodec] != 0 {
			cc = &countingCodec{inner: job.MapOutputCodec}
			job.MapOutputCodec = cc
		}
		var mapped atomic.Int64
		newMapper := job.NewMapper
		job.NewMapper = func() Mapper { mapped.Add(1); return newMapper() }
		res, err := Run(job)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if outs := readRawOutputs(t, fs, res.OutputPaths); !slices.Equal(outs, ref.outs) {
			t.Errorf("run %d: output bytes differ from the reference", run)
		}
		if job.Obs != nil && len(job.Obs.T().Events()) == 0 || r[axShuffle] == 2 && res.Counters.ShuffleFetches.Value() == 0 {
			t.Errorf("run %d: no span traced or no fetch counted", run)
		}
		c, want := res.Counters, payload(ref.c)
		if r[axCodec] != 0 {
			// What a codec exists to shrink.
			delete(want, "Map output materialized bytes")
			delete(want, "Reduce shuffle bytes")
		}
		if merged := c.CombineMergedRecords.Value(); r[axNodes] != 0 {
			// In-node combining leaves the reducers one record per distinct
			// key of each node group, with or without a map combiner; the
			// rest it folds away (dupTransform then splits each one fewer
			// time), saving shuffle bytes once anything folded.
			want["Reduce input records"] -= merged
			if r[axTransform] != 0 {
				want["Overlap key splits"] -= merged
			}
			if _, ok := want["Reduce shuffle bytes"]; ok {
				want["Reduce shuffle bytes"] -= c.CombineSavedBytes.Value()
				if merged > 0 && c.CombineSavedBytes.Value() <= 0 {
					t.Errorf("run %d: %d records folded, %d shuffle bytes saved", run, merged, c.CombineSavedBytes.Value())
				}
			}
			keys := nodeGroupKeys(latticeShapes[r[axShape]].docs, min(r[axNodes], len(job.Splits)))
			if c.ReduceInputRecords.Value() != keys || c.CombineEmittedRecords.Value() != keys {
				t.Errorf("run %d: %d records folded, %d emitted for %d reduce input records; the node groups hold %d keys",
					run, merged, c.CombineEmittedRecords.Value(), c.ReduceInputRecords.Value(), keys)
			}
		}
		got := payload(c)
		for name, w := range want {
			if got[name] != w {
				t.Errorf("run %d: counter %q = %d, want %d", run, name, got[name], w)
			}
		}
		maps := len(job.Splits)
		if r[axCache] == 1 {
			warm := run == 1
			if warm {
				maps = 0
			}
			if res.MapPhaseCached != warm || cache.puts != 1 || cache.hits != run || warm && !slices.Equal(res.MapTasks, cold.MapTasks) {
				t.Errorf("run %d: MapPhaseCached %v after %d puts and %d hits", run, res.MapPhaseCached, cache.puts, cache.hits)
			}
			cold = res
		}
		if cc != nil && r[axFaults] == 0 {
			// Every coded byte is decoded once: the decoders yield the
			// plaintext the writers took — each level fetched, Reduce
			// shuffle bytes, plus the materialized bytes when in-node
			// combining decodes them too, plus any level a multi-pass
			// reduce merge writes and reads back. A warm run decodes what
			// its cold run coded, less the members' plaintext its skipped
			// combine would read. (A retried attempt decodes again, so a
			// faulty row has no such count.)
			wantDecoded := cc.encoded.Load()
			if res.MapPhaseCached {
				wantDecoded = coldEncoded
				if r[axNodes] != 0 {
					wantDecoded -= ref.c.MapOutputMaterializedBytes.Value()
				}
			}
			if got := cc.decoded.Load(); got != wantDecoded {
				t.Errorf("run %d: decoded %d B, want %d B once (%.2f×)", run, got, wantDecoded, float64(got)/float64(wantDecoded))
			}
			coldEncoded = cc.encoded.Load()
		}
		if r[axFaults] == 0 {
			// A clean run records no waste: no failed, retried, speculative
			// or recovered attempt, no fetch retry.
			for _, row := range counterTable[len(got):] {
				if v := row.at(c).Value(); v != 0 && row.at(c) != &c.ShuffleFetches && !strings.HasPrefix(row.label, "Node combine") {
					t.Errorf("run %d: a clean run counted %s = %d", run, row.label, v)
				}
			}
			if n := len(res.WastedMapTasks) + len(res.WastedReduceTasks); n != 0 {
				t.Errorf("run %d: a clean run wasted %d attempts", run, n)
			}
		} else {
			checkRecovery(t, run, r, job, res, r[axCache] == 1 && run == 1)
		}
		// An attempt per map task (none on a cache hit), one more per
		// failed map attempt, and one per re-executed producer; a mapper
		// only for the attempts that got past their start, which is where
		// the map-site rules fire.
		attempts := int64(maps) + c.MapAttemptsFailed.Value() + c.MapTasksRecovered.Value()
		if remote == nil && mapped.Load() != int64(maps)+c.MapTasksRecovered.Value() ||
			job.Obs != nil && mapAttemptCount(job.Obs) != attempts {
			t.Errorf("run %d: %d mappers for %d map attempts of %d map tasks", run, mapped.Load(), attempts, maps)
		}
		if remote == nil {
			continue
		}
		// Every attempt ran remotely: one per task, and one more per retry.
		if want := int64(maps+job.NumReducers) + c.TaskRetries.Value(); int64(remote.runs) != want {
			t.Errorf("run %d: %d remote attempts, want %d", run, remote.runs, want)
		}
		// Every map task published; with in-node combining, data only
		// under a node group's representative, its lowest task.
		groups := len(job.Splits)
		if r[axNodes] != 0 {
			groups = min(r[axNodes], groups)
		}
		for m := range job.Splits {
			n := -1 // unpublished
			if e, ok := remote.segs[m]; ok {
				n = 0
				for _, p := range e.parts {
					n += len(p)
				}
			}
			if n < 0 || (n > 0) != (m < groups) {
				t.Errorf("run %d: map task %d of %d node groups published %d B", run, m, groups, n)
			}
		}
	}
}

// checkRecovery holds a faulty run to the rules of recovery, keyed on what
// its schedule fired (Injector.Fired), first held to what the schedule
// must fire on the row's job (scheduledFires). Each fired map or reduce
// error or panic is one failed attempt of that phase, one retry and one
// waste footprint. A fired segment corruption is detected once — by the
// node combine when the row combines in-node, else by the reduce attempt
// reading it — and its producer re-executes, replacing a committed attempt
// whose footprint turns to waste. A fired codec error fails the reduce
// attempt that read it, and a fired out error the reduce attempt that
// wrote through it, which leaves no _attempt temp file. restored marks a
// warm run, whose map phase came from its cold run. The payload counters
// and output bytes are check's: the reference's.
func checkRecovery(t *testing.T, run int, r latticeRow, job *Job, res *Result, restored bool) {
	t.Helper()
	c, fired := res.Counters, job.Faults.Fired()
	least, most, fetchRetries := scheduledFires(r, job, restored)
	for k := range most {
		if n := fired[k]; n < least[k] || n > most[k] {
			t.Errorf("run %d: %s fired %d times, want %d to %d", run, k, n, least[k], most[k])
		}
	}
	n := func(keys ...string) (sum int64) {
		for _, k := range keys {
			sum += int64(fired[k])
		}
		return sum
	}
	failedMaps, corrupt := n("map/error", "map/panic"), n("segment/corrupt")
	failedReduces, read := n("reduce/error", "reduce/panic", "out/error"), n("codec/error")
	if r[axNodes] == 0 {
		failedReduces += corrupt // detected by the reduce attempt that read it
	}
	// A codec rule fails each reduce attempt it fires in, except where the
	// attempt opened segments side by side — a coded attempt validates them
	// on parallel goroutines, a multi-pass merge opens a whole batch — and
	// another producer's corruption was the attempt's verdict: there the
	// attempt fails once for both.
	if f := c.ReduceAttemptsFailed.Value(); f < failedReduces+read-min(read, corrupt) || f > failedReduces+read {
		t.Errorf("run %d: %d failed reduce attempts; fired %v", run, f, fired)
	}
	for _, eq := range []struct {
		name      string
		got, want int64
	}{
		{"failed map attempts", c.MapAttemptsFailed.Value(), failedMaps},
		{"corrupt segments detected", c.CorruptSegmentsDetected.Value(), corrupt},
		{"map tasks recovered", c.MapTasksRecovered.Value(), corrupt},
		{"wasted map attempts", int64(len(res.WastedMapTasks)), failedMaps + corrupt},
		{"wasted reduce attempts", int64(len(res.WastedReduceTasks)), c.ReduceAttemptsFailed.Value()},
		{"task retries", c.TaskRetries.Value(), c.MapAttemptsFailed.Value() + c.ReduceAttemptsFailed.Value() + c.MapTasksRecovered.Value()},
		{"speculative attempts", c.SpeculativeAttempts.Value() + c.SpeculativeWasted.Value(), 0},
		{"shuffle fetch retries", c.ShuffleFetchRetries.Value(), int64(fetchRetries)},
	} {
		if eq.got != eq.want {
			t.Errorf("run %d: %s = %d, want %d; fired %v", run, eq.name, eq.got, eq.want, fired)
		}
	}
	// Discarded map work is charged in the cost model.
	est, committed := res.Estimate(clusterPaper()), clusterPaper().EstimateJob(res.MapTasks, res.ReduceTasks)
	if len(res.WastedMapTasks) > 0 && (est.WastedMapSeconds <= 0 || est.MapSeconds < committed.MapSeconds) {
		t.Errorf("run %d: %d wasted map attempts charged %v s; map phase %v s, committed work alone %v s",
			run, len(res.WastedMapTasks), est.WastedMapSeconds, est.MapSeconds, committed.MapSeconds)
	}
	for _, p := range job.FS.List() {
		if strings.Contains(p, "_attempt") {
			t.Errorf("run %d: attempt temp file %s left behind", run, p)
		}
	}
}

// scheduledFires is how often each site/action of r's fault schedule fires
// on job, at least and at most; restored says the run restored its map
// phase, so no map attempt starts and no map or segment rule fires. Every
// task's attempt 0 starts, so a map or reduce rule fires once per task it
// names. A segment rule fires once for a non-empty segment of a map attempt
// 0 that reaches its end. A codec rule
// fires once for each reduce attempt 0 that reads the producer's non-empty
// published segment — with in-node combining, only a node group's
// representative publishes — unless a reduce rule failed the attempt at
// its start; and it may not, where a corrupt segment in the same partition
// can end the attempt first. An out rule fires once for a reduce attempt 0
// that reaches its output, certain only when no other rule can end it
// before. The lattice's net rules, cut and corrupt, act on a segment's
// bytes: one fires once on the first fetch of each non-empty published
// segment it names (net rules share no schedule with rules that fail a
// reduce attempt, so each segment is fetched once), and costs a fetch
// retry there; fetchRetries counts those.
func scheduledFires(r latticeRow, job *Job, restored bool) (least, most map[string]int, fetchRetries int) {
	sched, _ := faults.Parse(latticeFaults[r[axFaults]])
	docs, nMaps, nReds := latticeShapes[r[axShape]].docs, len(job.Splits), job.NumReducers
	groups := nMaps
	if r[axNodes] != 0 {
		groups = min(r[axNodes], nMaps)
	}
	// holds reports that map task m's output has a key for partition p.
	holds := func(m, p int) bool {
		for _, w := range strings.Fields(docs[m]) {
			if job.Partition([]byte(w), nReds) == p {
				return true
			}
		}
		return false
	}
	// published reports that reducers fetch a non-empty segment of m for p.
	published := func(m, p int) bool {
		if r[axNodes] == 0 {
			return holds(m, p)
		}
		for member := m; m < groups && member < nMaps; member += groups {
			if holds(member, p) {
				return true
			}
		}
		return false
	}
	ruled := func(site faults.Site, task, part int) bool {
		for _, rule := range sched.Rules {
			if rule.Site == site && rule.Task == task && (part < 0 || rule.Part == part) {
				return true
			}
		}
		return false
	}
	// corruptIn reports that a reduce attempt for p may fail on a corrupt
	// segment; with in-node combining the combine meets it first.
	corruptIn := func(p int) bool {
		for m := range nMaps {
			if r[axNodes] == 0 && !restored && ruled(faults.SiteSegment, m, p) && holds(m, p) {
				return true
			}
		}
		return false
	}
	least, most = make(map[string]int), make(map[string]int)
	add := func(k string, sure, may bool) {
		if sure {
			least[k]++
		}
		if may {
			most[k]++
		}
	}
	for _, rule := range sched.Rules {
		k, m := string(rule.Site)+"/"+string(rule.Action), rule.Task
		switch rule.Site {
		case faults.SiteMap:
			add(k, m < nMaps && !restored, m < nMaps && !restored)
		case faults.SiteReduce:
			add(k, m < nReds, m < nReds)
		case faults.SiteSegment:
			ok := m < nMaps && rule.Part < nReds && holds(m, rule.Part) && !ruled(faults.SiteMap, m, -1) && !restored
			add(k, ok, ok)
		case faults.SiteCodec:
			for p := range nReds {
				ok := m < nMaps && published(m, p) && !ruled(faults.SiteReduce, p, -1)
				add(k, ok && !corruptIn(p), ok)
			}
		case faults.SiteOut:
			sure := !ruled(faults.SiteReduce, m, -1)
			for _, other := range sched.Rules {
				sure = sure && other.Site != faults.SiteCodec && (other.Site != faults.SiteSegment || restored)
			}
			add(k, m < nReds && sure, m < nReds)
		case faults.SiteNet:
			for p := range nReds {
				if m < nMaps && (rule.Part < 0 || rule.Part == p) && published(m, p) {
					add(k, true, true)
					fetchRetries++
				}
			}
		}
	}
	return least, most, fetchRetries
}

// nodeGroupKeys counts the distinct words of each node group of docs, map
// task m joining group m mod groups.
func nodeGroupKeys(docs []string, groups int) int64 {
	type groupKey struct {
		g int
		w string
	}
	seen := make(map[groupKey]bool)
	for m, d := range docs {
		for _, w := range strings.Fields(d) {
			seen[groupKey{m % groups, w}] = true
		}
	}
	return int64(len(seen))
}

// latticeRejected are the pairs of axis values Job.validate rejects.
var latticeRejected = []pairwise.Pair{
	pairwise.PairOf(axShuffle, 2, axExec, 1),
}

// latticeExcluded lists the pairs no row holds, before the pairs they
// imply: rejected, and net faults without the networked shuffle, which have
// no site to fire at (the row would be the faults=none row).
func latticeExcluded(rejected []pairwise.Pair) []pairwise.Pair {
	return append([]pairwise.Pair{pairwise.PairOf(axShuffle, 0, axFaults, 3), pairwise.PairOf(axShuffle, 1, axFaults, 3)}, rejected...)
}

const latticeSeed = 1

// latticeRows is the lattice when Job.validate rejects rejected: the
// retired tables' rows, then pairwise fill from seed.
func latticeRows(seed int64, rejected []pairwise.Pair) []latticeRow {
	var seeds [][]int
	for _, r := range retiredRows() {
		seeds = append(seeds, r[:])
	}
	var rows []latticeRow
	for _, r := range pairwise.Rows(latticeSizes(), latticeExcluded(rejected), seed, seeds) {
		rows = append(rows, latticeRow(r))
	}
	return rows
}

// retiredRows are the rows of the per-feature differential tables the
// lattice replaced, in their tables' order: the block codec at three
// pipeline widths, the streaming reduce, code-once over codec × spill
// regime × combiner, the map cache, in-node combining, remote execution
// with and without it, the networked shuffle and tracing.
func retiredRows() []latticeRow {
	var rs []latticeRow
	row := func(kv ...int) { rs = append(rs, lrow(kv...)) }
	for p := range latticeProcs {
		row(axCodec, 5, axProcs, p)
		row(axCodec, 5, axProcs, p, axShuffle, 2, axPar, 1)
		row(axCodec, 5, axProcs, p, axFaults, 1)
		row(axCodec, 5, axProcs, p, axShuffle, 2, axPar, 1, axFaults, 3)
	}
	row()
	row(axCodec, 1)
	row(axCodec, 2)
	row(axCodec, 1, axComb, 1)
	row(axCodec, 1, axTransform, 1)
	row(axTransform, 2)
	row(axCodec, 2, axTransform, 2)
	row(axShape, 2)
	row(axShape, 3)
	row(axShape, 4)
	row(axShape, 4, axTransform, 2)
	row(axCodec, 1, axTransform, 1, axFaults, 1)
	row(axCodec, 4, axFaults, 1)
	row(axCodec, 5, axTransform, 2, axFaults, 2)
	row(axShuffle, 2, axPar, 1, axFaults, 3)
	for s := range latticeSpills {
		for comb := range 2 {
			for _, cd := range []int{3, 4, 5} {
				row(axShape, 1, axSpill, s, axComb, comb, axCodec, cd)
			}
		}
	}
	row(axCache, 1)
	row(axCache, 1, axComb, 1)
	row(axCache, 1, axNodes, 2)
	row(axCache, 1, axShuffle, 2)
	for n := 1; n <= 3; n++ {
		row(axNodes, n)
	}
	row(axExec, 1, axComb, 1)
	row(axExec, 1, axComb, 1, axPar, 2)
	row(axExec, 1, axComb, 1, axNodes, 2, axPar, 1)
	row(axShuffle, 1)
	row(axShuffle, 2)
	row(axPar, 1, axObs, 1)
	row(axPar, 1, axFaults, 1, axObs, 1)
	return rs
}

// TestConfigLattice runs every lattice row through the one oracle.
func TestConfigLattice(t *testing.T) {
	l := newLattice()
	for i, r := range latticeRows(latticeSeed, latticeRejected) {
		t.Run(fmt.Sprintf("%03d:%s", i, r), func(t *testing.T) { l.check(t, r) })
	}
}

// FuzzConfigLattice draws one valid row per input and checks it.
func FuzzConfigLattice(f *testing.F) {
	for _, seed := range []int64{1, 7, 42} {
		f.Add(seed)
	}
	sizes := latticeSizes()
	ex := pairwise.Excluded(sizes, latticeExcluded(latticeRejected))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		r := pairwise.Unset(numAxes)
		pairwise.Fill(r, sizes, ex, rng.Perm(numAxes), func(_ int, ok []int) int { return ok[rng.Intn(len(ok))] })
		t.Log(latticeRow(r))
		newLattice().check(t, latticeRow(r))
	})
}

// TestConfigLatticeCoversEveryPair is the generator's self-test: every row
// is a job Job.validate accepts; every pair of axis values not excluded
// appears in a row; and Job.validate rejects a pair, on otherwise default
// axes, exactly when latticeRejected lists it. A pair it starts to accept
// is named with the rows the lattice gains once its exclusion goes.
func TestConfigLatticeCoversEveryPair(t *testing.T) {
	rows := latticeRows(latticeSeed, latticeRejected)
	covered := make(map[pairwise.Pair]bool)
	for _, r := range rows {
		if job, _ := r.job(t, testFS(), &memCache{}); job.validate() != nil {
			t.Errorf("row %s: %v", r, job.validate())
		}
		for _, p := range pairwise.RowPairs(r[:]) {
			covered[p] = true
		}
	}
	ex := pairwise.Excluded(latticeSizes(), latticeExcluded(latticeRejected))
	for _, p := range pairwise.Pairs(latticeSizes()) {
		if covered[p] == ex[p] {
			t.Errorf("%s with %s: excluded %v, held by a row %v", valueName(p[0]), valueName(p[1]), ex[p], covered[p])
		}
		r := lrow(p[0].Axis, p[0].Value, p[1].Axis, p[1].Value)
		job, _ := r.job(t, testFS(), &memCache{})
		rejected := slices.Contains(latticeRejected, p)
		if (job.validate() != nil) == rejected {
			continue
		}
		var gained []string
		for _, nr := range latticeRows(latticeSeed, slices.DeleteFunc(slices.Clone(latticeRejected), func(q pairwise.Pair) bool { return q == p })) {
			if nr[p[0].Axis] == p[0].Value && nr[p[1].Axis] == p[1].Value {
				gained = append(gained, nr.String())
			}
		}
		t.Errorf("Job.validate error %v on %s, listed as rejected %v; without the exclusion the lattice gains %q",
			job.validate(), r, rejected, gained)
	}
	t.Logf("%d rows hold %d pairs; %d excluded", len(rows), len(covered), len(ex))
}
