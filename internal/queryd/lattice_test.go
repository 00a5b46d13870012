package queryd

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"scikey/internal/cluster"
	"scikey/internal/clusterd"
	"scikey/internal/core"
	"scikey/internal/mapreduce"
	"scikey/internal/pairwise"
	"scikey/internal/scihadoop"
	"scikey/internal/workload"
)

// The product lattice is the query's one "same windows as the reference"
// suite, one level above the engine's configuration lattice. A row is a
// QuerySpec plus the one-shot executor's shuffle transport; it runs on every
// executor that admits it — one-shot at Parallelism 1, an in-process
// clusterd of a coordinator and three workers that build their jobs with
// BuildRunner (what scijob -worker runs), and the service cold then warm —
// and one oracle holds each run to scihadoop.Reference cell by cell (the
// service, which returns no cells, to the one-shot run's sha), every
// executor of a row to the same output sha and payload counters, and every
// run to the exact rules checkRules names, keyed on row values. The rows are
// seeded by the query tables the lattice replaced, then filled pairwise.

// Axes. Value 0 of each is its default.
const (
	qxKeys = iota // key shape, with its curve
	qxCodec
	qxOp
	qxCombine
	qxNodes // combine_nodes
	qxRadius
	qxFlush
	qxSide
	qxShape // splits × reducers
	qxFaults
	qxShuffle // the one-shot executor's transport
	numQAxes
)

type queryAxis struct {
	name   string
	values []string
}

var queryAxes = [numQAxes]queryAxis{
	qxKeys: {"keys", []string{"baseline", "aggregation-zorder", "aggregation-hilbert", "aggregation-rowmajor",
		"aggregation-peano", "boxes"}},
	qxCodec:   {"codec", []string{"none", "zlib", "transform+zlib", "transform+none", "block+transform+zlib"}},
	qxOp:      {"op", []string{"max", "median"}},
	qxCombine: {"combine", []string{"off", "on"}},
	qxNodes:   {"nodes", []string{"0", "1", "2", "3"}},
	qxRadius:  {"radius", []string{"1", "2"}},
	qxFlush:   {"flush", []string{"0", "32"}},
	qxSide:    {"side", []string{"12", "1", "3", "20"}},
	qxShape:   {"shape", []string{"4x3", "2x2", "1x1", "3x5"}},
	qxFaults:  {"faults", []string{"none", "corrupt", "error"}},
	qxShuffle: {"shuffle", []string{"mem", "tcp"}},
}

var (
	querySides  = []int{12, 1, 3, 20}
	queryShapes = [][2]int{{4, 3}, {2, 2}, {1, 1}, {3, 5}}
	// queryFaults fire on every shape: map task 0 and partition 0 always
	// exist.
	queryFaults = []string{"", "seed=7;segment:0.0:corrupt@0", "seed=9;map:0:error@0;reduce:0:error@0"}
)

// clusterWorkers is the in-process cluster's worker count.
const clusterWorkers = 3

func querySizes() []int {
	sizes := make([]int, numQAxes)
	for a, ax := range queryAxes {
		sizes[a] = len(ax.values)
	}
	return sizes
}

func queryValueName(v pairwise.Value) string {
	return queryAxes[v.Axis].name + "=" + queryAxes[v.Axis].values[v.Value]
}

// queryRow holds one value per axis.
type queryRow [numQAxes]int

func (r queryRow) String() string {
	var parts []string
	for a, v := range r {
		if v != 0 {
			parts = append(parts, queryValueName(pairwise.Value{Axis: a, Value: v}))
		}
	}
	if parts == nil {
		return "defaults"
	}
	return strings.Join(parts, ",")
}

// spec is the row's QuerySpec. Simple keys under the predictor are spelled
// as Section III's "transform" alias, which moves a block+ back in front.
func (r queryRow) spec() QuerySpec {
	strategy, curve, _ := strings.Cut(queryAxes[qxKeys].values[r[qxKeys]], "-")
	codec := queryAxes[qxCodec].values[r[qxCodec]]
	if rest := strings.Replace(codec, "transform+", "", 1); strategy == "baseline" && rest != codec {
		strategy, codec = "transform", rest
	}
	return QuerySpec{
		Side:         querySides[r[qxSide]],
		Strategy:     strategy,
		Codec:        codec,
		Curve:        curve,
		Op:           queryAxes[qxOp].values[r[qxOp]],
		Combine:      r[qxCombine] == 1,
		CombineNodes: r[qxNodes],
		Radius:       r[qxRadius] + 1,
		Flush:        32 * r[qxFlush],
		Splits:       queryShapes[r[qxShape]][0],
		Reducers:     queryShapes[r[qxShape]][1],
		Faults:       queryFaults[r[qxFaults]],
	}
}

// runOptions are the run-time options the one-shot and cluster executors
// layer on the spec, as scijob's flags do: three attempts per task on a
// faulty row, the row's transport on the one-shot executor.
func (r queryRow) runOptions(qcfg *scihadoop.QueryConfig) {
	qcfg.Parallelism = 1
	if r[qxFaults] != 0 {
		qcfg.Retry = mapreduce.RetryPolicy{MaxAttempts: 3}
	}
	if r[qxShuffle] == 1 {
		qcfg.Shuffle = &mapreduce.ShuffleConfig{Mode: mapreduce.ShuffleTCP}
	}
}

// The executors a row can run on.
const (
	execOneShot = "oneshot"
	execCluster = "cluster"
	execQueryd  = "queryd"
)

// executors are those that admit r: the cluster carries map output through
// its coordinator, never a networked shuffle (Job.validate), and the service
// takes no fault schedule and no window wider than the grid (admissible).
func (r queryRow) executors() []string {
	out := []string{execOneShot}
	if r[qxShuffle] == 0 {
		out = append(out, execCluster)
	}
	if s := r.spec(); r[qxFaults] == 0 && s.Radius < s.Side {
		out = append(out, execQueryd)
	}
	return out
}

// queryRejected are the pairs QuerySpec.Validate rejects: in-node
// combining needs an operator with a monoid, and a node-group count needs
// combining on.
var queryRejected = []pairwise.Pair{
	pairwise.PairOf(qxOp, 1, qxCombine, 1),
	pairwise.PairOf(qxCombine, 0, qxNodes, 1),
	pairwise.PairOf(qxCombine, 0, qxNodes, 2),
	pairwise.PairOf(qxCombine, 0, qxNodes, 3),
}

const queryLatticeSeed = 1

// queryRows is the lattice: the rows of the tables it replaced, then
// pairwise fill.
func queryRows() []queryRow {
	var rows []queryRow
	for _, r := range pairwise.Rows(querySizes(), queryRejected, queryLatticeSeed, retiredQueryRows()) {
		rows = append(rows, queryRow(r))
	}
	return rows
}

// retiredQueryRows stand for the cases of the query tables the lattice
// replaced, written as their row names.
func retiredQueryRows() [][]int {
	names := []string{
		// Each key geometry's median, on every curve.
		"op=median,side=20",
		"keys=aggregation-zorder,op=median,side=20",
		"keys=aggregation-hilbert,op=median,side=20",
		"keys=aggregation-rowmajor,op=median,side=20",
		"keys=aggregation-peano,op=median,side=20",
		"keys=boxes,op=median,side=20",
		// Box keys' max, small flush thresholds, the transform codec, max
		// with the map-side combiner, a 1x1 grid and a window wider than
		// the grid.
		"keys=boxes,shape=2x2",
		"keys=boxes,op=median,flush=32,shape=3x5",
		"keys=aggregation-zorder,op=median,flush=32",
		"codec=transform+zlib,op=median,shape=2x2",
		"shape=2x2",
		"op=median,side=1",
		"keys=aggregation-zorder,op=median,side=1,shape=2x2",
		"keys=aggregation-zorder,op=median,radius=2,side=3,shape=2x2",
	}
	// In-node combining on every key geometry and transport, in one node
	// group and two.
	for _, keys := range []string{"baseline", "aggregation-zorder", "boxes"} {
		for _, shuffle := range []string{"mem", "tcp"} {
			for _, nodes := range []string{"1", "2"} {
				names = append(names, "keys="+keys+",combine=on,nodes="+nodes+",side=20,shuffle="+shuffle)
			}
		}
	}
	names = append(names,
		// Combining under a corrupt segment, and the service's parallel
		// attempts on each strategy.
		"combine=on,nodes=1,side=20,faults=corrupt",
		"op=median,side=20,shape=3x5",
		"codec=transform+zlib,op=median,side=20,shape=3x5",
		"keys=aggregation-zorder,combine=on,nodes=2,side=20,shape=3x5",
		// E6's zlib-alone control, and Section IV's keys under Section
		// III's codecs.
		"codec=zlib,op=median,side=20",
		"keys=aggregation-zorder,codec=zlib,op=median,side=20",
		"keys=boxes,codec=transform+zlib,op=median,side=20",
	)
	var rs [][]int
	for _, name := range names {
		r := rowNamed(name)
		rs = append(rs, r[:])
	}
	return rs
}

// rowNamed is the row String names name, each axis=value a value of the
// axis's list; an axis not named keeps its default.
func rowNamed(name string) queryRow {
	var r queryRow
	for _, kv := range strings.Split(name, ",") {
		axis, value, _ := strings.Cut(kv, "=")
		a := slices.IndexFunc(queryAxes[:], func(ax queryAxis) bool { return ax.name == axis })
		if a < 0 || !slices.Contains(queryAxes[a].values, value) {
			panic("lattice: no axis value " + kv)
		}
		r[a] = slices.Index(queryAxes[a].values, value)
	}
	return r
}

// queryRun is one executor's outcome of a row.
type queryRun struct {
	sha     string
	payload [10]int64
}

// TestQueryLattice runs every row on every executor that admits it, each
// as a subtest named exec=<executor>, and holds the executors of a row to
// one sha and one set of payload counters.
func TestQueryLattice(t *testing.T) {
	for i, r := range queryRows() {
		t.Run(fmt.Sprintf("%03d:%s", i, r), func(t *testing.T) {
			runs := make(map[string]queryRun)
			var ran []string
			for _, exec := range r.executors() {
				if t.Run("exec="+exec, func(t *testing.T) { runs[exec] = checkQuery(t, r, exec) }) {
					ran = append(ran, exec)
				}
			}
			for _, exec := range ran[min(1, len(ran)):] {
				got, want := runs[exec], runs[ran[0]]
				if got.sha != want.sha {
					t.Errorf("%s output sha %.12s, %s %.12s", exec, got.sha, ran[0], want.sha)
				}
				if got.payload != want.payload {
					t.Errorf("%s payload counters %v, %s %v", exec, got.payload, ran[0], want.payload)
				}
			}
		})
	}
}

// checkQuery runs row r on exec and holds the run to the oracle.
func checkQuery(t *testing.T, r queryRow, exec string) queryRun {
	spec := r.spec()
	if exec == execQueryd {
		return checkService(t, r, spec)
	}
	fs, qcfg, strat, err := spec.Setup()
	if err != nil {
		t.Fatal(err)
	}
	r.runOptions(&qcfg)
	if exec == execCluster {
		remote := startQueryCluster(t, spec)
		// What scijob -cluster runs: the spec's faults fire in the workers,
		// the driver runs no attempt and needs no injector.
		qcfg.Remote, qcfg.Faults = remote, nil
		qcfg.Parallelism = 2 * clusterWorkers
	}
	rep, res, err := core.RunQueryResult(fs, qcfg, strat, cluster.Paper(), true)
	if err != nil {
		t.Fatal(err)
	}
	field := &workload.Field{Extent: qcfg.DS.Extent, Name: qcfg.DS.Var.Name}
	want := scihadoop.Reference(field, qcfg.DS.Extent, spec.Radius, qcfg.Op)
	bad := 0
	for k, w := range want {
		if g, ok := rep.Output[k]; !ok || g != w {
			if bad++; bad <= 3 {
				t.Errorf("cell %s = %d (present %v), reference %d", k, g, ok, w)
			}
		}
	}
	if bad > 0 || len(rep.Output) != len(want) {
		t.Errorf("%d of %d reference cells wrong, %d output cells", bad, len(want), len(rep.Output))
	}
	checkRules(t, r, exec, rep, res.Counters)
	sha, err := OutputSHA(fs, res)
	if err != nil {
		t.Fatal(err)
	}
	return queryRun{sha, payloadCounters(rep)}
}

// checkRules holds a run to the rules keyed on row values, the exact
// assertions of the tables the lattice replaced.
func checkRules(t *testing.T, r queryRow, exec string, rep *core.Report, c *mapreduce.Counters) {
	t.Helper()
	spec := r.spec()
	window := int64(2*spec.Radius+1) * int64(2*spec.Radius+1)
	simple := int64(spec.Side) * int64(spec.Side) * window
	aggregating := spec.Strategy == "aggregation" || spec.Strategy == "boxes"
	if !aggregating && rep.MapOutputRecords != simple {
		// Simple keys: one record per cell and window target.
		t.Errorf("%d map output records, want side²·(2r+1)² = %d", rep.MapOutputRecords, simple)
	}
	if aggregating && rep.MapOutputRecords >= simple {
		t.Errorf("aggregate keys: %d map output records, simple keys emit %d", rep.MapOutputRecords, simple)
	}
	// A max query over simple keys runs the map-side combiner on every
	// record; no other query has one. The service reports no engine
	// counters.
	if c != nil {
		want := int64(0)
		if !aggregating && spec.Op == "max" {
			want = rep.MapOutputRecords
		}
		if got := c.CombineInputRecords.Value(); got != want {
			t.Errorf("map-side combiner took %d records, want %d", got, want)
		}
	}
	// An entropy codec under any key shape materializes fewer bytes than
	// the keys and values it codes.
	if codec := queryAxes[qxCodec].values[r[qxCodec]]; !strings.HasSuffix(codec, "none") && spec.Side >= 12 &&
		rep.MaterializedBytes >= rep.KeyBytes+rep.ValueBytes {
		t.Errorf("codec %s: %d materialized bytes for %d B of keys and values", codec, rep.MaterializedBytes, rep.KeyBytes+rep.ValueBytes)
	}
	if aggregating && spec.Splits > 1 && spec.Side >= 12 && rep.OverlapSplits == 0 {
		t.Errorf("aggregate keys of %d map tasks: no overlap key split", spec.Splits)
	}
	if spec.Strategy == "boxes" && spec.Reducers > 1 && spec.Side >= 12 && rep.PartitionSplits == 0 {
		t.Errorf("box keys over %d reducers: no partition key split", spec.Reducers)
	}
	// In-node combining: off, it counts nothing; on, on a grid of more
	// than a few rows, it folds — aggregate keys always, simple keys (each
	// task's already folded by its map-side combiner) when adjacent tasks
	// share one node group, that is in one group (nodes 0 is the default
	// count, three groups, on every executor and shuffle) — and saves
	// shuffle bytes whenever it folds.
	merged, emitted, saved := rep.CombineMergedRecords, rep.CombineEmittedRecords, rep.CombineSavedBytes
	qcfg, _, _ := spec.queryConfig()
	groups := qcfg.WithDefaults().CombineNodes
	switch {
	case !spec.Combine && merged|emitted|saved != 0:
		t.Errorf("combining off: %d folded, %d emitted, %d B saved", merged, emitted, saved)
	case spec.Combine && spec.Side >= 12 && (aggregating || groups <= 1 && spec.Splits > 1) && merged <= 0:
		t.Errorf("combining in %d node groups folded nothing", groups)
	case merged > 0 && saved <= 0:
		t.Errorf("combining folded %d records, saved %d shuffle bytes", merged, saved)
	}
	// A faulty row's fault fires and is recovered from; a clean row wastes
	// no attempt.
	recovery := [4]int64{rep.FailedAttempts, rep.TaskRetries, rep.CorruptSegments, rep.RecoveredMaps}
	switch r[qxFaults] {
	case 0:
		if recovery != [4]int64{} {
			t.Errorf("a clean run recovered: failed, retries, corrupt, recovered %v", recovery)
		}
	case 1:
		if rep.CorruptSegments == 0 || rep.RecoveredMaps == 0 {
			t.Errorf("corrupt segment: failed, retries, corrupt, recovered %v", recovery)
		}
	case 2:
		if rep.FailedAttempts < 2 || rep.TaskRetries < 2 {
			t.Errorf("map and reduce errors: failed, retries, corrupt, recovered %v", recovery)
		}
	}
	if fetched := rep.ShuffleFetches > 0; fetched != (r[qxShuffle] == 1 && exec == execOneShot) {
		t.Errorf("%d networked shuffle fetches", rep.ShuffleFetches)
	}
}

// checkService submits r twice to a fresh service: the cold run executes
// the map phase, the warm one restores it from the segment cache.
func checkService(t *testing.T, r queryRow, spec QuerySpec) queryRun {
	svc := New(Config{Store: localStore(), Workers: 2})
	defer svc.Close()
	var runs [2]queryRun
	for warm := range 2 {
		resp, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if resp.CacheHit != (warm == 1) {
			t.Errorf("run %d: cache hit %v", warm, resp.CacheHit)
		}
		checkRules(t, r, execQueryd, resp.Report, nil)
		runs[warm] = queryRun{resp.OutputSHA, payloadCounters(resp.Report)}
	}
	if runs[1] != runs[0] {
		t.Errorf("warm run %v, cold %v", runs[1], runs[0])
	}
	return runs[0]
}

// startQueryCluster boots a coordinator serving spec and three workers
// building their runners with BuildRunner, and returns a dialed driver
// client; everything stops when the test ends.
func startQueryCluster(t *testing.T, spec QuerySpec) *clusterd.Client {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := clusterd.Start(clusterd.Config{Addr: "127.0.0.1:0", Spec: raw, HeartbeatEvery: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var workers []*clusterd.Worker
	done := make(chan error, clusterWorkers)
	for range clusterWorkers {
		w := clusterd.NewWorker(clusterd.WorkerConfig{Addr: c.Addr(), Build: BuildRunner})
		workers = append(workers, w)
		go func() { done <- w.Run() }()
	}
	t.Cleanup(func() {
		for _, w := range workers {
			w.Stop()
		}
		c.Close()
		for range workers {
			if err := <-done; err != nil {
				t.Errorf("worker: %v", err)
			}
		}
	})
	cl, err := clusterd.Dial(clusterd.ClientConfig{Addr: c.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestQueryLatticeCoversEveryPair is the generator's self-test: every row's
// spec validates; every pair of axis values not excluded appears in a row;
// QuerySpec.Validate rejects a pair, on the lowest values of the other axes
// no exclusion forbids, exactly when it is excluded; and each row runs on exactly the executors whose own
// checks admit it — the service's admissible, and Job.validate of the job
// with a remote executor attached.
func TestQueryLatticeCoversEveryPair(t *testing.T) {
	sizes := querySizes()
	rows := queryRows()
	covered := make(map[pairwise.Pair]bool)
	admits := make(map[string]int)
	for _, r := range rows {
		spec := r.spec()
		if err := spec.Validate(); err != nil {
			t.Errorf("row %s: %v", r, err)
		}
		for _, p := range pairwise.RowPairs(r[:]) {
			covered[p] = true
		}
		want := []string{execOneShot}
		if remoteAdmits(t, r) {
			want = append(want, execCluster)
		}
		if admissible(spec) == nil {
			want = append(want, execQueryd)
		}
		if !slices.Equal(r.executors(), want) {
			t.Errorf("row %s runs on %v, admitted by %v", r, r.executors(), want)
		}
		for _, exec := range want {
			admits[exec]++
		}
	}
	ex := pairwise.Excluded(sizes, queryRejected)
	order := make([]int, numQAxes)
	for a := range order {
		order[a] = a
	}
	for _, p := range pairwise.Pairs(sizes) {
		if covered[p] == ex[p] {
			t.Errorf("%s with %s: excluded %v, held by a row %v", queryValueName(p[0]), queryValueName(p[1]), ex[p], covered[p])
		}
		// The pair on the lowest values of the other axes that no excluded
		// pair forbids (defaults where none is left).
		r := pairwise.Unset(numQAxes)
		r[p[0].Axis], r[p[1].Axis] = p[0].Value, p[1].Value
		pairwise.Fill(r, sizes, ex, order, func(_ int, ok []int) int { return append(ok, 0)[0] })
		if err := queryRow(r).spec().Validate(); (err != nil) != ex[p] {
			t.Errorf("QuerySpec.Validate error %v on %s, excluded %v", err, queryRow(r), ex[p])
		}
	}
	t.Logf("%d rows hold %d pairs; %d excluded; executor runs %v", len(rows), len(covered), len(ex), admits)
}

// errNotRun is what noRemote answers every attempt with.
var errNotRun = errors.New("not run")

// noRemote is a remote executor that runs nothing.
type noRemote struct{}

func (noRemote) RunRemote(string, int, int, func() bool) (*mapreduce.RemoteResult, error) {
	return nil, errNotRun
}

func (noRemote) PublishRemote(int, int, [][]byte) {}

// remoteAdmits reports whether the engine accepts r's one-shot job with a
// remote executor attached: Job.validate runs before any attempt, so a job
// it accepts fails on noRemote's first attempt instead.
func remoteAdmits(t *testing.T, r queryRow) bool {
	fs, qcfg, strat, err := r.spec().Setup()
	if err != nil {
		t.Fatal(err)
	}
	r.runOptions(&qcfg)
	qcfg.Remote, qcfg.Faults, qcfg.Retry = noRemote{}, nil, mapreduce.RetryPolicy{}
	_, err = core.RunQuery(fs, qcfg, strat, cluster.Paper(), false)
	return errors.Is(err, errNotRun)
}
