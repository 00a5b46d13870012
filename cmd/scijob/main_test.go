package main

import (
	"encoding/json"
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"scikey/internal/core"
	"scikey/internal/queryd"
)

// goodSpec is a spec every execution path accepts; each parity case breaks
// exactly one field.
func goodSpec() queryd.QuerySpec {
	return queryd.QuerySpec{
		Side:     24,
		Strategy: "baseline",
		Op:       "median",
		Radius:   1,
		Splits:   4,
		Reducers: 2,
	}
}

// TestValidationParity: the early flag validation (queryd.QuerySpec.Validate,
// what the CLI and the resident service run before any machinery) and the
// deep path (queryd.BuildRunner — Setup, then core.BuildJob — what a cluster
// worker runs when it rebuilds a wire spec) must reject the same bad spec
// with the same error text — no flag combination may pass one gate and fail
// the other differently.
func TestValidationParity(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*queryd.QuerySpec)
	}{
		{"combine_nodes_without_combine", func(s *queryd.QuerySpec) { s.CombineNodes = 3 }},
		{"negative_splits", func(s *queryd.QuerySpec) { s.Splits = -1 }},
		{"negative_reducers", func(s *queryd.QuerySpec) { s.Reducers = -2 }},
		{"negative_radius", func(s *queryd.QuerySpec) { s.Radius = -1 }},
		{"combine_holistic_op", func(s *queryd.QuerySpec) { s.Combine = true }},
		{"unknown_codec", func(s *queryd.QuerySpec) { s.Strategy, s.Codec = "transform", "nope" }},
		{"transform_stack_as_codec", func(s *queryd.QuerySpec) { s.Strategy, s.Codec = "transform", "transform+zlib" }},
		{"nested_block_codec", func(s *queryd.QuerySpec) { s.Strategy, s.Codec = "transform", "block+block+zlib" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := goodSpec()
			tc.mut(&spec)

			early := spec.Validate()
			if early == nil {
				t.Fatal("early validation accepted the bad spec")
			}

			raw, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			_, late := queryd.BuildRunner(raw)
			if late == nil {
				t.Fatal("BuildRunner accepted the bad spec the early path rejected")
			}
			if early.Error() != late.Error() {
				t.Fatalf("validation paths drifted:\n  early: %s\n  late:  %s", early, late)
			}
		})
	}
}

// TestValidSpecPassesBothPaths pins the inverse: a good spec clears early
// validation and builds a job.
func TestValidSpecPassesBothPaths(t *testing.T) {
	spec := goodSpec()
	if err := spec.Validate(); err != nil {
		t.Fatalf("early validation rejected a good spec: %v", err)
	}
	fs, qcfg, strat, err := spec.Setup()
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	if _, err := core.BuildJob(fs, qcfg, strat); err != nil {
		t.Fatalf("BuildJob rejected a good spec: %v", err)
	}
}

// TestSetupHonoursEverySpecField is TestValidationParity's sibling for the
// build side. Every front end — the one-shot CLI, the resident service, the
// cluster workers, the benchmark — builds its query through
// QuerySpec.Setup and layers only run-time fields on top, so a spec field
// can be dropped in exactly one place: Setup itself. For each field this
// perturbs one value (on a base where the field is meaningful) and requires
// the filesystem-independent part of Setup's result to change. The loop is
// driven by reflection: a field added to QuerySpec later fails here until it
// gets a case showing Setup honours it, or an exemption with its reason.
func TestSetupHonoursEverySpecField(t *testing.T) {
	type spec = queryd.QuerySpec
	both := func(common func(*spec), changed func(*spec)) func(base, s *spec) {
		return func(base, s *spec) {
			if common != nil {
				common(base)
				common(s)
			}
			changed(s)
		}
	}
	agg := func(s *spec) { s.Strategy = "aggregation" }
	perturb := map[string]func(base, s *spec){
		"Side":     both(nil, func(s *spec) { s.Side = 32 }),
		"Strategy": both(nil, func(s *spec) { s.Strategy = "boxes" }),
		"Codec":    both(func(s *spec) { s.Strategy = "transform" }, func(s *spec) { s.Codec = "gzip" }),
		"Curve":    both(agg, func(s *spec) { s.Curve = "hilbert" }),
		"Flush":    both(agg, func(s *spec) { s.Flush = 64 }),
		"Op":       both(nil, func(s *spec) { s.Op = "max" }),
		"Combine":  both(func(s *spec) { s.Op = "max" }, func(s *spec) { s.Combine = true }),
		"CombineNodes": both(func(s *spec) { s.Op, s.Combine = "max", true },
			func(s *spec) { s.CombineNodes = 2 }),
		"Radius":   both(nil, func(s *spec) { s.Radius = 2 }),
		"Splits":   both(nil, func(s *spec) { s.Splits = 3 }),
		"Reducers": both(nil, func(s *spec) { s.Reducers = 3 }),
		"Faults":   both(nil, func(s *spec) { s.Faults = "map:0:error@0" }),
		// Tenant is quota accounting only; it must never shape the job (the
		// segment cache is shared across tenants on that promise).
		"Tenant": nil,
	}
	// built is what Setup decides, minus what differs between any two calls
	// (the fresh filesystem, the injector's identity).
	type built struct {
		qcfg      any
		strat     core.Strategy
		hasFaults bool
	}
	setup := func(s spec) built {
		t.Helper()
		if err := s.Validate(); err != nil {
			t.Fatalf("case uses an invalid spec %+v: %v", s, err)
		}
		_, qcfg, strat, err := s.Setup()
		if err != nil {
			t.Fatalf("Setup(%+v): %v", s, err)
		}
		b := built{strat: strat, hasFaults: qcfg.Faults != nil}
		qcfg.Faults = nil
		b.qcfg = qcfg
		return b
	}
	typ := reflect.TypeOf(spec{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		mut, ok := perturb[name]
		if !ok {
			t.Errorf("QuerySpec.%s has no case: show that Setup honours it, or exempt it with the reason", name)
			continue
		}
		if mut == nil {
			continue
		}
		base, changed := goodSpec(), goodSpec()
		mut(&base, &changed)
		if reflect.DeepEqual(setup(base), setup(changed)) {
			t.Errorf("Setup drops QuerySpec.%s: %+v and %+v build the same query", name, base, changed)
		}
	}
}

// parse runs one command line through the bindings main uses.
func parse(t *testing.T, args ...string) (*options, error) {
	t.Helper()
	fs := flag.NewFlagSet("scijob", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseFlags(fs, args)
}

// TestModeValidation table-tests the mode step of flag validation: each
// rejected line names a combination some mode would silently ignore — in
// particular -verify, -trace-out and -metrics-out anywhere this invocation
// runs no job, which used to exit 0 having verified and written nothing, and
// a flag owned by one mode set under another (-heartbeat on a one-shot run,
// -tenant without -submit), which used to be dropped the same way.
func TestModeValidation(t *testing.T) {
	cases := []struct {
		args string
		want string // substring of the error; "" = accepted
	}{
		{"-verify", ""},
		{"-cluster 3 -verify -trace-out t.json -metrics-out m.prom", ""},
		{"-driver 127.0.0.1:1 -verify", ""},
		{"-submit 127.0.0.1:1", ""},
		{"-coordinator 127.0.0.1:1 -journal j -debug-addr 127.0.0.1:2", ""},
		{"-submit 127.0.0.1:1 -verify", "act on the job this invocation runs"},
		{"-submit 127.0.0.1:1 -trace-out t.json", "act on the job this invocation runs"},
		{"-submit 127.0.0.1:1 -metrics-out m.prom", "act on the job this invocation runs"},
		{"-serve 127.0.0.1:0 -verify", "act on the job this invocation runs"},
		{"-serve 127.0.0.1:0 -metrics-out m.prom", "act on the job this invocation runs"},
		{"-worker 127.0.0.1:1 -trace-out t.json", "act on the job this invocation runs"},
		{"-scrape 127.0.0.1:1/metrics -verify", "act on the job this invocation runs"},
		{"-coordinator 127.0.0.1:1 -journal j -verify", "act on the job this invocation runs"},
		{"-shuffle udp", "unknown -shuffle transport"},
		{"-shuffle net", "want mem or tcp"},
		{"-cluster 3 -shuffle tcp", "cluster modes use the in-memory shuffle"},
		{"-worker 127.0.0.1:1 -shuffle tcp", "cluster modes use the in-memory shuffle"},
		{"-serve 127.0.0.1:0 -submit 127.0.0.1:1", "mutually exclusive"},
		{"-cluster -1", "positive worker count"},
		{"-journal j", "-journal belongs to the coordinator"},
		{"-coordinator 127.0.0.1:1", "-coordinator needs -journal"},
		{"-cluster 3 -heartbeat 50ms -lease-ttl 400ms", ""},
		{"-coordinator 127.0.0.1:1 -journal j -lease-ttl 2s", ""},
		{"-serve 127.0.0.1:0 -queue-depth 4 -serve-workers 1 -quota 3 -quotas bob=5", ""},
		{"-submit 127.0.0.1:1 -tenant bob", ""},
		{"-shuffle tcp -nodes 7 -fetch-attempts 2 -fetch-timeout 1s", ""},
		{"-shuffle tcp -nodes 2", ""},
		{"-side 32 -heartbeat 5s -tenant bob -nodes 7 -fetch-timeout 1s -quota 3", "only takes effect with"},
		{"-heartbeat 5s", "-heartbeat only takes effect with -cluster or -coordinator"},
		{"-driver 127.0.0.1:1 -lease-ttl 1s", "-lease-ttl only takes effect with -cluster or -coordinator"},
		{"-store object", "flag provided but not defined: -store"},
		{"-submit 127.0.0.1:1 -queue-depth 4", "-queue-depth only takes effect with -serve"},
		{"-cluster 3 -serve-workers 2", "-serve-workers only takes effect with -serve"},
		{"-quota 3", "-quota only takes effect with -serve"},
		{"-submit 127.0.0.1:1 -quotas bob=5", "-quotas only takes effect with -serve"},
		{"-tenant bob", "-tenant only takes effect with -submit"},
		{"-serve 127.0.0.1:0 -tenant bob", "-tenant only takes effect with -submit"},
		{"-nodes 7", "-nodes only takes effect with -shuffle tcp"},
		{"-shuffle mem -fetch-attempts 2", "-fetch-attempts only takes effect with -shuffle tcp"},
		{"-fetch-timeout 1s", "-fetch-timeout only takes effect with -shuffle tcp"},
	}
	for _, tc := range cases {
		_, err := parse(t, strings.Fields(tc.args)...)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%q rejected: %v", tc.args, err)
		case tc.want != "" && err == nil:
			t.Errorf("%q accepted, want an error containing %q", tc.args, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%q: error %q does not contain %q", tc.args, err, tc.want)
		}
	}
}

// TestClusterForwarding: the -cluster supervisor forwards the query-shaping
// and daemon flags by iterating the bound set, so the coordinator
// subprocess, parsing them through the same bindings, must end up with the
// identical QuerySpec and daemon settings.
func TestClusterForwarding(t *testing.T) {
	cases := [][]string{
		{"-cluster", "3"},
		{"-cluster", "3", "-strategy", "transform", "-codec", "block+zlib"},
		{"-cluster", "3", "-op", "max", "-combine"},
		{"-cluster", "2", "-side", "64", "-strategy", "aggregation", "-curve", "hilbert", "-flush", "64",
			"-radius", "2", "-splits", "4", "-reducers", "3"},
		{"-cluster", "3", "-faults", "seed=1;proc:0.0:kill@0;map:1:error@0", "-retries", "4", "-verify"},
		{"-cluster", "3", "-heartbeat", "50ms", "-lease-ttl", "400ms", "-journal", "j"},
	}
	for _, args := range cases {
		driver, err := parse(t, args...)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		fwd := driver.coordinatorArgs()
		daemon, err := parse(t, append([]string{"-coordinator", "127.0.0.1:1", "-journal", "j"}, fwd...)...)
		if err != nil {
			t.Fatalf("%v: forwarded %v rejected: %v", args, fwd, err)
		}
		if daemon.spec != driver.spec {
			t.Errorf("%v: forwarded %v\n daemon spec %+v\n driver spec %+v", args, fwd, daemon.spec, driver.spec)
		}
		if daemon.heartbeat != driver.heartbeat || daemon.leaseTTL != driver.leaseTTL {
			t.Errorf("%v: daemon heartbeat/lease-ttl %v/%v, driver %v/%v", args,
				daemon.heartbeat, daemon.leaseTTL, driver.heartbeat, driver.leaseTTL)
		}
		if daemon.verify || daemon.run.Retry.MaxAttempts != 1 || daemon.clusterN != 0 {
			t.Errorf("%v: driver-only flags leaked into forwarded args %v", args, fwd)
		}
	}
	// -cluster builds the job a one-shot run of the same query flags builds:
	// the node-group count defaults alike in every mode.
	cluster, err := parse(t, "-cluster", "5", "-op", "max", "-combine")
	if err != nil {
		t.Fatal(err)
	}
	oneShot, err := parse(t, "-op", "max", "-combine")
	if err != nil {
		t.Fatal(err)
	}
	if cluster.spec != oneShot.spec {
		t.Errorf("-cluster 5 builds spec %+v, one-shot %+v", cluster.spec, oneShot.spec)
	}
}
