// E17 (extension): resident query service cache behavior — a repeated-query
// mix against one service, verifying that every repeat skips the map phase
// via the shared segment cache while staying byte-identical to an
// independent one-shot run. Lives in the driver (not internal/experiments)
// because queryd already imports experiments for dataset setup.
package main

import (
	"fmt"

	"scikey/internal/cluster"
	"scikey/internal/core"
	"scikey/internal/hdfs"
	"scikey/internal/obs"
	"scikey/internal/queryd"
	"scikey/internal/store"
)

// e17Row is the service's measured cache behavior.
type e17Row struct {
	Submitted  int
	ColdRuns   int
	CacheHits  int64
	HitRate    float64
	Identical  bool // every repeat's sha matched its cold run AND the one-shot baseline
	MapSkipped bool // warm submissions scheduled zero new map attempts
}

// e17Specs is the repeated-query mix: three distinct queries, then a rerun
// pass over all of them. 3 cold + 5 warm = 62.5% hit rate by construction.
func e17Specs(side int) []queryd.QuerySpec {
	base := queryd.QuerySpec{Side: side, Op: "median", Radius: 1, Splits: 4, Reducers: 2}
	a := base
	a.Strategy = "baseline"
	b := base
	b.Strategy = "transform"
	b.Codec = "block+zlib"
	c := base
	c.Strategy = "aggregation"
	c.Curve = "zorder"
	return []queryd.QuerySpec{a, b, c, b, a, c, b, a}
}

// e17OneShot runs a spec with no service and no cache — the independent
// byte-identity baseline.
func e17OneShot(spec queryd.QuerySpec) (string, error) {
	fs, qcfg, strat, err := spec.Setup()
	if err != nil {
		return "", err
	}
	_, res, err := core.RunQueryResult(fs, qcfg, strat, cluster.Paper(), false)
	if err != nil {
		return "", err
	}
	return queryd.OutputSHA(fs, res)
}

// runE17 exercises the service's cache over the HDFS-backed store.
func runE17(side int) (e17Row, error) {
	specs := e17Specs(side)
	// One-shot baselines, one per distinct cache key.
	baseline := make(map[string]string)
	for _, spec := range specs {
		key := spec.CacheKey()
		if _, ok := baseline[key]; ok {
			continue
		}
		sha, err := e17OneShot(spec)
		if err != nil {
			return e17Row{}, err
		}
		baseline[key] = sha
	}

	ob := obs.New()
	svc := queryd.New(queryd.Config{
		Store: store.NewLocal(hdfs.New(256<<20, 3, []string{"c0", "c1", "c2"}), "/store"),
		Obs:   ob,
	})
	defer svc.Close()
	row := e17Row{Submitted: len(specs), Identical: true, MapSkipped: true}
	mapAttempts := func() int64 {
		return ob.R().Histogram("scikey_attempt_seconds",
			"Duration of task attempts by phase", "seconds", nil, obs.L("phase", "map")).Count()
	}
	for _, spec := range specs {
		before := mapAttempts()
		resp, err := svc.Submit(spec)
		if err != nil {
			return e17Row{}, fmt.Errorf("submit: %w", err)
		}
		if resp.OutputSHA != baseline[spec.CacheKey()] {
			row.Identical = false
		}
		if resp.CacheHit {
			if mapAttempts() != before {
				row.MapSkipped = false
			}
		} else {
			row.ColdRuns++
		}
	}
	row.CacheHits = ob.R().Counter("scikey_cache_hit_total", "Map-output cache hits", "").Value()
	row.HitRate = float64(row.CacheHits) / float64(len(specs)) * 100
	return row, nil
}
