// Resident-service wiring: -serve hosts the multi-tenant query daemon,
// -submit posts this invocation's query flags to one, and -scrape fetches a
// URL (usually /metrics) so scripts need no external HTTP client.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"scikey/internal/hdfs"
	"scikey/internal/obs"
	"scikey/internal/queryd"
	"scikey/internal/store"
)

// serveConfig is the -serve daemon's flags, bound in bindFlags.
type serveConfig struct {
	addr       string
	queueDepth int
	workers    int
	quota      float64 // default per-tenant quota in modeled seconds
	quotas     string  // "name=seconds,..." overrides
}

// parseQuotas decodes "alice=30,bob=5" into per-tenant modeled-second
// budgets.
func parseQuotas(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]float64)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad -quotas entry %q (want name=seconds)", part)
		}
		secs, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -quotas entry %q: %w", part, err)
		}
		out[name] = secs
	}
	return out, nil
}

// runServeMode is the -serve entrypoint: host the resident query service
// until SIGTERM, then drain the queue and exit.
func runServeMode(cfg serveConfig) {
	quotas, err := parseQuotas(cfg.quotas)
	if err != nil {
		fatal(err)
	}
	// The segment cache gets a dedicated HDFS instance: cache blobs are
	// infrastructure, not query data, and live in their own namespace.
	cacheFS := hdfs.New(256<<20, 3, []string{"cache0", "cache1", "cache2"})
	svc := queryd.New(queryd.Config{
		Store:               store.NewLocal(cacheFS, "/store"),
		Obs:                 obs.New(),
		QueueDepth:          cfg.queueDepth,
		Workers:             cfg.workers,
		DefaultQuotaSeconds: cfg.quota,
		Quotas:              quotas,
	})
	srv, err := queryd.NewServer(cfg.addr, svc)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("query service on http://%s\n", srv.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	<-sig
	fmt.Fprintln(os.Stderr, "scijob serve: SIGTERM: draining queue and shutting down")
	srv.Close()
}

// runSubmitMode posts one query spec to a resident service and prints its
// response — cache-hit status, output digest, and the quota charge.
func runSubmitMode(addr string, spec queryd.QuerySpec) {
	body, err := json.Marshal(spec)
	if err != nil {
		fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		fatal(fmt.Errorf("submitting to %s: %w", addr, err))
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		fatal(fmt.Errorf("reading response: %w", err))
	}
	if resp.StatusCode != http.StatusOK {
		var eb struct {
			Error string `json:"error"`
			Kind  string `json:"kind"`
		}
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			if eb.Kind != "" {
				fatal(fmt.Errorf("rejected (%s): %s", eb.Kind, eb.Error))
			}
			fatal(fmt.Errorf("rejected: %s", eb.Error))
		}
		fatal(fmt.Errorf("service returned %s: %s", resp.Status, data))
	}
	var r queryd.Response
	if err := json.Unmarshal(data, &r); err != nil {
		fatal(fmt.Errorf("decoding response: %w", err))
	}
	phase := "map phase executed"
	if r.CacheHit {
		phase = "map phase skipped (segment cache hit)"
	}
	fmt.Printf("query accepted for tenant %s: %s\n", r.Tenant, phase)
	fmt.Printf("  output sha256:                 %s\n", r.OutputSHA)
	fmt.Printf("  predicted cost:                %.2fs modeled\n", r.PredictedSeconds)
	fmt.Printf("  charged cost:                  %.2fs modeled\n", r.ChargedSeconds)
	if r.Report != nil {
		fmt.Printf("  modeled runtime: map %.1fs + reduce %.1fs = %.1fs\n",
			r.Report.Estimate.MapSeconds, r.Report.Estimate.ReduceSeconds, r.Report.Estimate.Total())
	}
}

// runScrape GETs a URL and streams the body to stdout — enough HTTP client
// for smoke scripts to read /metrics without assuming curl exists.
func runScrape(url string) {
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	resp, err := http.Get(url)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(os.Stdout, resp.Body); err != nil {
		fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("GET %s: %s", url, resp.Status))
	}
}
