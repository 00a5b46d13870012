package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" dimension of a metric. Handles with the same
// base name but different labels are distinct series (one histogram per
// shuffle node, say) that group under one HELP/TYPE header in the
// exposition output.
type Label struct {
	Name, Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// metricKind discriminates the three handle types.
type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	}
	return "untyped"
}

// metric is one registered series. Counter and gauge values live in v;
// histograms use bounds/buckets/sumBits. All value updates are single
// atomic operations — the registry lock is registration-only.
type metric struct {
	name   string
	labels []Label
	help   string
	unit   string
	kind   metricKind

	v atomic.Int64

	bounds  []float64      // histogram upper bounds, ascending
	buckets []atomic.Int64 // len(bounds)+1; last is +Inf
	sumBits atomic.Uint64  // float64 bits of the observation sum
}

// key renders the registry-unique identity of a series.
func (m *metric) key() string {
	if len(m.labels) == 0 {
		return m.name
	}
	return m.name + labelString(m.labels)
}

func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", l.Name, l.Value)
	}
	sb.WriteByte('}')
	return sb.String()
}

// Counter is a monotonically increasing value. The zero value no-ops.
type Counter struct{ m *metric }

// Add increments the counter by n (negative n is ignored).
func (c Counter) Add(n int64) {
	if c.m != nil && n > 0 {
		c.m.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c Counter) Inc() { c.Add(1) }

// Value reads the counter (0 for the zero handle).
func (c Counter) Value() int64 {
	if c.m == nil {
		return 0
	}
	return c.m.v.Load()
}

// Gauge is a value that can go up and down. The zero value no-ops.
type Gauge struct{ m *metric }

// Set stores v.
func (g Gauge) Set(v int64) {
	if g.m != nil {
		g.m.v.Store(v)
	}
}

// Value reads the gauge (0 for the zero handle).
func (g Gauge) Value() int64 {
	if g.m == nil {
		return 0
	}
	return g.m.v.Load()
}

// Histogram counts observations into fixed buckets. Observe is lock-free:
// one atomic add on the bucket plus a CAS loop on the sum. The zero value
// no-ops.
type Histogram struct{ m *metric }

// Observe records one sample.
func (h Histogram) Observe(v float64) {
	m := h.m
	if m == nil {
		return
	}
	// Binary search for the first bound >= v; the overflow bucket is last.
	i := sort.SearchFloat64s(m.bounds, v)
	m.buckets[i].Add(1)
	for {
		old := m.sumBits.Load()
		s := math.Float64frombits(old) + v
		if m.sumBits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Count sums the buckets; reading the buckets is also how Snapshot derives
// the count, so count and buckets can never disagree in a snapshot.
func (h Histogram) Count() int64 {
	if h.m == nil {
		return 0
	}
	var n int64
	for i := range h.m.buckets {
		n += h.m.buckets[i].Load()
	}
	return n
}

// DefTimeBuckets are the default latency bounds in seconds: 100µs to ~100s,
// roughly ×3 per step — wide enough for both in-memory fetches and
// chaos-injected stalls.
var DefTimeBuckets = []float64{
	0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 100,
}

// ExpBuckets returns n ascending bounds starting at start, multiplying by
// factor each step.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Registry holds named metric series. Handle creation is idempotent —
// asking for an existing (name, labels, kind) returns the same underlying
// series — so instrumented code may re-register freely. A nil *Registry
// returns zero handles that no-op.
type Registry struct {
	mu      sync.Mutex
	series  map[string]*metric
	ordered []*metric
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[string]*metric)}
}

// lookup registers (or finds) a series. Kind mismatches panic: two call
// sites disagreeing on a metric's type is a programming error.
func (r *Registry) lookup(kind metricKind, name, help, unit string, bounds []float64, labels []Label) *metric {
	m := &metric{name: name, labels: labels, help: help, unit: unit, kind: kind}
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.series[m.key()]; ok {
		if got.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as %v (was %v)", m.key(), kind, got.kind))
		}
		return got
	}
	if kind == histogramKind {
		if len(bounds) == 0 {
			bounds = DefTimeBuckets
		}
		m.bounds = append([]float64(nil), bounds...)
		m.buckets = make([]atomic.Int64, len(bounds)+1)
	}
	r.series[m.key()] = m
	r.ordered = append(r.ordered, m)
	return m
}

// Counter returns the counter handle for name+labels, registering it on
// first use.
func (r *Registry) Counter(name, help, unit string, labels ...Label) Counter {
	if r == nil {
		return Counter{}
	}
	return Counter{r.lookup(counterKind, name, help, unit, nil, labels)}
}

// Gauge returns the gauge handle for name+labels, registering it on first
// use.
func (r *Registry) Gauge(name, help, unit string, labels ...Label) Gauge {
	if r == nil {
		return Gauge{}
	}
	return Gauge{r.lookup(gaugeKind, name, help, unit, nil, labels)}
}

// Histogram returns the histogram handle for name+labels, registering it
// on first use. Nil or empty bounds take DefTimeBuckets. Bounds are fixed
// at registration; later calls for the same series ignore the argument.
func (r *Registry) Histogram(name, help, unit string, bounds []float64, labels ...Label) Histogram {
	if r == nil {
		return Histogram{}
	}
	return Histogram{r.lookup(histogramKind, name, help, unit, bounds, labels)}
}

// SeriesSnapshot is one series' point-in-time values.
type SeriesSnapshot struct {
	Name   string
	Labels []Label
	Help   string
	Unit   string
	Type   string
	// Value is the counter or gauge reading.
	Value int64
	// Histogram fields. Count is derived from Buckets, so they always
	// agree; Buckets are per-bucket (non-cumulative) counts aligned with
	// Bounds plus a final overflow bucket.
	Bounds  []float64
	Buckets []int64
	Count   int64
	Sum     float64
}

// Snapshot copies every registered series in registration order. It is safe
// against concurrent writers; each series is internally consistent (a
// histogram's Count always equals the sum of its Buckets).
func (r *Registry) Snapshot() []SeriesSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ms := append([]*metric(nil), r.ordered...)
	r.mu.Unlock()
	out := make([]SeriesSnapshot, 0, len(ms))
	for _, m := range ms {
		s := SeriesSnapshot{
			Name:   m.name,
			Labels: m.labels,
			Help:   m.help,
			Unit:   m.unit,
			Type:   m.kind.String(),
		}
		switch m.kind {
		case histogramKind:
			s.Bounds = m.bounds
			s.Buckets = make([]int64, len(m.buckets))
			for i := range m.buckets {
				n := m.buckets[i].Load()
				s.Buckets[i] = n
				s.Count += n
			}
			s.Sum = math.Float64frombits(m.sumBits.Load())
		default:
			s.Value = m.v.Load()
		}
		out = append(out, s)
	}
	return out
}

// WriteText renders the snapshot as a human-readable table: one
// "name{labels} = value [unit]" line per series, histograms with their
// bucket breakdown.
func (r *Registry) WriteText(w io.Writer) error {
	for _, s := range r.Snapshot() {
		unit := ""
		if s.Unit != "" {
			unit = " " + s.Unit
		}
		var err error
		if s.Type == "histogram" {
			_, err = fmt.Fprintf(w, "%s%s: count=%d sum=%g%s\n", s.Name, labelString(s.Labels), s.Count, s.Sum, unit)
			if err == nil {
				for i, n := range s.Buckets {
					if n == 0 {
						continue
					}
					le := "+Inf"
					if i < len(s.Bounds) {
						le = fmt.Sprintf("%g", s.Bounds[i])
					}
					if _, err = fmt.Fprintf(w, "    le=%s: %d\n", le, n); err != nil {
						break
					}
				}
			}
		} else {
			_, err = fmt.Fprintf(w, "%s%s = %d%s\n", s.Name, labelString(s.Labels), s.Value, unit)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers once per metric name, counter
// and gauge samples as-is, histograms as cumulative _bucket series plus
// _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	seen := map[string]bool{}
	for _, s := range snap {
		if !seen[s.Name] {
			seen[s.Name] = true
			help := s.Help
			if s.Unit != "" {
				help += " (" + s.Unit + ")"
			}
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", s.Name, help, s.Name, s.Type); err != nil {
				return err
			}
		}
		var err error
		if s.Type == "histogram" {
			cum := int64(0)
			for i, n := range s.Buckets {
				cum += n
				le := "+Inf"
				if i < len(s.Bounds) {
					le = fmt.Sprintf("%g", s.Bounds[i])
				}
				if _, err = fmt.Fprintf(w, "%s_bucket%s %d\n", s.Name, labelString(appendLabel(s.Labels, L("le", le))), cum); err != nil {
					return err
				}
			}
			if _, err = fmt.Fprintf(w, "%s_sum%s %g\n%s_count%s %d\n",
				s.Name, labelString(s.Labels), s.Sum, s.Name, labelString(s.Labels), s.Count); err != nil {
				return err
			}
		} else {
			if _, err = fmt.Fprintf(w, "%s%s %d\n", s.Name, labelString(s.Labels), s.Value); err != nil {
				return err
			}
		}
	}
	return nil
}

// appendLabel copies labels with one more appended (the input is shared
// with live series and must not be mutated).
func appendLabel(labels []Label, l Label) []Label {
	out := make([]Label, 0, len(labels)+1)
	out = append(out, labels...)
	return append(out, l)
}
