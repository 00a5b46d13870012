package cluster

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// fit is the one-shot use of a Calibration: every sample added at once.
func fit(c Config, samples []CalSample) (Config, error) {
	var cal Calibration
	cal.Add(samples...)
	return cal.Fit(c)
}

// synthSamples fabricates attempt measurements from known bandwidths, so Fit
// should recover them exactly (the data satisfies the model's equation).
func synthSamples(diskMBps, netMBps float64, mixes [][2]int64) []CalSample {
	const mib = 1 << 20
	out := make([]CalSample, 0, len(mixes))
	for i, m := range mixes {
		cpu := 0.5 + 0.1*float64(i)
		wall := cpu + float64(m[0])/mib/diskMBps + float64(m[1])/mib/netMBps
		out = append(out, CalSample{
			CPUSeconds: cpu, DiskBytes: m[0], NetBytes: m[1], WallSeconds: wall,
		})
	}
	return out
}

func TestFitRecoversKnownBandwidths(t *testing.T) {
	base := Paper()
	samples := synthSamples(80, 40, [][2]int64{
		{100 << 20, 10 << 20},
		{50 << 20, 200 << 20},
		{300 << 20, 30 << 20},
		{20 << 20, 80 << 20},
	})
	got, err := fit(base, samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.DiskMBps-80) > 1e-6 {
		t.Errorf("DiskMBps = %f, want 80", got.DiskMBps)
	}
	if math.Abs(got.NetMBps-40) > 1e-6 {
		t.Errorf("NetMBps = %f, want 40", got.NetMBps)
	}
	// Fit must not disturb the other knobs.
	if got.Nodes != base.Nodes || got.MapSlotsPerNode != base.MapSlotsPerNode {
		t.Errorf("Fit changed topology: %+v", got)
	}
}

func TestFitDiskOnlyKeepsNetBandwidth(t *testing.T) {
	base := Paper()
	samples := synthSamples(120, 1, [][2]int64{ // netMBps irrelevant: no net bytes
		{100 << 20, 0},
		{200 << 20, 0},
		{50 << 20, 0},
	})
	got, err := fit(base, samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.DiskMBps-120) > 1e-6 {
		t.Errorf("DiskMBps = %f, want 120", got.DiskMBps)
	}
	if got.NetMBps != base.NetMBps {
		t.Errorf("NetMBps = %f, want base %f (no net samples to fit)", got.NetMBps, base.NetMBps)
	}
}

func TestFitRejectsUnusableSamples(t *testing.T) {
	base := Paper()
	_, err := fit(base, []CalSample{
		{CPUSeconds: 5, WallSeconds: 5, DiskBytes: 1 << 20},        // no residual
		{CPUSeconds: 1, WallSeconds: 9, DiskBytes: 0, NetBytes: 0}, // no I/O
	})
	if err == nil || !strings.Contains(err.Error(), "no usable calibration samples") {
		t.Errorf("err = %v, want the no-usable-samples error", err)
	}
	got, err2 := fit(base, nil)
	if err2 == nil {
		t.Error("empty sample set should not calibrate")
	}
	if got.DiskMBps != base.DiskMBps || got.NetMBps != base.NetMBps {
		t.Errorf("failed Fit must return the config unchanged: %+v", got)
	}
}

func TestFitNoiseTolerance(t *testing.T) {
	// Perturb the wall clocks slightly; the least-squares estimate should
	// still land near the truth.
	samples := synthSamples(100, 50, [][2]int64{
		{100 << 20, 10 << 20},
		{50 << 20, 200 << 20},
		{300 << 20, 30 << 20},
		{20 << 20, 80 << 20},
		{150 << 20, 150 << 20},
	})
	for i := range samples {
		jitter := 1.0 + 0.01*float64(i%3-1) // ±1%
		samples[i].WallSeconds = samples[i].CPUSeconds +
			(samples[i].WallSeconds-samples[i].CPUSeconds)*jitter
	}
	got, err := fit(Paper(), samples)
	if err != nil {
		t.Fatal(err)
	}
	if got.DiskMBps < 90 || got.DiskMBps > 110 {
		t.Errorf("DiskMBps = %f, want ~100", got.DiskMBps)
	}
	if got.NetMBps < 45 || got.NetMBps > 55 {
		t.Errorf("NetMBps = %f, want ~50", got.NetMBps)
	}
}

// TestCalibrationChunking: a Calibration fed a sample sequence in arbitrary
// chunks fits bit-identically to one fed the whole sequence at once — on
// both axes, on one axis, and when no sample is usable.
func TestCalibrationChunking(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	random := func(n int, net bool) []CalSample {
		out := make([]CalSample, n)
		for i := range out {
			s := CalSample{CPUSeconds: rng.Float64(), DiskBytes: rng.Int63n(64 << 20)}
			if net {
				s.NetBytes = rng.Int63n(64 << 20)
			}
			// Some samples have no residual and must be skipped either way.
			s.WallSeconds = s.CPUSeconds + rng.Float64() - 0.2
			out[i] = s
		}
		return out
	}
	unusable := []CalSample{
		{CPUSeconds: 5, WallSeconds: 5, DiskBytes: 1 << 20},
		{CPUSeconds: 1, WallSeconds: 9},
	}
	sets := map[string][]CalSample{
		"both-axes":  random(200, true),
		"disk-only":  random(200, false),
		"no-usable":  unusable,
		"no-samples": nil,
	}
	for name, samples := range sets {
		want, wantErr := fit(Paper(), samples)
		for trial := 0; trial < 20; trial++ {
			var cal Calibration
			for rest := samples; len(rest) > 0; {
				k := rng.Intn(len(rest) + 1)
				cal.Add(rest[:k]...)
				rest = rest[k:]
			}
			got, err := cal.Fit(Paper())
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("%s: chunked error %v, whole %v", name, err, wantErr)
			}
			if math.Float64bits(got.DiskMBps) != math.Float64bits(want.DiskMBps) ||
				math.Float64bits(got.NetMBps) != math.Float64bits(want.NetMBps) {
				t.Fatalf("%s: chunked fit %v/%v MB/s, whole %v/%v", name,
					got.DiskMBps, got.NetMBps, want.DiskMBps, want.NetMBps)
			}
		}
		if name == "disk-only" && (wantErr != nil || want.NetMBps != Paper().NetMBps) {
			t.Errorf("disk-only: fit %+v, %v; want the disk axis alone refitted", want, wantErr)
		}
		if name == "no-usable" && wantErr == nil {
			t.Error("no-usable: fit without error")
		}
	}
}
