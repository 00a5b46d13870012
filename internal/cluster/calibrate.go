package cluster

import (
	"errors"
	"fmt"
)

// CalSample is one task attempt's measured execution, the raw material for
// calibrating the cost model against a real run. The engine records one per
// committed attempt (wall clock, measured CPU seconds, and the attempt's
// disk/network byte footprint); a Calibration turns them into bandwidth
// constants.
type CalSample struct {
	// CPUSeconds is the attempt's measured compute time (map/reduce
	// function, codec, transform, sort).
	CPUSeconds float64
	// DiskBytes and NetBytes are the attempt's I/O footprint, identical in
	// meaning to Task.DiskBytes/Task.NetBytes.
	DiskBytes int64
	NetBytes  int64
	// WallSeconds is the attempt's observed wall-clock duration.
	WallSeconds float64
}

// Calibration accumulates calibration samples as the five sums and the
// count that the least-squares fit needs, so a long-lived caller can feed it
// every run's samples without keeping them. Samples fold in the order they
// are added: any chunking of one sequence fits bit-identically. The zero
// value holds no samples.
type Calibration struct {
	sdd, sdn, snn, sdr, snr float64
	n                       int
}

// Add folds samples into the sums. Samples with no I/O, or whose wall clock
// is below their CPU time (timer skew), contribute nothing.
func (cal *Calibration) Add(samples ...CalSample) {
	const mib = 1 << 20
	for _, s := range samples {
		r := s.WallSeconds - s.CPUSeconds
		if r <= 0 || (s.DiskBytes <= 0 && s.NetBytes <= 0) {
			continue
		}
		d := float64(s.DiskBytes) / mib
		nb := float64(s.NetBytes) / mib
		cal.sdd += d * d
		cal.sdn += d * nb
		cal.snn += nb * nb
		cal.sdr += d * r
		cal.snr += nb * r
		cal.n++
	}
}

// Fit returns a copy of c with DiskMBps and NetMBps re-estimated from the
// added samples, by least-squares on the cost model's own equation:
//
//	wall − cpu = diskBytes/diskBW + netBytes/netBW
//
// i.e. a linear fit of the non-CPU residual against the two byte columns.
// If one byte column is absent from every sample (an all-local run moves
// no network bytes), only the other bandwidth is refitted and the missing
// one keeps c's value. A fit that would produce a non-positive bandwidth
// likewise keeps c's value for that axis; if neither axis can be fitted,
// Fit returns an error and c unchanged.
func (cal *Calibration) Fit(c Config) (Config, error) {
	c.validate()
	if cal.n == 0 {
		return c, errors.New("cluster: no usable calibration samples (need wall > cpu and nonzero I/O)")
	}
	sdd, sdn, snn, sdr, snr := cal.sdd, cal.sdn, cal.snn, cal.sdr, cal.snr
	// Solve the 2×2 normal equations for (a, b) in r = a·d + b·n, where
	// a = 1/DiskMBps and b = 1/NetMBps. Degenerate columns (all-zero disk
	// or net bytes) collapse to a single-variable fit.
	var a, b float64
	det := sdd*snn - sdn*sdn
	switch {
	case sdd > 0 && snn > 0 && det > 1e-12*sdd*snn:
		a = (snr*sdn - sdr*snn) / -det
		b = (sdr*sdn - snr*sdd) / -det
	case sdd > 0:
		a = sdr / sdd
	case snn > 0:
		b = snr / snn
	}
	fitted := false
	if a > 0 {
		c.DiskMBps = 1 / a
		fitted = true
	}
	if b > 0 {
		c.NetMBps = 1 / b
		fitted = true
	}
	if !fitted {
		return c, fmt.Errorf("cluster: calibration from %d samples produced no positive bandwidth", cal.n)
	}
	return c, nil
}
