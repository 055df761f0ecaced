package main

import (
	"fmt"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile.
// A percentile with fewer is noise, so the run fails instead of
// reporting it.
const minTail = 10

// latencies collects virtual latency samples (ns) for one request type.
type latencies []int64

// quantile returns the nearest-rank q-quantile in µs, or an error when
// fewer than minTail samples lie beyond it.
func (l latencies) quantile(name string, q float64) (float64, error) {
	n := len(l)
	if beyond := float64(n) * (1 - q); n == 0 || beyond < minTail {
		return 0, fmt.Errorf("%s: %d samples leave %.1f beyond p%g, need %d", name, n, beyond, 100*q, minTail)
	}
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q*float64(n)+0.999999999) - 1
	if idx < 0 {
		idx = 0
	}
	return float64(s[idx]) / 1e3, nil
}

// median returns the median of xs (the mean of the middle pair for an
// even count); xs must be non-empty.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio divides, reporting 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (l latencies) meanUs() float64 {
	var sum int64
	for _, v := range l {
		sum += v
	}
	return ratio(float64(sum), float64(len(l))) / 1e3
}

// latencyMetrics records an episode's latency metrics from its read and
// write samples: the read mean and p99 and the write p99 as end-to-end
// metrics, and the read median for the report only. An uncontended
// read costs the same modelled service time on every seed, so the
// median would read the same on every run.
func latencyMetrics(ep *episode, reads, writes latencies) {
	for _, q := range []struct {
		name string
		lat  latencies
		q    float64
	}{
		{"read_p50_us", reads, 0.50},
		{"read_p99_us", reads, 0.99},
		{"write_p99_us", writes, 0.99},
	} {
		x, err := q.lat.quantile(q.name, q.q)
		if err != nil {
			ep.fail("%v", err)
		}
		if q.q == 0.50 {
			ep.info[q.name] = metric{x, "us"}
		} else {
			ep.virt[q.name] = x
		}
		ep.samples[q.name] = len(q.lat)
	}
	ep.virt["read_mean_us"] = reads.meanUs()
	ep.samples["read_mean_us"] = len(reads)
}
