package main

import (
	"bufio"
	"bytes"
	"math"
	"math/big"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nab/internal/metrics"
)

// minTail is how many samples must lie beyond a percentile for it to be
// reported: a p90 over 40 samples is decided by four of them.
const minTail = 10

// percentile returns the exact nearest-rank q-quantile of samples (which
// it sorts) and whether at least minTail samples lie beyond it.
func percentile(samples []float64, q float64) (float64, bool) {
	if len(samples) == 0 {
		return 0, false
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(q * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	return samples[rank-1], len(samples)-rank >= minTail
}

// median is the middle of samples (the mean of the two middles for an
// even count); it sorts samples.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	n := len(samples)
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}

// exactSum adds float64 values without rounding (the result is rounded
// once, by the caller's final conversion), so a ratio over N identical
// per-instance values does not depend on N.
type exactSum struct{ f big.Float }

func (s *exactSum) add(v float64) {
	if s.f.Prec() == 0 {
		s.f.SetPrec(2048)
	}
	s.f.Add(&s.f, new(big.Float).SetFloat64(v))
}

// ratio returns num/s correctly rounded to float64.
func (s *exactSum) ratio(num float64) float64 {
	if s.f.Sign() == 0 {
		return 0
	}
	q := new(big.Float).SetPrec(2048).SetFloat64(num)
	q.Quo(q, &s.f)
	v, _ := q.Float64()
	return v
}

// mean returns the sum divided by n, correctly rounded to float64.
func (s *exactSum) mean(n int) float64 {
	if n == 0 {
		return 0
	}
	q := new(big.Float).SetPrec(2048).Quo(&s.f, new(big.Float).SetInt64(int64(n)))
	v, _ := q.Float64()
	return v
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks reads the machine-wide CPU tick counters from /proc/stat:
// the total over all states and the steal time, which is time the
// hypervisor ran something else while this VM's vCPUs were runnable.
func cpuTicks() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// promSnapshot is the default metrics registry read through its
// Prometheus exposition: series name (labels dropped, children summed)
// to value. Histograms appear as name_sum and name_count.
type promSnapshot map[string]float64

func readRegistry() promSnapshot {
	var buf bytes.Buffer
	if err := metrics.Default().WritePrometheus(&buf); err != nil {
		return promSnapshot{}
	}
	snap := promSnapshot{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if strings.HasSuffix(name, "}") {
			if strings.Contains(name, "_bucket{") {
				continue
			}
			name = name[:strings.IndexByte(name, '{')]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		snap[name] += v
	}
	return snap
}

// delta returns after[name] - before[name].
func delta(before, after promSnapshot, name string) float64 {
	return after[name] - before[name]
}

// perInst divides by a commit count, 0 when there were none.
func perInst(v float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return v / float64(n)
}

// safeDiv is a/b, 0 when b is 0 (a layer that did no work).
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
