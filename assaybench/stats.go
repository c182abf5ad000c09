package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a tail percentile read from fewer samples is noise.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// whether at least minBeyond samples rank above it. xs need not be
// sorted; it is not modified. An empty input gives (0, false).
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], len(s)-1-rank >= minBeyond
}

// samplesFor is the smallest sample count at which percentile(xs, q)
// has minBeyond samples above it.
func samplesFor(q float64) int {
	n := 1
	for {
		rank := int(math.Ceil(q*float64(n))) - 1
		if n-1-rank >= minBeyond {
			return n
		}
		n++
	}
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty input.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct {
	Busy, Steal, Total uint64
}

// parseProcStat reads the aggregate cpu line of /proc/stat. Total is
// user+nice+system+idle+iowait+irq+softirq+steal (guest time is
// already counted in user); Busy is Total minus idle and iowait.
func parseProcStat(data []byte) (cpuTimes, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return cpuTimes{}, fmt.Errorf("/proc/stat: short cpu line %q", sc.Text())
		}
		var v [8]uint64
		for i := range v {
			n, err := strconv.ParseUint(f[i+1], 10, 64)
			if err != nil {
				return cpuTimes{}, fmt.Errorf("/proc/stat: field %d: %w", i+1, err)
			}
			v[i] = n
		}
		var t cpuTimes
		for _, n := range v {
			t.Total += n
		}
		t.Steal = v[7]
		t.Busy = t.Total - v[3] - v[4]
		return t, nil
	}
	return cpuTimes{}, fmt.Errorf("/proc/stat: no aggregate cpu line")
}

// stealShare is the share of all CPU time between two /proc/stat
// readings that the hypervisor stole.
func stealShare(a, b cpuTimes) float64 {
	if b.Total <= a.Total {
		return 0
	}
	return float64(b.Steal-a.Steal) / float64(b.Total-a.Total)
}

// busyShare is the share of all CPU time between two readings spent
// neither idle nor waiting for I/O.
func busyShare(a, b cpuTimes) float64 {
	if b.Total <= a.Total {
		return 0
	}
	return float64(b.Busy-a.Busy) / float64(b.Total-a.Total)
}

// parsePidStat returns utime+stime, in clock ticks, from the contents
// of /proc/<pid>/stat. The command name may itself contain spaces and
// parentheses, so fields are counted from the last ')'.
func parsePidStat(data []byte) (uint64, error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/pid/stat: no command name")
	}
	f := strings.Fields(string(data[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/pid/stat: %d fields after the command name", len(f))
	}
	u, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/pid/stat: utime: %w", err)
	}
	s, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/pid/stat: stime: %w", err)
	}
	return u + s, nil
}

// memStats is the part of runtime.MemStats the benchmark reads from a
// daemon's pprof heap endpoint.
type memStats struct {
	HeapAlloc, TotalAlloc, Mallocs, NumGC uint64
}

// parseMemStats extracts the runtime.MemStats block that
// /debug/pprof/heap?debug=1 appends to its text output ("# Name = N"
// lines). Every field of memStats must be present.
func parseMemStats(data []byte) (memStats, error) {
	var m memStats
	want := map[string]*uint64{
		"HeapAlloc": &m.HeapAlloc, "TotalAlloc": &m.TotalAlloc,
		"Mallocs": &m.Mallocs, "NumGC": &m.NumGC,
	}
	found := 0
	in := false
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "# runtime.MemStats" {
			in = true
			continue
		}
		if !in {
			continue
		}
		name, val, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok {
			continue
		}
		dst, ok := want[name]
		if !ok {
			continue
		}
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return memStats{}, fmt.Errorf("pprof MemStats %s: %w", name, err)
		}
		*dst = n
		found++
	}
	if found != len(want) {
		return memStats{}, fmt.Errorf("pprof heap text: %d of %d MemStats fields found", found, len(want))
	}
	return m, nil
}
