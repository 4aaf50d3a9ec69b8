package main

import (
	"math"
	"os"
	"strconv"
	"strings"
)

// On a shared virtual machine the hypervisor runs other machines on our
// CPUs from time to time ("steal"). Every wall time measured meanwhile
// stretches: on a 2-vCPU VM a train-ce repetition took 8–10 s at under
// 1% steal and 13–15 s at 15–25%. The benchmark reports measured wall
// times, and each timed unit (training repetition, serve round, block of
// set-ups) records the host's steal share over it; only the calmer units
// count for timing (see calm).

// hostCPU is a reading of the host's cumulative CPU time and of the part
// the hypervisor gave to other machines, in clock ticks from /proc/stat.
// Both are zero where the file is unavailable.
type hostCPU struct{ total, steal uint64 }

func readHostCPU() hostCPU {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		h.total += v
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

// stealShare is the stolen fraction of CPU time between two readings, 0
// when unknown.
func stealShare(from, to hostCPU) float64 {
	if to.total <= from.total {
		return 0
	}
	return float64(to.steal-from.steal) / float64(to.total-from.total)
}

// quietSteal is the steal share below which a unit always counts: it
// stretches a wall time by a few percent, well inside every bound.
const quietSteal = 0.02

// calm marks the units that count for timing: those whose steal share is
// at most the median share or at most quietSteal. Comparing like with
// like, a unit slowed by the host then has to outweigh half the run to
// move the metric, and a quiet host loses no samples. The second result
// counts the marked units.
func calm(shares []float64) ([]bool, int) {
	limit := math.Max(median(shares), quietSteal)
	keep := make([]bool, len(shares))
	n := 0
	for i, s := range shares {
		if s <= limit {
			keep[i] = true
			n++
		}
	}
	return keep, n
}
