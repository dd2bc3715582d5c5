package main

import (
	"math/rand"
	"syscall"
	"time"
)

// The reference host's speed drifts by tens of percent within minutes,
// and CPU-bound timings drift with it. Each run therefore measures the
// host's current speed with a fixed calibration loop next to the work
// it times, and reports the CPU-bound time metrics in reference-host
// units: measured × calRefMs / calibration time. A change to the
// program moves the measured time and not the calibration, so it shows
// in full; a slower or faster host moves both and cancels. A run prints
// every time metric both ways and reports the converted value.

// calRefMs is the calibration loop's time on the reference host (a
// 2-vCPU Intel Xeon VM, Go 1.24), so converted values read as
// milliseconds on that host.
const calRefMs = 3.0

const (
	calNodes   = 4096
	calDegree  = 6
	calSources = 32
)

// The calibration graph: a fixed random directed graph in CSR form.
var calOff, calAdj, calDist, calQueue = buildCalGraph()

func buildCalGraph() (off, adj, dist, queue []int32) {
	rng := rand.New(rand.NewSource(1))
	off = make([]int32, calNodes+1)
	adj = make([]int32, 0, calNodes*calDegree)
	for v := 0; v < calNodes; v++ {
		off[v] = int32(len(adj))
		for j := 0; j < calDegree; j++ {
			adj = append(adj, int32(rng.Intn(calNodes)))
		}
	}
	off[calNodes] = int32(len(adj))
	return off, adj, make([]int32, calNodes), make([]int32, 0, calNodes)
}

// calibrate times one pass of a reference loop that uses none of the
// repository's code: breadth-first searches from calSources sources over
// the calibration graph, the same mix of branches and dependent memory
// reads as the graph kernels. Of the loops tried on the reference host,
// its time tracked core.Approximate's most closely.
func calibrate() float64 {
	t := time.Now()
	for src := int32(0); src < calSources; src++ {
		for i := range calDist {
			calDist[i] = -1
		}
		q := append(calQueue[:0], src)
		calDist[src] = 0
		for h := 0; h < len(q); h++ {
			u := q[h]
			for _, w := range calAdj[calOff[u]:calOff[u+1]] {
				if calDist[w] < 0 {
					calDist[w] = calDist[u] + 1
					q = append(q, w)
				}
			}
		}
		calQueue = q
	}
	return ms(time.Since(t))
}

// calibrateMedian returns the median of k calibration passes.
func calibrateMedian(k int) float64 {
	xs := make([]float64, k)
	for i := range xs {
		xs[i] = calibrate()
	}
	return median(xs)
}

// toRef converts a time measured while the calibration loop took cal
// ms into reference-host units.
func toRef(x, cal float64) float64 { return x * calRefMs / cal }

// calSpans calibrates between consecutive spans of work and converts
// each span by the mean of the calibrations just before and just after
// it: the host's speed changes within seconds, so one side alone can
// miss a change during the span.
type calSpans struct {
	k    int     // passes per calibration; its median counts
	last float64 // the calibration that ended the previous span
}

// newCalSpans calibrates once, ahead of the first span.
func newCalSpans(k int) *calSpans { return &calSpans{k: k, last: calibrateMedian(k)} }

// next calibrates after a span and returns the calibration time to
// convert that span by.
func (c *calSpans) next() float64 {
	after := calibrateMedian(c.k)
	cal := (c.last + after) / 2
	c.last = after
	return cal
}

// timings collects measured times with each one's reference-host
// conversion.
type timings struct {
	Raw, Ref []float64
}

func (t *timings) add(x, cal float64) {
	t.Raw = append(t.Raw, x)
	t.Ref = append(t.Ref, toRef(x, cal))
}

// report records the q-quantile of the measured and the converted
// times as the run's metric name.
func (t *timings) report(r *run, name string, q float64) {
	r.report(name, quantile(t.Raw, q), quantile(t.Ref, q))
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
