package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// quantile returns the ceil-rank q-quantile of xs: the smallest sample
// with at least ⌈q·n⌉ samples at or below it. It never interpolates, so
// every reported percentile is a latency some operation really had. xs
// is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// beyond reports how many of n samples lie strictly beyond the ceil-rank
// q-quantile. A percentile is reported only when this is at least
// minBeyond.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

const minBeyond = 10

// median is the ceil-rank 0.5 quantile of a copy of xs.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// span is one node of a workload's layer tree: a layer's measured
// duration and the layers it encloses. A layer with Count > 1 runs that
// many times inside one parent operation.
type span struct {
	Name     string
	Ms       float64 // duration of one call
	Count    float64 // calls per parent operation (0 means 1)
	Children []span
}

// total is the span's contribution to its parent: duration × count.
func (s span) total() float64 {
	c := s.Count
	if c == 0 {
		c = 1
	}
	return s.Ms * c
}

// selfMs is the part of one call not covered by its children: the
// span's duration minus the summed contributions of its child spans.
// It is negative when the children, measured separately, add up to more
// than the parent, which a reader must see rather than have clamped.
func (s span) selfMs() float64 {
	self := s.Ms
	for _, c := range s.Children {
		self -= c.total()
	}
	return self
}

// selfRow is one line of a flattened layer table.
type selfRow struct {
	Name   string
	SelfMs float64 // self time per root operation
}

// selfTimes flattens the tree into per-root-operation self times. The
// rows sum to the root's duration exactly, whatever the measurements:
// the root's own row is the stated residual.
func selfTimes(root span) []selfRow {
	var rows []selfRow
	var walk func(s span, mult float64)
	walk = func(s span, mult float64) {
		rows = append(rows, selfRow{s.Name, s.selfMs() * mult})
		for _, ch := range s.Children {
			cc := ch.Count
			if cc == 0 {
				cc = 1
			}
			walk(ch, mult*cc)
		}
	}
	walk(root, 1)
	return rows
}

// sample is one open-loop request: when it was due, when the generator
// actually sent it, and when its answer arrived.
type sample struct {
	Index int
	Due   time.Duration // offset from the schedule start
	Start time.Duration
	End   time.Duration
	Err   error
}

// LatencyMs is the request's latency counted from its due time, so a
// stall charges every request that queued behind it.
func (s sample) LatencyMs() float64 { return float64(s.End-s.Due) / 1e6 }

// LatenessMs is how late the generator sent the request.
func (s sample) LatenessMs() float64 { return float64(s.Start-s.Due) / 1e6 }

// clock is the time source of the open-loop runner; tests substitute a
// fake one.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

// realClock waits for due times to within a few microseconds. The
// runtime's own timers wake an idle process up to a millisecond late
// (the netpoller waits in whole milliseconds), which would be most of a
// warm read's latency at the serve workload's rate. So SleepUntil parks
// on a runtime timer until a millisecond before the due time and then
// spins on the clock, yielding to any goroutine that is ready to run at
// each turn. Spun counts the turns in which nothing else ran, the
// generator's own cost, so that CPU-time metrics can leave it out.
type realClock struct {
	Spun atomic.Int64 // nanoseconds spent spinning
}

// spinTurn bounds a turn of the spin in which Gosched ran nothing else.
const spinTurn = 10 * time.Microsecond

func (*realClock) Now() time.Time { return time.Now() }

func (c *realClock) SleepUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	var spun time.Duration
	for {
		now := time.Now()
		if !now.Before(t) {
			break
		}
		runtime.Gosched()
		if d := time.Since(now); d < spinTurn {
			spun += d
		}
	}
	c.Spun.Add(int64(spun))
}

// runOpen drives an open loop: request i is due at i/rate after the
// start, whatever happened to the earlier ones. workers goroutines send
// the requests in schedule order: the free worker that holds the
// schedule waits for the next due time, sends that request, and hands
// the schedule on, so only one worker waits at a time. When all are
// busy the next request waits for one, and its lateness records that.
// Requests due at or after dur are not sent. do receives the request's
// index in the schedule.
func runOpen(c clock, rate float64, dur time.Duration, workers int, do func(i int) error) []sample {
	interval := time.Duration(float64(time.Second) / rate)
	n := int(dur / interval)
	out := make([]sample, n)
	var schedule sync.Mutex
	next := 0
	start := c.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				schedule.Lock()
				i := next
				if i >= n {
					schedule.Unlock()
					return
				}
				next++
				due := time.Duration(i) * interval
				c.SleepUntil(start.Add(due))
				s := sample{Index: i, Due: due, Start: c.Now().Sub(start)}
				schedule.Unlock()
				s.Err = do(i)
				s.End = c.Now().Sub(start)
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// backlogGrowing reports whether the generator fell further behind as
// the step went on: the median lateness over the last third of the
// schedule exceeds that of the first third by more than slackMs. A
// loaded but stable queue has steady lateness; one offered more than it
// can serve has lateness rising linearly with the due time.
func backlogGrowing(samples []sample, slackMs float64) bool {
	if len(samples) < 6 {
		return false
	}
	third := len(samples) / 3
	var first, last []float64
	for _, s := range samples[:third] {
		first = append(first, s.LatenessMs())
	}
	for _, s := range samples[len(samples)-third:] {
		last = append(last, s.LatenessMs())
	}
	return median(last) > median(first)+slackMs
}

// stepVerdict judges one capacity step.
type stepVerdict struct {
	Rate    float64
	P99Ms   float64
	Failed  int
	Backlog bool
	Pass    bool
}

// capacitySearch finds the highest offered rate that passes: it
// multiplies the rate by grow until a step fails, then bisects between
// the last passing and first failing rate refine times. step runs one
// open-loop step at a rate and judges it. It returns the highest passing
// rate (0 if even the first fails) and every verdict in order.
func capacitySearch(first, grow float64, maxSteps, refine int, step func(rate float64) stepVerdict) (float64, []stepVerdict) {
	var log []stepVerdict
	pass, fail := 0.0, 0.0
	rate := first
	for i := 0; i < maxSteps; i++ {
		v := step(rate)
		log = append(log, v)
		if !v.Pass {
			fail = rate
			break
		}
		pass = rate
		rate *= grow
	}
	if fail == 0 || pass == 0 {
		return pass, log
	}
	for i := 0; i < refine; i++ {
		mid := math.Sqrt(pass * fail)
		v := step(mid)
		log = append(log, v)
		if v.Pass {
			pass = mid
		} else {
			fail = mid
		}
	}
	return pass, log
}

// counters snapshots the process-wide costs a measurement window is
// charged with: CPU time, bytes allocated, and GC pause time.
type counters struct {
	CPU        time.Duration
	AllocBytes uint64
	GCPauseNs  uint64
}

func readCounters() counters {
	cpu := cpuTime()
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{CPU: cpu, AllocBytes: s[0].Value.Uint64(), GCPauseNs: ms.PauseTotalNs}
}

// heapPeak tracks the largest live-plus-garbage heap seen at the sample
// points a workload chooses (after each operation, or every few
// requests).
type heapPeak struct {
	s    []metrics.Sample
	peak uint64
}

func newHeapPeak() *heapPeak {
	return &heapPeak{s: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
}

func (h *heapPeak) Sample() {
	metrics.Read(h.s)
	if v := h.s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

func (h *heapPeak) MB() float64 { return float64(h.peak) / (1 << 20) }
