package main

import (
	"math"
	"sync"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: quantile must sort
	}
	return xs
}

// TestQuantileCeilRank pins the ceil-rank definition: the q-quantile of
// n samples is the ⌈q·n⌉-th smallest, never an interpolation and never
// one rank off (int(q·n) indexing returns the next sample up).
func TestQuantileCeilRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64
	}{
		{100, 0.5, 50}, {100, 0.9, 90}, {100, 0.99, 99}, {1000, 0.99, 990},
		{2, 0.5, 1}, {3, 0.5, 2}, {10, 0.99, 10}, {1, 0.5, 1}, {7, 1, 7}, {7, 0, 1},
	} {
		if got := quantile(seq(c.n), c.q); got != c.want {
			t.Errorf("quantile(1..%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples must be NaN, not a number a reader could trust")
	}
}

// TestBeyond checks the ten-samples-beyond rule that gates every
// reported percentile.
func TestBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{100, 0.9, 10}, {99, 0.9, 9}, {1000, 0.99, 10}, {999, 0.99, 9}, {20, 0.5, 10}, {19, 0.5, 9}} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

// fakeClock is a goroutine-safe virtual clock: sleeping jumps time
// forward, and each request advances it by its service time.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func openLoop(service time.Duration) []sample {
	c := &fakeClock{now: time.Unix(0, 0)}
	return runOpen(c, 100, 100*time.Millisecond, 1, func(int) error {
		c.advance(service)
		return nil
	})
}

// TestOpenLoopTimesFromDue overloads one worker (25 ms of service every
// 10 ms): request i is due at 10i ms but starts when i-1 ends, so its
// lateness is 15i ms and its latency, counted from the due time, is
// 25+15i ms rather than the 25 ms a send-time clock would show.
func TestOpenLoopTimesFromDue(t *testing.T) {
	ss := openLoop(25 * time.Millisecond)
	if len(ss) != 10 {
		t.Fatalf("%d requests scheduled in 100 ms at 100/s, want 10", len(ss))
	}
	for i, s := range ss {
		if s.Index != i || s.Due != time.Duration(i)*10*time.Millisecond {
			t.Fatalf("request %d: index %d due %v", i, s.Index, s.Due)
		}
		if got, want := s.LatenessMs(), 15*float64(i); got != want {
			t.Errorf("request %d: lateness %v ms, want %v", i, got, want)
		}
		if got, want := s.LatencyMs(), 25+15*float64(i); got != want {
			t.Errorf("request %d: latency %v ms, want %v", i, got, want)
		}
	}
	if !backlogGrowing(ss, 1) {
		t.Error("lateness rising 15 ms per request must count as a growing backlog")
	}
}

// TestOpenLoopUnderloaded: with 5 ms of service every 10 ms nothing is
// late, latency is the service time, and there is no backlog.
func TestOpenLoopUnderloaded(t *testing.T) {
	ss := openLoop(5 * time.Millisecond)
	for i, s := range ss {
		if s.LatenessMs() != 0 || s.LatencyMs() != 5 {
			t.Errorf("request %d: lateness %v latency %v, want 0 and 5", i, s.LatenessMs(), s.LatencyMs())
		}
	}
	if backlogGrowing(ss, 1) {
		t.Error("an idle generator has no backlog")
	}
}

// TestOpenLoopWorkers: two workers share one schedule; every request
// is sent exactly once, and in schedule order.
func TestOpenLoopWorkers(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	ss := runOpen(&realClock{}, 2000, 50*time.Millisecond, 2, func(i int) error {
		mu.Lock()
		seen[i]++
		mu.Unlock()
		return nil
	})
	if len(ss) != 100 || len(seen) != 100 {
		t.Fatalf("%d samples, %d distinct requests, want 100 each", len(ss), len(seen))
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("request %d sent %d times", i, n)
		}
	}
	for i := 1; i < len(ss); i++ {
		if ss[i].Start < ss[i-1].Start {
			t.Errorf("request %d sent at %v, before request %d at %v", i, ss[i].Start, i-1, ss[i-1].Start)
		}
	}
}

// TestRealClockLateness: the runtime's timers alone wake an idle
// process 0.7 ms late at the median on the reference host; realClock
// must wake within a tenth of a millisecond of the due time.
func TestRealClockLateness(t *testing.T) {
	c := &realClock{}
	late := make([]float64, 200)
	for i := range late {
		due := time.Now().Add(time.Duration(200+10*i) * time.Microsecond)
		c.SleepUntil(due)
		late[i] = float64(time.Since(due)) / 1e6
	}
	if m := median(late); m > 0.1 {
		t.Errorf("median lateness %.3f ms, want at most 0.1 ms", m)
	}
	if c.Spun.Load() <= 0 {
		t.Error("spin time not counted")
	}
}

func lateSamples(late func(i int) float64) []sample {
	ss := make([]sample, 30)
	for i := range ss {
		due := time.Duration(i) * time.Millisecond
		ss[i] = sample{Index: i, Due: due, Start: due + time.Duration(late(i)*1e6), End: due + 2*time.Millisecond}
	}
	return ss
}

// TestBacklogGrowing separates a loaded but stable queue (high, steady
// lateness) from one offered more than it serves (rising lateness).
func TestBacklogGrowing(t *testing.T) {
	if backlogGrowing(lateSamples(func(int) float64 { return 4 }), 1) {
		t.Error("steady 4 ms lateness is load, not a growing backlog")
	}
	if !backlogGrowing(lateSamples(func(i int) float64 { return 0.5 * float64(i) }), 1) {
		t.Error("lateness rising 0.5 ms per request is a growing backlog")
	}
	if backlogGrowing(lateSamples(func(i int) float64 { return 0.01 * float64(i) }), 1) {
		t.Error("a 0.3 ms drift over the step is within the slack")
	}
	if backlogGrowing(lateSamples(func(int) float64 { return 0 })[:5], 1) {
		t.Error("too few samples to judge must not fail a step")
	}
}

// TestCapacitySearch runs the step search against a system that
// passes at or below 1000/s: it must grow past it, bisect back, and
// report a passing rate within one bisection ratio of the true limit.
func TestCapacitySearch(t *testing.T) {
	var rates []float64
	got, log := capacitySearch(400, 1.5, 10, 3, func(rate float64) stepVerdict {
		rates = append(rates, rate)
		return stepVerdict{Rate: rate, Pass: rate <= 1000}
	})
	if got > 1000 || got < 1000/math.Pow(1.5, 1.0/8) {
		t.Errorf("capacity %v, want within (%.1f, 1000]", got, 1000/math.Pow(1.5, 1.0/8))
	}
	if len(log) != len(rates) || len(rates) != 7 {
		t.Errorf("%d steps (%v), want 4 growing and 3 bisecting", len(rates), rates)
	}
	if got, _ := capacitySearch(400, 1.5, 10, 3, func(r float64) stepVerdict { return stepVerdict{Rate: r} }); got != 0 {
		t.Errorf("capacity %v when the first step fails, want 0", got)
	}
	if got, log := capacitySearch(400, 1.5, 3, 3, func(r float64) stepVerdict { return stepVerdict{Rate: r, Pass: true} }); got != 900 || len(log) != 3 {
		t.Errorf("capacity %v after %d steps when every step passes, want the last rate 900 after 3", got, len(log))
	}
}

// TestSelfTimes checks the self-time arithmetic: a layer's self time is
// its duration minus its children's count-weighted durations, rows are
// per root op, and they sum to the root exactly.
func TestSelfTimes(t *testing.T) {
	root := span{Name: "op", Ms: 10, Children: []span{
		{Name: "a", Ms: 2},
		{Name: "b", Ms: 0.5, Count: 4, Children: []span{{Name: "c", Ms: 0.1, Count: 2}}},
	}}
	rows := selfTimes(root)
	want := map[string]float64{"op": 6, "a": 2, "b": 1.2, "c": 0.8}
	sum := 0.0
	for _, r := range rows {
		if math.Abs(r.SelfMs-want[r.Name]) > 1e-9 {
			t.Errorf("%s: self %v, want %v", r.Name, r.SelfMs, want[r.Name])
		}
		sum += r.SelfMs
	}
	if math.Abs(sum-root.Ms) > 1e-9 {
		t.Errorf("rows sum to %v, root is %v", sum, root.Ms)
	}
	// Children measured apart can exceed the parent; the residual must
	// show it, not be clamped to zero.
	over := span{Name: "op", Ms: 1, Children: []span{{Name: "a", Ms: 1.5}}}
	if got := over.selfMs(); got != -0.5 {
		t.Errorf("residual %v, want -0.5", got)
	}
}

// TestReferenceUnits checks the conversion to reference-host units: a
// time measured while the calibration ran twice as slow as on the
// reference host halves, and the measured value is kept beside it.
func TestReferenceUnits(t *testing.T) {
	var tm timings
	tm.add(10, 2*calRefMs)
	tm.add(4, calRefMs)
	tm.add(9, calRefMs/2)
	if want := []float64{5, 4, 18}; tm.Ref[0] != want[0] || tm.Ref[1] != want[1] || tm.Ref[2] != want[2] {
		t.Errorf("reference-host times %v, want %v", tm.Ref, want)
	}
	r := newRun()
	tm.report(r, "p50_ms", 0.5)
	if r.Values["p50_ms"] != 5 || r.Measured["p50_ms"] != 9 || r.Converted["p50_ms"] != 5 {
		t.Errorf("p50 %v (measured %v, converted %v), want 5 (9, 5)", r.Values["p50_ms"], r.Measured["p50_ms"], r.Converted["p50_ms"])
	}
}
