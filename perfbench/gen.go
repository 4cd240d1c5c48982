package main

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// outcome classifies one scheduled request. Everything but okOutcome is a
// failure: it counts in the error rate and as missing every latency limit.
type outcome uint8

const (
	okOutcome        outcome = iota
	statusOutcome            // a non-OK status: shed, deadline, bad request, error, throttled
	timeoutOutcome           // the client gave up waiting
	transportOutcome         // the connection failed
	mismatchOutcome          // an OK response whose bytes differ from the canonical payload
	notSentOutcome           // dropped by the generator: the in-flight cap was reached
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"ok", "status", "timeout", "transport", "mismatch", "not_sent"}

// item is one scheduled request: when it is due, relative to the phase
// start, and which entry of the workload's request pool it sends.
type item struct {
	due time.Duration
	idx int
}

// schedule draws Poisson arrivals at rate req/s for dur. pick chooses the
// request pool entry of the n'th arrival. The schedule is a pure function
// of the RNG state, so one seed gives one schedule.
func schedule(rng *rand.Rand, rate float64, dur time.Duration, pick func(n int) int) []item {
	var out []item
	t := 0.0
	limit := dur.Seconds()
	for n := 0; ; n++ {
		t += rng.ExpFloat64() / rate
		if t >= limit {
			return out
		}
		out = append(out, item{due: time.Duration(t * 1e9), idx: pick(n)})
	}
}

// target executes one request of the workload's pool and classifies it.
type target interface {
	do(idx int) outcome
}

// result is one request's measurement. lat runs from the due time to the
// response; late is how far past its due time the generator sent it.
// A traced run also records when the client call began and returned.
type result struct {
	lat, late      time.Duration
	sent           time.Duration // send time relative to phase start
	doStart, doEnd time.Duration
	out            outcome
}

// inflightCap bounds outstanding requests per phase. It is far above what
// any passing rate needs (rate × latency limit), so only an overloaded
// ladder step reaches it.
const inflightCap = 4096

// phase is one completed open-loop run of a schedule.
type phase struct {
	name    string
	rate    float64
	elapsed time.Duration // phase start until the last response
	res     []result
}

// runOpen replays sched open loop against tgt: every request goes out at
// its due time on its own goroutine, whatever the number still
// outstanding, so a slow system faces a growing queue. The pacing thread
// sleeps with nanosleep on a locked OS thread: the runtime timer rounds
// sub-millisecond sleeps up to a millisecond, which would batch sends.
// With traced set, each request also records a span around its client
// call.
func runOpen(name string, rate float64, sched []item, tgt target, traced bool) phase {
	res := make([]result, len(sched))
	var inflight atomic.Int64
	var wg sync.WaitGroup
	runtime.LockOSThread()
	start := time.Now()
	for i, it := range sched {
		if d := it.due - time.Since(start); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
			}
		}
		sent := time.Since(start)
		res[i].sent = sent
		res[i].late = sent - it.due
		if inflight.Load() >= inflightCap {
			res[i].out = notSentOutcome
			continue
		}
		inflight.Add(1)
		wg.Add(1)
		go func(i int, it item) {
			defer wg.Done()
			if traced {
				res[i].doStart = time.Since(start)
			}
			res[i].out = tgt.do(it.idx)
			res[i].lat = time.Since(start) - it.due
			if traced {
				res[i].doEnd = res[i].lat + it.due
			}
			inflight.Add(-1)
		}(i, it)
	}
	runtime.UnlockOSThread()
	wg.Wait()
	return phase{name: name, rate: rate, elapsed: time.Since(start), res: res}
}

// failedLatency is the latency a failed request is scored at: above every
// latency limit, so a failure always counts as a miss.
const failedLatency = 10 * time.Second

// window is the number of consecutive requests one latency window holds:
// enough that its p99 has 10 samples beyond it.
const window = 1000

// summary is a phase's client-visible outcome. p50 and p99 are the
// medians, over consecutive windows of requests in due-time order, of
// each window's exact percentile; a stall on a shared host then moves one
// window, not the result. allP50 and allP99 are over the whole phase.
type summary struct {
	n, ok          int
	fails          [numOutcomes]int
	p50, p99       time.Duration
	allP50, allP99 time.Duration
	topQ           float64 // highest percentile with at least 10 samples beyond it
	topLat         time.Duration
	lateP50        time.Duration
	lateP99        time.Duration
	lateMax        time.Duration
	backlog        int     // responses still owed when the last request was due
	okPerSec       float64 // OK responses over the phase's elapsed time
	meanOKLat      time.Duration
}

func (s summary) failed() int { return s.n - s.ok }

func summarize(p phase) summary {
	s := summary{n: len(p.res)}
	lats := make([]time.Duration, len(p.res))
	lates := make([]time.Duration, len(p.res))
	var lastDue time.Duration
	for i, r := range p.res {
		if r.sent-r.late > lastDue {
			lastDue = r.sent - r.late
		}
		lates[i] = r.late
		if r.out == okOutcome {
			s.ok++
			lats[i] = r.lat
			s.meanOKLat += r.lat
		} else {
			s.fails[r.out]++
			lats[i] = failedLatency
		}
	}
	for _, r := range p.res {
		if r.out == okOutcome && r.sent-r.late+r.lat > lastDue {
			s.backlog++
		}
	}
	if s.ok > 0 {
		s.meanOKLat /= time.Duration(s.ok)
	}
	if s.n == 0 {
		return s
	}
	s.p50, s.p99 = windowed(lats)
	sortDur(lats)
	sortDur(lates)
	s.allP50 = quantile(lats, 0.50)
	s.allP99 = quantile(lats, 0.99)
	s.topQ = topQuantile(len(lats))
	s.topLat = quantile(lats, s.topQ)
	s.lateP50 = quantile(lates, 0.50)
	s.lateP99 = quantile(lates, 0.99)
	s.lateMax = lates[len(lates)-1]
	if p.elapsed > 0 {
		s.okPerSec = float64(s.ok) / p.elapsed.Seconds()
	}
	return s
}

// windowed returns the median over windows of consecutive latencies of
// each window's p50 and p99. A remainder shorter than a window joins the
// last window; fewer than two windows' worth is one window.
func windowed(lats []time.Duration) (p50, p99 time.Duration) {
	var w50, w99 []time.Duration
	for lo := 0; lo < len(lats); {
		hi := lo + window
		if len(lats)-hi < window {
			hi = len(lats)
		}
		w := append([]time.Duration(nil), lats[lo:hi]...)
		sortDur(w)
		w50 = append(w50, quantile(w, 0.50))
		w99 = append(w99, quantile(w, 0.99))
		lo = hi
	}
	sortDur(w50)
	sortDur(w99)
	return medianDur(w50), medianDur(w99)
}

// medianDur is the median of sorted durations, the mean of the middle
// two for an even count.
func medianDur(sorted []time.Duration) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func sortDur(d []time.Duration) { sort.Slice(d, func(i, j int) bool { return d[i] < d[j] }) }

// quantile is the nearest-rank q-quantile of sorted: the smallest sample
// with at least q of all samples at or below it. It reads raw samples, so
// a move smaller than any histogram bucket still shows.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// topQuantile is the highest quantile, in steps of 0.1 percentile, that
// leaves at least 10 of n samples beyond it; 0 when n < 11.
func topQuantile(n int) float64 {
	q := math.Floor(1000*(1-10/float64(n))) / 1000
	if q < 0 {
		return 0
	}
	return q
}

// sloOK reports whether a ladder step meets its limit: p99 within limit,
// failures under 0.1%, and no growing backlog — no more responses owed at
// the last due time than the rate can have outstanding at limit latency.
func (s summary) sloOK(rate float64, limit time.Duration) bool {
	if s.n == 0 {
		return false
	}
	owed := int(rate*limit.Seconds()) + 8
	return s.p99 <= limit && float64(s.failed()) < 0.001*float64(s.n) && s.backlog <= owed
}

// ladder searches a fixed geometric grid of rates, start × 2^(k/16), for
// the highest rate that meets the limit: up 16 grid steps (×2) at a time
// until a step fails, then halving the step between the last pass and
// the first failure down to one grid step (×1.044). Doubling keeps the
// first failing step within twice the knee, so its backlog stays small.
// step runs one rate and reports its summary. It returns the passing
// step with the highest rate, and whether any step passed.
func ladder(start float64, maxK int, limit time.Duration, step func(rate float64) summary) (best summary, bestRate float64, passed bool) {
	rateAt := func(k int) float64 { return start * math.Pow(2, float64(k)/16) }
	lo, hi := -1, -1 // highest passing k, lowest failing k
	// A step fails only if it fails twice: on a shared host a stall can
	// sink one step far below the knee, and the search never returns to
	// a rate above a failure.
	try := func(k int) {
		r := rateAt(k)
		for attempt := 0; attempt < 2; attempt++ {
			if s := step(r); s.sloOK(r, limit) {
				lo, best, bestRate, passed = k, s, r, true
				return
			}
		}
		hi = k
	}
	// The lowest step must pass on any working system: it gets a third try.
	for i := 0; i < 2 && lo < 0; i++ {
		hi = -1
		try(0)
	}
	for k := 16; k <= maxK && lo >= 0 && hi < 0; k += 16 {
		try(k)
	}
	for d := 8; d >= 1 && hi >= 0; d /= 2 {
		if lo+d < hi {
			try(lo + d)
		}
	}
	return best, bestRate, passed
}
