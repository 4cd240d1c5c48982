package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"protoacc/internal/serve"
)

func TestQuantileNearestRank(t *testing.T) {
	var s []time.Duration
	for i := 1; i <= 100; i++ {
		s = append(s, time.Duration(i))
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0, 1}, {0.01, 1}, {0.5, 50}, {0.505, 51}, {0.99, 99}, {0.999, 100}, {1, 100}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]time.Duration{7}, 0.99); got != 7 {
		t.Errorf("one sample: %v", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("no samples: %v", got)
	}
}

func TestTopQuantileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 0}, {100, 0.9}, {1000, 0.99}, {4941, 0.997}, {60000, 0.999}} {
		got := topQuantile(c.n)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("topQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
		if c.n > 10 && float64(c.n)*(1-got) < 10-1e-9 {
			t.Errorf("topQuantile(%d) = %v leaves fewer than 10 samples beyond", c.n, got)
		}
	}
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	mk := func(seed int64) []item {
		rng := phaseRNG(seed, 2)
		pool, pick, err := smallPool()
		if err != nil {
			t.Fatal(err)
		}
		s := schedule(rng, 15000, time.Second, pick(rng))
		for _, it := range s {
			if it.idx < 0 || it.idx >= len(pool) {
				t.Fatalf("pick %d outside pool of %d", it.idx, len(pool))
			}
		}
		return s
	}
	a, b, c := mk(1), mk(1), mk(2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if n := len(a); n < 14000 || n > 16000 {
		t.Errorf("15000 req/s for 1s scheduled %d requests", n)
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i].due < a[j].due }) {
		t.Error("due times not ascending")
	}
}

func TestFleetPoolDeterministicAndCanonical(t *testing.T) {
	a, _, err := fleetPool(3)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := fleetPool(3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different fleet pools")
	}
	largest := 0
	for _, r := range a {
		if len(r.payload) > 64<<10 {
			t.Fatalf("payload of %d bytes exceeds the daemon limit", len(r.payload))
		}
		largest = max(largest, len(r.payload))
	}
	if largest <= 8<<10 {
		t.Errorf("largest payload %d B: the byte-heavy tail is missing", largest)
	}
}

// failures builds a phase of n requests, all OK at 1ms except the given
// outcomes.
func failures(n int, outs ...outcome) phase {
	p := phase{res: make([]result, n), elapsed: time.Second}
	for i := range p.res {
		p.res[i] = result{lat: time.Millisecond, sent: time.Duration(i) * 10 * time.Millisecond}
	}
	for i, o := range outs {
		p.res[i].out = o
	}
	return p
}

func TestEveryFailureKindCountsAndMisses(t *testing.T) {
	for o := outcome(1); o < numOutcomes; o++ {
		s := summarize(failures(100, o, o))
		if s.failed() != 2 || s.fails[o] != 2 {
			t.Errorf("%s: failed %d, fails[%s] %d, want 2", outcomeNames[o], s.failed(), outcomeNames[o], s.fails[o])
		}
		if s.p99 != failedLatency {
			t.Errorf("%s: p99 %v, want the failure latency %v", outcomeNames[o], s.p99, failedLatency)
		}
		if s.sloOK(100, time.Second) {
			t.Errorf("%s: a step with 2%% failures met the limit", outcomeNames[o])
		}
		r := report{Correct: true}
		r.score(s)
		if r.Attempted != 100 || r.Failed != 2 {
			t.Errorf("%s: attempted %d failed %d", outcomeNames[o], r.Attempted, r.Failed)
		}
		if r.Correct != (o != mismatchOutcome) {
			t.Errorf("%s: correct = %v", outcomeNames[o], r.Correct)
		}
		if rate := successRate(r); rate != 0.98 {
			t.Errorf("%s: success rate %v", outcomeNames[o], rate)
		}
	}
	if s := summarize(failures(100)); s.failed() != 0 || s.p99 != time.Millisecond || !s.sloOK(100, 10*time.Millisecond) {
		t.Errorf("clean phase: %+v", s)
	}
}

func TestClassify(t *testing.T) {
	want := []byte{8, 1}
	cases := []struct {
		resp serve.Response
		err  error
		out  outcome
	}{
		{serve.Response{Status: serve.StatusOK, Payload: []byte{8, 1}}, nil, okOutcome},
		{serve.Response{Status: serve.StatusOK, Payload: []byte{8, 2}}, nil, mismatchOutcome},
		{serve.Response{Status: serve.StatusShed}, nil, statusOutcome},
		{serve.Response{Status: serve.StatusDeadline}, nil, statusOutcome},
		{serve.Response{}, fmt.Errorf("serve: request 9: %w", serve.ErrTimeout), timeoutOutcome},
		{serve.Response{}, serve.ErrClosed, transportOutcome},
	}
	for _, c := range cases {
		if got := classify(c.resp, c.err, want); got != c.out {
			t.Errorf("classify(%v, %v) = %s, want %s", c.resp.Status, c.err, outcomeNames[got], outcomeNames[c.out])
		}
	}
}

// blockTarget holds every request until release is closed.
type blockTarget struct{ release chan struct{} }

func (b blockTarget) do(int) outcome { <-b.release; return okOutcome }

func TestInflightCapCountsNotSent(t *testing.T) {
	tgt := blockTarget{release: make(chan struct{})}
	sched := make([]item, inflightCap+5)
	go func() {
		time.Sleep(200 * time.Millisecond)
		close(tgt.release)
	}()
	s := summarize(runOpen("cap", 1, sched, tgt, false))
	if s.fails[notSentOutcome] != 5 || s.ok != inflightCap {
		t.Errorf("not sent %d, ok %d; want 5 and %d", s.fails[notSentOutcome], s.ok, inflightCap)
	}
}

func TestOpenLoopMeasuresFromDueTime(t *testing.T) {
	// A target that takes 20ms: with requests due 1ms apart, an open loop
	// keeps sending, so all 10 overlap and finish about 20ms after their
	// due times; a closed loop would have queued them.
	slow := targetFunc(func(int) outcome { time.Sleep(20 * time.Millisecond); return okOutcome })
	var sched []item
	for i := 0; i < 10; i++ {
		sched = append(sched, item{due: time.Duration(i) * time.Millisecond})
	}
	p := runOpen("open", 1000, sched, slow, true)
	for i, r := range p.res {
		if r.lat < 20*time.Millisecond || r.lat > 60*time.Millisecond {
			t.Errorf("request %d latency %v, want about 20ms", i, r.lat)
		}
		if r.doStart < r.sent || r.doEnd < r.doStart {
			t.Errorf("request %d: traced call [%v, %v] before its send %v", i, r.doStart, r.doEnd, r.sent)
		}
	}
}

type targetFunc func(int) outcome

func (f targetFunc) do(i int) outcome { return f(i) }

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},  // overlaps a by 10
		{Name: "c", Parent: 0, Start: 90, End: 120}, // runs past the root
		{Name: "a1", Parent: 1, Start: 15, End: 20},
	}
	got := selfTimes(spans)
	want := []time.Duration{100 - 50 - 10, 30 - 5, 30, 30, 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestLadderFindsHighestPassingGridRate(t *testing.T) {
	const capacity = 27000.0
	var tried []float64
	step := func(rate float64) summary {
		tried = append(tried, rate)
		p := failures(1000)
		if rate > capacity {
			for i := range p.res {
				p.res[i].lat = time.Second
			}
		}
		return summarize(p)
	}
	_, best, ok := ladder(4000, ladderMaxK, 10*time.Millisecond, step)
	if !ok {
		t.Fatal("no step passed")
	}
	if best > capacity || best*math.Pow(2, 1.0/16) <= capacity {
		t.Errorf("ladder found %.0f req/s, want the highest grid rate at or under %.0f", best, capacity)
	}
	if len(tried) > ladderSteps {
		t.Errorf("ladder took %d steps, budget %d", len(tried), ladderSteps)
	}
	for i := 1; i < len(tried); i++ {
		if tried[i] > capacity && tried[i] != tried[i-1] && (i+1 == len(tried) || tried[i+1] != tried[i]) {
			t.Errorf("failing rate %.0f was not tried twice: %v", tried[i], tried)
		}
	}
}

func TestPaperErrAgainstPaperValues(t *testing.T) {
	var pr passResult
	for i := 0; i < 4; i++ {
		pr.Speedups[i] = [2]float64{paperSpeedups[i].boom, paperSpeedups[i].xeon}
	}
	pr.Speedups[4] = [2]float64{6.2, 3.8}
	pr.Speedups[5] = [2]float64{6.2, 3.8}
	got, lines := paperErr(pr)
	if len(lines) != 12 {
		t.Errorf("%d speedup lines, want 12", len(lines))
	}
	// Only the §5.1.3 geomean of the four classes departs from the paper.
	var g [2]float64
	for col := 0; col < 2; col++ {
		p := 1.0
		for i := 0; i < 4; i++ {
			p *= pr.Speedups[i][col]
		}
		g[col] = math.Pow(p, 0.25)
	}
	want := 100 * (math.Abs(g[0]/11.2-1) + math.Abs(g[1]/3.8-1)) / 12
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("paper error %v, want %v", got, want)
	}
}

// TestBenchmarkJSONNamesEveryMetric keeps BENCHMARK.json and the metrics
// the benchmark emits in step.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d emitted", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		p := spec.PerLayer[i]
		if p.Name != m.name || p.Unit != m.unit || p.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, emitted %s %s %s", i, p, m.name, m.unit, m.better)
		}
	}
	want := map[string]string{}
	for _, m := range spec.EndToEnd {
		want[m.Name] = m.Unit
	}
	r := report{}
	for _, name := range []string{"setup_s", "p50_ms.low", "p50_ms.mid",
		"cpu_us_per_req", "success_rate", "sim_host_s", "paper_err_pct"} {
		if _, ok := want[name]; !ok {
			t.Errorf("end-to-end metric %s missing from BENCHMARK.json", name)
		}
		r.set(name, 1, want[name])
	}
	if len(want) != len(r.Metrics) {
		t.Errorf("BENCHMARK.json names %d end-to-end metrics, the benchmark emits %d", len(want), len(r.Metrics))
	}
}

func TestStringPayloadsFollowFleetBuckets(t *testing.T) {
	pool, _, err := smallPool()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range pool {
		if string(r.want) != string(r.payload) {
			t.Fatalf("catalog sample is not canonical")
		}
	}
	strT := serve.DefaultCatalog().Lookup("string").Type
	ps, err := stringPayloads(rand.New(rand.NewSource(1)), strT, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) < stringPoolSize-8 || len(ps) > stringPoolSize+8 {
		t.Errorf("%d string payloads, want about %d", len(ps), stringPoolSize)
	}
}

func TestLadderRetriesAStalledFirstStep(t *testing.T) {
	calls := 0
	step := func(rate float64) summary {
		calls++
		p := failures(1000)
		if calls == 1 || rate > 20000 {
			for i := range p.res {
				p.res[i].lat = time.Second
			}
		}
		return summarize(p)
	}
	if _, best, ok := ladder(4000, ladderMaxK, 10*time.Millisecond, step); !ok || best < 16000 {
		t.Errorf("ladder after a stalled first step: best %.0f, passed %v", best, ok)
	}
	always := func(float64) summary { return summarize(failures(10, timeoutOutcome)) }
	if _, _, ok := ladder(4000, ladderMaxK, 10*time.Millisecond, always); ok {
		t.Error("a ladder whose every step fails reported a pass")
	}
}

func TestWindowedMedianIgnoresOneBadWindow(t *testing.T) {
	var lats []time.Duration
	for w := 0; w < 5; w++ {
		for i := 0; i < window; i++ {
			d := time.Duration(i%100+1) * time.Microsecond
			if w == 2 {
				d *= 50 // one stalled window
			}
			lats = append(lats, d)
		}
	}
	p50, p99 := windowed(lats)
	if p50 != 50*time.Microsecond || p99 != 99*time.Microsecond {
		t.Errorf("windowed p50 %v p99 %v, want 50µs and 99µs", p50, p99)
	}
	// A remainder shorter than a window joins the last one.
	if p50, _ := windowed(lats[:window+10]); p50 != quantile(sorted(lats[:window+10]), 0.5) {
		t.Errorf("one window and a remainder: p50 %v", p50)
	}
}

func sorted(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sortDur(s)
	return s
}
