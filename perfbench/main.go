// Command perfbench is the repository benchmark: open-loop RPC latency
// and capacity against real protoaccd daemons on loopback, and the
// paper's simulated evaluation suite, every response and every simulated
// figure checked for correctness.
//
// Usage, from the repository root (run.sh builds protoaccd and this
// command into .bench_build/ first):
//
//	bash perfbench/run.sh --workload small-rpc|fleet-pool|sim-suite|all
//	          --seed n --seconds s --trace 0|1
//
// --trace 0 measures the end-to-end metrics BENCHMARK.json names, and
// prints beside them the ones a shared host moves too much to gate a
// change on (p99 latencies, rps_at_slo, rss_mb). --trace 1 is a separate
// run that times each layer from outside, through its public functions,
// and prints the per-layer metrics. Progress and tables go to standard
// error; the last line of standard output is the JSON result. The exit
// status is 1 when any response or simulated figure is wrong.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"protoacc/internal/serve/cluster"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line. Metrics are the ones
// BENCHMARK.json names; Info holds measurements that are printed but
// swing too far between runs on a shared host to gate a change on.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Info      map[string]metric `json:"-"`
}

func (r *report) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(name string, v float64, unit string) {
	if r.Info == nil {
		r.Info = make(map[string]metric)
	}
	r.Info[name] = metric{Value: v, Unit: unit}
}

// score adds a scored phase's requests to the attempted and failed counts.
func (r *report) score(s summary) {
	r.Attempted += s.n
	r.Failed += s.failed()
	if s.fails[mismatchOutcome] > 0 {
		r.Correct = false
	}
}

// config is the command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	daemon   string // protoaccd binary
	root     string // repository root: the committed results files
	nproc    int
}

var workloadNames = []string{"small-rpc", "fleet-pool", "sim-suite"}

func main() {
	var cfg config
	var traceFlag, seconds int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.daemon, "daemon", ".bench_build/protoaccd", "protoaccd binary")
	flag.StringVar(&cfg.root, "root", ".", "repository root")
	simPass := flag.Int("sim-pass", 0, "internal: run one suite pass on this many workers and print it as JSON")
	flag.Parse()
	if *simPass > 0 {
		if err := passMain(cfg.root, *simPass); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	cfg.seconds = float64(seconds)
	cfg.trace = traceFlag == 1
	cfg.nproc = runtime.NumCPU()
	// One GOMAXPROCS policy for the generator and every daemon: nproc.
	runtime.GOMAXPROCS(cfg.nproc)

	if seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames
	}
	for _, n := range names {
		if workloadIndex(n) < 0 {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", n)
			os.Exit(2)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(3)
	}()

	printFingerprint(cfg)
	combined := report{Correct: true}
	for _, n := range names {
		c := cfg
		c.workload = n
		r, err := runWorkload(c)
		stopAll()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		printMetrics(n, r)
		if len(names) == 1 {
			combined = r
			break
		}
		combined.Correct = combined.Correct && r.Correct
		combined.Attempted += r.Attempted
		combined.Failed += r.Failed
		for k, m := range r.Metrics {
			combined.set(n+"/"+k, m.Value, m.Unit)
		}
	}
	out, err := json.Marshal(combined)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !combined.Correct {
		os.Exit(1)
	}
}

func workloadIndex(name string) int {
	for i, n := range workloadNames {
		if n == name {
			return i
		}
	}
	return -1
}

func runWorkload(cfg config) (report, error) {
	if cfg.workload == "sim-suite" {
		if cfg.trace {
			return traceSim(cfg)
		}
		return runSim(cfg)
	}
	spec := rpcSpecs[cfg.workload]
	if cfg.trace {
		return traceRPC(cfg, spec)
	}
	return runRPC(cfg, spec)
}

// rpcSpec is one open-loop RPC workload.
type rpcSpec struct {
	nodes    int     // daemons
	low, mid float64 // fixed rates, req/s
	balancer bool    // drive the daemons through cluster.Balancer
	pool     func(seed int64) ([]rpcReq, func(*rand.Rand) func(int) int, error)
}

var rpcSpecs = map[string]rpcSpec{
	"small-rpc": {nodes: 1, low: 1000, mid: 15000,
		pool: func(int64) ([]rpcReq, func(*rand.Rand) func(int) int, error) { return smallPool() }},
	"fleet-pool": {nodes: 2, low: 1000, mid: 4000, balancer: true, pool: fleetPool},
}

// rpcLimit is the p99 limit of both RPC workloads' ladders. Between
// about 25k and 32k req/s fleet-pool's p99 wanders around 20ms from run
// to run, so a 20ms limit put its capacity anywhere in that range; its
// p99 crosses 10ms where it climbs steeply, as small-rpc's does.
const rpcLimit = 10 * time.Millisecond

// Phase shares of --seconds in an untraced run.
const (
	warmShare   = 0.05
	lowShare    = 0.30
	midShare    = 0.25
	ladderShare = 0.30
	// ladderSteps is about the steps a ladder search takes when its knee
	// lies between 4 and 8 times its start: 4 doubling and 4 refining, and
	// a second try of each of about 4 failing steps. Each step gets an
	// equal share of the ladder's time.
	ladderSteps = 12
	ladderMaxK  = 96
)

// setupReps is how many times a run sets up from scratch; setup_s is the
// median, and only the last set-up is kept.
const setupReps = 5

// phaseRNG gives each phase its own stream, a pure function of the seed.
func phaseRNG(seed int64, phase int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000 + int64(phase)))
}

func secs(cfg config, share float64) time.Duration {
	return time.Duration(share * cfg.seconds * float64(time.Second))
}

// rpcEnv is a set-up RPC workload: running daemons, connected clients,
// and the request pool.
type rpcEnv struct {
	ds    []*daemon
	bal   *cluster.Balancer // fleet-pool's client; nil when clients are plain connections
	tgt   *rpcTarget
	pick  func(*rand.Rand) func(int) int
	close func()
}

// run replays the seeded schedule of phase n at rate for share of the run.
func (env *rpcEnv) run(cfg config, n int, name string, rate, share float64, traced bool) phase {
	rng := phaseRNG(cfg.seed, n)
	d := secs(cfg, share)
	return runOpen(name, rate, schedule(rng, rate, d, env.pick(rng)), env.tgt, traced)
}

// warmUp runs the low rate untimed, so connections, goroutine stacks and
// the first pooled Systems exist before timing. It deliberately stays
// below overload: a daemon heap grown by an overload keeps its garbage
// collector busy long after, which shows as generator stalls.
func (env *rpcEnv) warmUp(cfg config, spec rpcSpec) {
	env.run(cfg, 0, "warm", spec.low, warmShare, false)
}

func setupRPC(cfg config, spec rpcSpec) (*rpcEnv, error) {
	env := &rpcEnv{close: func() {}}
	type started struct {
		d   *daemon
		err error
	}
	ch := make(chan started, spec.nodes)
	for i := 0; i < spec.nodes; i++ {
		go func() {
			d, err := startDaemon(cfg.daemon, cfg.nproc)
			ch <- started{d, err}
		}()
	}
	var errs []error
	for i := 0; i < spec.nodes; i++ {
		s := <-ch
		if s.err != nil {
			errs = append(errs, s.err)
			continue
		}
		env.ds = append(env.ds, s.d)
	}
	// Daemon order must not depend on start-up races.
	sort.Slice(env.ds, func(i, j int) bool { return env.ds[i].addr < env.ds[j].addr })
	stopDaemons := func() {
		for _, d := range env.ds {
			d.stop()
		}
	}
	if len(errs) > 0 {
		stopDaemons()
		return nil, errors.Join(errs...)
	}
	pool, pick, err := spec.pool(cfg.seed)
	if err != nil {
		stopDaemons()
		return nil, err
	}
	env.pick = pick
	env.tgt = &rpcTarget{pool: pool}
	if spec.balancer {
		b, err := newBalancer(env.ds)
		if err != nil {
			stopDaemons()
			return nil, err
		}
		env.bal = b
		env.tgt.clients = []doer{b}
		env.close = func() { b.Close(); stopDaemons() }
	} else {
		cs, closeConns, err := dialConns(env.ds[0].addr, cfg.nproc)
		if err != nil {
			stopDaemons()
			return nil, err
		}
		env.tgt.clients = cs
		env.close = func() { closeConns(); stopDaemons() }
	}
	return env, nil
}

// setupTimed sets up setupReps times, keeps the last, and returns the
// median set-up time.
func setupTimed[E any](mk func() (E, error), discard func(E)) (E, float64, error) {
	var env E
	var times []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		e, err := mk()
		if err != nil {
			return env, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < setupReps-1 {
			discard(e)
		} else {
			env = e
		}
	}
	return env, median(times), nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// runLadder finds rps_at_slo: the highest grid rate whose step meets the
// limit. It reports the OK throughput measured at that step, or 0 when no
// step met the limit.
func runLadder(cfg config, start float64, limit time.Duration, pick func(*rand.Rand) func(int) int, tgt target, r *report) float64 {
	stepDur := secs(cfg, ladderShare/ladderSteps)
	k := 0
	best, bestRate, ok := ladder(start, ladderMaxK, limit, func(rate float64) summary {
		rng := phaseRNG(cfg.seed, 100+k)
		k++
		p := runOpen("ladder", rate, schedule(rng, rate, stepDur, pick(rng)), tgt, false)
		s := summarize(p)
		fmt.Fprintf(os.Stderr, "  ladder %8.0f req/s: p99 %8.3f ms  failed %d/%d  backlog %d  pass=%v\n",
			rate, ms(s.p99), s.failed(), s.n, s.backlog, s.sloOK(rate, limit))
		if s.fails[mismatchOutcome] > 0 {
			r.Correct = false
		}
		// Let the step's stragglers clear; after an overloaded step, also
		// the garbage collection of the heap its backlog grew.
		pause := 100 * time.Millisecond
		if !s.sloOK(rate, limit) {
			pause = 500 * time.Millisecond
		}
		time.Sleep(pause)
		return s
	})
	if !ok {
		// rps_at_slo is not gated, so a host too stalled for even the
		// lowest step costs the run only this note.
		fmt.Fprintf(os.Stderr, "  rps_at_slo: no ladder step from %.0f req/s met the %v p99 limit\n", start, limit)
		return 0
	}
	r.score(best)
	fmt.Fprintf(os.Stderr, "  rps_at_slo: grid rate %.0f req/s, %.1f OK req/s measured\n", bestRate, best.okPerSec)
	return best.okPerSec
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// reportPhase scores a fixed-rate phase and sets its p50 metric. Its p99
// is only noted: on a shared 2-vCPU VM it swings 20-70% between runs of
// one seed, with the host's vCPU wake-up stalls (the generator's own
// lateness p99 ranges 0.2-4.7ms with no daemon at all).
func reportPhase(r *report, p phase, label string) summary {
	s := summarize(p)
	r.score(s)
	fmt.Fprintf(os.Stderr, "  %-4s %7.0f req/s: n=%d ok=%d windowed p50 %.3f p99 %.3f ms; whole phase p50 %.3f p99 %.3f p%.1f %.3f ms; late p50 %.3f p99 %.3f ms; fails %v\n",
		label, p.rate, s.n, s.ok, ms(s.p50), ms(s.p99), ms(s.allP50), ms(s.allP99), 100*s.topQ, ms(s.topLat), ms(s.lateP50), ms(s.lateP99), failText(s))
	r.set("p50_ms."+label, ms(s.p50), "ms")
	r.note("p99_ms."+label, ms(s.p99), "ms")
	return s
}

func failText(s summary) string {
	var parts []string
	for o := outcome(1); o < numOutcomes; o++ {
		if s.fails[o] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", outcomeNames[o], s.fails[o]))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// passesPerRound is how many suite passes follow each round of an RPC
// workload's fixed rates. Every run thereby checks the simulated figures,
// and sim_host_s is the median pass, sampled across the run.
const passesPerRound = 5

// checkPass reports a pass's figure differences; the first checked pass
// also sets paper_err_pct and prints the paper's ratio beside every
// headline speedup.
func checkPass(pr passResult, r *report) {
	for _, d := range pr.Diffs {
		fmt.Fprintln(os.Stderr, "perfbench: simulated figure mismatch:", d)
		r.Correct = false
	}
	if _, done := r.Metrics["paper_err_pct"]; done {
		return
	}
	errPct, lines := paperErr(pr)
	for _, l := range lines {
		fmt.Fprintln(os.Stderr, "  "+l)
	}
	r.set("paper_err_pct", errPct, "%")
}

// suitePasses runs n suite passes at simParallelism, each in its own
// process, checks them, and appends their wall times to walls.
func suitePasses(cfg config, n int, r *report, walls *[]float64) error {
	for i := 0; i < n; i++ {
		pr, err := passChild(cfg.root, simParallelism)
		if err != nil {
			return err
		}
		*walls = append(*walls, pr.Wall.Seconds())
		checkPass(pr, r)
	}
	return nil
}

// fixedRounds is how many pieces the low and mid phases are cut into.
// The pieces alternate, so each fixed rate is sampled across a longer
// stretch of the run: on a shared host, speed drifts over seconds, and a
// median over a longer stretch is steadier. The ladder runs last, since
// its overloaded steps leave the daemons with grown heaps.
const fixedRounds = 3

func runRPC(cfg config, spec rpcSpec) (report, error) {
	r := report{Correct: true}
	env, setup, err := setupTimed(func() (*rpcEnv, error) { return setupRPC(cfg, spec) }, func(e *rpcEnv) { e.close() })
	if err != nil {
		return r, err
	}
	defer env.close()
	r.set("setup_s", setup, "s")

	env.warmUp(cfg, spec)

	var lo, mi phase
	var midCPU time.Duration
	var walls []float64
	rounds := 0
	round := func() error {
		l := env.run(cfg, 10+rounds, "low", spec.low, lowShare/fixedRounds, false)
		c0, err := readAll(env.ds)
		if err != nil {
			return err
		}
		m := env.run(cfg, 20+rounds, "mid", spec.mid, midShare/fixedRounds, false)
		c1, err := readAll(env.ds)
		if err != nil {
			return err
		}
		midCPU += c1.cpu - c0.cpu
		lo.res, lo.rate = append(lo.res, l.res...), l.rate
		mi.res, mi.rate = append(mi.res, m.res...), m.rate
		rounds++
		return suitePasses(cfg, passesPerRound, &r, &walls)
	}
	for rounds < fixedRounds {
		if err := round(); err != nil {
			return r, err
		}
	}
	r.note("rps_at_slo", runLadder(cfg, 4*spec.low, rpcLimit, env.pick, env.tgt, &r), "req/s")
	reportPhase(&r, lo, "low")
	midSum := reportPhase(&r, mi, "mid")
	r.set("cpu_us_per_req", us(midCPU)/float64(max(midSum.ok, 1)), "us")
	// Peak RSS over the whole run. The ladder's overloaded steps fill the
	// daemons' System pools, so the peak is the pools' steady ceiling
	// rather than wherever garbage collection stood at some moment.
	c, err := readAll(env.ds)
	if err != nil {
		return r, err
	}
	r.note("rss_mb", float64(c.hwmKiB)/1024, "MiB")
	r.set("success_rate", successRate(r), "fraction")
	r.set("sim_host_s", median(walls), "s")
	return r, nil
}

func successRate(r report) float64 {
	return float64(r.Attempted-r.Failed) / float64(max(r.Attempted, 1))
}

// simLimit is the sim-suite's p99 limit on one simulation's host time.
const simLimit = 250 * time.Millisecond

// simRun is one sim-suite phase: every simulation as one request whose
// latency is its host time, and per pass the wall time, set-up time and
// peak RSS, plus the passes' total CPU time.
type simRun struct {
	p             phase
	walls, setups []float64
	cpu           time.Duration
	hwmMiB        []float64
}

// simPhase runs whole suite passes on workers for at least dur, and at
// least one pass.
func simPhase(cfg config, workers int, dur time.Duration, r *report) (simRun, error) {
	sr := simRun{p: phase{name: fmt.Sprintf("%d-worker passes", workers)}}
	start := time.Now()
	for len(sr.walls) == 0 || time.Since(start) < dur {
		pr, err := passChild(cfg.root, workers)
		if err != nil {
			return sr, err
		}
		checkPass(pr, r)
		sr.walls = append(sr.walls, pr.Wall.Seconds())
		sr.setups = append(sr.setups, pr.Setup.Seconds())
		sr.cpu += pr.usage.cpu
		sr.hwmMiB = append(sr.hwmMiB, float64(pr.usage.hwmKiB)/1024)
		for _, d := range pr.Jobs {
			sr.p.res = append(sr.p.res, result{lat: d})
		}
	}
	sr.p.elapsed = time.Since(start)
	sr.p.rate = float64(len(sr.p.res)) / sr.p.elapsed.Seconds()
	return sr, nil
}

// runSim measures the suite closed loop, one pass per process: low is one
// simulation at a time, mid is simParallelism at a time, as the figure
// commands run it. sim_host_s is the median mid pass, and rps_at_slo the
// mid simulation rate, provided its p99 host time meets simLimit.
func runSim(cfg config) (report, error) {
	r := report{Correct: true}
	lo, err := simPhase(cfg, 1, secs(cfg, 0.45), &r)
	if err != nil {
		return r, err
	}
	mi, err := simPhase(cfg, simParallelism, secs(cfg, 0.45), &r)
	if err != nil {
		return r, err
	}
	reportPhase(&r, lo.p, "low")
	midSum := reportPhase(&r, mi.p, "mid")
	if midSum.p99 > simLimit || midSum.failed() > 0 {
		return r, fmt.Errorf("simulation p99 %v over the %v limit", midSum.p99, simLimit)
	}
	r.set("setup_s", median(append(lo.setups, mi.setups...)), "s")
	r.set("cpu_us_per_req", us(mi.cpu)/float64(max(midSum.ok, 1)), "us")
	r.note("rps_at_slo", mi.p.rate, "req/s")
	r.set("sim_host_s", median(mi.walls), "s")
	r.set("success_rate", successRate(r), "fraction")
	r.note("rss_mb", median(append(lo.hwmMiB, mi.hwmMiB...)), "MiB")
	return r, nil
}

// printMetrics writes a workload's metrics, sorted, with units.
func printMetrics(workload string, r report) {
	var names []string
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s: correct=%v attempted=%d failed=%d\n", workload, r.Correct, r.Attempted, r.Failed)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	names = names[:0]
	for n := range r.Info {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Info[n]
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s (not gated)\n", n, m.Value, m.Unit)
	}
}
