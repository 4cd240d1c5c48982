package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"protoacc/internal/bench"
	"protoacc/internal/core"
	"protoacc/internal/pb/codec"
	"protoacc/internal/pb/dynamic"
	"protoacc/internal/serve"
	"protoacc/internal/serve/cluster"
	"protoacc/internal/telemetry"
	"protoacc/internal/workloads"
)

// layerMetric is one per-layer metric with the end-to-end metric it
// should move, on which workload, and where it should stay flat. The
// pairing is written down before measuring, so a change to one layer can
// be checked against the end-to-end result it claims.
type layerMetric struct {
	name, unit, better string
	moves, flat        string
}

var layerMetrics = []layerMetric{
	{"pb.unmarshal_ns", "ns", "lower", "cpu_us_per_req, rps_at_slo @ small-rpc (admission parse)", "sim-suite"},
	{"pb.marshal_ns", "ns", "lower", "cpu_us_per_req, rps_at_slo @ small-rpc (response marshal)", "sim-suite"},
	{"pb.allocs_per_msg", "count", "lower", "cpu_us_per_req @ small-rpc", "sim-suite"},
	{"sim.host_ns_per_msg.accel", "ns", "lower", "sim_host_s @ sim-suite", "small-rpc, fleet-pool (diluted in execute)"},
	{"sim.host_ns_per_msg.boom", "ns", "lower", "sim_host_s @ sim-suite", "small-rpc, fleet-pool"},
	{"sim.host_ns_per_msg.xeon", "ns", "lower", "sim_host_s @ sim-suite", "small-rpc, fleet-pool"},
	{"sim.cycles_per_msg.deser", "cycles", "lower", "paper_err_pct only (simulated; repeats exactly)", "every host-time metric"},
	{"sim.cycles_per_msg.ser", "cycles", "lower", "paper_err_pct only (simulated; repeats exactly)", "every host-time metric"},
	{"core.ns_per_req.b1", "ns", "lower", "p50_ms.low, cpu_us_per_req @ small-rpc (one request per batch at 1k/s)", "none"},
	{"core.ns_per_req.b16", "ns", "lower", "cpu_us_per_req, rps_at_slo @ small-rpc, fleet-pool; sim_host_s", "none"},
	{"core.pool_ns", "ns", "lower", "cpu_us_per_req @ small-rpc", "sim-suite"},
	{"tile.p50_ms.low", "ms", "lower", "p50_ms.low @ small-rpc (coalescing window)", "sim-suite"},
	{"tile.p99_ms.mid", "ms", "lower", "rps_at_slo @ small-rpc (queue wait)", "sim-suite"},
	{"tile.queue_wait_us", "us", "lower", "p50_ms.mid, rps_at_slo @ small-rpc", "sim-suite"},
	{"tile.coalesce_wait_us", "us", "lower", "p50_ms.low @ small-rpc", "sim-suite"},
	{"tile.execute_us", "us", "lower", "cpu_us_per_req @ small-rpc, fleet-pool", "sim-suite"},
	{"tile.respond_write_us", "us", "lower", "p50_ms.* @ small-rpc, fleet-pool", "sim-suite"},
	{"tile.batch_size", "count", "higher", "cpu_us_per_req, rps_at_slo @ small-rpc", "sim-suite"},
	{"transport.floor_us", "us", "lower", "rps_at_slo, p50_ms.mid, cpu_us_per_req @ small-rpc", "sim-suite"},
	{"transport.syscalls_per_req", "count", "lower", "cpu_us_per_req, rps_at_slo @ small-rpc", "sim-suite"},
	{"transport.unattributed_us", "us", "lower", "p50_ms.* @ small-rpc; per-byte copies @ fleet-pool", "sim-suite"},
	{"cluster.node_skew", "ratio", "lower", "rps_at_slo @ fleet-pool", "small-rpc, sim-suite"},
	{"cluster.overhead_us", "us", "lower", "p50_ms.* @ fleet-pool", "small-rpc, sim-suite"},
	{"cluster.retries", "count", "lower", "rps_at_slo @ fleet-pool", "small-rpc, sim-suite"},
	{"telemetry.record_ns", "ns", "lower", "cpu_us_per_req @ small-rpc, fleet-pool (~7 records per request)", "sim-suite"},
	{"workloads.synth_ms", "ms", "lower", "setup_s @ fleet-pool", "small-rpc, sim-suite"},
	{"gen.late_ms.p99", "ms", "lower", "none: a run whose generator fell behind is reported, not trusted", "all"},
	{"gen.late_ms.max", "ms", "lower", "none", "all"},
	{"gen.cpu_us_per_req", "us", "lower", "none", "all"},
	{"trace.overhead_us", "us", "lower", "none: traced minus untraced p50 at the low rate", "all"},
}

// span is one interval the benchmark's own code timed around a call into
// a layer. Spans of one request share Req; Parent indexes the enclosing
// span, or is -1. A probe span covers Count calls.
type span struct {
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int    `json:"count,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	req   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(s span) int {
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// probe times count calls of fn as one span and returns the time per call.
func (t *tracer) probe(name string, count int, fn func()) time.Duration {
	t.req++
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	t.add(span{Req: t.req, Name: name, Parent: -1, Start: int64(start), End: int64(end), Count: count})
	return (end - start) / time.Duration(max(count, 1))
}

// phaseSpans records a traced open-loop phase: per request a root span
// from due time to response, with the generator's wait and the client
// call as children.
func (t *tracer) phaseSpans(p phase, phaseStart time.Duration, client string) {
	for _, r := range p.res {
		if r.out == notSentOutcome {
			continue
		}
		t.req++
		due := int64(phaseStart + r.sent - r.late)
		root := t.add(span{Req: t.req, Name: p.name + "/request", Parent: -1, Start: due, End: due + int64(r.lat)})
		t.add(span{Req: t.req, Name: "generator.wait", Parent: root, Start: due, End: int64(phaseStart + r.sent)})
		t.add(span{Req: t.req, Name: client, Parent: root, Start: int64(phaseStart + r.doStart), End: int64(phaseStart + r.doEnd)})
	}
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		iv := kids[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, cur := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// runTraced runs one open-loop phase with request spans.
func runTraced(tr *tracer, cfg config, n int, name string, rate float64, share float64, pick func(*rand.Rand) func(int) int, tgt target, client string) phase {
	rng := phaseRNG(cfg.seed, n)
	d := secs(cfg, share)
	start := time.Since(tr.t0)
	p := runOpen(name, rate, schedule(rng, rate, d, pick(rng)), tgt, true)
	tr.phaseSpans(p, start, client)
	return p
}

// tracePhaseShare is each traced phase's share of --seconds.
const tracePhaseShare = 0.12

// traceServing runs spec's traffic with tracing and probes every serving
// layer: the generator, the tiles, the transport and the balancer.
func traceServing(cfg config, spec rpcSpec, tr *tracer, r *report) ([]rpcReq, error) {
	env, err := setupRPC(cfg, spec)
	if err != nil {
		return nil, err
	}
	defer env.close()
	client := "serve.Conn.Do"
	if env.bal != nil {
		client = "cluster.Balancer.Do"
	}
	env.warmUp(cfg, spec)

	// Tracing overhead: the same low schedule, untraced then traced.
	rng := phaseRNG(cfg.seed, 10)
	d := secs(cfg, tracePhaseShare)
	sched := schedule(rng, spec.low, d, env.pick(rng))
	base := summarize(runOpen("low", spec.low, sched, env.tgt, false))
	start := time.Since(tr.t0)
	lowP := runOpen("low", spec.low, sched, env.tgt, true)
	tr.phaseSpans(lowP, start, client)
	low := summarize(lowP)
	r.set("trace.overhead_us", us(low.p50-base.p50), "us")
	r.score(base)
	r.score(low)

	// The mid rate, with the daemons' own counters read around it.
	self := strconv.Itoa(os.Getpid())
	before, err := daemonCounters(env.ds)
	if err != nil {
		return nil, err
	}
	g0, err := readProc(self)
	if err != nil {
		return nil, err
	}
	mid := summarize(runTraced(tr, cfg, 20, "mid", spec.mid, tracePhaseShare, env.pick, env.tgt, client))
	g1, err := readProc(self)
	if err != nil {
		return nil, err
	}
	after, err := daemonCounters(env.ds)
	if err != nil {
		return nil, err
	}
	r.score(mid)
	r.set("gen.late_ms.p99", ms(mid.lateP99), "ms")
	r.set("gen.late_ms.max", ms(mid.lateMax), "ms")
	r.set("gen.cpu_us_per_req", us(g1.cpu-g0.cpu)/float64(max(mid.n, 1)), "us")
	n := float64(max(mid.n, 1))
	r.set("transport.syscalls_per_req", float64(after.proc.syscall-before.proc.syscall)/n, "count")
	stage := func(name string) float64 {
		c := after.stages[name][0] - before.stages[name][0]
		return (after.stages[name][1] - before.stages[name][1]) / max(c, 1)
	}
	for _, st := range []string{"queue_wait", "coalesce_wait", "execute", "respond_write"} {
		r.set("tile."+st+"_us", stage(st)/1e3, "us")
	}
	r.set("tile.batch_size", stage("batch_size"), "count")
	r.set("transport.unattributed_us", us(mid.meanOKLat)-stage("e2e")/1e3, "us")

	if err := tileProbe(tr, cfg, spec, env, r); err != nil {
		return nil, err
	}
	if err := clusterProbes(tr, env, r); err != nil {
		return nil, err
	}
	if env.bal != nil {
		skew(r, env.bal.NodeStats())
	}
	r.set("telemetry.record_ns", float64(tr.probe("telemetry.Histogram.Record", 1<<20, func() {
		var h telemetry.Histogram
		for i := 0; i < 1<<20; i++ {
			h.Record(time.Duration(i))
		}
	})), "ns")
	var synth []float64
	for i := 0; i < 5; i++ {
		synth = append(synth, ms(tr.probe("workloads.Synthesize", 1, func() {
			workloads.Synthesize(workloads.SynthOptions{Seed: cfg.seed})
		})))
	}
	r.set("workloads.synth_ms", median(synth), "ms")
	return env.tgt.pool, nil
}

// daemonSnapshot is the daemons' summed /proc counters and /statusz
// stage totals: stage → {count, sum}.
type daemonSnapshot struct {
	proc   procCounters
	stages map[string][2]float64
}

func daemonCounters(ds []*daemon) (daemonSnapshot, error) {
	snap := daemonSnapshot{stages: make(map[string][2]float64)}
	var err error
	if snap.proc, err = readAll(ds); err != nil {
		return snap, err
	}
	for _, d := range ds {
		st, err := d.statusz()
		if err != nil {
			return snap, err
		}
		for _, s := range st.Stages {
			v := snap.stages[s.Stage]
			snap.stages[s.Stage] = [2]float64{v[0] + float64(s.Count), v[1] + s.SumNS}
		}
	}
	return snap, nil
}

// tileProbe replays the low and mid schedules through an in-process
// server with default options, which leaves out framing and TCP.
func tileProbe(tr *tracer, cfg config, spec rpcSpec, env *rpcEnv, r *report) error {
	srv, err := serve.NewServer(serve.Options{})
	if err != nil {
		return err
	}
	defer srv.Close()
	tgt := &rpcTarget{pool: env.tgt.pool, clients: []doer{srv.InProc()}}
	rng := phaseRNG(cfg.seed, 0)
	d := secs(cfg, warmShare)
	runOpen("tile-warm", spec.low, schedule(rng, spec.low, d, env.pick(rng)), tgt, false)
	low := summarize(runTraced(tr, cfg, 10, "tile-low", spec.low, tracePhaseShare, env.pick, tgt, "serve.InProc.Do"))
	mid := summarize(runTraced(tr, cfg, 20, "tile-mid", spec.mid, tracePhaseShare, env.pick, tgt, "serve.InProc.Do"))
	r.score(low)
	r.score(mid)
	r.set("tile.p50_ms.low", ms(low.p50), "ms")
	r.set("tile.p99_ms.mid", ms(mid.p99), "ms")
	return nil
}

// sequentialProbes is how many one-at-a-time calls each transport and
// balancer probe makes.
const sequentialProbes = 1000

// clusterProbes measures the transport floor and the balancer's cost,
// one request at a time on fresh clients of the first daemon.
func clusterProbes(tr *tracer, env *rpcEnv, r *report) error {
	conns, closeConns, err := dialConns(env.ds[0].addr, 1)
	if err != nil {
		return err
	}
	defer closeConns()
	conn := conns[0]
	bal, err := newBalancer(env.ds[:1])
	if err != nil {
		return err
	}
	defer bal.Close()

	// A request for an unknown schema is refused at admission: a full
	// round trip through framing and TCP with no tile work.
	var floor []time.Duration
	for i := 0; i < sequentialProbes; i++ {
		var resp serve.Response
		d := tr.probe("transport.floor/serve.Conn.Do", 1, func() {
			resp, err = conn.Do(serve.Request{Schema: "perfbench-unknown", Timeout: reqTimeout})
		})
		if err != nil || resp.Status != serve.StatusBadRequest {
			return fmt.Errorf("transport floor probe: status %v, err %v", resp.Status, err)
		}
		floor = append(floor, d)
	}
	sortDur(floor)
	r.set("transport.floor_us", us(quantile(floor, 0.5)), "us")

	var direct, viaBal []time.Duration
	for i := 0; i < sequentialProbes; i++ {
		req := &env.tgt.pool[i%len(env.tgt.pool)]
		for _, c := range []struct {
			name string
			d    doer
			out  *[]time.Duration
		}{{"cluster.direct/serve.Conn.Do", conn, &direct}, {"cluster.Balancer.Do", bal, &viaBal}} {
			var resp serve.Response
			dur := tr.probe(c.name, 1, func() {
				resp, err = c.d.Do(serve.Request{Op: req.op, Schema: req.schema, Timeout: reqTimeout, Payload: req.payload})
			})
			if o := classify(resp, err, req.want); o != okOutcome {
				if o == mismatchOutcome {
					r.Correct = false
				}
				return fmt.Errorf("balancer probe: %s", outcomeNames[o])
			}
			*c.out = append(*c.out, dur)
		}
	}
	sortDur(direct)
	sortDur(viaBal)
	r.set("cluster.overhead_us", us(quantile(viaBal, 0.5)-quantile(direct, 0.5)), "us")
	retries := bal.Counters()["serve/cluster/retries"]
	if env.bal != nil {
		retries += env.bal.Counters()["serve/cluster/retries"]
	}
	r.set("cluster.retries", retries, "count")
	skew(r, bal.NodeStats())
	return nil
}

// skew sets cluster.node_skew: the most-loaded node's requests over the
// mean.
func skew(r *report, nodes []cluster.NodeCounters) {
	var sum, top float64
	for _, n := range nodes {
		v := float64(n.Requests)
		sum += v
		top = max(top, v)
	}
	r.set("cluster.node_skew", top/max(sum/float64(len(nodes)), 1), "ratio")
}

// figuresOf groups an RPC pool into one simulation workload per schema,
// each of its distinct payloads once, for both operations.
func figuresOf(pool []rpcReq) ([]figure, error) {
	cat := serve.DefaultCatalog()
	byName := map[string]*bench.Workload{}
	seen := map[string]bool{}
	var names []string
	for _, q := range pool {
		key := q.schema + "\x00" + string(q.payload)
		if seen[key] {
			continue
		}
		seen[key] = true
		w := byName[q.schema]
		if w == nil {
			w = &bench.Workload{Name: q.schema, Type: cat.Lookup(q.schema).Type}
			byName[q.schema] = w
			names = append(names, q.schema)
		}
		m, err := codec.Unmarshal(w.Type, q.payload)
		if err != nil {
			return nil, err
		}
		w.Messages = append(w.Messages, m)
		w.Wire = append(w.Wire, q.payload)
		w.Bytes += uint64(len(q.payload))
	}
	sort.Strings(names)
	var ws []bench.Workload
	for _, n := range names {
		ws = append(ws, *byName[n])
	}
	opts := bench.DefaultOptions()
	return []figure{
		{op: bench.Deserialize, workloads: ws, opts: opts},
		{op: bench.Serialize, workloads: ws, opts: opts},
	}, nil
}

// layerMsg is one message the codec, simulator and core probes run on.
type layerMsg struct {
	w    *bench.Workload
	wire []byte
	m    *dynamic.Message
}

// layerMsgs lists every message of figs' workloads once.
func layerMsgs(figs []figure) []layerMsg {
	var msgs []layerMsg
	seen := map[*bench.Workload]bool{}
	for fi := range figs {
		for wi := range figs[fi].workloads {
			w := &figs[fi].workloads[wi]
			if seen[w] || figs[fi].op != bench.Deserialize {
				continue
			}
			seen[w] = true
			for i := range w.Wire {
				msgs = append(msgs, layerMsg{w, w.Wire[i], w.Messages[i]})
			}
		}
	}
	return msgs
}

// pbProbes times the software codec on msgs.
func pbProbes(tr *tracer, msgs []layerMsg, r *report) error {
	// Enough rounds over the messages to run ~200ms.
	rounds := 1
	for {
		var err error
		d := tr.probe("pb/codec.Unmarshal", rounds*len(msgs), func() {
			for k := 0; k < rounds; k++ {
				for _, m := range msgs {
					if _, e := codec.Unmarshal(m.w.Type, m.wire); e != nil {
						err = e
					}
				}
			}
		})
		if err != nil {
			return err
		}
		if d*time.Duration(rounds*len(msgs)) > 200*time.Millisecond || rounds > 1<<16 {
			r.set("pb.unmarshal_ns", float64(d), "ns")
			break
		}
		rounds *= 4
	}
	var merr error
	d := tr.probe("pb/codec.Marshal", rounds*len(msgs), func() {
		for k := 0; k < rounds; k++ {
			for _, m := range msgs {
				if _, e := codec.Marshal(m.m); e != nil {
					merr = e
				}
			}
		}
	})
	if merr != nil {
		return merr
	}
	r.set("pb.marshal_ns", float64(d), "ns")
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, m := range msgs {
		if dm, err := codec.Unmarshal(m.w.Type, m.wire); err == nil {
			codec.Marshal(dm)
		}
	}
	runtime.ReadMemStats(&m1)
	r.set("pb.allocs_per_msg", float64(m1.Mallocs-m0.Mallocs)/float64(len(msgs)), "count")
	return nil
}

// simProbes times the simulator per system through bench.Run on figs: a
// first untimed round fills the System pool, the second is timed.
func simProbes(tr *tracer, figs []figure, r *report) error {
	for _, k := range systems {
		var simulated int
		var cycles [2]float64
		var counts [2]int
		var runErr error
		run := func() {
			simulated, cycles, counts = 0, [2]float64{}, [2]int{}
			for _, f := range figs {
				for _, w := range f.workloads {
					m, err := bench.Run(k, f.op, w, f.opts)
					if err != nil {
						runErr = err
						return
					}
					simulated += len(w.Wire) * (f.opts.WarmupBatches + 1)
					cycles[f.op] += m.Cycles
					counts[f.op] += len(w.Wire)
				}
			}
		}
		run()
		t := tr.probe("sim/bench.Run."+k.String(), 1, run)
		if runErr != nil {
			return runErr
		}
		r.set("sim.host_ns_per_msg."+systemNames[k], float64(t)/float64(max(simulated, 1)), "ns")
		if k == core.KindAccel {
			r.set("sim.cycles_per_msg.deser", cycles[bench.Deserialize]/float64(max(counts[bench.Deserialize], 1)), "cycles")
			r.set("sim.cycles_per_msg.ser", cycles[bench.Serialize]/float64(max(counts[bench.Serialize], 1)), "cycles")
		}
	}
	return nil
}

var systemNames = map[core.Kind]string{core.KindAccel: "accel", core.KindBOOM: "boom", core.KindXeon: "xeon"}

// simFromPass sets the simulator metrics from one suite pass run in its
// own process: host time per simulated message on each system, and the
// accelerator's cycles per message. Running the suite in-process would
// grow this process's resident set past a gigabyte.
func simFromPass(s *suite, pr passResult, r *report) {
	host := map[core.Kind]time.Duration{}
	msgs := map[core.Kind]int{}
	var cycles [2]float64
	var counts [2]int
	j := 0
	for _, f := range s.figs {
		for _, w := range f.workloads {
			for _, k := range systems {
				host[k] += pr.Jobs[j]
				msgs[k] += len(w.Wire) * (f.opts.WarmupBatches + 1)
				if k == core.KindAccel {
					cycles[f.op] += pr.Cycles[j]
					counts[f.op] += len(w.Wire)
				}
				j++
			}
		}
	}
	for _, k := range systems {
		r.set("sim.host_ns_per_msg."+systemNames[k], float64(host[k])/float64(max(msgs[k], 1)), "ns")
	}
	r.set("sim.cycles_per_msg.deser", cycles[bench.Deserialize]/float64(max(counts[bench.Deserialize], 1)), "cycles")
	r.set("sim.cycles_per_msg.ser", cycles[bench.Serialize]/float64(max(counts[bench.Serialize], 1)), "cycles")
}

// coreConfig sizes an accelerated System for batches of up to 16 of the
// given largest message, the way the serving tiles size theirs.
func coreConfig(maxLen int) core.Config {
	const floor = 16 << 20
	const quantum = 1 << 20
	q := (uint64(16*maxLen) + quantum - 1) &^ (quantum - 1)
	cfg := core.DefaultConfig(core.KindAccel)
	cfg.StaticSize = q*5 + floor
	cfg.HeapSize = q*4 + floor
	cfg.ArenaSize = q*4 + floor
	cfg.OutSize = q + floor
	return cfg
}

// coreProbes times core.System batch execution as a serving tile runs
// it — ResetBatch, load the batch, DeserializeBatch or SerializeBatch,
// read results back — at batch sizes 1 and 16, plus a Pool round trip.
func coreProbes(tr *tracer, msgs []layerMsg, r *report) error {
	groups := map[*bench.Workload][]layerMsg{}
	var order []*bench.Workload
	maxLen := 0
	for _, m := range msgs {
		if groups[m.w] == nil {
			order = append(order, m.w)
		}
		groups[m.w] = append(groups[m.w], m)
		maxLen = max(maxLen, len(m.wire))
	}
	cfg := coreConfig(maxLen)
	pool := core.NewPool(0)
	batch := func(sys *core.System, ms []layerMsg) error {
		t := ms[0].w.Type
		sys.ResetBatch()
		refs := make([]core.WireRef, len(ms))
		for i, m := range ms {
			a, err := sys.WriteWire(m.wire)
			if err != nil {
				return err
			}
			refs[i] = core.WireRef{Addr: a, Len: uint64(len(m.wire))}
		}
		_, objs, err := sys.DeserializeBatch(t, refs)
		if err != nil {
			return err
		}
		for _, o := range objs {
			if _, err := sys.ReadMessage(t, o); err != nil {
				return err
			}
		}
		sys.ResetBatch()
		addrs := make([]uint64, len(ms))
		for i, m := range ms {
			if addrs[i], err = sys.MaterializeInput(m.m); err != nil {
				return err
			}
		}
		_, outs, err := sys.SerializeBatch(t, addrs)
		if err != nil {
			return err
		}
		for _, o := range outs {
			if _, err := sys.ReadWire(o.Addr, o.Len); err != nil {
				return err
			}
		}
		return nil
	}
	// The first round per batch size builds and warms the pooled Systems;
	// the second is timed.
	for _, b := range []int{1, 16} {
		b := b
		var runErr error
		reqs := 0
		run := func() {
			for _, w := range order {
				sys := pool.Get(cfg)
				if err := sys.LoadSchema(w.Type); err != nil {
					runErr = err
					return
				}
				ms := groups[w]
				for i := 0; i < len(ms); i += b {
					if err := batch(sys, ms[i:min(i+b, len(ms))]); err != nil {
						runErr = err
						return
					}
				}
				reqs += 2 * len(ms)
				pool.Put(sys)
			}
		}
		run()
		reqs = 0
		d := tr.probe(fmt.Sprintf("core/System.batch%d", b), 1, run)
		if runErr != nil {
			return runErr
		}
		r.set(fmt.Sprintf("core.ns_per_req.b%d", b), float64(d)/float64(max(reqs, 1)), "ns")
	}
	const rounds = 200
	r.set("core.pool_ns", float64(tr.probe("core/Pool.Get+Put", rounds, func() {
		for i := 0; i < rounds; i++ {
			pool.Put(pool.Get(cfg))
		}
	})), "ns")
	return nil
}

// traceRPC is the traced run of an RPC workload: its own traffic through
// every serving layer, then the codec, simulator and core probes on its
// own messages.
func traceRPC(cfg config, spec rpcSpec) (report, error) {
	r := report{Correct: true}
	tr := newTracer()
	pool, err := traceServing(cfg, spec, tr, &r)
	if err != nil {
		return r, err
	}
	figs, err := figuresOf(pool)
	if err != nil {
		return r, err
	}
	msgs := layerMsgs(figs)
	if err := pbProbes(tr, msgs, &r); err != nil {
		return r, err
	}
	if err := simProbes(tr, figs, &r); err != nil {
		return r, err
	}
	if err := coreProbes(tr, msgs, &r); err != nil {
		return r, err
	}
	return r, finishTrace(cfg, tr, &r)
}

// traceSim is the traced run of sim-suite. The suite never calls the
// serving layers, so their metrics come from the small-rpc traffic as a
// fixed reference, which a change to the simulator should leave flat;
// the codec, simulator and core probes run on the suite's own messages.
func traceSim(cfg config) (report, error) {
	r := report{Correct: true}
	tr := newTracer()
	if _, err := traceServing(cfg, rpcSpecs["small-rpc"], tr, &r); err != nil {
		return r, err
	}
	var pr passResult
	var err error
	tr.probe("sim-suite/pass", 1, func() { pr, err = passChild(cfg.root, 1) })
	if err != nil {
		return r, err
	}
	for _, d := range pr.Diffs {
		fmt.Fprintln(os.Stderr, "perfbench: simulated figure mismatch:", d)
		r.Correct = false
	}
	s, err := newSuite(cfg.root)
	if err != nil {
		return r, err
	}
	simFromPass(s, pr, &r)
	msgs := layerMsgs(s.figs)
	if err := pbProbes(tr, msgs, &r); err != nil {
		return r, err
	}
	if err := coreProbes(tr, msgs, &r); err != nil {
		return r, err
	}
	return r, finishTrace(cfg, tr, &r)
}

// finishTrace checks that every per-layer metric was measured, prints
// them with their predicted pairing and the spans' self times, and writes
// the spans out.
func finishTrace(cfg config, tr *tracer, r *report) error {
	for _, m := range layerMetrics {
		v, ok := r.Metrics[m.name]
		if !ok {
			return fmt.Errorf("per-layer metric %s not measured", m.name)
		}
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g %-6s moves %s; flat on %s\n", m.name, v.Value, m.unit, m.moves, m.flat)
	}
	type agg struct {
		n    int
		self time.Duration
	}
	byName := map[string]*agg{}
	var names []string
	for i, st := range selfTimes(tr.spans) {
		n := tr.spans[i].Name
		if byName[n] == nil {
			byName[n] = &agg{}
			names = append(names, n)
		}
		byName[n].n++
		byName[n].self += st
	}
	sort.Strings(names)
	fmt.Fprintln(os.Stderr, "  span self time (mean per span):")
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(os.Stderr, "    %-36s n=%-7d %12.3f us\n", n, a.n, us(a.self)/float64(a.n))
	}
	dir := filepath.Join(cfg.root, ".bench_build")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("perfbench-spans-%s-%d.json", cfg.workload, cfg.seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Host    fingerprint       `json:"host"`
		Metrics map[string]metric `json:"metrics"`
		Spans   []span            `json:"spans"`
	}{hostFingerprint(cfg), r.Metrics, tr.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
