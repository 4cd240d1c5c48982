package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"protoacc/internal/bench"
	"protoacc/internal/core"
)

// simParallelism is the fixed simulation worker count of the suite passes
// that set sim_host_s, whatever the host's CPU count.
const simParallelism = 2

// figure is one figure of the paper's evaluation with its prebuilt inputs
// and the committed reference table it must reproduce.
type figure struct {
	id        bench.Figure
	op        bench.Op
	workloads []bench.Workload
	opts      bench.Options
	refFile   string
}

// suite is the paper's simulated evaluation: Figures 11a–d (§5.1) and
// the HyperProtoBench Figures 12–13 (§5.2).
type suite struct {
	figs []figure
	refs map[string]string // reference file → contents
}

// systems in figure column order.
var systems = []core.Kind{core.KindBOOM, core.KindXeon, core.KindAccel}

// newSuite builds every figure's inputs and reads the committed
// reference outputs under root.
func newSuite(root string) (*suite, error) {
	hyper, err := bench.HyperWorkloads()
	if err != nil {
		return nil, err
	}
	opts, hopts := bench.DefaultOptions(), bench.HyperOptions()
	nonAlloc, alloc := bench.NonAllocWorkloads(), bench.AllocWorkloads()
	s := &suite{refs: make(map[string]string)}
	s.figs = []figure{
		{id: bench.Fig11a, op: bench.Deserialize, workloads: nonAlloc, opts: opts, refFile: "results/ubench.txt"},
		{id: bench.Fig11b, op: bench.Serialize, workloads: nonAlloc, opts: opts, refFile: "results/ubench.txt"},
		{id: bench.Fig11c, op: bench.Deserialize, workloads: alloc, opts: opts, refFile: "results/ubench.txt"},
		{id: bench.Fig11d, op: bench.Serialize, workloads: alloc, opts: opts, refFile: "results/ubench.txt"},
		{id: bench.Fig12, op: bench.Deserialize, workloads: hyper, opts: hopts, refFile: "results/hyperbench.txt"},
		{id: bench.Fig13, op: bench.Serialize, workloads: hyper, opts: hopts, refFile: "results/hyperbench.txt"},
	}
	for _, f := range s.figs {
		if _, ok := s.refs[f.refFile]; ok {
			continue
		}
		b, err := os.ReadFile(filepath.Join(root, f.refFile))
		if err != nil {
			return nil, err
		}
		s.refs[f.refFile] = string(b)
	}
	return s, nil
}

// passResult is one full pass of the suite.
type passResult struct {
	Setup    time.Duration   // building the suite's inputs
	Wall     time.Duration   // running every figure
	Jobs     []time.Duration // host time of every (figure, benchmark, system) simulation
	Cycles   []float64       // each simulation's measured-batch cycles
	Speedups [6][2]float64   // per figure: accel vs BOOM, vs Xeon
	Diffs    []string        // printed figures that differ from the reference

	usage procCounters // the pass process's CPU time and peak RSS
}

// pass runs every figure once on workers goroutines, timing each
// simulation, and compares each printed table and summary line with the
// committed reference, character for character. Like bench.RunSet, it
// hands out one figure's (benchmark, system) grid in index order and
// gathers results by index, so the figures do not depend on workers.
func (s *suite) pass(workers int) (passResult, error) {
	var pr passResult
	start := time.Now()
	var tables []string
	for i, f := range s.figs {
		ms := make([]bench.Measurement, len(f.workloads)*len(systems))
		times := make([]time.Duration, len(ms))
		var next atomic.Int64
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				for j := int(next.Add(1)) - 1; j < len(ms); j = int(next.Add(1)) - 1 {
					t0 := time.Now()
					m, err := bench.Run(systems[j%len(systems)], f.op, f.workloads[j/len(systems)], f.opts)
					times[j] = time.Since(t0)
					if err != nil && errs[wk] == nil {
						errs[wk] = err
					}
					ms[j] = m
				}
			}(wk)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return pr, fmt.Errorf("figure %s: %w", f.id, err)
		}
		pr.Jobs = append(pr.Jobs, times...)
		for _, m := range ms {
			pr.Cycles = append(pr.Cycles, m.Cycles)
		}
		rows := make([]bench.Series, 0, len(f.workloads)+1)
		for wi, w := range f.workloads {
			g := ms[wi*len(systems):]
			rows = append(rows, bench.Series{Bench: w.Name, BOOM: g[0].GbitsPS, Xeon: g[1].GbitsPS, Accel: g[2].GbitsPS})
		}
		rows = append(rows, bench.GeomeanRow(rows))
		vb, vx := bench.Speedups(rows)
		pr.Speedups[i] = [2]float64{vb, vx}
		tables = append(tables, bench.FormatTable(bench.FigureTitle(f.id), rows)+
			fmt.Sprintf("\nsummary: %.1fx vs riscv-boom, %.1fx vs Xeon\n", vb, vx))
	}
	pr.Wall = time.Since(start)
	for i, t := range tables {
		if !strings.Contains(s.refs[s.figs[i].refFile], t) {
			pr.Diffs = append(pr.Diffs, fmt.Sprintf("figure %s differs from %s:\n%s", s.figs[i].id, s.figs[i].refFile, t))
		}
	}
	return pr, nil
}

// paperSpeedups are the twelve headline speedups of EXPERIMENTS.md
// (accel vs BOOM, vs Xeon): Figures 11a–d, the §5.1.3 geomean of the four
// classes, and the §5.2 HyperProtoBench geomean.
var paperSpeedups = []struct {
	name       string
	boom, xeon float64
}{
	{"Fig. 11a", 7.0, 2.6},
	{"Fig. 11b", 15.5, 4.5},
	{"Fig. 11c", 14.2, 6.9},
	{"Fig. 11d", 10.1, 2.8},
	{"§5.1.3", 11.2, 3.8},
	{"§5.2", 6.2, 3.8},
}

// paperErr compares a pass's headline speedups with the paper's: it
// returns the mean |measured ÷ paper − 1| in percent and one report line
// per speedup with the ratio beside it.
func paperErr(pr passResult) (float64, []string) {
	geo := func(idx []int, col int) float64 {
		var v []float64
		for _, i := range idx {
			v = append(v, pr.Speedups[i][col])
		}
		return bench.Geomean(v)
	}
	var measured [6][2]float64
	copy(measured[:4], pr.Speedups[:4])
	for col := 0; col < 2; col++ {
		measured[4][col] = geo([]int{0, 1, 2, 3}, col)
		measured[5][col] = geo([]int{4, 5}, col)
	}
	var sum float64
	var lines []string
	for i, p := range paperSpeedups {
		for col, paper := range []float64{p.boom, p.xeon} {
			m := measured[i][col]
			sum += math.Abs(m/paper - 1)
			vs := [2]string{"BOOM", "Xeon"}[col]
			lines = append(lines, fmt.Sprintf("%-9s vs %-4s measured %6.2fx  paper %5.1fx  ratio %.3f", p.name, vs, m, paper, m/paper))
		}
	}
	return 100 * sum / float64(2*len(paperSpeedups)), lines
}

// passChild runs one suite pass in a fresh process (this binary with
// --sim-pass) and reads the process's CPU time and peak RSS from its
// rusage. A fresh process per pass is what a user running the figure
// commands gets; it also keeps memory bounded, because the process-wide
// System pool's resident set grows with every pass over mixed workloads.
func passChild(root string, workers int) (passResult, error) {
	var pr passResult
	self, err := os.Executable()
	if err != nil {
		return pr, err
	}
	cmd := exec.Command(self, "--sim-pass", strconv.Itoa(workers), "--root", root)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = orphanKill()
	out, err := cmd.Output()
	if err != nil {
		return pr, fmt.Errorf("suite pass: %w", err)
	}
	if err := json.Unmarshal(out, &pr); err != nil {
		return pr, fmt.Errorf("suite pass output: %w", err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return pr, fmt.Errorf("suite pass: no rusage")
	}
	pr.usage.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	pr.usage.hwmKiB = uint64(ru.Maxrss) // KiB on Linux
	return pr, nil
}

// passMain is the --sim-pass child: build the suite, run one pass on
// workers, and print the result as JSON.
func passMain(root string, workers int) error {
	t0 := time.Now()
	s, err := newSuite(root)
	if err != nil {
		return err
	}
	setup := time.Since(t0)
	pr, err := s.pass(workers)
	if err != nil {
		return err
	}
	pr.Setup = setup
	return json.NewEncoder(os.Stdout).Encode(pr)
}
