package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"protoacc/internal/serve"
)

// daemon is one protoaccd child process on loopback.
type daemon struct {
	cmd   *exec.Cmd
	addr  string // data plane
	admin string // admin plane (/statusz)
	out   sync.WaitGroup
}

// children tracks every live daemon so a signal or an early exit can stop
// them all.
var children struct {
	sync.Mutex
	set map[*daemon]bool
}

// startDaemon launches protoaccd with default serving options on
// ephemeral loopback ports and returns once it has printed both listen
// addresses, i.e. once it accepts requests.
func startDaemon(bin string, gomaxprocs int) (*daemon, error) {
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-admin", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = orphanKill()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd}
	children.Lock()
	if children.set == nil {
		children.set = make(map[*daemon]bool)
	}
	children.set[d] = true
	children.Unlock()

	sc := bufio.NewScanner(stdout)
	for (d.addr == "" || d.admin == "") && sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "protoaccd listening on "); ok {
			d.addr, _, _ = strings.Cut(rest, " ")
		}
		if rest, ok := strings.CutPrefix(line, "protoaccd admin on http://"); ok {
			d.admin, _, _ = strings.Cut(rest, " ")
		}
	}
	if d.addr == "" || d.admin == "" {
		d.stop()
		return nil, fmt.Errorf("%s exited before listening", bin)
	}
	// Keep draining stdout so the daemon never blocks on a full pipe.
	d.out.Add(1)
	go func() {
		defer d.out.Done()
		io.Copy(io.Discard, stdout)
	}()
	return d, nil
}

// stop terminates the daemon (a graceful drain on SIGTERM, SIGKILL after
// 5s) and waits for it to exit.
func (d *daemon) stop() {
	children.Lock()
	delete(children.set, d)
	children.Unlock()
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		d.out.Wait()
		d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
}

// stopAll stops every daemon still running.
func stopAll() {
	children.Lock()
	var ds []*daemon
	for d := range children.set {
		ds = append(ds, d)
	}
	children.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// orphanKill has the kernel kill a child if the benchmark dies without
// stopping it, as on SIGKILL.
func orphanKill() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// procCounters are one process's outside-in counters, read from /proc
// with no help from the process itself.
type procCounters struct {
	cpu     time.Duration // user + system
	syscall uint64        // syscr + syscw
	hwmKiB  uint64        // VmHWM: peak resident set
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 for user space.
const clockTick = 10 * time.Millisecond

func readProc(pid string) (procCounters, error) {
	var c procCounters
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return c, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(stat)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return c, fmt.Errorf("short /proc/%s/stat", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return c, fmt.Errorf("bad /proc/%s/stat times", pid)
	}
	c.cpu = time.Duration(ut+st) * clockTick

	ioStats, err := os.ReadFile("/proc/" + pid + "/io")
	if err != nil {
		return c, err
	}
	for _, line := range strings.Split(string(ioStats), "\n") {
		k, v, ok := strings.Cut(line, ": ")
		if ok && (k == "syscr" || k == "syscw") {
			n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return c, fmt.Errorf("bad /proc/%s/io %s", pid, k)
			}
			c.syscall += n
		}
	}

	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return c, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB"))
			if c.hwmKiB, err = strconv.ParseUint(kb, 10, 64); err != nil {
				return c, fmt.Errorf("bad /proc/%s/status VmHWM", pid)
			}
		}
	}
	return c, nil
}

// readAll sums the counters of every daemon (the peak RSS too: the
// daemons run side by side, so their peaks add up to the system's).
func readAll(ds []*daemon) (procCounters, error) {
	var sum procCounters
	for _, d := range ds {
		c, err := readProc(strconv.Itoa(d.pid()))
		if err != nil {
			return sum, err
		}
		sum.cpu += c.cpu
		sum.syscall += c.syscall
		sum.hwmKiB += c.hwmKiB
	}
	return sum, nil
}

// statusz fetches the daemon's /statusz snapshot from its admin plane.
func (d *daemon) statusz() (serve.Statusz, error) {
	var st serve.Statusz
	resp, err := http.Get("http://" + d.admin + "/statusz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/statusz: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
