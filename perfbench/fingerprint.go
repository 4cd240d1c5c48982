package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// fingerprint identifies the host and the code a result was taken on.
type fingerprint struct {
	Nproc         int     `json:"nproc"`
	CPUModel      string  `json:"cpu_model"`
	GoVersion     string  `json:"go_version"`
	Source        string  `json:"source_sha256"` // hash of the Go sources and results under root
	GenGOMAXPROCS int     `json:"generator_gomaxprocs"`
	DaemonProcs   int     `json:"daemon_gomaxprocs"`
	LoadAvg       string  `json:"loadavg_at_start"`
	Workload      string  `json:"workload"`
	Seed          int64   `json:"seed"`
	Seconds       float64 `json:"seconds"`
	Trace         bool    `json:"trace"`
	SimParallel   int     `json:"sim_parallelism"`
}

func hostFingerprint(cfg config) fingerprint {
	f := fingerprint{
		Nproc: cfg.nproc, GoVersion: runtime.Version(),
		GenGOMAXPROCS: runtime.GOMAXPROCS(0), DaemonProcs: cfg.nproc,
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		SimParallel: simParallelism,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				f.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		f.LoadAvg = strings.Join(strings.Fields(string(b))[:3], " ")
	}
	f.Source = sourceHash(cfg.root)
	return f
}

// sourceHash stands in for the commit id, which a checkout without git
// metadata lacks: a hash over every .go, .mod and .txt file under root,
// skipping hidden directories such as the build output.
func sourceHash(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(p) {
		case ".go", ".mod", ".txt":
			b, err := os.ReadFile(p)
			if err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func printFingerprint(cfg config) {
	b, _ := json.Marshal(hostFingerprint(cfg))
	fmt.Fprintf(os.Stderr, "fingerprint: %s\n", b)
}
