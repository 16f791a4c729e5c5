package main

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"mca/internal/dist"
	"mca/internal/netsim"
	"mca/internal/node"
	"mca/internal/rpc"
	"mca/internal/workload"
)

// commitJSONPath, when set by the -commitjson flag, receives the E23
// measurement as BENCH_commit.json. The frozen "before" columns are read
// from it (default BENCH_commit.json in the working directory).
var commitJSONPath string

// commitCluster is the E23 harness: a coordinator and three
// participants, one register per worker per participant so concurrent
// transactions are disjoint and throughput is bounded by commit forces.
type commitCluster struct {
	nw      *netsim.Network
	coord   *dist.Manager
	nodes   []*node.Node // [0] coordinator, rest participants
	workers int
}

func newCommitCluster(workers int, dirs []string) (*commitCluster, error) {
	nw := netsim.New(netsim.Config{})
	rpcOpts := rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 5 * time.Second}
	c := &commitCluster{nw: nw, workers: workers}
	for i := 0; i < 4; i++ {
		opts := []node.Option{node.WithRPCOptions(rpcOpts)}
		if dirs != nil {
			opts = append(opts, node.WithStableDir(dirs[i]))
		}
		nd, err := node.New(nw, opts...)
		if err != nil {
			nw.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, nd)
		mgr := dist.NewManager(nd)
		if i == 0 {
			c.coord = mgr
			continue
		}
		for w := 0; w < workers; w++ {
			r := newKVResource()
			nd.Host(r)
			mgr.RegisterResource(fmt.Sprintf("reg%d", w), r)
		}
	}
	return c, nil
}

func (c *commitCluster) close() {
	for _, nd := range c.nodes {
		nd.Stop()
	}
	c.nw.Close()
}

func (c *commitCluster) setForceDelay(d time.Duration) {
	for _, nd := range c.nodes {
		nd.Stable().WAL().SetForceDelay(d)
	}
}

// measure drives disjoint two-participant transfers for the duration and
// returns committed transactions per second.
func (c *commitCluster) measure(workers int, d time.Duration) (float64, error) {
	ctx := context.Background()
	parts := c.nodes[1:]
	res := workload.RunFor(workers, d, func(w, _ int) error {
		resource := fmt.Sprintf("reg%d", w)
		a := parts[w%len(parts)]
		b := parts[(w+1)%len(parts)]
		return c.coord.Run(ctx, func(txn *dist.Txn) error {
			if err := txn.Invoke(ctx, a.ID(), resource, "add", kvDelta{Delta: 1}, nil); err != nil {
				return err
			}
			return txn.Invoke(ctx, b.ID(), resource, "add", kvDelta{Delta: 1}, nil)
		})
	})
	if res.Errors > 0 {
		return 0, fmt.Errorf("%d/%d transactions failed: %v", res.Errors, res.Ops, res.ErrKinds)
	}
	return res.Throughput(), nil
}

// expCommitThroughput is E23: committed transactions per second with the
// per-node WAL's group commit, over the simulated stable log (fixed
// per-force latency) and the real FileStore (per-force fsync), against
// the frozen per-record-force columns of BENCH_commit.json. The
// per-record mode is gone, so those columns are history: read, compared
// and written back unchanged, never re-measured.
func expCommitThroughput(rep *report) error {
	const (
		forceDelay = time.Millisecond
		cell       = 250 * time.Millisecond
		maxWorkers = 32
	)
	workerCounts := []int{1, 4, 8, 16, 32}
	fileWorkerCounts := []int{1, 16}

	hist, err := loadFrozenBefore(cmp.Or(commitJSONPath, "BENCH_commit.json"), workerKeys(workerCounts), workerKeys(fileWorkerCounts))
	rep.checkErr("frozen per-record columns present in BENCH_commit.json", err)
	if err != nil {
		return nil
	}
	before := hist.Before
	after := map[string]float64{}

	c, err := newCommitCluster(maxWorkers, nil)
	if err != nil {
		return err
	}
	defer c.close()
	c.setForceDelay(forceDelay)

	rep.rowf("  simulated stable log, force=%v, %d participants (per-record column frozen):", forceDelay, len(c.nodes)-1)
	bestRatio := 0.0
	for _, w := range workerCounts {
		key := fmt.Sprintf("workers=%d", w)
		wal, err := c.measure(w, cell)
		if err != nil {
			return fmt.Errorf("group-commit %s: %w", key, err)
		}
		after[key] = wal
		ratio := wal / before[key]
		bestRatio = max(bestRatio, ratio)
		rep.rowf("  %-12s per-record %8.0f txn/s   group-commit %8.0f txn/s   %5.2fx", key, before[key], wal, ratio)
	}
	maxKey := fmt.Sprintf("workers=%d", maxWorkers)
	rep.check(fmt.Sprintf("group commit >= 5x frozen per-record force at some concurrency (best %.2fx)", bestRatio), bestRatio >= 5)
	rep.check("group commit never slower than frozen per-record force at max concurrency", after[maxKey] >= before[maxKey])

	// The file-backed section pays real fsyncs, so the absolute numbers
	// (and the ratio) depend on the disk; it is reported, not asserted.
	fileBefore, fileAfter := hist.FileBacked.Before, map[string]float64{}
	dirs := make([]string, 4)
	for i := range dirs {
		d, err := os.MkdirTemp("", "e23-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(d)
		dirs[i] = d
	}
	fc, err := newCommitCluster(maxWorkers, dirs)
	if err != nil {
		return err
	}
	defer fc.close()
	rep.rowf("  FileStore backing (real fsync):")
	for _, w := range fileWorkerCounts {
		key := fmt.Sprintf("workers=%d", w)
		wal, err := fc.measure(w, cell)
		if err != nil {
			return fmt.Errorf("file group-commit %s: %w", key, err)
		}
		fileAfter[key] = wal
		rep.rowf("  %-12s per-record %8.0f txn/s   group-commit %8.0f txn/s   %5.2fx", key, fileBefore[key], wal, wal/fileBefore[key])
	}

	if commitJSONPath != "" {
		out := map[string]any{
			"experiment":     "E23 commit throughput (WAL group commit vs frozen per-record force)",
			"machine":        machineString(),
			"before_machine": hist.beforeMachine(),
			"units":          "committed txns/sec",
			"cell":           cell.String(),
			"force_delay_us": forceDelay.Microseconds(),
			"note":           "before = per-record force (pre-WAL baseline), frozen history measured on before_machine; the mode is removed and no longer re-measured. after = WAL group commit, measured on machine. file_backed pays real fsyncs and is machine-dependent.",
			"before":         before,
			"after":          after,
			"file_backed":    map[string]any{"before": fileBefore, "after": fileAfter},
			"summary": map[string]any{
				"best_speedup":           round2(bestRatio),
				"speedup_workers32":      round2(after[maxKey] / before[maxKey]),
				"file_speedup_workers16": round2(fileAfter["workers=16"] / fileBefore["workers=16"]),
			},
		}
		if err := writeBenchJSON(commitJSONPath, out); err != nil {
			return err
		}
		rep.rowf("  wrote %s", commitJSONPath)
	}
	return nil
}

// frozenBefore is the history a BENCH file keeps for code paths that no
// longer exist: the "before" columns (and E23's file-backed one), plus
// the machine they were measured on.
type frozenBefore struct {
	Machine       string             `json:"machine"`
	BeforeMachine string             `json:"before_machine"`
	Before        map[string]float64 `json:"before"`
	FileBacked    struct {
		Before map[string]float64 `json:"before"`
	} `json:"file_backed"`
}

// beforeMachine names the host that measured the frozen columns: the
// recorded before_machine, or the file's machine when it predates the
// field (its columns were then all measured in one run).
func (f frozenBefore) beforeMachine() string { return cmp.Or(f.BeforeMachine, f.Machine) }

// loadFrozenBefore reads the frozen columns from a committed BENCH file.
// A missing file, column or cell is an error: a gate against history
// must not pass for want of the history.
func loadFrozenBefore(path string, beforeKeys, fileKeys []string) (frozenBefore, error) {
	var f frozenBefore
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	for _, col := range []struct {
		name string
		vals map[string]float64
		keys []string
	}{{"before", f.Before, beforeKeys}, {"file_backed.before", f.FileBacked.Before, fileKeys}} {
		for _, k := range col.keys {
			if v, ok := col.vals[k]; !ok || v <= 0 {
				return f, fmt.Errorf("%s: column %s has no positive %q", path, col.name, k)
			}
		}
	}
	return f, nil
}

func workerKeys(counts []int) []string {
	keys := make([]string, len(counts))
	for i, w := range counts {
		keys[i] = fmt.Sprintf("workers=%d", w)
	}
	return keys
}

func writeBenchJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func round2(v float64) float64 { return float64(int(v*100+0.5)) / 100 }

// machineString mirrors the BENCH_*.json machine field.
func machineString() string {
	model := "unknown CPU"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.Index(line, ":"); i >= 0 {
					model = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	return fmt.Sprintf("%s, %d hardware CPU, %s/%s", model, runtime.NumCPU(), runtime.GOOS, runtime.GOARCH)
}
