package main

import (
	"cmp"
	"context"
	"fmt"
	"time"

	"mca/internal/dist"
	"mca/internal/ids"
	"mca/internal/node"
	"mca/internal/rpc"
	"mca/internal/tcpnet"
	"mca/internal/workload"
)

// rpcJSONPath, when set by the -rpcjson flag, receives the E24
// measurement as BENCH_rpc.json. The frozen "before" column is read from
// it (default BENCH_rpc.json in the working directory).
var rpcJSONPath string

// echoPayload is the representative small request body: roughly what a
// 2PC prepare/invoke carries.
type echoPayload struct {
	Txn    uint64 `json:"txn"`
	Op     string `json:"op"`
	Amount int    `json:"amount"`
}

// rpcPair is one echo server and one caller over real TCP sockets.
type rpcPair struct {
	nw     *tcpnet.Network
	caller *rpc.Peer
	server *rpc.Peer
	target *tcpnet.Endpoint
}

// newRPCPair builds the pair.
func newRPCPair() (*rpcPair, error) {
	nw := tcpnet.NewNetwork()
	epS, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	epC, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		epS.Close()
		return nil, err
	}
	opts := rpc.Options{RetryInterval: 50 * time.Millisecond, CallTimeout: 10 * time.Second}
	p := &rpcPair{nw: nw, target: epS}
	p.server = rpc.NewPeerOn(epS, opts)
	p.caller = rpc.NewPeerOn(epC, opts)
	p.server.Handle("echo", func(_ context.Context, _ ids.NodeID, body []byte) ([]byte, error) {
		return body, nil
	})
	return p, nil
}

// expRPCThroughput is E24: RPC call throughput over real sockets with
// the binary envelope codec and coalescing writer, against the frozen
// JSON-envelope / write-per-datagram column of BENCH_rpc.json (those
// paths are gone, so the column is history, never re-measured), plus
// the allocation and syscall accounting behind the win, and the E23
// commit workload rerun over TCP end to end.
func expRPCThroughput(rep *report) error {
	const cell = 500 * time.Millisecond
	workerCounts := []int{1, 8, 32}

	hist, err := loadFrozenBefore(cmp.Or(rpcJSONPath, "BENCH_rpc.json"), workerKeys(workerCounts), nil)
	rep.checkErr("frozen JSON-baseline column present in BENCH_rpc.json", err)
	if err != nil {
		return nil
	}
	before := hist.Before

	// --- envelope codec steady-state allocations ---
	allocs := rpc.EnvelopeRoundTripAllocs(5000)
	rep.rowf("  envelope encode+verify+decode: %.3f allocs/op (binary codec, pooled frames)", allocs)
	rep.check("envelope round trip ~0 allocs/op", allocs < 1)

	// --- call throughput over tcpnet ---
	measure := func(workers int) (float64, error) {
		pair, err := newRPCPair()
		if err != nil {
			return 0, err
		}
		defer func() {
			pair.caller.Stop()
			pair.server.Stop()
		}()
		pair.server.Start()
		pair.caller.Start()
		ctx := context.Background()
		req := echoPayload{Txn: 42, Op: "transfer", Amount: 10}
		// Warm the connection.
		var resp echoPayload
		if err := pair.caller.Call(ctx, pair.target.ID(), "echo", req, &resp); err != nil {
			return 0, err
		}
		res := workload.RunFor(workers, cell, func(_, _ int) error {
			var r echoPayload
			return pair.caller.Call(ctx, pair.target.ID(), "echo", req, &r)
		})
		if res.Errors > 0 {
			return 0, fmt.Errorf("%d/%d calls failed: %v", res.Errors, res.Ops, res.ErrKinds)
		}
		return res.Throughput(), nil
	}

	after := map[string]float64{}
	rep.rowf("  echo calls over loopback TCP, one caller node, cell=%v (json+direct column frozen):", cell)
	statsBefore := tcpnet.ReadWriterStats()
	for _, w := range workerCounts {
		key := fmt.Sprintf("workers=%d", w)
		fast, err := measure(w)
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		after[key] = fast
		rep.rowf("  %-12s json+direct %8.0f calls/s   binary+coalesce %8.0f calls/s   %5.2fx",
			key, before[key], fast, fast/before[key])
	}
	statsAfter := tcpnet.ReadWriterStats()

	// Syscall accounting across the runs: every batch is one writev
	// carrying batchFrames datagrams; the frozen baseline paid one write
	// each.
	batches := statsAfter.Batches - statsBefore.Batches
	frames := statsAfter.BatchFrames - statsBefore.BatchFrames
	if batches > 0 {
		saved := 100 * (1 - float64(batches)/float64(frames))
		rep.rowf("  coalescing writer: %d frames in %d writev batches (%.1f frames/syscall, %.0f%% writes saved)",
			frames, batches, float64(frames)/float64(batches), saved)
	}

	speedup32 := after["workers=32"] / before["workers=32"]
	rep.check(fmt.Sprintf("binary+coalescing >= 2x frozen JSON baseline at 32 workers (%.2fx)", speedup32),
		speedup32 >= 2)

	// --- E23's commit workload over real sockets ---
	commitPerSec, err := measureCommitOverTCP(8, cell)
	rep.checkErr("2PC commit workload runs over tcpnet (binary codec end to end)", err)
	if err == nil {
		rep.rowf("  E23 commit workload over TCP: %8.0f txn/s (8 workers, 3 participants)", commitPerSec)
	}

	if rpcJSONPath != "" {
		out := map[string]any{
			"experiment":             "E24 RPC hot path (binary envelope codec + coalescing transport vs frozen JSON baseline)",
			"machine":                machineString(),
			"before_machine":         hist.beforeMachine(),
			"units":                  "calls/sec over loopback TCP",
			"cell":                   cell.String(),
			"note":                   "before = JSON envelope + one write()/datagram (the earlier wire path), frozen history measured on before_machine; that path is removed and no longer re-measured. after = binary envelope + pooled buffers + writev coalescing, measured on machine. Bodies stay JSON in both.",
			"before":                 before,
			"after":                  after,
			"envelope_allocs_per_op": round2(allocs),
			"coalescing": map[string]any{
				"frames":             frames,
				"writev_batches":     batches,
				"frames_per_syscall": round2(float64(frames) / float64(max64(batches, 1))),
			},
			"commit_over_tcp_txn_s": round2(commitPerSec),
			"summary": map[string]any{
				"speedup_workers1":  round2(after["workers=1"] / before["workers=1"]),
				"speedup_workers8":  round2(after["workers=8"] / before["workers=8"]),
				"speedup_workers32": round2(speedup32),
			},
		}
		if err := writeBenchJSON(rpcJSONPath, out); err != nil {
			return err
		}
		rep.rowf("  wrote %s", rpcJSONPath)
	}
	return nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// measureCommitOverTCP reruns the E23 commit workload with every node on
// a real socket: coordinator plus three participants, one register per
// worker, disjoint transfers.
func measureCommitOverTCP(workers int, d time.Duration) (float64, error) {
	nw := tcpnet.NewNetwork()
	rpcOpts := rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 5 * time.Second}
	var nodes []*node.Node
	defer func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	}()
	var coord *dist.Manager
	for i := 0; i < 4; i++ {
		ep, err := nw.Listen("127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		nd, err := node.NewOn(ep, node.WithRPCOptions(rpcOpts))
		if err != nil {
			ep.Close()
			return 0, err
		}
		nodes = append(nodes, nd)
		mgr := dist.NewManager(nd)
		if i == 0 {
			coord = mgr
			continue
		}
		for w := 0; w < workers; w++ {
			r := newKVResource()
			nd.Host(r)
			mgr.RegisterResource(fmt.Sprintf("reg%d", w), r)
		}
	}
	ctx := context.Background()
	parts := nodes[1:]
	res := workload.RunFor(workers, d, func(w, _ int) error {
		resource := fmt.Sprintf("reg%d", w)
		a := parts[w%len(parts)]
		b := parts[(w+1)%len(parts)]
		return coord.Run(ctx, func(txn *dist.Txn) error {
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
