package dist_test

import (
	"context"
	"testing"
	"time"

	"mca/internal/dist"
	"mca/internal/netsim"
	"mca/internal/node"
	"mca/internal/rpc"
	"mca/internal/trace"
)

// tracedCluster is the 3-node fixture with a trace recorder on every
// node, as an application deployment using node.WithTracer would run.
type tracedCluster struct {
	*cluster
	recs [3]*trace.Recorder
}

func newTracedCluster(t *testing.T, cfg netsim.Config) *tracedCluster {
	t.Helper()
	return newSampledCluster(t, cfg, nil)
}

// newSampledCluster is newTracedCluster with every recorder sharing
// the given tail sampler (nil: keep everything).
func newSampledCluster(t *testing.T, cfg netsim.Config, sampler *trace.Sampler) *tracedCluster {
	t.Helper()
	nw := netsim.New(cfg)
	t.Cleanup(nw.Close)

	rpcOpts := rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 300 * time.Millisecond}
	tc := &tracedCluster{cluster: &cluster{net: nw}}
	for i := 0; i < 3; i++ {
		tc.recs[i] = trace.NewRecorder()
		tc.recs[i].SetSampler(sampler)
		nd, err := node.New(nw, node.WithRPCOptions(rpcOpts), node.WithTracer(tc.recs[i]))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.Stop)
		tc.nodes[i] = nd
		mgr := dist.NewManager(nd)
		tc.banks[i] = newBank(100)
		nd.Host(tc.banks[i])
		mgr.RegisterResource("bank", tc.banks[i])
		if i == 0 {
			tc.coord = mgr
		} else {
			tc.parts[i-1] = mgr
		}
	}
	return tc
}

// mergedSpans exports every node's spans (per-node, as separate
// deployments would) and merges them.
func (tc *tracedCluster) mergedSpans() []trace.Span {
	var all []trace.Span
	for _, rec := range tc.recs {
		all = append(all, rec.Spans()...)
	}
	return all
}

func TestTracedCommitMergesToOneTreeWithoutOrphans(t *testing.T) {
	tc := newTracedCluster(t, netsim.Config{})
	ctx := context.Background()

	if err := transfer(ctx, tc.cluster, 1, 2, 30); err != nil {
		t.Fatalf("transfer: %v", err)
	}

	all := tc.mergedSpans()
	tree := trace.Merge(all)
	if len(tree.Orphans) != 0 {
		t.Fatalf("merged tree has %d orphan spans:\n%s", len(tree.Orphans), tree.Render(60))
	}

	// Exactly one distributed trace: every traced span shares the
	// transaction's TraceID.
	traceIDs := map[uint64]bool{}
	for _, s := range all {
		if s.TraceID != 0 {
			traceIDs[s.TraceID] = true
		}
	}
	if len(traceIDs) != 1 {
		t.Fatalf("spans carry %d distinct trace ids, want 1", len(traceIDs))
	}

	// The traced root must causally contain both 2PC rounds, the RPC
	// spans, and participant actions at both remote nodes.
	var root *trace.TreeNode
	for _, r := range tree.Roots {
		if r.Span.TraceID != 0 {
			root = r
			break
		}
	}
	if root == nil {
		t.Fatalf("no traced root in merged tree:\n%s", tree.Render(60))
	}
	kinds := map[string]int{}
	nodesSeen := map[string]bool{}
	root.Walk(func(n *trace.TreeNode, _ int) {
		kinds[n.Span.Kind]++
		nodesSeen[n.Span.Node.String()] = true
	})
	if kinds["round.prepare"] != 1 || kinds["round.commit"] != 1 {
		t.Fatalf("round spans under root: prepare=%d commit=%d, want 1/1 (kinds: %v)",
			kinds["round.prepare"], kinds["round.commit"], kinds)
	}
	// 2 invokes + 2 prepares + 2 commits = 6 client/server pairs.
	if kinds["rpc.client"] != 6 || kinds["rpc.server"] != 6 {
		t.Fatalf("rpc spans under root: client=%d server=%d, want 6/6", kinds["rpc.client"], kinds["rpc.server"])
	}
	for i := 0; i < 3; i++ {
		if id := tc.nodes[i].ID().String(); !nodesSeen[id] {
			t.Fatalf("trace tree has no span from %s (seen: %v)", id, nodesSeen)
		}
	}

	// The critical path of a committed 2PC runs from the transaction
	// root through one of its rounds.
	path := trace.CriticalPath(root)
	if len(path) < 2 {
		t.Fatalf("critical path too short: %d spans", len(path))
	}
}

func TestTracedAbortRecordsAbortRound(t *testing.T) {
	tc := newTracedCluster(t, netsim.Config{})
	ctx := context.Background()

	txn, err := tc.coord.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Invoke(ctx, tc.nodes[1].ID(), "bank", "add", addArg{Delta: -5}, nil); err != nil {
		t.Fatal(err)
	}
	if err := txn.Abort(ctx); err != nil {
		t.Fatal(err)
	}

	tree := trace.Merge(tc.mergedSpans())
	if len(tree.Orphans) != 0 {
		t.Fatalf("merged tree has %d orphan spans", len(tree.Orphans))
	}
	found := false
	for _, r := range tree.Roots {
		r.Walk(func(n *trace.TreeNode, _ int) {
			if n.Span.Kind == "round.abort" {
				found = true
			}
		})
	}
	if !found {
		t.Fatal("no round.abort span in merged tree")
	}
}

// TestRecoveryRoundKeepsOriginalTraceID is the chaos case: the
// coordinator crashes after forcing the decision, restarts, and
// re-drives completion. The recovery round must continue the
// transaction's original trace, not start a fresh one — the decision
// record carries the trace identity across the crash.
func TestRecoveryRoundKeepsOriginalTraceID(t *testing.T) {
	tc := newTracedCluster(t, netsim.Config{})
	ctx := context.Background()

	tc.coord.TestHooks.AfterDecision = func() {
		tc.net.Partition(tc.nodes[0].ID(), tc.nodes[1].ID())
		tc.net.Partition(tc.nodes[0].ID(), tc.nodes[2].ID())
	}
	if err := transfer(ctx, tc.cluster, 1, 2, 10); err != nil {
		t.Fatalf("Commit = %v (decision was durable)", err)
	}

	// The original transaction's trace id, from the coordinator's
	// prepare round.
	var originalTrace uint64
	for _, sp := range roundSpans(tc.recs[0]) {
		if sp.Kind == "round."+string(trace.RoundPrepare) {
			originalTrace = sp.TraceID
		}
	}
	if originalTrace == 0 {
		t.Fatal("prepare round was not traced")
	}

	tc.nodes[0].Crash()
	tc.net.Heal(tc.nodes[0].ID(), tc.nodes[1].ID())
	tc.net.Heal(tc.nodes[0].ID(), tc.nodes[2].ID())
	tc.nodes[0].Restart()

	deadline := time.Now().Add(5 * time.Second)
	for {
		var recovered *trace.Span
		var seen []string
		for _, sp := range roundSpans(tc.recs[0]) {
			seen = append(seen, sp.Label)
			// Committed: every participant acknowledged the re-drive.
			if sp.Kind == "round."+string(trace.RoundRecover) && sp.Outcome == trace.OutcomeCommitted {
				recovered = &sp
				break
			}
		}
		if recovered != nil {
			if recovered.TraceID != originalTrace {
				t.Fatalf("recovery round trace id %x, want original %x", recovered.TraceID, originalTrace)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no successful recovery round recorded; rounds: %v", seen)
		}
		if _, err := tc.coord.RecoverPending(ctx); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if got := tc.balanceAt(t, 1); got != 90 {
		t.Fatalf("P1 balance = %d, want 90", got)
	}
}

// TestSamplerKeepingNothingLeavesRecordersEmpty is the bounded-buffer
// check for tracing under load: with a shared sampler that keeps no
// transaction, every span of every transaction — actions, rounds, RPCs
// on all three nodes — must be discarded, so the recorders retain
// nothing however many transactions run.
func TestSamplerKeepingNothingLeavesRecordersEmpty(t *testing.T) {
	sampler := trace.NewSampler(trace.SamplerConfig{Threshold: time.Hour})
	tc := newSampledCluster(t, netsim.Config{}, sampler)
	ctx := context.Background()

	const transfers = 300
	for i := 0; i < transfers; i++ {
		if err := transfer(ctx, tc.cluster, 1+i%2, 2-i%2, 1); err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
	}
	for i, rec := range tc.recs {
		if spans := rec.Spans(); len(spans) != 0 {
			kinds := map[string]int{}
			for _, s := range spans {
				kinds[s.Kind]++
			}
			t.Fatalf("node %d recorder retains %d spans after %d dropped transfers (by kind: %v)", i, len(spans), transfers, kinds)
		}
	}
}
