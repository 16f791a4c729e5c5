package dist_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"mca/internal/dist"
	"mca/internal/metrics"
	"mca/internal/netsim"
	"mca/internal/node"
	"mca/internal/rpc"
	"mca/internal/trace"
)

// fanoutCluster builds a coordinator and n bank participants on a
// fresh fault-free simulated LAN. coordOpts extend the coordinator
// node's options (e.g. a tracer).
func fanoutCluster(t *testing.T, n int, opts rpc.Options, coordOpts ...node.Option) (*dist.Manager, []*node.Node) {
	t.Helper()
	nw := netsim.New(netsim.Config{})
	t.Cleanup(nw.Close)
	coordNode, err := node.New(nw, append([]node.Option{node.WithRPCOptions(opts)}, coordOpts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coordNode.Stop)
	coord := dist.NewManager(coordNode)
	nodes := make([]*node.Node, n)
	for i := 0; i < n; i++ {
		nd, err := node.New(nw, node.WithRPCOptions(opts))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.Stop)
		mgr := dist.NewManager(nd)
		b := newBank(100)
		nd.Host(b)
		mgr.RegisterResource("bank", b)
		nodes[i] = nd
	}
	return coord, nodes
}

// roundSpans returns the recorder's commit-protocol round spans.
func roundSpans(rec *trace.Recorder) []trace.Span {
	var out []trace.Span
	for _, s := range rec.Spans() {
		if strings.HasPrefix(s.Kind, "round.") {
			out = append(out, s)
		}
	}
	return out
}

// roundTally splits a round span's "<kind> ok/n" label.
func roundTally(t *testing.T, s trace.Span) (kind string, ok, participants int) {
	t.Helper()
	if _, err := fmt.Sscanf(s.Label, "%s %d/%d", &kind, &ok, &participants); err != nil {
		t.Fatalf("round span label %q: %v", s.Label, err)
	}
	if "round."+kind != s.Kind {
		t.Fatalf("round span label %q does not match kind %q", s.Label, s.Kind)
	}
	return kind, ok, participants
}

// roundsTotal reads mca_dist_rounds_total{kind,outcome}.
func roundsTotal(kind trace.RoundKind, outcome string) float64 {
	fam, _ := metrics.Default().Find("mca_dist_rounds_total")
	for _, s := range fam.Samples {
		if s.Labels[1] == string(kind) && s.Labels[3] == outcome {
			return s.Value
		}
	}
	return 0
}

// TestRoundSpansRecordFanoutRounds checks that every traced round of a
// commit is recorded as a round span under the transaction's trace
// with a full quorum, and that the untraced rounds of a structure (its
// constituent's commit and its end) leave no span but are counted by
// the round metrics.
func TestRoundSpansRecordFanoutRounds(t *testing.T) {
	opts := rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 2 * time.Second}
	ctx := context.Background()

	rec := trace.NewRecorder()
	coord, nodes := fanoutCluster(t, 2, opts, node.WithTracer(rec))
	kindsCounted := []trace.RoundKind{trace.RoundPrepare, trace.RoundCommit, trace.RoundStructure}
	before := map[trace.RoundKind]float64{}
	for _, k := range kindsCounted {
		before[k] = roundsTotal(k, "ok")
	}

	err := coord.Run(ctx, func(txn *dist.Txn) error {
		for _, nd := range nodes {
			if err := txn.Invoke(ctx, nd.ID(), "bank", "add", addArg{Delta: 1}, nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run = %v", err)
	}

	// A structure end is a fan-out round too.
	s, err := coord.BeginRemoteSerializing()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunConstituent(ctx, func(txn *dist.Txn) error {
		return txn.Invoke(ctx, nodes[0].ID(), "bank", "add", addArg{Delta: 1}, nil)
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.End(ctx); err != nil {
		t.Fatal(err)
	}

	kinds := map[string]int{}
	for _, sp := range roundSpans(rec) {
		kind, ok, participants := roundTally(t, sp)
		kinds[kind]++
		if sp.Outcome != trace.OutcomeCommitted {
			t.Fatalf("round %s failed: outcome %q", sp.Label, sp.Outcome)
		}
		if ok != participants {
			t.Fatalf("round %v: %d/%d participants ok", kind, ok, participants)
		}
		if sp.TraceID == 0 || sp.SpanID == 0 || sp.ParentSpanID == 0 {
			t.Fatalf("round %s without trace identity: %+v", sp.Label, sp)
		}
		if sp.End.Before(sp.Begin) {
			t.Fatalf("round %s ends before it begins", sp.Label)
		}
	}
	if len(kinds) != 2 || kinds["prepare"] != 1 || kinds["commit"] != 1 {
		t.Fatalf("round spans %v, want the traced txn's 1 prepare and 1 commit only", kinds)
	}
	want := map[trace.RoundKind]float64{trace.RoundPrepare: 2, trace.RoundCommit: 2, trace.RoundStructure: 1}
	for _, k := range kindsCounted {
		if got := roundsTotal(k, "ok") - before[k]; got < want[k] {
			t.Fatalf("%s rounds counted ok = %v, want ≥%v", k, got, want[k])
		}
	}
}

// TestAbortRoundObserved checks that an explicit Abort broadcasts one
// abort round over every participant.
func TestAbortRoundObserved(t *testing.T) {
	opts := rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 2 * time.Second}
	ctx := context.Background()
	rec := trace.NewRecorder()
	coord, nodes := fanoutCluster(t, 3, opts, node.WithTracer(rec))

	txn, err := coord.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes {
		if err := txn.Invoke(ctx, nd.ID(), "bank", "add", addArg{Delta: 1}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	var abortRound *trace.Span
	for _, sp := range roundSpans(rec) {
		if sp.Kind == "round."+string(trace.RoundAbort) {
			sp := sp
			abortRound = &sp
		}
	}
	if abortRound == nil {
		t.Fatal("no abort round recorded")
	}
	if _, ok, participants := roundTally(t, *abortRound); participants != 3 || ok != 3 {
		t.Fatalf("abort round = %d/%d ok, want 3/3", ok, participants)
	}
}
