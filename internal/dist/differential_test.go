package dist_test

import (
	"context"
	"testing"
	"time"

	"mca/internal/clock"
	"mca/internal/dist"
	"mca/internal/netsim"
	"mca/internal/node"
	"mca/internal/rpc"
	"mca/internal/trace"
)

// quickstartOutcome captures everything observable about one run of the
// quickstart's distributed-transfer path (examples/quickstart step 7):
// the commit result, the final balances, and the shape of the merged
// distributed trace.
type quickstartOutcome struct {
	err      error
	balances [3]int
	kinds    map[string]int // span kind -> count
	orphans  int
	spans    []trace.Span
}

// runQuickstartPath runs a three-node 2PC transfer on a lossless
// zero-delay network under the given clock and reports the outcome.
// Under a clock.Fake that is never advanced the whole path must still
// complete: nothing on the commit path may depend on wall time passing.
func runQuickstartPath(t *testing.T, clk clock.Clock) quickstartOutcome {
	t.Helper()
	nw := netsim.New(netsim.Config{Clock: clk})
	defer nw.Close()

	rpcOpts := rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 300 * time.Millisecond}
	c := &cluster{net: nw}
	recs := [3]*trace.Recorder{}
	for i := 0; i < 3; i++ {
		recs[i] = trace.NewRecorder()
		nd, err := node.New(nw, node.WithRPCOptions(rpcOpts), node.WithTracer(recs[i]), node.WithClock(clk))
		if err != nil {
			t.Fatal(err)
		}
		defer nd.Stop()
		c.nodes[i] = nd
		mgr := dist.NewManager(nd)
		c.banks[i] = newBank(100)
		nd.Host(c.banks[i])
		mgr.RegisterResource("bank", c.banks[i])
		if i == 0 {
			c.coord = mgr
		} else {
			c.parts[i-1] = mgr
		}
	}

	out := quickstartOutcome{kinds: map[string]int{}}
	out.err = transfer(context.Background(), c, 1, 2, 30)
	for i := range c.banks {
		out.balances[i] = c.balanceAt(t, i)
	}
	for _, rec := range recs {
		out.spans = append(out.spans, rec.Spans()...)
	}
	tree := trace.Merge(out.spans)
	out.orphans = len(tree.Orphans)
	for _, s := range out.spans {
		out.kinds[s.Kind]++
	}
	return out
}

// TestFakeAndRealClockAgreeOnQuickstartPath is the differential check
// behind the clock abstraction: the same distributed transfer, run once
// on the real clock and once on a virtual clock that never advances,
// must produce identical observable behaviour — same commit outcome,
// same final balances, same trace-tree shape. Only timestamps may
// differ, and in the fake run they must all sit exactly at the virtual
// epoch, proving every span on the path was stamped by the injected
// clock rather than by ambient time.
func TestFakeAndRealClockAgreeOnQuickstartPath(t *testing.T) {
	epoch := time.Date(2030, 6, 1, 0, 0, 0, 0, time.UTC)
	fake := clock.NewFakeAt(epoch)

	real := runQuickstartPath(t, clock.Real())
	virt := runQuickstartPath(t, fake)

	if real.err != nil || virt.err != nil {
		t.Fatalf("transfer errors: real=%v fake=%v, want both nil", real.err, virt.err)
	}
	if real.balances != virt.balances {
		t.Fatalf("final balances diverge: real=%v fake=%v", real.balances, virt.balances)
	}
	if want := [3]int{100, 70, 130}; virt.balances != want {
		t.Fatalf("balances = %v, want %v", virt.balances, want)
	}
	if real.orphans != 0 || virt.orphans != 0 {
		t.Fatalf("orphan spans: real=%d fake=%d, want 0/0", real.orphans, virt.orphans)
	}

	// Same tree shape: identical span-kind multiset (action spans have
	// kind "", rounds "round.*", RPCs "rpc.client"/"rpc.server").
	if len(real.kinds) != len(virt.kinds) {
		t.Fatalf("span kind sets diverge: real=%v fake=%v", real.kinds, virt.kinds)
	}
	for k, n := range real.kinds {
		if virt.kinds[k] != n {
			t.Fatalf("span kind %q: real=%d fake=%d (real=%v fake=%v)",
				k, n, virt.kinds[k], real.kinds, virt.kinds)
		}
	}

	// The virtual clock was never advanced, so every span in the fake
	// run must be stamped exactly at the epoch. A single diverging timestamp means some component on the
	// path read ambient time instead of its injected clock.
	for _, s := range virt.spans {
		if !s.Begin.Equal(epoch) {
			t.Fatalf("span %s/%s begins at %v, want the virtual epoch %v", s.Kind, s.Label, s.Begin, epoch)
		}
		if !s.End.IsZero() && !s.End.Equal(epoch) {
			t.Fatalf("span %s/%s ends at %v, want the virtual epoch %v", s.Kind, s.Label, s.End, epoch)
		}
	}
	// And the real run's spans must not sit at the fake epoch.
	for _, s := range real.spans {
		if s.Begin.Equal(epoch) {
			t.Fatalf("real-clock span %s/%s stamped at the virtual epoch", s.Kind, s.Label)
		}
	}
}
