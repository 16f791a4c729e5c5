// Package phase is the per-transaction phase ledger behind tail-latency
// attribution: every layer that makes a transaction wait — the lock
// manager (lock-wait), the WAL (force-wait), the RPC client and serve
// pool (network and queueing) — reports the duration here, keyed by
// the transaction's distributed-trace identity. trace attaches the
// accumulated breakdown to the transaction's root span at export, so
// tracecat and the load harness can say where a slow transaction's
// time went.
//
// The package sits at the bottom of the import graph on purpose: lock
// and store are imported *by* action, which trace imports, so neither
// may import trace. They import this leaf instead (stdlib + ids only).
// Layers that know only an action identifier (lock owner, WAL record)
// resolve it through the action→trace binding the trace recorders
// maintain via Bind.
//
// Both tables are bounded: traces that never complete (crashed
// coordinators, dropped exports) are evicted FIFO rather than leaking.
// Recording against an unknown, evicted or unbound key is a cheap no-op
// — attribution is best-effort telemetry, never load-bearing.
package phase

import (
	"sync"
	"sync/atomic"
	"time"

	"mca/internal/ids"
)

// Phase names, the keys of an exported breakdown. Raw sums may overlap
// (an rpc call *contains* the server's serve time, which contains its
// force-wait); consumers derive exclusive views, e.g. network ≈ rpc −
// serve − queue. Under parallel fan-out, sums across participants may
// legitimately exceed the transaction's wall-clock duration.
const (
	// Lock is time blocked in the lock manager waiting for a
	// conflicting holder, on any node.
	Lock = "lock"
	// Force is time a WAL append waited for its record to become
	// durable (group-commit window + force), on any node.
	Force = "force"
	// RPC is client-observed call time: send to reply, including
	// retries, the wire and the remote handler.
	RPC = "rpc"
	// Serve is server-side handler time of those calls (dispatch to
	// reply written); RPC − Serve − Queue approximates the network.
	Serve = "serve"
	// Queue is time a request waited in the RPC serve pool between
	// arrival and handler start.
	Queue = "queue"
)

// Names lists every phase in presentation order.
var Names = []string{Lock, Force, RPC, Serve, Queue}

const phaseCount = 5

func phaseIndex(name string) int {
	switch name {
	case Lock:
		return 0
	case Force:
		return 1
	case RPC:
		return 2
	case Serve:
		return 3
	case Queue:
		return 4
	default:
		return -1
	}
}

// ledger accumulates per-phase nanoseconds for one trace.
type ledger struct {
	ns [phaseCount]atomic.Int64
}

const (
	shardCount = 16
	// maxLedgers and maxBinds bound each shard's table; the totals
	// (4096 in-flight traces, 16384 bound actions) are far above any
	// realistic in-flight population, so eviction only ever hits
	// abandoned entries.
	maxLedgers = 4096 / shardCount
	maxBinds   = 16384 / shardCount
)

type ledgerShard struct {
	mu      sync.Mutex
	ledgers map[uint64]*ledger
	order   []uint64 // insertion order, for FIFO eviction
}

type bindShard struct {
	mu     sync.Mutex
	traces map[ids.ActionID]uint64
	order  []ids.ActionID
}

var (
	ledgerShards [shardCount]ledgerShard
	bindShards   [shardCount]bindShard
)

func init() {
	for i := range ledgerShards {
		ledgerShards[i].ledgers = make(map[uint64]*ledger)
	}
	for i := range bindShards {
		bindShards[i].traces = make(map[ids.ActionID]uint64)
	}
}

// mix spreads sequentially-allocated identifiers across shards
// (splitmix64 finalizer).
func mix(v uint64) uint64 {
	v = (v ^ (v >> 30)) * 0xBF58476D1CE4E5B9
	v = (v ^ (v >> 27)) * 0x94D049BB133111EB
	return v ^ (v >> 31)
}

func (s *ledgerShard) get(trace uint64, create bool) *ledger {
	s.mu.Lock()
	defer s.mu.Unlock()
	if l, ok := s.ledgers[trace]; ok {
		return l
	}
	if !create {
		return nil
	}
	for len(s.ledgers) >= maxLedgers && len(s.order) > 0 {
		old := s.order[0]
		s.order = s.order[1:]
		delete(s.ledgers, old)
	}
	l := &ledger{}
	s.ledgers[trace] = l
	s.order = append(s.order, trace)
	return l
}

func ledgerOf(trace uint64, create bool) *ledger {
	if trace == 0 {
		return nil
	}
	return ledgerShards[mix(trace)&(shardCount-1)].get(trace, create)
}

// Record adds d to the named phase of the trace's ledger, creating the
// ledger on first use. Zero trace identifiers, unknown phase names and
// non-positive durations are ignored.
func Record(trace uint64, name string, d time.Duration) {
	if trace == 0 || d <= 0 {
		return
	}
	i := phaseIndex(name)
	if i < 0 {
		return
	}
	if l := ledgerOf(trace, true); l != nil {
		l.ns[i].Add(int64(d))
	}
}

// Bind associates an action with a trace so layers that only see action
// identifiers (lock owners, WAL records) can attribute waits.
// trace.Recorder calls this from StartTrace/JoinTrace. The first
// binding wins, mirroring the recorder's duplicate-join semantics.
func Bind(a ids.ActionID, trace uint64) {
	if a == 0 || trace == 0 {
		return
	}
	s := &bindShards[mix(uint64(a))&(shardCount-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.traces[a]; ok {
		return
	}
	for len(s.traces) >= maxBinds && len(s.order) > 0 {
		old := s.order[0]
		s.order = s.order[1:]
		delete(s.traces, old)
	}
	s.traces[a] = trace
	s.order = append(s.order, a)
}

// TraceOf resolves an action's bound trace, zero if unbound.
func TraceOf(a ids.ActionID) uint64 {
	if a == 0 {
		return 0
	}
	s := &bindShards[mix(uint64(a))&(shardCount-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.traces[a]
}

// RecordAction is Record through the action→trace binding: a no-op for
// unbound (untraced) actions.
func RecordAction(a ids.ActionID, name string, d time.Duration) {
	if tid := TraceOf(a); tid != 0 {
		Record(tid, name, d)
	}
}

// Snapshot returns the trace's accumulated breakdown in nanoseconds,
// omitting zero phases; nil when nothing was recorded.
func Snapshot(trace uint64) map[string]int64 {
	l := ledgerOf(trace, false)
	if l == nil {
		return nil
	}
	var out map[string]int64
	for i, name := range Names {
		if v := l.ns[i].Load(); v > 0 {
			if out == nil {
				out = make(map[string]int64, phaseCount)
			}
			out[name] = v
		}
	}
	return out
}

// Discard drops the trace's ledger (tail sampler drop path). Later
// records for the same trace recreate an empty ledger; the FIFO bound
// keeps those partial stragglers from accumulating.
func Discard(trace uint64) {
	if trace == 0 {
		return
	}
	s := &ledgerShards[mix(trace)&(shardCount-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.ledgers, trace)
}

// Reset clears both tables. Tests use it to isolate the process-global
// state; production code never calls it.
func Reset() {
	for i := range ledgerShards {
		s := &ledgerShards[i]
		s.mu.Lock()
		s.ledgers = make(map[uint64]*ledger)
		s.order = nil
		s.mu.Unlock()
	}
	for i := range bindShards {
		s := &bindShards[i]
		s.mu.Lock()
		s.traces = make(map[ids.ActionID]uint64)
		s.order = nil
		s.mu.Unlock()
	}
}
