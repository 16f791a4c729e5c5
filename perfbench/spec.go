package main

import (
	"encoding/json"
	"time"
)

// opKind is one operation class of the driver's register workload.
type opKind uint8

const (
	opRead     opKind = iota // read one register
	opWrite                  // add 1 to one register
	opTransfer               // move 1 from a register to its neighbour on the other participant
)

type opWeight struct {
	op     opKind
	weight float64
}

// workloadSpec fixes one workload. Its rates never move once
// published: a later change is judged against the same offered load.
type workloadSpec struct {
	name string
	why  string
	tcp  bool // loopback tcpnet instead of netsim
	// registers are spread round-robin over the two participants.
	registers int
	zipf      float64 // key skew θ; 0 draws keys uniformly
	mix       []opWeight
	// linkDelay is netsim's fixed per-message delay; forceDelay the
	// simulated latency of every WAL force.
	linkDelay  time.Duration
	forceDelay time.Duration
	// light and heavy are the fixed offered rates, ops/s. On
	// netsim_crash both equal the one fixed rate (see NOTES.md).
	light, heavy float64
	slo          time.Duration // p99 latency limit of the capacity search
	inFlight     int           // bound on in-flight transactions
	crash        bool          // crash cycles inside the measured phase
}

var workloads = []workloadSpec{
	{
		name:      "tcp_mixed",
		why:       "CPU-bound wire path over loopback TCP (codecs, coalescing writer, serve pool, dist handlers); locks and WAL idle",
		tcp:       true,
		registers: 1024,
		mix:       []opWeight{{opRead, 70}, {opWrite, 20}, {opTransfer, 10}},
		light:     1000, heavy: 3000,
		slo:      20 * time.Millisecond,
		inFlight: 64,
	},
	{
		name:       "netsim_durable",
		why:        "latency set by message rounds, WAL forces, group commit and retransmits under 1ms link and force delay; CPU mostly idle",
		registers:  1024,
		mix:        []opWeight{{opWrite, 50}, {opTransfer, 50}},
		linkDelay:  time.Millisecond,
		forceDelay: time.Millisecond,
		light:      200, heavy: 800,
		slo:      100 * time.Millisecond,
		inFlight: 256,
	},
	{
		name:      "netsim_hot",
		why:       "16 Zipf-skewed registers load the lock layer with blocking and the read-only prepare short-circuit; forces cheap",
		registers: 16,
		zipf:      0.99,
		mix:       []opWeight{{opRead, 50}, {opWrite, 40}, {opTransfer, 10}},
		light:     1000, heavy: 2000,
		slo:      20 * time.Millisecond,
		inFlight: 64,
	},
	{
		name:       "netsim_crash",
		why:        "netsim_durable at one fixed rate with a participant crashed and restarted on schedule: store recovery, in-doubt re-drive, retransmit",
		registers:  1024,
		mix:        []opWeight{{opWrite, 50}, {opTransfer, 50}},
		linkDelay:  time.Millisecond,
		forceDelay: time.Millisecond,
		light:      400, heavy: 400,
		slo:      100 * time.Millisecond,
		inFlight: 256,
		crash:    true,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricSpec is one published metric. moves names, for a per-layer
// metric, the end-to-end metric and workload it should move, and where
// it should not.
type metricSpec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	moves  string
}

// endToEnd are measured untraced and printed with --trace 0. They are
// the end-to-end metrics that hold still on a host whose CPUs are
// shared; latency, capacity, CPU time and recovery time do not
// (NOTES.md, "Steadiness"), so they are published with the per-layer
// metrics, without a bound.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.15},
	{name: "peak_heap_mb", unit: "MB", better: "lower", bound: 0.24},
	{name: "success_frac", unit: "fraction", better: "higher", bound: 0.01},
}

// unbounded is the moves entry of the end-to-end metrics published
// with the per-layer ones.
const unbounded = "end-to-end, untraced; no bound: moves with the host's CPU contention"

// perLayer are printed with --trace 1: counters from the untraced
// rounds, timings from the traced run.
var perLayer = []metricSpec{
	{name: "capacity_ops_s", unit: "ops/s", better: "higher", moves: unbounded},
	{name: "p50_ms_light", unit: "ms", better: "lower", moves: unbounded},
	{name: "p99_ms_light", unit: "ms", better: "lower", moves: unbounded},
	{name: "p50_ms_heavy", unit: "ms", better: "lower", moves: unbounded},
	{name: "p99_ms_heavy", unit: "ms", better: "lower", moves: unbounded},
	{name: "cpu_us_per_op", unit: "us", better: "lower", moves: unbounded},
	{name: "recovery_s", unit: "s", better: "lower", moves: unbounded},
	{name: "workload.gen_lag_ms_max", unit: "ms", better: "lower", moves: "validity of every run (limit 100ms)"},
	{name: "dist.begin_us_p50", unit: "us", better: "lower", moves: "p50_ms_* on netsim_hot; not capacity_ops_s on netsim_durable"},
	{name: "dist.invoke_us_p50", unit: "us", better: "lower", moves: "p50_ms_* on netsim_durable and tcp_mixed"},
	{name: "dist.invoke_us_p99", unit: "us", better: "lower", moves: "p99_ms_* on netsim_hot (lock waits inside invoke)"},
	{name: "dist.commit_us_p50", unit: "us", better: "lower", moves: "p50_ms_* on netsim_durable; not tcp_mixed cpu_us_per_op"},
	{name: "dist.commit_us_p99", unit: "us", better: "lower", moves: "p99_ms_* on netsim_durable"},
	{name: "dist.rounds_per_txn", unit: "count", better: "lower", moves: "p50_ms_* on netsim_durable; not netsim_hot reads"},
	{name: "dist.readonly_vote_frac", unit: "fraction", better: "higher", moves: "p50_ms_light on netsim_hot (read-only short-circuit); not netsim_durable"},
	{name: "dist.abort_frac", unit: "fraction", better: "lower", moves: "p99_ms_heavy and capacity_ops_s on netsim_hot; not tcp_mixed"},
	{name: "dist.prepare_round_ms_mean", unit: "ms", better: "lower", moves: "p50_ms_* on netsim_durable"},
	{name: "dist.commit_round_ms_mean", unit: "ms", better: "lower", moves: "p50_ms_* on netsim_durable"},
	{name: "resource.invoke_us_p50", unit: "us", better: "lower", moves: "p50_ms_* on netsim_hot (action+colour+lock+object); not netsim_durable"},
	{name: "resource.invoke_us_p99", unit: "us", better: "lower", moves: "p99_ms_heavy on netsim_hot (lock blocking)"},
	{name: "rpc.invoke_self_us_p50", unit: "us", better: "lower", moves: "cpu_us_per_op and p50_ms_* on tcp_mixed (rpc, transport, handler)"},
	{name: "rpc.calls_per_txn", unit: "count", better: "lower", moves: "cpu_us_per_op, allocs_per_op, capacity_ops_s on tcp_mixed; not netsim_durable latency"},
	{name: "rpc.bytes_per_txn", unit: "B", better: "lower", moves: "cpu_us_per_op, allocs_per_op, capacity_ops_s on tcp_mixed; not netsim_durable latency"},
	{name: "rpc.spawn_serve_frac", unit: "fraction", better: "lower", moves: "cpu_us_per_op, allocs_per_op, capacity_ops_s on tcp_mixed; not netsim_durable latency"},
	{name: "rpc.retransmit_frac", unit: "fraction", better: "lower", moves: "p99_ms_* and cpu_us_per_op on netsim_durable"},
	{name: "rpc.duplicate_frac", unit: "fraction", better: "lower", moves: "p99_ms_* and cpu_us_per_op on netsim_durable"},
	{name: "netsim.msgs_per_txn", unit: "count", better: "lower", moves: "p50_ms_* on netsim_durable; not tcp_mixed"},
	{name: "tcpnet.frames_per_writev", unit: "count", better: "higher", moves: "cpu_us_per_op and capacity_ops_s on tcp_mixed; not netsim_*"},
	{name: "tcpnet.bytes_written_per_txn", unit: "B", better: "lower", moves: "cpu_us_per_op and capacity_ops_s on tcp_mixed; not netsim_*"},
	{name: "tcpnet.drops", unit: "count", better: "lower", moves: "p99_ms_* and capacity_ops_s on tcp_mixed; not netsim_*"},
	{name: "store.wal_flushes_per_txn", unit: "count", better: "lower", moves: "p50_ms_* and capacity_ops_s on netsim_durable; not netsim_hot reads"},
	{name: "store.wal_records_per_flush", unit: "count", better: "higher", moves: "p50_ms_* and capacity_ops_s on netsim_durable; not netsim_hot reads"},
	{name: "store.wal_flush_ms_mean", unit: "ms", better: "lower", moves: "p50_ms_* and capacity_ops_s on netsim_durable; not netsim_hot reads"},
	{name: "lock.acquires_per_txn", unit: "count", better: "lower", moves: "p99_ms_heavy and capacity_ops_s on netsim_hot; not tcp_mixed"},
	{name: "lock.block_frac", unit: "fraction", better: "lower", moves: "p99_ms_heavy and capacity_ops_s on netsim_hot; not tcp_mixed"},
	{name: "lock.block_ms_mean", unit: "ms", better: "lower", moves: "p99_ms_heavy and capacity_ops_s on netsim_hot; not tcp_mixed"},
	{name: "lock.deadlocks", unit: "count", better: "lower", moves: "p99_ms_heavy and capacity_ops_s on netsim_hot; not tcp_mixed"},
	{name: "action.begins_per_txn", unit: "count", better: "lower", moves: "cpu_us_per_op and allocs_per_op on tcp_mixed"},
	{name: "runtime.gc_cycles_per_kop", unit: "count", better: "lower", moves: "p99_ms_heavy and peak_heap_mb on tcp_mixed"},
	{name: "runtime.gc_pause_ms_p99", unit: "ms", better: "lower", moves: "p99_ms_heavy and peak_heap_mb on tcp_mixed"},
	{name: "runtime.goroutines_max", unit: "count", better: "lower", moves: "p99_ms_heavy and peak_heap_mb on tcp_mixed"},
	{name: "recovery.redriven_txns", unit: "count", better: "lower", moves: "recovery_s on netsim_crash"},
	{name: "recovery.retransmits_in_fault", unit: "count", better: "lower", moves: "recovery_s on netsim_crash"},
	{name: "trace.overhead_pct", unit: "%", better: "lower", moves: "traced vs untraced cpu_us_per_op; meaningful on tcp_mixed"},
	{name: "trace.self_pct", unit: "%", better: "lower", moves: "reconciliation: root span time not covered by its child spans (limit 5%)"},
}

// runSeconds is the --seconds a driver passes: a run measures for
// about this long.
const runSeconds = 25

// benchmarkJSON renders BENCHMARK.json from the tables above, so the
// published file and the program cannot disagree:
//
//	bash perfbench/run.sh --print-spec > BENCHMARK.json
func benchmarkJSON() ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []e2e      `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, workload{w.name, w.why})
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{m.name, m.unit, m.better})
	}
	out, err := json.MarshalIndent(spec, "", "  ")
	return append(out, '\n'), err
}
