package main

import (
	"fmt"
	"runtime"
	"time"

	"mca/internal/action"
)

// latencyRounds is how many rounds a --trace 1 run makes, each a light
// phase, a heavy phase and a capacity bisection (on netsim_crash, two
// crash cycles and a bisection). Short phases spread over the run, with
// robust means over them (midMean), keep a burst of load from
// elsewhere on the host from deciding a metric.
const latencyRounds = 4

// tracedCycles is how many crash cycles netsim_crash's traced run has.
const tracedCycles = 6

// crashPlan is netsim_crash's fault schedule: cycles of crashing one
// participant (alternating) for a fixed downtime while arrivals keep
// coming on schedule.
func (b *bench) crashPlan(cycles int) faultPlan {
	period := b.share(0.036, 300*time.Millisecond)
	return faultPlan{cycles: cycles, period: period, crashAt: period * 35 / 100, down: min(250*time.Millisecond, period*3/10)}
}

// recoveryPlan is the crash tail of every other workload: many quick
// cycles at the light rate, after the scored rounds, for recovery_s.
// One recovery here takes a few milliseconds and varies with the
// retransmit timer, so it takes many cycles for a steady value.
func (b *bench) recoveryPlan() faultPlan {
	period := b.share(0.004, 80*time.Millisecond)
	return faultPlan{cycles: 25, period: period, crashAt: period / 4, down: min(20*time.Millisecond, period/4)}
}

// setupsPerRound is how many extra clusters a --trace 0 run builds, and
// times, before each loaded phase. Spread over the run like this, a
// burst of load from elsewhere on the host spoils only the few builds
// it falls on.
const setupsPerRound = 6

// loaded runs one loaded phase: the heavy rate, or on netsim_crash the
// one rate with two crash cycles.
func (b *bench) loaded(d *driver, pk *peaks) (faultResult, error) {
	if b.spec.crash {
		return b.faults(d, b.spec.light, b.crashPlan(2), pk)
	}
	ph, err := b.fixed(d, b.spec.heavy, b.share(0.05, 300*time.Millisecond), pk)
	return faultResult{phase: ph}, err
}

// loadedRounds is how many loaded phases a --trace 0 run measures: as
// many as fill 85% of the budget, the rest being set-up and the output
// check.
func (b *bench) loadedRounds() int {
	phase := b.warmup() + b.share(0.05, 300*time.Millisecond)
	if b.spec.crash {
		p := b.crashPlan(2)
		phase = b.warmup() + time.Duration(p.cycles)*p.period
	}
	return max(int(0.85*b.secs*float64(time.Second)/float64(phase)), 3)
}

// endToEnd measures the bounded end-to-end metrics, untraced:
// allocations and heap over many loaded phases, and set-up time over
// the cluster builds between them.
func (b *bench) endToEnd() (result, error) {
	var out result
	c, d, took, err := b.setup(nil)
	if err != nil {
		return out, err
	}
	defer c.close()
	setups := []time.Duration{took}

	var allocs, heap []float64
	for r, n := 0, b.loadedRounds(); r < n; r++ {
		for k := 0; k < setupsPerRound; k++ {
			ck, _, took, err := b.setup(nil)
			if err != nil {
				return out, err
			}
			ck.close()
			setups = append(setups, took)
		}
		// The builds' garbage goes now, not during the phase.
		runtime.GC()
		pk := &peaks{}
		fr, err := b.loaded(d, pk)
		if err != nil {
			return out, err
		}
		ph := fr.phase
		allocs = append(allocs, float64(ph.usage.allocs)/float64(max(ph.opsDone, 1)))
		h, _ := pk.get()
		heap = append(heap, float64(h)/(1<<20))
		out.count(ph)
	}
	b.log("per phase: allocs_per_op %.1f, peak_heap_mb %.2f", allocs, heap)
	out.setDuration("setup_s", quantile(sortedCopy(setups), 0.5), time.Second)
	out.sample("setup_s", len(setups))
	out.set("allocs_per_op", midMean(allocs))
	out.set("peak_heap_mb", midMean(heap))
	out.sample("allocs_per_op", len(allocs))
	out.set("success_frac", 1-out.record.ErrorFrac)
	return out, b.check(&out, c, d)
}

// count adds a scored phase's ops to the attempted and the failed ones
// (a shed arrival counts as failed), and its generator lag to the run's.
func (r *result) count(p phaseResult) {
	r.Attempted += p.attempts
	r.Failed += p.failed + p.shed
	r.record.GenLagMs = max(r.record.GenLagMs, ms(p.genLag))
	r.record.ErrorFrac = ratio(float64(r.Failed), float64(r.Attempted))
}

// perLayer measures the per-layer metrics, and the end-to-end metrics
// published without a bound (latency, capacity, CPU, recovery): untraced
// rounds, whose loaded phases the system's counters are summed over,
// then the same load on a traced cluster for the spans, whose CPU cost
// against the untraced phases is the tracing overhead.
func (b *bench) perLayer() (result, error) {
	t0 := time.Now()
	var out result
	b.retired = new([]*action.Runtime)
	c, d, _, err := b.setup(nil)
	if err != nil {
		return out, err
	}
	defer c.close()

	var (
		light, heavy []time.Duration // every round's latencies, in arrival order
		loaded       []phaseResult
		cpu          []float64   // per round: CPU per op in the loaded phase
		rec          faultResult // recovery cycles
	)
	pk := &peaks{}
	search := b.capacity(d)
	for r := 0; r < latencyRounds; r++ {
		if !b.spec.crash {
			lr, err := b.fixed(d, b.spec.light, b.share(0.05, 300*time.Millisecond), nil)
			if err != nil {
				return out, err
			}
			light = append(light, lr.lat...)
			out.count(lr)
		}
		fr, err := b.loaded(d, pk)
		if err != nil {
			return out, err
		}
		if b.spec.crash {
			light, heavy = append(light, fr.steady...), append(heavy, fr.fault...)
			rec.recovery = append(rec.recovery, fr.recovery...)
			rec.redriven += fr.redriven
			rec.retransmits += fr.retransmits
		} else {
			heavy = append(heavy, fr.phase.lat...)
		}
		loaded = append(loaded, fr.phase)
		cpu = append(cpu, cpuPerOp(fr.phase))
		out.count(fr.phase)

		if r == 0 {
			search.ramp(b.spec.heavy)
		}
		search.round()
		b.log("round %d done at %v: capacity %.0f/s this round",
			r, time.Since(t0).Round(time.Millisecond), search.estimates[r])
	}
	for _, p := range search.log {
		b.log("capacity probe %8.0f/s pass=%v %s", p.rate, p.pass, p.why)
	}
	if !b.spec.crash {
		if rec, err = b.faults(d, b.spec.light, b.recoveryPlan(), nil); err != nil {
			return out, err
		}
		out.count(rec.phase)
	}
	b.log("recovery cycles done at %v: %v", time.Since(t0).Round(time.Millisecond), rec.recovery)

	out.set("capacity_ops_s", search.estimate())
	out.sample("capacity_ops_s", len(search.estimates))
	for _, p := range []struct {
		name string
		lat  []time.Duration
		q    float64
	}{
		{"p50_ms_light", light, 0.5}, {"p99_ms_light", light, 0.99},
		{"p50_ms_heavy", heavy, 0.5}, {"p99_ms_heavy", heavy, 0.99},
	} {
		v, n := slicedQuantile(p.lat, p.q)
		out.setDuration(p.name, v, time.Millisecond)
		out.sample(p.name, len(p.lat))
		out.record.Slices[p.name] = n
	}
	out.set("cpu_us_per_op", midMean(cpu))
	out.sample("cpu_us_per_op", len(cpu))
	out.setDuration("recovery_s", midMean(rec.recovery), time.Second)
	out.sample("recovery_s", len(rec.recovery))

	ph := merge(loaded)
	b.retired = nil
	spans := newSpanLog(int(b.spec.heavy*b.tracedHorizon().Seconds()*2) + 1024)
	ct, dt, _, err := b.setup(spans)
	if err != nil {
		return out, err
	}
	defer ct.close()
	var tph phaseResult
	if b.spec.crash {
		fr, err := b.faults(dt, b.spec.light, b.crashPlan(tracedCycles), nil)
		if err != nil {
			return out, err
		}
		tph = fr.phase
	} else if tph, err = b.fixed(dt, b.spec.heavy, b.tracedWindow(), nil); err != nil {
		return out, err
	}
	out.count(tph)
	st := spans.reduce()

	k, drv := ph.ctr, ph.drv
	commits := k["mca_dist_txn_commits_total"]
	perTxn := func(v float64) float64 { return ratio(v, commits) }
	histMean := func(key string, unit time.Duration) float64 {
		return ratio(k[key+":sum"], k[key+":count"]) / float64(unit)
	}
	out.set("dist.rounds_per_txn", perTxn(k["mca_dist_rounds_total"]))
	out.set("dist.readonly_vote_frac", ratio(k["mca_dist_readonly_votes_total"], float64(drv.prepared)))
	out.set("dist.abort_frac", ratio(float64(drv.aborts), float64(drv.attempts)))
	out.set("dist.prepare_round_ms_mean", histMean("mca_dist_round_ns{kind=prepare}", time.Millisecond))
	out.set("dist.commit_round_ms_mean", histMean("mca_dist_round_ns{kind=commit}", time.Millisecond))
	out.set("rpc.calls_per_txn", perTxn(k["mca_rpc_calls_total"]))
	out.set("rpc.bytes_per_txn", perTxn(k["mca_rpc_bytes_sent_total"]))
	out.set("rpc.spawn_serve_frac", ratio(k["mca_rpc_serves_total{path=spawn}"], k["mca_rpc_serves_total"]))
	out.set("rpc.retransmit_frac", ratio(k["mca_rpc_retransmits_total"], k["mca_rpc_calls_total"]))
	out.set("rpc.duplicate_frac", ratio(k["mca_rpc_duplicates_total"], k["mca_rpc_requests_total"]))
	out.set("netsim.msgs_per_txn", perTxn(k["mca_netsim_messages_total{event=sent}"]))
	out.set("tcpnet.frames_per_writev", ratio(k["mca_tcpnet_write_batch_frames_total"], k["mca_tcpnet_write_batches_total"]))
	out.set("tcpnet.bytes_written_per_txn", perTxn(k["mca_tcpnet_bytes_written_total"]))
	out.set("tcpnet.drops", k["mca_tcpnet_write_drops_total"]+k["mca_tcpnet_inbox_drops_total"]+k["mca_tcpnet_send_queue_drops_total"])
	out.set("store.wal_flushes_per_txn", perTxn(k["mca_store_wal_flushes_total"]))
	out.set("store.wal_records_per_flush", ratio(k["mca_store_wal_records_total"], k["mca_store_wal_flushes_total"]))
	out.set("store.wal_flush_ms_mean", histMean("mca_store_wal_flush_ns", time.Millisecond))
	out.set("lock.acquires_per_txn", perTxn(k["mca_lock_acquires_total"]))
	out.set("lock.block_frac", ratio(k["mca_lock_blocks_total"], k["mca_lock_acquires_total"]))
	out.set("lock.block_ms_mean", histMean("mca_lock_block_ns", time.Millisecond))
	out.set("lock.deadlocks", k["mca_lock_deadlocks_total"])
	out.set("action.begins_per_txn", perTxn(k["mca_action_begins_total"]))
	out.set("runtime.gc_cycles_per_kop", ratio(float64(ph.usage.gcCycles)*1000, float64(ph.opsDone)))
	out.set("runtime.gc_pause_ms_p99", ms(ph.usage.pauseP99))
	_, routines := pk.get()
	out.set("runtime.goroutines_max", float64(routines))
	out.set("recovery.redriven_txns", rec.redriven)
	out.set("recovery.retransmits_in_fault", rec.retransmits)

	out.set("trace.overhead_pct", (ratio(cpuPerOp(tph), cpuPerOp(ph))-1)*100)
	out.set("trace.self_pct", st.selfShare()*100)
	for _, s := range []struct {
		name string
		lat  []time.Duration
		q    float64
	}{
		{"dist.begin_us_p50", st.begin, 0.5},
		{"dist.invoke_us_p50", st.invoke, 0.5}, {"dist.invoke_us_p99", st.invoke, 0.99},
		{"dist.commit_us_p50", st.commit, 0.5}, {"dist.commit_us_p99", st.commit, 0.99},
		{"resource.invoke_us_p50", st.resource, 0.5}, {"resource.invoke_us_p99", st.resource, 0.99},
		{"rpc.invoke_self_us_p50", st.rpcSelf, 0.5},
	} {
		out.setDuration(s.name, quantile(s.lat, s.q), time.Microsecond)
		out.sample(s.name, len(s.lat))
	}

	out.set("workload.gen_lag_ms_max", out.record.GenLagMs)
	if !st.reconciled() {
		out.record.Notes = append(out.record.Notes, fmt.Sprintf(
			"trace reconciliation failed: %d txns, %d containment violations, %d with self time over %.0f%% of the root",
			st.txns, st.violations, st.selfOver, selfTolerance*100))
		out.Correct = false
		return out, nil
	}
	if err := b.check(&out, c, d); err != nil {
		return out, err
	}
	if !out.Correct {
		return out, nil
	}
	return out, b.check(&out, ct, dt)
}

// cpuPerOp is the process's user+system CPU per op completed in p, in
// microseconds.
func cpuPerOp(p phaseResult) float64 {
	return ratio(float64(p.usage.cpu)/float64(time.Microsecond), float64(p.opsDone))
}

// tracedWindow is the scored window of the traced run's heavy phase.
func (b *bench) tracedWindow() time.Duration { return b.share(0.2, 500*time.Millisecond) }

// tracedHorizon is how long the traced run's schedule lasts.
func (b *bench) tracedHorizon() time.Duration {
	if b.spec.crash {
		p := b.crashPlan(tracedCycles)
		return b.warmup() + time.Duration(p.cycles)*p.period
	}
	return b.warmup() + b.tracedWindow()
}

// merge sums the resource use and the counters of phases run one after
// another; its GC pause p99 is the largest of theirs.
func merge(ps []phaseResult) phaseResult {
	m := phaseResult{ctr: counters{}}
	for _, p := range ps {
		for k, v := range p.ctr {
			m.ctr[k] += v
		}
		m.drv.attempts += p.drv.attempts
		m.drv.aborts += p.drv.aborts
		m.drv.prepared += p.drv.prepared
		m.usage.cpu += p.usage.cpu
		m.usage.allocs += p.usage.allocs
		m.usage.gcCycles += p.usage.gcCycles
		m.usage.pauseP99 = max(m.usage.pauseP99, p.usage.pauseP99)
		m.opsDone += p.opsDone
	}
	return m
}

// check reads every register back and verifies it against the
// driver's ledger, setting out.Correct.
func (b *bench) check(out *result, c *cluster, d *driver) error {
	vals, err := readBack(c)
	if err != nil {
		return err
	}
	if err := verify(vals, d.led); err != nil {
		out.record.Notes = append(out.record.Notes, err.Error())
		out.Correct = false
		return nil
	}
	out.Correct = true
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
