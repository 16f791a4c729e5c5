package main

import (
	"fmt"
	"slices"
	"time"

	"mca/internal/action"
	"mca/internal/node"
	"mca/internal/store"
)

// bench runs one workload's phases. Phase lengths are shares of the
// --seconds budget, so a tiny budget (the self-tests) runs the same
// path quickly.
type bench struct {
	spec  workloadSpec
	secs  float64
	seed  uint64
	phase uint64 // phases drawn so far: each gets its own schedule seed
	log   func(format string, args ...any)
	// retired, when non-nil, keeps the action runtime of every crashed
	// node alive. The lock counters of the system's registry sum the
	// lock managers still reachable, so a crashed node's counts would
	// drop out of the sum at the next garbage collection.
	retired *[]*action.Runtime
}

// share returns frac of the budget, at least floor.
func (b *bench) share(frac float64, floor time.Duration) time.Duration {
	return max(time.Duration(frac*b.secs*float64(time.Second)), floor)
}

// warmup is the unscored lead-in of every fixed-rate and fault phase:
// long enough for the arrival stream and the in-flight set to settle.
func (b *bench) warmup() time.Duration { return b.share(0.004, 100*time.Millisecond) }

// nextSeed derives the schedule seed of the next phase from the run's
// seed: the same --seed replays every phase's inputs.
func (b *bench) nextSeed() uint64 {
	b.phase++
	return newRNG(b.seed ^ b.phase*0x9e3779b97f4a7c15).next()
}

func (b *bench) keys() keyDist {
	if b.spec.zipf > 0 {
		return zipfKeys(b.spec.registers, b.spec.zipf)
	}
	return uniformKeys(b.spec.registers)
}

// setup builds a cluster and runs its first commit, returning the time
// the two took.
func (b *bench) setup(spans *spanLog) (*cluster, *driver, time.Duration, error) {
	t0 := time.Now()
	c, err := newCluster(b.spec, spans, b.seed)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("build cluster: %w", err)
	}
	d := newDriver(c)
	if !d.do(arrival{op: opWrite, key: 0}) {
		c.close()
		return nil, nil, 0, fmt.Errorf("first commit failed")
	}
	return c, d, time.Since(t0), nil
}

// fixed runs an open-loop phase at a fixed rate. A phase whose
// generator fell behind (genLagLimit) is invalid and is run again, at
// most twice.
func (b *bench) fixed(d *driver, rate float64, window time.Duration, pk *peaks) (phaseResult, error) {
	cfg := phaseConfig{warmup: b.warmup(), window: window, inFlight: b.spec.inFlight}
	sched := buildSchedule(b.nextSeed(), rate, cfg.warmup+cfg.window, b.spec.mix, b.keys())
	var r phaseResult
	for try := 0; try < 3; try++ {
		r = runPhase(cfg, sched, d, pk)
		if r.valid() {
			return r, nil
		}
		b.log("phase at %.0f/s invalid: generator lag %v; running it again", rate, r.genLag)
	}
	return r, fmt.Errorf("phase at %.0f/s: generator lag %v over %v", rate, r.genLag, genLagLimit)
}

// capacity prepares the capacity search: short probes, each on its
// own schedule, shedding once an arrival waits a whole SLO for a worker.
func (b *bench) capacity(d *driver) *capacitySearch {
	cfg := phaseConfig{
		warmup:   b.share(0.004, 100*time.Millisecond),
		window:   b.share(0.012, 200*time.Millisecond),
		inFlight: b.spec.inFlight,
		shedLag:  b.spec.slo,
	}
	return &capacitySearch{slo: b.spec.slo, probe: func(rate float64) phaseResult {
		sched := buildSchedule(b.nextSeed(), rate, cfg.warmup+cfg.window, b.spec.mix, b.keys())
		return runPhase(cfg, sched, d, nil)
	}}
}

// faultResult is what a phase with crash cycles measured.
type faultResult struct {
	phase         phaseResult
	steady, fault []time.Duration // latencies in arrival order, due outside / inside a fault
	recovery      []time.Duration // per cycle: restart until the first commit touching the node
	redriven      float64         // in-doubt transactions the crashes left to recovery
	retransmits   float64         // RPC retransmissions from crash until recovered
}

// faultPlan schedules crash cycles inside a phase: cycle k starts at
// warmup + k*period; the participant goes down at crashAt into the
// cycle and restarts after down.
type faultPlan struct {
	cycles                int
	period, crashAt, down time.Duration
}

// faults runs an open-loop phase at rate while crashing and restarting
// participants by plan, alternating between the two. After each
// restart it commits one write on the restarted participant, so a
// recovery always ends in a commit whatever the arrival rate.
func (b *bench) faults(d *driver, rate float64, plan faultPlan, pk *peaks) (faultResult, error) {
	warm := b.warmup()
	cfg := phaseConfig{warmup: warm, window: time.Duration(plan.cycles) * plan.period, inFlight: b.spec.inFlight}
	sched := buildSchedule(b.nextSeed(), rate, cfg.warmup+cfg.window, b.spec.mix, b.keys())

	type window struct{ from, to time.Duration }
	var (
		res     faultResult
		windows []window
		errc    = make(chan error, 1)
	)
	start := time.Now()
	go func() {
		errc <- func() error {
			for k := 0; k < plan.cycles; k++ {
				p := 1 + k%participants
				nd := d.c.nodes[p]
				time.Sleep(time.Until(start.Add(warm + time.Duration(k)*plan.period + plan.crashAt)))
				crashed := time.Since(start)
				before := takeCounters()
				res.redriven += float64(inDoubt(nd))
				if b.retired != nil {
					*b.retired = append(*b.retired, nd.Runtime())
				}
				nd.Crash()
				time.Sleep(plan.down)
				d.firstCommit.Store(0)
				restart := time.Now()
				d.watchFrom.Store(restart.UnixNano())
				d.watch.Store(int32(p))
				nd.Restart()
				ok := d.do(arrival{op: opWrite, key: p - 1}) // register p-1 lives on participant p
				d.watch.Store(0)
				if !ok {
					return fmt.Errorf("no commit on participant %d after restart", p)
				}
				res.recovery = append(res.recovery, time.Duration(d.firstCommit.Load()-restart.UnixNano()))
				delta := takeCounters().sub(before)
				res.retransmits += delta["mca_rpc_retransmits_total"]
				windows = append(windows, window{crashed, time.Since(start)})
			}
			return nil
		}()
	}()
	res.phase = runPhase(cfg, sched, d, pk)
	if err := <-errc; err != nil {
		return res, err
	}
	if !res.phase.valid() {
		return res, fmt.Errorf("fault phase: generator lag %v over %v", res.phase.genLag, genLagLimit)
	}
	margin := b.spec.slo
	for j, l := range res.phase.lat[:min(len(res.phase.lat), len(sched)-res.phase.first)] {
		at := sched[res.phase.first+j].at
		in, near := false, false
		for _, w := range windows {
			in = in || (at >= w.from && at <= w.to)
			near = near || (at >= w.from-margin && at <= w.to+margin)
		}
		switch {
		case in:
			res.fault = append(res.fault, l)
		case !near:
			res.steady = append(res.steady, l)
		}
	}
	return res, nil
}

// inDoubt counts the transactions a participant has voted yes on and
// not yet seen decided: a crash now leaves them to recovery.
func inDoubt(nd *node.Node) int {
	pending, err := nd.Stable().Intentions().Pending()
	if err != nil {
		return 0
	}
	n := 0
	for _, in := range pending {
		if in.Status == store.IntentionPrepared {
			n++
		}
	}
	return n
}

// midMean is the interquartile mean of vs: the mean of what is left
// after dropping the lowest and the highest quarter. Like a median it
// ignores the few values a burst of load from elsewhere spoils; unlike
// a median it averages the values it keeps, so it varies less from run
// to run. 0 when empty.
func midMean[T time.Duration | float64](vs []T) T {
	s := slices.Clone(vs)
	slices.Sort(s)
	cut := len(s) / 4
	s = s[cut : len(s)-cut]
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += float64(v)
	}
	return T(sum / float64(len(s)))
}
