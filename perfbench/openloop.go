package main

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The open-loop generator is part of the ruler: it lives here, beside
// the rest of the benchmark, so a change to the system under test
// cannot move it.

// rng is a splitmix64 stream: every schedule draw (gaps, op classes,
// keys) comes from one seeded stream, so a seed replays its inputs.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// exp returns an exponential draw with mean 1.
func (r *rng) exp() float64 { return -math.Log(1 - r.float()) }

// keyDist picks register indices: uniform when cdf is nil, otherwise
// by inverse transform over the cumulative weights of a Zipf law
// (register 0 hottest).
type keyDist struct {
	n   int
	cdf []float64
}

func uniformKeys(n int) keyDist { return keyDist{n: n} }

// zipfKeys weights register k by 1/(k+1)^theta, the YCSB hot-key law.
func zipfKeys(n int, theta float64) keyDist {
	cdf := make([]float64, n)
	var sum float64
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), theta)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return keyDist{n: n, cdf: cdf}
}

func (d keyDist) pick(r *rng) int {
	if d.cdf == nil {
		return int(r.next() % uint64(d.n))
	}
	u := r.float()
	k := sort.SearchFloat64s(d.cdf, u)
	if k >= d.n {
		k = d.n - 1
	}
	return k
}

// arrival is one scheduled operation: when it is due (offset from the
// start of the phase), which op class and which register.
type arrival struct {
	at  time.Duration
	op  opKind
	key int
}

// buildSchedule draws Poisson arrivals at rate over [0, horizon) with
// op classes from mix and keys from keys. The schedule is fixed before
// the phase starts and never reacts to the system.
func buildSchedule(seed uint64, rate float64, horizon time.Duration, mix []opWeight, keys keyDist) []arrival {
	r := newRNG(seed)
	var total float64
	for _, m := range mix {
		total += m.weight
	}
	gap := float64(time.Second) / rate
	out := make([]arrival, 0, int(float64(horizon)/gap*1.1)+16)
	var at float64
	for {
		at += gap * r.exp()
		if at >= float64(horizon) {
			return out
		}
		x := r.float() * total
		op := mix[len(mix)-1].op
		for _, m := range mix {
			if x < m.weight {
				op = m.op
				break
			}
			x -= m.weight
		}
		out = append(out, arrival{at: time.Duration(at), op: op, key: keys.pick(r)})
	}
}

// phaseConfig is one open-loop phase.
type phaseConfig struct {
	warmup   time.Duration // executed, not scored
	window   time.Duration // scored
	inFlight int           // bound on concurrently executing ops
	// shedLag, when positive, abandons the rest of the schedule once an
	// arrival waits longer than this for a free slot: a capacity probe
	// far past saturation ends at once and fails.
	shedLag time.Duration
}

// failLatency stands for the latency of an op that failed: a failed op
// misses every latency limit.
const failLatency = time.Duration(math.MaxInt64)

// phaseResult is what one phase measured over its scored window.
type phaseResult struct {
	// lat holds the latency of every scored op, from its due time to
	// its completion; failed ops read failLatency.
	lat      []time.Duration
	attempts int // scored arrivals
	failed   int
	shed     int
	// genLag is how late the generator woke for an arrival it was on
	// schedule for: its own lateness, which makes a phase invalid past
	// genLagLimit.
	genLag time.Duration
	// drain is how long after the end of the window the last scored op
	// completed; a growing backlog shows here.
	drain time.Duration
	// usage covers the scored window through the last completion.
	usage usageDelta
	// opsDone is the number of ops completed while usage was taken.
	opsDone int
	// ctr and drv are the system's metric registry and the driver's
	// own counts over the same interval as usage.
	ctr counters
	drv driverCounts
	// first is the schedule index of the first scored arrival: lat[j]
	// belongs to sched[first+j].
	first int
}

// genLagLimit is the generator lateness past which a phase is invalid:
// the ruler, not the system, fell behind.
const genLagLimit = 100 * time.Millisecond

func (r *phaseResult) valid() bool { return r.genLag <= genLagLimit }

// percentile returns the q-quantile (0..1) of the scored latencies by
// the nearest-rank rule.
func (r *phaseResult) percentile(q float64) time.Duration {
	return quantile(sortedCopy(r.lat), q)
}

func sortedCopy(ds []time.Duration) []time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s
}

// sliceLen is the number of consecutive arrivals a latency percentile
// is taken over: 1000, so a p99 has ten samples beyond it.
const sliceLen = 1000

// slicedQuantile cuts latencies, in arrival order, into consecutive
// slices of sliceLen (the remainder joins the last slice) and returns
// the interquartile mean over the slices of each slice's q-quantile,
// and the number of slices. A stall hits the tail of the slices it falls
// in; the mean over the middle slices reports the tail a typical
// stretch of arrivals sees, so one unlucky second does not decide the
// run.
func slicedQuantile(lat []time.Duration, q float64) (time.Duration, int) {
	if len(lat) == 0 {
		return 0, 0
	}
	n := max(len(lat)/sliceLen, 1)
	var per []time.Duration
	for k := 0; k < n; k++ {
		hi := (k + 1) * sliceLen
		if k == n-1 {
			hi = len(lat)
		}
		per = append(per, quantile(sortedCopy(lat[k*sliceLen:hi]), q))
	}
	return midMean(per), n
}

func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// runPhase drives one open-loop phase: a dispatcher sleeps until each
// arrival is due and hands it to an idle worker of a fixed pool of
// cfg.inFlight; when none is idle the arrival waits, and that wait
// counts in its latency, which is timed from the due time. Each op runs
// through d. pk, when non-nil, is sampled every 5ms during the scored
// window.
func runPhase(cfg phaseConfig, sched []arrival, d *driver, pk *peaks) phaseResult {
	var res phaseResult
	lat := make([]time.Duration, len(sched))
	var (
		done     atomic.Int64 // completions since the scored window opened
		open     atomic.Bool
		lastDone atomic.Int64 // latest completion, ns after start
		wg       sync.WaitGroup
	)
	start := time.Now()
	jobs := make(chan int)
	for w := 0; w < cfg.inFlight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				a := sched[i]
				ok := d.do(a)
				now := time.Since(start)
				if ok {
					lat[i] = now - a.at
				} else {
					lat[i] = failLatency
				}
				if open.Load() {
					done.Add(1)
				}
				for {
					old := lastDone.Load()
					if int64(now) <= old || lastDone.CompareAndSwap(old, int64(now)) {
						break
					}
				}
			}
		}()
	}

	stopSampling := func() {}
	var (
		before    usageSnapshot
		ctrBefore counters
		drvBefore driverCounts
	)
	openWindow := func() {
		ctrBefore, drvBefore = takeCounters(), d.counts()
		before = takeUsage()
		open.Store(true)
		if pk == nil {
			return
		}
		stop := make(chan struct{})
		var sw sync.WaitGroup
		sw.Add(1)
		go func() {
			defer sw.Done()
			t := time.NewTicker(5 * time.Millisecond)
			defer t.Stop()
			for {
				pk.sample()
				select {
				case <-stop:
					return
				case <-t.C:
				}
			}
		}()
		stopSampling = func() { close(stop); sw.Wait() }
	}

	first := len(sched) // index of the first scored arrival
	dispatched := len(sched)
	for i, a := range sched {
		if a.at >= cfg.warmup && !open.Load() {
			sleepUntil(start.Add(cfg.warmup))
			first = i
			openWindow()
		}
		if a.at > time.Since(start) {
			// On schedule: how late the generator wakes is its own lag.
			sleepUntil(start.Add(a.at))
			if lag := time.Since(start) - a.at; lag > res.genLag && a.at >= cfg.warmup {
				res.genLag = lag
			}
		}
		select {
		case jobs <- i:
			continue
		default:
		}
		// Every worker is busy: the arrival queues behind them.
		if cfg.shedLag > 0 && time.Since(start)-a.at > cfg.shedLag {
			dispatched = i
			break
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if !open.Load() {
		first = len(sched)
		openWindow()
	}
	stopSampling()
	res.usage = takeUsage().sub(before)
	res.ctr, res.drv = takeCounters().sub(ctrBefore), d.counts().sub(drvBefore)
	res.opsDone = int(done.Load())

	if dispatched < first {
		first = dispatched
	}
	res.first = first
	res.attempts = len(sched) - first
	res.shed = len(sched) - dispatched
	res.lat = make([]time.Duration, 0, dispatched-first)
	for _, l := range lat[first:dispatched] {
		if l == failLatency {
			res.failed++
		}
		res.lat = append(res.lat, l)
	}
	for range sched[dispatched:] {
		res.lat = append(res.lat, failLatency)
	}
	if end := cfg.warmup + cfg.window; time.Duration(lastDone.Load()) > end {
		res.drain = time.Duration(lastDone.Load()) - end
	}
	return res
}
