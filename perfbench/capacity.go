package main

import (
	"fmt"
	"math"
	"time"
)

// probeResult is one capacity probe's verdict.
type probeResult struct {
	rate float64
	pass bool
	why  string
}

// passes applies the capacity rule to one probe: the SLO percentile
// within the limit, no growing backlog (everything scored completes
// within one SLO of the window's end), nothing shed, at most 1% failed.
func passes(r phaseResult, slo time.Duration) (bool, string) {
	p99 := r.percentile(0.99)
	switch {
	case r.shed > 0:
		return false, fmt.Sprintf("shed %d", r.shed)
	case float64(r.failed) > 0.01*float64(r.attempts):
		return false, fmt.Sprintf("failed %d/%d", r.failed, r.attempts)
	case r.drain > slo:
		return false, fmt.Sprintf("backlog drained %v after the window", r.drain.Round(time.Millisecond))
	case p99 > slo:
		return false, fmt.Sprintf("p99 %v", p99.Round(time.Microsecond))
	}
	return true, ""
}

// capacitySearch estimates the highest offered rate that meets the
// rule of passes. Near saturation one short probe passes or fails by
// luck (a GC pause, a neighbour's burst of CPU), so one bisection path
// wanders from run to run. The search therefore brackets once (ramp)
// and then runs a short bisection in every round of the run, each
// centred on the rounds before it; the capacity is the interquartile
// mean of the rounds' results.
type capacitySearch struct {
	slo       time.Duration
	probe     func(rate float64) phaseResult
	lo, hi    float64 // the ramp's bracket: lo passed, hi failed
	estimates []float64
	log       []probeResult
}

// bisections per round: each halves the octave-wide bracket (in log
// rate), so a round resolves to 2^(1/16), about 4.4%.
const bisections = 4

func (s *capacitySearch) try(rate float64) bool {
	ok, why := passes(s.probe(rate), s.slo)
	s.log = append(s.log, probeResult{rate: rate, pass: ok, why: why})
	return ok
}

// confirm fails a rate only when two probes in a row fail it.
func (s *capacitySearch) confirm(rate float64) bool {
	return s.try(rate) || s.try(rate)
}

// ramp brackets the capacity: doubling up from start until a rate
// fails, or halving down from it until one passes.
func (s *capacitySearch) ramp(start float64) {
	const maxSteps = 5
	rate := start
	if s.confirm(rate) {
		for i := 0; i < maxSteps; i++ {
			s.lo = rate
			rate *= 2
			if !s.confirm(rate) {
				s.hi = rate
				return
			}
		}
		s.lo, s.hi = rate, rate // passed every doubling: report the last
		return
	}
	for i := 0; i < maxSteps; i++ {
		s.hi = rate
		rate /= 2
		if s.confirm(rate) {
			s.lo = rate
			return
		}
	}
}

// round bisects an octave centred on the estimate so far (the ramp's
// bracket in the first round) and records the highest rate that
// passed, or the octave's floor when none did.
func (s *capacitySearch) round() {
	if s.lo == 0 || s.hi <= s.lo {
		s.estimates = append(s.estimates, s.lo)
		return
	}
	c := math.Sqrt(s.lo * s.hi)
	if len(s.estimates) > 0 {
		c = s.estimate()
	}
	lo, hi := c/math.Sqrt2, c*math.Sqrt2
	for i := 0; i < bisections; i++ {
		mid := math.Sqrt(lo * hi)
		if s.try(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	s.estimates = append(s.estimates, lo)
}

// estimate is the interquartile mean of the rounds so far.
func (s *capacitySearch) estimate() float64 {
	if len(s.estimates) == 0 {
		return s.lo
	}
	return midMean(s.estimates)
}
