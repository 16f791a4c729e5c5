package main

import (
	"slices"
	"sync/atomic"
	"time"
)

// Spans recorded by the benchmark's own files in the traced run: per
// transaction attempt a root span and its children around the
// driver's calls into dist (begin, up to two invokes, then commit or
// abort), plus a
// grandchild inside the register's Invoke (the resource span, i.e.
// action+colour+lock+object seen from inside the participant). All are
// kept in memory and reduced when the run ends.

const (
	spanBegin = iota
	spanInvoke0
	spanInvoke1
	spanCommit
	spanAbort
	spanRoot
	nSpans
)

// txnSpans is one attempt's spans, as ns offsets from the log's epoch;
// a zero end means the span was not recorded. The resource spans are
// written by the participant's handler, hence atomic.
type txnSpans struct {
	span     [nSpans][2]int64
	resource [2][2]atomic.Int64
	ok       bool
}

// spanLog is a fixed-capacity store of attempts; attempts past the
// capacity go unrecorded.
type spanLog struct {
	epoch time.Time
	txns  []txnSpans
	next  atomic.Int64
}

func newSpanLog(capacity int) *spanLog {
	return &spanLog{epoch: time.Now(), txns: make([]txnSpans, capacity)}
}

// txnHandle records one attempt's spans; the zero handle records
// nothing, so the untraced path pays one nil check per call.
type txnHandle struct {
	log *spanLog
	idx int
	t0  time.Time
}

func (l *spanLog) start() txnHandle {
	if l == nil {
		return txnHandle{}
	}
	i := int(l.next.Add(1)) - 1
	if i >= len(l.txns) {
		return txnHandle{}
	}
	return txnHandle{log: l, idx: i, t0: time.Now()}
}

func (l *spanLog) ns(t time.Time) int64 { return int64(t.Sub(l.epoch)) }

// mark closes child span k begun at begin.
func (h txnHandle) mark(k int, begin time.Time) {
	if h.log == nil {
		return
	}
	end := time.Now()
	h.log.txns[h.idx].span[k] = [2]int64{h.log.ns(begin), h.log.ns(end)}
}

// finish closes the root span.
func (h txnHandle) finish(ok bool) {
	if h.log == nil {
		return
	}
	t := &h.log.txns[h.idx]
	t.span[spanRoot] = [2]int64{h.log.ns(h.t0), h.log.ns(time.Now())}
	t.ok = ok
}

// invokeToken names invoke k of this attempt for the register's span;
// 0 means untraced.
func (h txnHandle) invokeToken(k int) uint32 {
	if h.log == nil {
		return 0
	}
	return uint32(h.idx*2+k) + 1
}

// resource records the register-side span of the invoke named by tok.
func (l *spanLog) resource(tok uint32, begin, end time.Time) {
	i := int(tok - 1)
	if i/2 >= len(l.txns) {
		return
	}
	r := &l.txns[i/2].resource[i%2]
	r[0].Store(l.ns(begin))
	r[1].Store(l.ns(end))
}

// Reconciliation tolerance: a transaction's self time (the driver's own
// bookkeeping between its calls) may be up to selfTolerance of its root
// span, or selfFloor when that is larger; at least selfQuorum of the
// transactions must be within it. The rest allows for a goroutine
// descheduled between two calls.
const (
	selfTolerance = 0.05
	selfFloor     = 20 * time.Microsecond
	selfQuorum    = 0.99
)

// spanStats is the reduction of a span log.
type spanStats struct {
	begin, invoke, commit, resource, rpcSelf []time.Duration
	rootTotal, selfTotal                     time.Duration
	txns                                     int
	violations                               int // children outside or overlapping their parent
	selfOver                                 int // transactions whose self time is over the tolerance
}

// reduce collects the per-span durations of every recorded attempt and
// reconciles each root span with its children: children must lie
// inside the root in order without overlap, so root = children + self.
// A resource span counts toward its invoke only when it lies inside it.
func (l *spanLog) reduce() spanStats {
	var st spanStats
	n := int(l.next.Load())
	if n > len(l.txns) {
		n = len(l.txns)
	}
	dur := func(s [2]int64) time.Duration { return time.Duration(s[1] - s[0]) }
	for i := 0; i < n; i++ {
		t := &l.txns[i]
		root := t.span[spanRoot]
		if root[1] == 0 {
			continue // attempt still running when the log was reduced
		}
		st.txns++
		var covered time.Duration
		prevEnd := root[0]
		for k := spanBegin; k <= spanAbort; k++ {
			s := t.span[k]
			if s[1] == 0 {
				continue
			}
			if s[0] < prevEnd || s[1] < s[0] || s[1] > root[1] {
				st.violations++
			}
			prevEnd = s[1]
			covered += dur(s)
			switch k {
			case spanBegin:
				st.begin = append(st.begin, dur(s))
			case spanCommit:
				if t.ok {
					st.commit = append(st.commit, dur(s))
				}
			case spanAbort:
			default:
				st.invoke = append(st.invoke, dur(s))
				r := [2]int64{t.resource[k-spanInvoke0][0].Load(), t.resource[k-spanInvoke0][1].Load()}
				if r[1] == 0 {
					continue
				}
				if r[0] < s[0] || r[1] > s[1] {
					// A handler the call no longer waited for (its node
					// crashed and a retransmission was answered by the
					// restarted one): not this invoke's time.
					continue
				}
				st.resource = append(st.resource, dur(r))
				st.rpcSelf = append(st.rpcSelf, dur(s)-dur(r))
			}
		}
		self := dur(root) - covered
		if self < 0 {
			st.violations++
		}
		if self > max(selfFloor, time.Duration(selfTolerance*float64(dur(root)))) {
			st.selfOver++
		}
		st.rootTotal += dur(root)
		st.selfTotal += self
	}
	for _, s := range [][]time.Duration{st.begin, st.invoke, st.commit, st.resource, st.rpcSelf} {
		slices.Sort(s)
	}
	return st
}

// selfShare is the share of root-span time not covered by children.
func (st spanStats) selfShare() float64 {
	if st.rootTotal <= 0 {
		return 0
	}
	return float64(st.selfTotal) / float64(st.rootTotal)
}

// reconciled reports whether every root contains its children, and
// the self time is within tolerance for at least selfQuorum of them.
func (st spanStats) reconciled() bool {
	return st.txns > 0 && st.violations == 0 && float64(st.selfOver) <= (1-selfQuorum)*float64(st.txns)
}
