package main

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"mca/internal/dist"
)

// outcome is what one transaction attempt left behind.
type outcome int

const (
	committed outcome = iota
	aborted           // definitely took no effect; the op is retried
	unknown           // may or may not have taken effect
)

// retryFor bounds how long an op retries attempts that abort (lock
// conflicts, a participant crashed or still recovering): longer than
// any scheduled downtime and its recovery, even on a loaded host.
const retryFor = 10 * time.Second

// ledger is what the driver saw acknowledged, for the output check:
// the exact value every register must hold, and the ops whose outcome
// is unknown, which widen that to a range.
type ledger struct {
	expect        []atomic.Int64 // per register, from committed ops
	unknownUp     []atomic.Int64 // per register, unknown-outcome +1s
	unknownDown   []atomic.Int64 // per register, unknown-outcome -1s
	ackedWrites   atomic.Int64
	unknownWrites atomic.Int64
}

func newLedger(n int) *ledger {
	return &ledger{
		expect:      make([]atomic.Int64, n),
		unknownUp:   make([]atomic.Int64, n),
		unknownDown: make([]atomic.Int64, n),
	}
}

// driver runs the workload's ops against a cluster through
// dist.Manager.Begin, Txn.Invoke and Txn.Commit.
type driver struct {
	c   *cluster
	led *ledger

	// Counts over the driver's lifetime; phases take deltas.
	attempts atomic.Int64 // transaction attempts begun
	aborts   atomic.Int64 // attempts that aborted
	// prepared counts participants that took part in a prepare round
	// (the base of dist.readonly_vote_frac).
	prepared atomic.Int64

	// watch, when non-zero, is a participant (1 or 2) whose first
	// commit begun after watchFrom is stamped into firstCommit: the end
	// of a recovery.
	watch       atomic.Int32
	watchFrom   atomic.Int64 // UnixNano
	firstCommit atomic.Int64 // UnixNano, 0 until seen
}

// driverCounts is a snapshot of the driver's counts.
type driverCounts struct{ attempts, aborts, prepared int64 }

func (d *driver) counts() driverCounts {
	return driverCounts{d.attempts.Load(), d.aborts.Load(), d.prepared.Load()}
}

func (c driverCounts) sub(b driverCounts) driverCounts {
	return driverCounts{c.attempts - b.attempts, c.aborts - b.aborts, c.prepared - b.prepared}
}

func newDriver(c *cluster) *driver {
	return &driver{c: c, led: newLedger(c.spec.registers)}
}

// neighbour is the other leg of a transfer from register i: adjacent
// registers live on different participants.
func (d *driver) neighbour(i int) int { return (i + 1) % len(d.c.regs) }

// do runs one scheduled op to a definite end, retrying aborted
// attempts, and reports whether it committed.
func (d *driver) do(a arrival) bool {
	start := time.Now()
	for attempt := 1; ; attempt++ {
		switch d.attempt(a.op, a.key) {
		case committed:
			return true
		case unknown:
			return false
		}
		if time.Since(start) > retryFor {
			return false
		}
		time.Sleep(min(time.Duration(attempt)*500*time.Microsecond, 10*time.Millisecond))
	}
}

// attempt runs one transaction for the op on register key.
func (d *driver) attempt(op opKind, key int) outcome {
	ctx := context.Background()
	d.attempts.Add(1)
	sp := d.c.spans.start()
	began := time.Now()
	txn, err := d.c.coord.Begin()
	sp.mark(spanBegin, began)
	if err != nil {
		d.aborts.Add(1)
		return aborted
	}
	legs := [2]int{key, -1}
	deltas := [2]int{1, 0}
	switch op {
	case opRead:
		deltas[0] = 0
	case opTransfer:
		legs[1] = d.neighbour(key)
		deltas = [2]int{-1, 1}
	}
	for k, reg := range legs {
		if reg < 0 {
			break
		}
		t := time.Now()
		if op == opRead {
			var v int64
			err = txn.Invoke(ctx, d.c.hosts[reg], d.c.names[reg], "get", regArg{Span: sp.invokeToken(k)}, &v)
		} else {
			err = txn.Invoke(ctx, d.c.hosts[reg], d.c.names[reg], "add", regArg{Delta: deltas[k], Span: sp.invokeToken(k)}, nil)
		}
		sp.mark(spanInvoke0+k, t)
		if err != nil {
			t := time.Now()
			// Best effort: presumed abort covers a lost abort message.
			_ = txn.Abort(ctx)
			sp.mark(spanAbort, t)
			sp.finish(false)
			d.aborts.Add(1)
			return aborted
		}
	}
	nParts := int64(1)
	if legs[1] >= 0 && d.c.part[legs[1]] != d.c.part[legs[0]] {
		nParts = 2
	}
	d.prepared.Add(nParts)
	t := time.Now()
	err = txn.Commit(ctx)
	sp.mark(spanCommit, t)
	sp.finish(err == nil)
	switch {
	case err == nil:
		for k, reg := range legs {
			if reg >= 0 {
				d.led.expect[reg].Add(int64(deltas[k]))
			}
		}
		if op == opWrite {
			d.led.ackedWrites.Add(1)
		}
		d.noteCommit(legs, began)
		return committed
	case errors.Is(err, dist.ErrAborted):
		d.aborts.Add(1)
		return aborted
	default:
		for k, reg := range legs {
			switch {
			case reg < 0:
			case deltas[k] > 0:
				d.led.unknownUp[reg].Add(1)
			case deltas[k] < 0:
				d.led.unknownDown[reg].Add(1)
			}
		}
		if op == opWrite {
			d.led.unknownWrites.Add(1)
		}
		return unknown
	}
}

// noteCommit stamps the first commit, begun after a restart, that
// touched the watched participant.
func (d *driver) noteCommit(legs [2]int, began time.Time) {
	p := int(d.watch.Load())
	if p == 0 || began.UnixNano() < d.watchFrom.Load() {
		return
	}
	for _, reg := range legs {
		if reg >= 0 && d.c.part[reg] == p {
			d.firstCommit.CompareAndSwap(0, time.Now().UnixNano())
			return
		}
	}
}
