package phase

import (
	"sync"
	"testing"
	"time"

	"mca/internal/ids"
)

func TestRecordSnapshotRoundtrip(t *testing.T) {
	Reset()
	const tid = 0xabc1
	Record(tid, Lock, 3*time.Millisecond)
	Record(tid, Lock, 2*time.Millisecond)
	Record(tid, Force, 5*time.Millisecond)
	got := Snapshot(tid)
	if got[Lock] != (5 * time.Millisecond).Nanoseconds() {
		t.Fatalf("lock = %d, want accumulated 5ms", got[Lock])
	}
	if got[Force] != (5 * time.Millisecond).Nanoseconds() {
		t.Fatalf("force = %d, want 5ms", got[Force])
	}
	if _, ok := got[RPC]; ok {
		t.Fatalf("zero phase present in snapshot: %v", got)
	}
}

func TestRecordIgnoresJunk(t *testing.T) {
	Reset()
	Record(0, Lock, time.Second)         // zero trace
	Record(0xabc2, "bogus", time.Second) // unknown phase
	Record(0xabc2, Lock, -time.Second)   // negative duration
	Record(0xabc2, Lock, 0)              // zero duration
	if got := Snapshot(0xabc2); got != nil {
		t.Fatalf("junk records created a ledger: %v", got)
	}
}

func TestBindFirstWins(t *testing.T) {
	Reset()
	a := ids.ActionID(7)
	Bind(a, 100)
	Bind(a, 200) // duplicate join: ignored
	if got := TraceOf(a); got != 100 {
		t.Fatalf("TraceOf = %d, want first binding 100", got)
	}
	RecordAction(a, Force, time.Millisecond)
	if got := Snapshot(100)[Force]; got != time.Millisecond.Nanoseconds() {
		t.Fatalf("RecordAction landed %d in trace 100, want 1ms", got)
	}
	if Snapshot(200) != nil {
		t.Fatalf("RecordAction leaked into the losing binding")
	}
}

func TestRecordActionUnboundIsNoop(t *testing.T) {
	Reset()
	RecordAction(ids.ActionID(99), Lock, time.Second)
	if got := TraceOf(ids.ActionID(99)); got != 0 {
		t.Fatalf("unbound action resolved to trace %d", got)
	}
}

func TestDiscardDropsLedger(t *testing.T) {
	Reset()
	Record(0xabc3, Queue, time.Millisecond)
	Discard(0xabc3)
	if got := Snapshot(0xabc3); got != nil {
		t.Fatalf("discarded ledger still readable: %v", got)
	}
	// Stragglers after a discard recreate an empty ledger, bounded by
	// the FIFO cap — they must not resurrect the old totals.
	Record(0xabc3, Queue, time.Microsecond)
	if got := Snapshot(0xabc3)[Queue]; got != time.Microsecond.Nanoseconds() {
		t.Fatalf("post-discard record = %d, want fresh 1µs", got)
	}
}

func TestLedgerTableBounded(t *testing.T) {
	Reset()
	// Fill far past the global bound; the tables must stay capped and
	// the newest entries must survive.
	const n = shardCount * maxLedgers * 2
	for i := uint64(1); i <= n; i++ {
		Record(i, Queue, time.Millisecond)
	}
	total := 0
	for i := range ledgerShards {
		s := &ledgerShards[i]
		s.mu.Lock()
		if len(s.ledgers) > maxLedgers {
			s.mu.Unlock()
			t.Fatalf("shard %d holds %d ledgers, cap %d", i, len(s.ledgers), maxLedgers)
		}
		total += len(s.ledgers)
		s.mu.Unlock()
	}
	if total == 0 {
		t.Fatalf("eviction dropped everything")
	}
	if Snapshot(n) == nil {
		t.Fatalf("newest ledger evicted")
	}
}

func TestConcurrentRecording(t *testing.T) {
	Reset()
	const tid = 0xabc4
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				Record(tid, RPC, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := Snapshot(tid)[RPC]; got != 8*1000*time.Microsecond.Nanoseconds() {
		t.Fatalf("concurrent total = %d, want %d", got, 8*1000*time.Microsecond.Nanoseconds())
	}
}
