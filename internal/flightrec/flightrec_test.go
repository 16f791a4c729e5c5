package flightrec

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestRecordAndSnapshot(t *testing.T) {
	r := New(64)
	r.Record(Event{Kind: KindRPCServe, Node: 1, A: 42})
	r.Record(Event{Kind: KindRound, Node: 1, Trace: 7, Span: 9, A: 3, B: 1<<32 | 3})
	r.Record(Event{Kind: KindDeadlock, Node: 2, A: 5, B: 6})

	events := r.Snapshot()
	if len(events) != 3 {
		t.Fatalf("Snapshot: %d events, want 3", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].When < events[i-1].When {
			t.Fatalf("snapshot not time-ordered: %v after %v", events[i].When, events[i-1].When)
		}
	}
	var round *Event
	for i := range events {
		if events[i].Kind == KindRound {
			round = &events[i]
		}
	}
	if round == nil || round.Trace != 7 || round.Span != 9 || round.B != 1<<32|3 {
		t.Fatalf("round event fields lost: %+v", round)
	}
}

func TestDropOldest(t *testing.T) {
	r := New(16) // 16 slots per stripe
	total := 16 * len(r.stripes) * 4
	for i := 0; i < total; i++ {
		r.Record(Event{Kind: KindRPCServe, A: uint64(i)})
	}
	events := r.Snapshot()
	capacity := 16 * len(r.stripes)
	if len(events) > capacity {
		t.Fatalf("Snapshot returned %d events, capacity %d", len(events), capacity)
	}
	if len(events) == 0 {
		t.Fatal("Snapshot empty after recording")
	}
	// The oldest events must be gone: everything retained is from the
	// newer half of the stream.
	for _, ev := range events {
		if ev.A < uint64(total/4) {
			t.Fatalf("event %d survived %d records into a %d-slot ring", ev.A, total, capacity)
		}
	}
}

func TestConcurrentRecordIsSafe(t *testing.T) {
	r := New(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				r.Record(Event{Kind: KindLockBlock, Node: uint64(w), A: uint64(i)})
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	for _, ev := range r.Snapshot() {
		if ev.Kind != KindLockBlock {
			t.Fatalf("torn event surfaced: %+v", ev)
		}
	}
}

func TestWriteJSONLIsValidJSONPerLine(t *testing.T) {
	r := New(16)
	r.Record(Event{Kind: KindCrash, Node: 3})
	r.Record(Event{Kind: KindRPCDuplicate, Node: 1, A: 99})
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, r.Snapshot()); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %q is not valid JSON: %v", line, err)
		}
		if _, ok := m["kind"].(string); !ok {
			t.Fatalf("line %q missing symbolic kind", line)
		}
	}
}

func TestAutoDumpOncePerReason(t *testing.T) {
	var buf bytes.Buffer
	prev := SetAutoDump(&buf)
	defer SetAutoDump(prev)

	Record(Event{Kind: KindDeadlock, A: 1, B: 2})
	AutoDump("deadlock")
	first := buf.Len()
	if first == 0 {
		t.Fatal("AutoDump wrote nothing")
	}
	if !strings.Contains(buf.String(), "reason: deadlock") {
		t.Fatalf("dump missing reason header:\n%s", buf.String())
	}
	AutoDump("deadlock")
	if buf.Len() != first {
		t.Fatal("second AutoDump for the same reason wrote again")
	}
	AutoDump("crash")
	if buf.Len() == first {
		t.Fatal("AutoDump for a new reason wrote nothing")
	}
}

func TestSetAutoDumpNilDisables(t *testing.T) {
	prev := SetAutoDump(nil)
	defer SetAutoDump(prev)
	AutoDump("deadlock") // must not panic or write anywhere
}

func TestDumpOnFailureRunsCleanup(t *testing.T) {
	// Passing tests must not dump; exercise the registration path.
	DumpOnFailure(t)
}

func BenchmarkRecord(b *testing.B) {
	r := New(DefaultSlots)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(Event{Kind: KindRPCServe, Node: 1, Trace: 7, Span: uint64(i), A: uint64(i)})
	}
}

func BenchmarkRecordParallel(b *testing.B) {
	r := New(DefaultSlots)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		var i uint64
		for pb.Next() {
			i++
			r.Record(Event{Kind: KindLockBlock, Node: 2, A: i, B: i})
		}
	})
}
