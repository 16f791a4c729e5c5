package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mca/internal/ids"
)

func testIntention(a ids.ActionID, payload string) Intention {
	obj := ids.NewObjectID()
	return Intention{
		Action: a,
		Status: IntentionPrepared,
		Writes: Batch{Writes: map[ids.ObjectID]State{obj: State(payload)}},
	}
}

func TestWALGroupCommitSharesForces(t *testing.T) {
	s := NewStable()
	s.WAL().SetForceDelay(2 * time.Millisecond)
	log := s.Intentions()

	const writers = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, writers)
	actions := make([]ids.ActionID, writers)
	for i := 0; i < writers; i++ {
		actions[i] = ids.NewActionID()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			errs[i] = log.Record(testIntention(actions[i], "w"))
		}(i)
	}
	close(start)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("Record %d: %v", i, err)
		}
	}
	for _, a := range actions {
		if _, ok, _ := log.Lookup(a); !ok {
			t.Fatalf("record %v missing after force", a)
		}
	}
	flushes, records := s.WAL().Stats()
	if records != writers {
		t.Fatalf("records = %d, want %d", records, writers)
	}
	// 16 concurrent appenders against a 2ms force must share batches:
	// the first force takes the early arrivals, everyone else piles into
	// the next batch. Forcing each record alone would pay 16 forces.
	if flushes >= records {
		t.Fatalf("flushes = %d for %d records: group commit never batched", flushes, records)
	}
}

func TestWALFilePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStableAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	keep := ids.NewActionID()
	drop := ids.NewActionID()
	if err := s.Intentions().Record(testIntention(keep, "keep")); err != nil {
		t.Fatal(err)
	}
	if err := s.Intentions().Record(testIntention(drop, "drop")); err != nil {
		t.Fatal(err)
	}
	if err := s.Intentions().Forget(drop); err != nil {
		t.Fatal(err)
	}

	// A different process opening the same directory must see exactly
	// the live records.
	s2, err := NewStableAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	pending, err := s2.Intentions().Pending()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].Action != keep {
		t.Fatalf("Pending after reopen = %+v, want just %v", pending, keep)
	}
}

func TestWALFileRecoverReloadsFromDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStableAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := ids.NewActionID()
	if err := s.Intentions().Record(testIntention(a, "w")); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	if err := s.Intentions().Record(testIntention(ids.NewActionID(), "x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Record while crashed = %v, want ErrCrashed", err)
	}
	s.Recover()
	in, ok, err := s.Intentions().Lookup(a)
	if err != nil || !ok {
		t.Fatalf("Lookup after recover = %v, %v", ok, err)
	}
	if in.Status != IntentionPrepared {
		t.Fatalf("Status after recover = %v", in.Status)
	}
}

func TestWALCrashDuringForceFailsWaiters(t *testing.T) {
	for _, backing := range []string{"memory", "file"} {
		t.Run(backing, func(t *testing.T) {
			var s *Stable
			var err error
			if backing == "file" {
				s, err = NewStableAt(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
			} else {
				s = NewStable()
			}
			a := ids.NewActionID()
			s.CrashDuringNextForce()
			if err := s.Intentions().Record(testIntention(a, "w")); !errors.Is(err, ErrCrashed) {
				t.Fatalf("Record through crashing force = %v, want ErrCrashed", err)
			}
			if !s.Crashed() {
				t.Fatal("store must be crashed after the injected force crash")
			}
			s.Recover()
			// The batch never forced: the record must not exist after
			// recovery (presumed abort counts on exactly this).
			if _, ok, err := s.Intentions().Lookup(a); err != nil || ok {
				t.Fatalf("Lookup after recover = %v, %v; want absent", ok, err)
			}
		})
	}
}

func TestWALStaleBatchFailsAfterCrash(t *testing.T) {
	// A crash between append and force invalidates the open batch: the
	// force must report ErrCrashed instead of installing records on a
	// store that was down.
	s := NewStable()
	s.WAL().SetForceDelay(20 * time.Millisecond)
	a := ids.NewActionID()
	done := make(chan error, 1)
	go func() { done <- s.Intentions().Record(testIntention(a, "w")) }()
	time.Sleep(5 * time.Millisecond) // let the force begin
	s.Crash()
	if err := <-done; !errors.Is(err, ErrCrashed) {
		t.Fatalf("Record across crash = %v, want ErrCrashed", err)
	}
	s.Recover()
	if _, ok, _ := s.Intentions().Lookup(a); ok {
		t.Fatal("record from invalidated batch must not survive")
	}
}

func TestWALFileCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStableAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	keeper := ids.NewActionID()
	if err := s.Intentions().Record(testIntention(keeper, "keeper")); err != nil {
		t.Fatal(err)
	}

	// Churn record+forget pairs with the threshold lowered so the log
	// compacts repeatedly instead of growing without bound.
	payload := make([]byte, 200)
	for i := range payload {
		payload[i] = 'x'
	}
	for i := 0; i < 50; i++ {
		s.wal.file.compactAt = 1 << 10
		a := ids.NewActionID()
		if err := s.Intentions().Record(testIntention(a, string(payload))); err != nil {
			t.Fatal(err)
		}
		if err := s.Intentions().Forget(a); err != nil {
			t.Fatal(err)
		}
	}
	// Without compaction the churn leaves ~17KB of dead entries behind;
	// with it the log holds little more than the one live record.
	if s.wal.file.size > 4<<10 {
		t.Fatalf("log size %d still unbounded after churn", s.wal.file.size)
	}

	// Compaction must preserve exactly the live records, durably.
	s2, err := NewStableAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	pending, err := s2.Intentions().Pending()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].Action != keeper {
		t.Fatalf("Pending after compaction+reopen = %+v, want just %v", pending, keeper)
	}
}

func TestWALDiscardsTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStableAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := ids.NewActionID()
	if err := s.Intentions().Record(testIntention(a, "w")); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: garbage after the last full line.
	f, err := os.OpenFile(filepath.Join(dir, walFilename), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"record","action":99,"in":`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := NewStableAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	pending, err := s2.Intentions().Pending()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].Action != a {
		t.Fatalf("Pending with torn tail = %+v, want just %v", pending, a)
	}
}

func TestSyncDirOnDurablePaths(t *testing.T) {
	dir := t.TempDir()
	fs, _, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Every rename/remove that durability depends on must be followed by
	// a directory fsync, or the new directory entry can be lost to a
	// power failure even though the file data was synced.
	before := dirSyncs.Load()
	if err := fs.Write(ids.NewObjectID(), State("v")); err != nil {
		t.Fatal(err)
	}
	if dirSyncs.Load() <= before {
		t.Fatal("Write installed via rename without a directory fsync")
	}

	obj := ids.NewObjectID()
	before = dirSyncs.Load()
	if err := fs.ApplyBatch(Batch{Writes: map[ids.ObjectID]State{obj: State("b")}}); err != nil {
		t.Fatal(err)
	}
	if dirSyncs.Load() <= before {
		t.Fatal("ApplyBatch completed without a directory fsync")
	}

	before = dirSyncs.Load()
	if err := fs.Delete(obj); err != nil {
		t.Fatal(err)
	}
	if dirSyncs.Load() <= before {
		t.Fatal("Delete removed the entry without a directory fsync")
	}
}

func TestFileBackedStableCrashPoints(t *testing.T) {
	o1, o2 := ids.NewObjectID(), ids.NewObjectID()
	points := []struct {
		name      string
		point     CrashPoint
		committed bool // batch visible after recovery
	}{
		{"beforeJournal", CrashBeforeJournal, false},
		{"afterJournal", CrashAfterJournal, true},
		{"midApply", CrashMidApply, true},
	}
	for _, tt := range points {
		t.Run(tt.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := NewStableAt(dir)
			if err != nil {
				t.Fatal(err)
			}
			seed := Batch{Writes: map[ids.ObjectID]State{o1: State("old1"), o2: State("old2")}}
			if err := s.ApplyBatch(seed); err != nil {
				t.Fatal(err)
			}

			s.CrashDuringNextBatch(tt.point)
			next := Batch{Writes: map[ids.ObjectID]State{o1: State("new1"), o2: State("new2")}}
			if err := s.ApplyBatch(next); !errors.Is(err, ErrCrashed) {
				t.Fatalf("ApplyBatch at %s = %v, want ErrCrashed", tt.name, err)
			}
			s.Recover()

			check := func(label string, st Store) {
				want := map[ids.ObjectID]string{o1: "old1", o2: "old2"}
				if tt.committed {
					want = map[ids.ObjectID]string{o1: "new1", o2: "new2"}
				}
				for id, w := range want {
					got, err := st.Read(id)
					if err != nil {
						t.Fatalf("%s: Read(%v): %v", label, id, err)
					}
					if string(got) != w {
						t.Fatalf("%s: %v = %q, want %q (all-or-nothing violated)", label, id, got, w)
					}
				}
			}
			check("recovered", s)

			// The same must hold for a fresh open of the directory.
			s2, err := NewStableAt(dir)
			if err != nil {
				t.Fatal(err)
			}
			check("reopened", s2)
		})
	}
}

func TestFileBackedStableWritesThrough(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStableAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := ids.NewObjectID()
	if err := s.Write(id, State("v1")); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	s.Recover()
	got, err := s.Read(id)
	if err != nil || string(got) != "v1" {
		t.Fatalf("Read after crash = %q, %v", got, err)
	}
	if err := s.Delete(id); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	s.Recover()
	if _, err := s.Read(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Read after delete+crash = %v, want ErrNotFound", err)
	}
}

func TestWALWindowHoldsBatchOpen(t *testing.T) {
	s := NewStable()
	s.WAL().SetWindow(25 * time.Millisecond)
	log := s.Intentions()

	// Two records arriving within the window must share one force.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := log.Record(testIntention(ids.NewActionID(), "w")); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	flushes, records := s.WAL().Stats()
	if records != 2 {
		t.Fatalf("records = %d, want 2", records)
	}
	if flushes != 1 {
		t.Fatalf("flushes = %d, want 1 (window must batch near-simultaneous records)", flushes)
	}
}

func TestWALForgetIsDurable(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStableAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := ids.NewActionID()
	if err := s.Intentions().Record(testIntention(a, "w")); err != nil {
		t.Fatal(err)
	}
	if err := s.Intentions().Forget(a); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	s.Recover()
	if _, ok, _ := s.Intentions().Lookup(a); ok {
		t.Fatal("forgotten record resurrected by recovery")
	}
}

func TestWALStatsStringer(t *testing.T) {
	// Keep the walOp wire constants stable: the on-disk log depends on
	// them.
	if got := fmt.Sprintf("%s/%s", walOpRecord, walOpForget); got != "record/forget" {
		t.Fatalf("walOp constants = %q", got)
	}
}
