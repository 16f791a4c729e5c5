// Per-node write-ahead log with group commit. The commit protocol's
// intention and decision records from every concurrent transaction on a
// node are appended to one logically-ordered log (the shape of the
// transaction-control literature's commit/recovery log), and a single
// force makes every record waiting in the current batch durable at
// once: one fsync for the file backing, one simulated force for the
// in-memory Stable. Callers block only until the batch containing their
// record is forced, so durability cost is amortised across all
// transactions in flight on the node instead of being paid per record.
package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mca/internal/clock"
	"mca/internal/flightrec"
	"mca/internal/ids"
	"mca/internal/metrics"
	"mca/internal/phase"
)

// WAL telemetry, exported under mca_store_*.
var (
	walFlushes = metrics.Default().Counter("mca_store_wal_flushes_total",
		"WAL group-commit flushes (one force each).")
	walFlushRecords = metrics.Default().Counter("mca_store_wal_records_total",
		"Records made durable by WAL flushes.")
	walFlushNs = metrics.Default().Histogram("mca_store_wal_flush_ns",
		"WAL flush duration (force + install), ns.")
	walBatchRecords = metrics.Default().Histogram("mca_store_wal_batch_records",
		"Records per WAL flush (group-commit batch size).")
)

// walOp discriminates log entry kinds.
type walOp string

const (
	walOpRecord walOp = "record" // durably store (or overwrite) an intention
	walOpForget walOp = "forget" // remove a fully acknowledged intention
)

// walEntry is one log record, encoded as a JSON line in the file
// backing.
type walEntry struct {
	Op     walOp        `json:"op"`
	Action ids.ActionID `json:"action"`
	In     *Intention   `json:"in,omitempty"`
}

// walBatch is one group-commit unit: every entry appended while the
// batch was open becomes durable with a single force. Waiters block on
// done; err is the batch's collective outcome.
type walBatch struct {
	entries []walEntry
	// gen is the owner's crash generation at the batch's creation: a
	// crash between append and force invalidates the batch, so records
	// never install "durably" on a store that was down when they were
	// forced.
	gen uint64

	done chan struct{}
	err  error
}

// WAL is a per-node write-ahead log shared by every transaction on the
// node. It shares fate with its owning Stable store: appends fail while
// the store is crashed, and forced records survive crashes.
type WAL struct {
	owner *Stable

	// gen counts owner crashes; in-flight batches from an older
	// generation fail instead of installing.
	gen atomic.Uint64
	// window holds a flush open (ns) so more transactions join the
	// batch. Zero means natural batching only: records arriving while a
	// force is in progress form the next batch.
	window atomic.Int64
	// forceDelay simulates the latency of one stable-log force for the
	// in-memory backing (the file backing pays its real fsync instead).
	forceDelay atomic.Int64
	// crashNextForce arms a crash injection inside the next force — the
	// "kill mid group-commit window" point of the chaos matrix.
	crashNextForce atomic.Bool
	// nodeID tags flight-recorder events with the hosting node, when the
	// node layer announces it (store itself is node-agnostic).
	nodeID atomic.Uint64
	// clk times flushes and paces the group-commit window. Stored
	// atomically (boxed, since atomic.Value rejects differing concrete
	// types) because flushLoop goroutines may already be running when
	// the node layer installs its clock.
	clk atomic.Value // clockBox

	// flushes/records count completed work for tests and experiments.
	flushes atomic.Uint64
	records atomic.Uint64

	mu       sync.Mutex
	index    map[ids.ActionID]Intention
	cur      *walBatch
	flushing bool

	// flushMu serialises forces (one log head).
	flushMu sync.Mutex
	file    *walFile // nil for the in-memory backing
}

func newWAL(owner *Stable, file *walFile, index map[ids.ActionID]Intention) *WAL {
	if index == nil {
		index = make(map[ids.ActionID]Intention)
	}
	w := &WAL{owner: owner, file: file, index: index}
	w.clk.Store(clockBox{clock.Real()})
	return w
}

// clockBox wraps the clock interface so atomic.Value accepts stores of
// differing concrete clock types.
type clockBox struct{ c clock.Clock }

// SetClock substitutes the WAL's time source (group-commit window,
// flush timing, simulated force delay). The node layer installs its
// clock here so a virtual node's WAL shares the virtual timeline.
func (w *WAL) SetClock(c clock.Clock) { w.clk.Store(clockBox{c}) }

func (w *WAL) clock() clock.Clock { return w.clk.Load().(clockBox).c }

// SetWindow holds each flush open for d so more records join the batch.
// Zero (the default) batches naturally: whatever arrives during the
// previous force forms the next batch.
func (w *WAL) SetWindow(d time.Duration) { w.window.Store(int64(d)) }

// SetForceDelay simulates per-force stable-log latency for the
// in-memory backing. The file backing ignores it (its fsync is real).
func (w *WAL) SetForceDelay(d time.Duration) { w.forceDelay.Store(int64(d)) }

// SetNodeID tags the WAL's flight-recorder events with the hosting
// node's identifier.
func (w *WAL) SetNodeID(id uint64) { w.nodeID.Store(id) }

// Stats returns the number of completed flushes and the number of
// records they made durable. records/flushes is the achieved group
// size.
func (w *WAL) Stats() (flushes, records uint64) {
	return w.flushes.Load(), w.records.Load()
}

// Record durably stores (or overwrites) the intention for the action,
// returning once the batch containing it is forced.
func (w *WAL) Record(in Intention) error {
	in.Writes = *cloneBatch(in.Writes)
	return w.append(walEntry{Op: walOpRecord, Action: in.Action, In: &in})
}

// Forget durably removes the record once the outcome is fully applied
// and acknowledged.
func (w *WAL) Forget(a ids.ActionID) error {
	return w.append(walEntry{Op: walOpForget, Action: a})
}

// Lookup returns the intention recorded for the action.
func (w *WAL) Lookup(a ids.ActionID) (Intention, bool, error) {
	if w.owner.Crashed() {
		return Intention{}, false, ErrCrashed
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	in, ok := w.index[a]
	return in, ok, nil
}

// Pending returns all records still in the log, sorted by action, for
// recovery scans.
func (w *WAL) Pending() ([]Intention, error) {
	if w.owner.Crashed() {
		return nil, ErrCrashed
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]Intention, 0, len(w.index))
	for _, in := range w.index {
		out = append(out, in)
	}
	sortIntentions(out)
	return out, nil
}

// append adds the entry to the open batch and waits for that batch's
// force.
func (w *WAL) append(e walEntry) error {
	if w.owner.Crashed() {
		return ErrCrashed
	}
	// The whole wait — group-commit window plus the force itself — is
	// force-wait from the transaction's point of view; charge it to the
	// record's action (the distributed transaction identifier) when
	// that transaction is traced.
	clk := w.clock()
	start := clk.Now()
	w.mu.Lock()
	if w.cur == nil {
		w.cur = &walBatch{gen: w.gen.Load(), done: make(chan struct{})}
	}
	b := w.cur
	b.entries = append(b.entries, e)
	if !w.flushing {
		w.flushing = true
		//mcalint:ignore goleak flushLoop exits when no batch remains; every appender joins its batch via <-b.done
		go w.flushLoop()
	}
	w.mu.Unlock()
	<-b.done
	phase.RecordAction(e.Action, phase.Force, clk.Since(start))
	return b.err
}

// flushLoop drains open batches until none remain. While one batch is
// being forced, new appends pile into the next, so concurrent
// transactions share forces without any coordination of their own.
func (w *WAL) flushLoop() {
	for {
		if d := time.Duration(w.window.Load()); d > 0 {
			// Hold the window open so more transactions join the batch.
			w.clock().Sleep(d)
		}
		w.mu.Lock()
		b := w.cur
		w.cur = nil
		if b == nil {
			w.flushing = false
			w.mu.Unlock()
			return
		}
		w.mu.Unlock()
		w.flushMu.Lock()
		w.flush(b)
		w.flushMu.Unlock()
	}
}

// flush forces the batch and, on success, installs its entries in the
// index. Called with flushMu held.
func (w *WAL) flush(b *walBatch) {
	clk := w.clock()
	start := clk.Now()
	err := w.force(b)
	if err == nil {
		w.mu.Lock()
		for _, e := range b.entries {
			switch e.Op {
			case walOpRecord:
				w.index[e.Action] = *e.In
			case walOpForget:
				delete(w.index, e.Action)
			}
		}
		w.mu.Unlock()
		w.maybeCompact()
	}
	d := clk.Since(start)
	w.flushes.Add(1)
	w.records.Add(uint64(len(b.entries)))
	walFlushes.Inc()
	walFlushRecords.Add(uint64(len(b.entries)))
	walFlushNs.ObserveDuration(d)
	walBatchRecords.Observe(uint64(len(b.entries)))
	flightrec.Record(flightrec.Event{
		Kind: flightrec.KindWALFlush,
		Node: w.nodeID.Load(),
		A:    uint64(len(b.entries)),
		B:    uint64(d),
	})
	b.err = err
	close(b.done)
}

// force makes the batch durable: one fsync'd file append for the file
// backing, one (optionally delayed) install for the in-memory backing.
// A crash during the force fails every record in the batch.
func (w *WAL) force(b *walBatch) error {
	if w.crashNextForce.CompareAndSwap(true, false) {
		// Injected kill mid-window: the node dies with the batch
		// unforced (file entries may hit disk, but no waiter learns of
		// success — presumed abort resolves them after recovery).
		w.owner.Crash()
		return ErrCrashed
	}
	if w.owner.Crashed() || b.gen != w.gen.Load() {
		return ErrCrashed
	}
	if w.file != nil {
		if err := w.file.appendEntries(b.entries); err != nil {
			return err
		}
	} else if d := time.Duration(w.forceDelay.Load()); d > 0 {
		w.clock().Sleep(d)
	}
	if w.owner.Crashed() || b.gen != w.gen.Load() {
		return ErrCrashed
	}
	return nil
}

// maybeCompact rewrites the file backing down to its live records when
// the log has grown past its compaction threshold. Called with flushMu
// held (no force can run concurrently).
func (w *WAL) maybeCompact() {
	if w.file == nil || w.file.size <= w.file.compactAt {
		return
	}
	w.mu.Lock()
	live := make([]walEntry, 0, len(w.index))
	for a := range w.index {
		in := w.index[a]
		live = append(live, walEntry{Op: walOpRecord, Action: a, In: &in})
	}
	w.mu.Unlock()
	// Best effort: a failed compaction leaves the old (valid) log.
	//mcalint:ignore errdrop a failed compaction keeps the old log, which remains correct, only longer
	_ = w.file.compact(live)
}

// reloadFromFile rebuilds the index from the on-disk log after a crash,
// so recovery reads what is actually durable rather than what the
// pre-crash memory believed.
func (w *WAL) reloadFromFile() {
	if w.file == nil {
		return
	}
	//mcalint:ignore errdrop an unreadable post-crash log yields an empty index, the presumed-abort default
	index, _ := readWALFile(w.file.path)
	w.mu.Lock()
	w.index = index
	w.mu.Unlock()
}

func sortIntentions(out []Intention) {
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Action < out[j-1].Action; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
}

// --- file backing ---

const (
	walFilename = "wal.log"
	// walCompactMin is the smallest log size worth compacting.
	walCompactMin = 256 << 10
)

// walFile is the WAL's on-disk form: one JSON line per entry, appended
// and fsync'd per flush, compacted by rewrite-and-rename when it grows.
type walFile struct {
	dir  string
	path string
	f    *os.File
	size int64
	// compactAt is the size threshold that triggers a compaction.
	compactAt int64
}

// openWALFile opens (creating if needed) the log in dir and returns the
// live records it holds. A torn trailing line — a crash mid-append —
// marks the durable end of the log and is discarded.
func openWALFile(dir string) (*walFile, map[ids.ActionID]Intention, error) {
	path := filepath.Join(dir, walFilename)
	index, err := readWALFile(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("open wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("open wal: %w", err)
	}
	wf := &walFile{dir: dir, path: path, f: f, size: st.Size(), compactAt: walCompactMin}
	return wf, index, nil
}

// readWALFile replays the log into its live-record index. Undecodable
// trailing bytes (torn final append) are ignored.
func readWALFile(path string) (map[ids.ActionID]Intention, error) {
	index := make(map[ids.ActionID]Intention)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return index, nil
	}
	if err != nil {
		return nil, fmt.Errorf("read wal: %w", err)
	}
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var e walEntry
		if err := json.Unmarshal(line, &e); err != nil {
			// Torn tail: the durable log ends here.
			break
		}
		switch e.Op {
		case walOpRecord:
			if e.In != nil {
				index[e.Action] = *e.In
			}
		case walOpForget:
			delete(index, e.Action)
		}
	}
	return index, nil
}

// appendEntries forces the entries with a single write+fsync.
func (wf *walFile) appendEntries(entries []walEntry) error {
	var buf bytes.Buffer
	for i := range entries {
		line, err := json.Marshal(entries[i])
		if err != nil {
			return fmt.Errorf("encode wal entry: %w", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	n, err := wf.f.Write(buf.Bytes())
	wf.size += int64(n)
	if err != nil {
		return fmt.Errorf("append wal: %w", err)
	}
	if err := wf.f.Sync(); err != nil {
		return fmt.Errorf("force wal: %w", err)
	}
	return nil
}

// compact atomically replaces the log with just the live records.
func (wf *walFile) compact(live []walEntry) error {
	tmp, err := os.CreateTemp(wf.dir, "waltmp-*")
	if err != nil {
		return fmt.Errorf("compact wal: %w", err)
	}
	name := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("compact wal: %w", err)
	}
	var size int64
	for i := range live {
		line, err := json.Marshal(live[i])
		if err != nil {
			return fail(err)
		}
		n, err := tmp.Write(append(line, '\n'))
		size += int64(n)
		if err != nil {
			return fail(err)
		}
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("compact wal: %w", err)
	}
	if err := os.Rename(name, wf.path); err != nil {
		os.Remove(name)
		return fmt.Errorf("compact wal: %w", err)
	}
	if err := syncDir(wf.dir); err != nil {
		return err
	}
	old := wf.f
	f, err := os.OpenFile(wf.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("reopen wal: %w", err)
	}
	old.Close()
	wf.f = f
	wf.size = size
	if min := int64(walCompactMin); size*4 > min {
		wf.compactAt = size * 4
	} else {
		wf.compactAt = min
	}
	return nil
}
