package main

import (
	"bytes"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestBenchmarkJSON checks that BENCHMARK.json publishes exactly the
// workloads and metrics this program runs and prints.
func TestBenchmarkJSON(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the program's tables; regenerate it with\n"+
			"  bash perfbench/run.sh --print-spec > BENCHMARK.json\nwant:\n%s", want)
	}
}

// TestVerifyRejectsDoctoredRegisters checks that the output check
// accepts the registers the ledger predicts and rejects doctored ones.
func TestVerifyRejectsDoctoredRegisters(t *testing.T) {
	l := newLedger(4)
	// Three acknowledged writes to registers 0, 1, 1 and one transfer
	// from 1 to 2.
	l.expect[0].Add(1)
	l.expect[1].Add(2 - 1)
	l.expect[2].Add(1)
	l.ackedWrites.Add(3)
	good := []int64{1, 1, 1, 0}
	if err := verify(good, l); err != nil {
		t.Fatalf("correct registers rejected: %v", err)
	}
	for name, vals := range map[string][]int64{
		"lost write":          {0, 1, 1, 0},
		"extra write":         {1, 1, 1, 1},
		"half a transfer":     {1, 2, 1, 0},
		"sum kept, misplaced": {1, 0, 1, 1},
	} {
		if err := verify(vals, l); err == nil {
			t.Errorf("%s: doctored registers %v accepted", name, vals)
		}
	}
	// A write of unknown outcome may or may not have landed.
	l.unknownUp[3].Add(1)
	l.unknownWrites.Add(1)
	for _, vals := range [][]int64{{1, 1, 1, 0}, {1, 1, 1, 1}} {
		if err := verify(vals, l); err != nil {
			t.Errorf("registers %v with one unknown write rejected: %v", vals, err)
		}
	}
	if err := verify([]int64{1, 1, 1, 2}, l); err == nil {
		t.Error("two extra units accepted against one unknown write")
	}
}

// TestTinyWorkloads runs every workload in both modes on a one-second
// budget: each completes, passes its output check and prints exactly
// its published metrics.
func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	names := func(ms []metricSpec) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.name)
		}
		sort.Strings(out)
		return out
	}
	for _, w := range workloads {
		for traced, want := range [][]string{names(endToEnd), names(perLayer)} {
			b := &bench{spec: w, secs: 1, seed: 7, log: t.Logf}
			run := b.endToEnd
			if traced == 1 {
				run = b.perLayer
			}
			out, err := run()
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, traced, err)
			}
			if !out.Correct || out.Attempted == 0 || out.Failed != 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d notes=%v",
					w.name, traced, out.Correct, out.Attempted, out.Failed, out.record.Notes)
			}
			var got []string
			for n := range out.Metrics {
				got = append(got, n)
			}
			sort.Strings(got)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s trace=%d prints %v, want %v", w.name, traced, got, want)
			}
		}
	}
}
