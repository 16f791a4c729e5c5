// Command perfbench is the repository's benchmark: it drives a
// coordinator and two participants with open-loop 2PC traffic over
// netsim or loopback TCP, prints every end-to-end metric (--trace 0)
// or every per-layer metric (--trace 1) by name with its unit, checks
// the registers it wrote, and exits non-zero when the check fails.
//
//	bash perfbench/run.sh --workload tcp_mixed --seed 1 --seconds 25 --trace 0
//
// See NOTES.md for the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"mca/internal/flightrec"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Uint64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", runSeconds, "measurement budget of the run, seconds")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from counters and a traced run")
		spec    = flag.Bool("print-spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *spec {
		out, err := benchmarkJSON()
		if err == nil {
			_, err = os.Stdout.Write(out)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds > 0, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	// The crashes are scheduled; a flight-recorder dump on each would
	// only flood standard error.
	flightrec.SetAutoDump(nil)
	b := &bench{spec: w, secs: *seconds, seed: *seed, log: func(format string, args ...any) {
		fmt.Printf("# "+format+"\n", args...)
	}}
	var out result
	var err error
	if *traced == 1 {
		out, err = b.perLayer()
	} else {
		out, err = b.endToEnd()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out.record.fill(b, *traced)
	if err := out.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !out.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	record    runRecord
}

// runRecord describes the run: host, inputs, and how much each
// percentile rests on. It is printed before the result.
type runRecord struct {
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      int            `json:"trace"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	CPU        string         `json:"cpu"`
	Samples    map[string]int `json:"samples"` // percentile metric -> sample count
	// Slices is, for each latency percentile, the number of slices of
	// consecutive arrivals it is the interquartile mean over (see
	// slicedQuantile).
	Slices    map[string]int `json:"slices,omitempty"`
	GenLagMs  float64        `json:"gen_lag_ms_max"`
	ErrorFrac float64        `json:"error_frac"` // (failed + shed) / attempted over the scored phases
	Notes     []string       `json:"notes,omitempty"`
}

func (r *runRecord) fill(b *bench, traced int) {
	r.Workload, r.Seed, r.Seconds, r.Trace = b.spec.name, b.seed, b.secs, traced
	r.NProc, r.GOMAXPROCS = runtime.NumCPU(), runtime.GOMAXPROCS(0)
	r.GoVersion, r.CPU = runtime.Version(), cpuModel()
}

func (r *result) set(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metricValue{}
	}
	for _, set := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range set {
			if m.name == name {
				r.Metrics[name] = metricValue{Value: v, Unit: m.unit}
				return
			}
		}
	}
	panic("perfbench: unpublished metric " + name)
}

func (r *result) setDuration(name string, d time.Duration, unit time.Duration) {
	r.set(name, float64(d)/float64(unit))
}

// sample notes how many samples a percentile metric rests on.
func (r *result) sample(name string, n int) {
	if r.record.Samples == nil {
		r.record.Samples, r.record.Slices = map[string]int{}, map[string]int{}
	}
	r.record.Samples[name] = n
}

func (r *result) print(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	moves := map[string]string{}
	for _, m := range perLayer {
		moves[m.name] = m.moves
	}
	for _, n := range names {
		m := r.Metrics[n]
		if mv := moves[n]; mv != "" {
			fmt.Fprintf(w, "%-32s %14.6g %-8s moves: %s\n", n, m.Value, m.Unit, mv)
			continue
		}
		fmt.Fprintf(w, "%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	rec, err := json.Marshal(struct {
		Record runRecord `json:"record"`
	}{r.record})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(rec))
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
