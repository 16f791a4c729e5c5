package main

import (
	"math"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"

	mcametrics "mca/internal/metrics"
)

// usageSnapshot is the process's resource use at one instant.
type usageSnapshot struct {
	cpu      time.Duration // user + system
	allocs   uint64        // heap objects allocated
	gcCycles uint64
	pauses   []uint64 // GC stop-the-world pause histogram counts
}

// usageDelta is the resource use between two snapshots.
type usageDelta struct {
	cpu      time.Duration
	allocs   uint64
	gcCycles uint64
	pauseP99 time.Duration
}

const (
	mAllocs   = "/gc/heap/allocs:objects"
	mGCCycles = "/gc/cycles/total:gc-cycles"
	mPauses   = "/sched/pauses/total/gc:seconds"
	mHeap     = "/memory/classes/heap/objects:bytes"
	mRoutines = "/sched/goroutines:goroutines"
)

var pauseBuckets []float64 // bucket bounds of mPauses, fixed per process

func takeUsage() usageSnapshot {
	s := []metrics.Sample{{Name: mAllocs}, {Name: mGCCycles}, {Name: mPauses}}
	metrics.Read(s)
	var ru syscall.Rusage
	// getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	h := s[2].Value.Float64Histogram()
	if pauseBuckets == nil {
		pauseBuckets = h.Buckets
	}
	return usageSnapshot{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:   s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
		pauses:   append([]uint64(nil), h.Counts...),
	}
}

func (s usageSnapshot) sub(b usageSnapshot) usageDelta {
	d := usageDelta{
		cpu:      s.cpu - b.cpu,
		allocs:   s.allocs - b.allocs,
		gcCycles: s.gcCycles - b.gcCycles,
	}
	var total uint64
	counts := make([]uint64, len(s.pauses))
	for i := range counts {
		counts[i] = s.pauses[i] - b.pauses[i]
		total += counts[i]
	}
	if total > 0 {
		// Upper bound of the bucket holding the 99th percentile pause.
		want := uint64(math.Ceil(0.99 * float64(total)))
		var seen uint64
		for i, c := range counts {
			seen += c
			if seen >= want {
				hi := pauseBuckets[i+1]
				if math.IsInf(hi, 1) {
					hi = pauseBuckets[i]
				}
				d.pauseP99 = time.Duration(hi * float64(time.Second))
				break
			}
		}
	}
	return d
}

// peaks samples the in-use heap and the goroutine count and keeps the
// largest of each.
type peaks struct {
	mu         sync.Mutex
	heap       uint64
	goroutines uint64
}

func (p *peaks) sample() {
	s := []metrics.Sample{{Name: mHeap}, {Name: mRoutines}}
	metrics.Read(s)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.heap = max(p.heap, s[0].Value.Uint64())
	p.goroutines = max(p.goroutines, s[1].Value.Uint64())
}

func (p *peaks) get() (heap, goroutines uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.heap, p.goroutines
}

// counters is a snapshot of the system's own metric registry, keyed
// "family" (summed over label sets) and "family{k=v,...}"; histograms
// contribute "<key>:count" and "<key>:sum".
type counters map[string]float64

func takeCounters() counters {
	out := counters{}
	for _, f := range mcametrics.Default().Gather() {
		for _, s := range f.Samples {
			key := f.Name
			if len(s.Labels) > 0 {
				var b strings.Builder
				b.WriteString("{")
				for i := 0; i+1 < len(s.Labels); i += 2 {
					if i > 0 {
						b.WriteString(",")
					}
					b.WriteString(s.Labels[i] + "=" + s.Labels[i+1])
				}
				b.WriteString("}")
				key += b.String()
			}
			if s.Hist != nil {
				out[key+":count"] = float64(s.Hist.Count)
				out[key+":sum"] = float64(s.Hist.Sum)
				if key != f.Name {
					out[f.Name+":count"] += float64(s.Hist.Count)
					out[f.Name+":sum"] += float64(s.Hist.Sum)
				}
				continue
			}
			out[key] = s.Value
			if key != f.Name {
				out[f.Name] += s.Value
			}
		}
	}
	return out
}

// sub returns c - b for every key of c.
func (c counters) sub(b counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - b[k]
	}
	return out
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
