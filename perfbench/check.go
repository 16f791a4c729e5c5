package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"mca/internal/dist"
)

// readBack reads every register through read-only transactions once
// the load has stopped: chunks of registers per transaction, a few
// transactions at a time. An aborted chunk is retried.
func readBack(c *cluster) ([]int64, error) {
	const chunk, workers = 16, 8
	vals := make([]int64, len(c.regs))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := w * chunk; lo < len(c.regs); lo += workers * chunk {
				hi := min(lo+chunk, len(c.regs))
				if err := readChunk(c, vals[lo:hi], lo); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return vals, errors.Join(errs...)
}

func readChunk(c *cluster, out []int64, first int) error {
	ctx := context.Background()
	var err error
	for start, attempt := time.Now(), 1; time.Since(start) < retryFor; attempt++ {
		err = c.coord.Run(ctx, func(txn *dist.Txn) error {
			for k := range out {
				i := first + k
				if err := txn.Invoke(ctx, c.hosts[i], c.names[i], "get", regArg{}, &out[k]); err != nil {
					return err
				}
			}
			return nil
		})
		if err == nil {
			return nil
		}
		time.Sleep(min(time.Duration(attempt)*time.Millisecond, 10*time.Millisecond))
	}
	return fmt.Errorf("read back registers %d..%d: %w", first, first+len(out)-1, err)
}

// verify checks the registers read back against what the driver saw
// acknowledged. Every register must hold exactly the sum of its
// committed deltas, give or take its ops of unknown outcome; so no
// acknowledged write is lost and every transfer moved a unit intact.
// Summed over all registers this is the rule: the sum is at least the
// acknowledged writes and exceeds them by at most the unknown-outcome
// writes (transfers conserve the sum).
func verify(vals []int64, l *ledger) error {
	var sum int64
	var bad []string
	for i, v := range vals {
		sum += v
		want := l.expect[i].Load()
		lo, hi := want-l.unknownDown[i].Load(), want+l.unknownUp[i].Load()
		if v < lo || v > hi {
			if len(bad) < 5 {
				bad = append(bad, fmt.Sprintf("register %d holds %d, want %d..%d", i, v, lo, hi))
			} else {
				bad = append(bad, "...")
				break
			}
		}
	}
	acked, unknownW := l.ackedWrites.Load(), l.unknownWrites.Load()
	if sum < acked || sum > acked+unknownW {
		bad = append(bad, fmt.Sprintf("register sum %d outside [%d acknowledged writes, +%d unknown]", sum, acked, unknownW))
	}
	if len(bad) > 0 {
		return fmt.Errorf("output check failed: %v", bad)
	}
	return nil
}
