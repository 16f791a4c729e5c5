//go:build !linux

package main

import "time"

// sleepUntil sleeps on the Go timer where there is no nanosleep.
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }
