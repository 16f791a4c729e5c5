package tcpnet

// SetQueueLen shrinks the per-destination writer queue for senders
// dialled after the call, returning a function that restores it.
func SetQueueLen(n int) (restore func()) {
	old := queueLen
	queueLen = n
	return func() { queueLen = old }
}
