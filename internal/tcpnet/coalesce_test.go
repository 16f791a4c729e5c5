package tcpnet_test

import (
	"context"
	"net"
	"testing"
	"time"

	"mca/internal/ids"
	"mca/internal/tcpnet"
)

// recvN drains n datagrams from e, failing the test on timeout.
func recvN(t *testing.T, e *tcpnet.Endpoint, n int, timeout time.Duration) []string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var got []string
	for len(got) < n {
		d, err := e.Recv(ctx)
		if err != nil {
			t.Fatalf("Recv after %d/%d datagrams: %v", len(got), n, err)
		}
		got = append(got, string(d.Payload))
	}
	return got
}

// TestSendQueueDropsOnOverflow wedges a destination that accepts the
// connection but never reads: once the kernel buffers and the writer
// queue fill, Send must keep returning immediately and drop datagrams
// (UDP-style) instead of blocking the caller.
func TestSendQueueDropsOnOverflow(t *testing.T) {
	t.Cleanup(tcpnet.SetQueueLen(4))
	nw := tcpnet.NewNetwork()
	a := newEndpoint(t, nw)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hold := make(chan struct{})
	t.Cleanup(func() { close(hold) })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		<-hold // accept, never read, until the test tears down
	}()
	blackhole := ids.NodeID(424242)
	nw.Register(blackhole, ln.Addr().String())

	before := tcpnet.ReadWriterStats()
	payload := make([]byte, 64<<10)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 400; i++ { // 25 MiB >> any kernel buffering
			if err := a.Send(blackhole, payload); err != nil {
				t.Errorf("Send: %v", err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Send blocked: queue overflow must drop, not stall the caller")
	}
	after := tcpnet.ReadWriterStats()
	if after.QueueDrops == before.QueueDrops {
		t.Fatal("no queue drops recorded despite a wedged destination")
	}
}

// TestCrashRestartOverTCP checks the endpoint's fail-silence model:
// a crashed endpoint neither receives nor sends, and after Restart
// traffic flows again over freshly dialed connections.
func TestCrashRestartOverTCP(t *testing.T) {
	nw := tcpnet.NewNetwork()
	a := newEndpoint(t, nw)
	b := newEndpoint(t, nw)

	if err := a.Send(b.ID(), []byte("pre")); err != nil {
		t.Fatal(err)
	}
	if got := recvN(t, b, 1, 5*time.Second); got[0] != "pre" {
		t.Fatalf("got %q", got[0])
	}

	b.Crash()
	if !b.Crashed() {
		t.Fatal("Crashed() = false after Crash")
	}
	if err := b.Send(a.ID(), []byte("x")); err != tcpnet.ErrCrashed {
		t.Fatalf("Send on crashed endpoint = %v, want ErrCrashed", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	if _, err := b.Recv(ctx); err != tcpnet.ErrCrashed {
		cancel()
		t.Fatalf("Recv on crashed endpoint = %v, want ErrCrashed", err)
	}
	cancel()
	// Datagrams to a crashed node are lost silently, like netsim.
	if err := a.Send(b.ID(), []byte("lost")); err != nil {
		t.Fatalf("Send to crashed node = %v, want nil (silent loss)", err)
	}

	b.Restart()
	// The first sends after the crash may be lost while a's cached
	// connection discovers it is broken; datagram semantics say retry.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	gotCh := make(chan string, 1)
	go func() {
		d, err := b.Recv(ctx2)
		if err == nil {
			gotCh <- string(d.Payload)
		}
	}()
	for {
		if err := a.Send(b.ID(), []byte("post")); err != nil {
			t.Fatalf("Send after restart: %v", err)
		}
		select {
		case got := <-gotCh:
			if got != "post" {
				t.Fatalf("got %q after restart", got)
			}
			return
		case <-time.After(50 * time.Millisecond):
		case <-ctx2.Done():
			t.Fatal("no datagram delivered after restart")
		}
	}
}
