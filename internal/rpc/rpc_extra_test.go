package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mca/internal/ids"
	"mca/internal/netsim"
)

func TestInvalidHandlerJSONSurfacesAsError(t *testing.T) {
	a, b, _ := newPair(t, netsim.Config{}, Options{})
	b.Handle("bad", func(context.Context, ids.NodeID, []byte) ([]byte, error) {
		return []byte("[0][0]"), nil // malformed JSON
	})
	err := a.Call(context.Background(), b.ID(), "bad", struct{}{}, nil)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("Call = %v, want RemoteError", err)
	}
	if !strings.Contains(remote.Msg, "invalid JSON") {
		t.Fatalf("remote msg = %q", remote.Msg)
	}
}

func TestEmptyHandlerReplyIsFine(t *testing.T) {
	a, b, _ := newPair(t, netsim.Config{}, Options{})
	b.Handle("void", func(context.Context, ids.NodeID, []byte) ([]byte, error) {
		return nil, nil
	})
	if err := a.Call(context.Background(), b.ID(), "void", struct{}{}, nil); err != nil {
		t.Fatalf("Call = %v", err)
	}
}

func TestCorruptDatagramIgnored(t *testing.T) {
	// Raw garbage on the wire must not break the peer.
	n := netsim.New(netsim.Config{})
	t.Cleanup(n.Close)
	epA, err := n.NewEndpoint()
	if err != nil {
		t.Fatal(err)
	}
	epB, err := n.NewEndpoint()
	if err != nil {
		t.Fatal(err)
	}
	pb := NewPeer(epB, Options{})
	pb.Handle("echo", func(_ context.Context, _ ids.NodeID, body []byte) ([]byte, error) {
		return body, nil
	})
	pb.Start()
	t.Cleanup(pb.Stop)

	if err := epA.Send(epB.ID(), []byte("not json at all")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)

	pa := NewPeer(epA, Options{})
	pa.Start()
	t.Cleanup(pa.Stop)
	if err := pa.Call(context.Background(), epB.ID(), "echo", struct{}{}, nil); err != nil {
		t.Fatalf("Call after garbage = %v", err)
	}
}

func TestInflightSuppressionUnderSlowHandler(t *testing.T) {
	// A handler slower than several retransmission intervals must
	// execute exactly once.
	var executions int
	release := make(chan struct{})
	a, b, _ := newPair(t, netsim.Config{},
		Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 5 * time.Second})
	b.Handle("slow", func(context.Context, ids.NodeID, []byte) ([]byte, error) {
		executions++ // single in-flight execution: no lock needed
		<-release
		return []byte("{}"), nil
	})
	done := make(chan error, 1)
	go func() {
		done <- a.Call(context.Background(), b.ID(), "slow", struct{}{}, nil)
	}()
	time.Sleep(100 * time.Millisecond) // ~20 retransmissions
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Call = %v", err)
	}
	if executions != 1 {
		t.Fatalf("handler executed %d times, want 1", executions)
	}
}

func TestReplyCacheEvictionBounded(t *testing.T) {
	a, b, _ := newPair(t, netsim.Config{}, Options{ReplyCache: 4})
	b.Handle("echo", func(_ context.Context, _ ids.NodeID, body []byte) ([]byte, error) {
		return body, nil
	})
	for i := 0; i < 50; i++ {
		if err := a.Call(context.Background(), b.ID(), "echo", i, nil); err != nil {
			t.Fatal(err)
		}
	}
	b.mu.Lock()
	cached := len(b.seen)
	b.mu.Unlock()
	if cached > 4 {
		t.Fatalf("reply cache grew to %d entries, bound is 4", cached)
	}
}

// TestBinaryOnWireBetweenNewPeers taps the simulated network and
// asserts that two binary-capable peers actually exchange binary
// envelopes — the fast path is on the wire, not just in unit tests.
func TestBinaryOnWireBetweenNewPeers(t *testing.T) {
	n := netsim.New(netsim.Config{})
	t.Cleanup(n.Close)
	var binaryFrames, otherFrames atomic.Int64
	n.SetTap(func(m netsim.Message) {
		if len(m.Payload) > 4 && m.Payload[4] == binMagic {
			binaryFrames.Add(1)
		} else {
			otherFrames.Add(1)
		}
	})
	epA, err := n.NewEndpoint()
	if err != nil {
		t.Fatal(err)
	}
	epB, err := n.NewEndpoint()
	if err != nil {
		t.Fatal(err)
	}
	// A generous retry interval keeps retransmissions out of the frame
	// count on this lossless network.
	a := NewPeer(epA, Options{RetryInterval: 200 * time.Millisecond})
	b := NewPeer(epB, Options{RetryInterval: 200 * time.Millisecond})
	b.Handle("echo", func(_ context.Context, _ ids.NodeID, body []byte) ([]byte, error) {
		return body, nil
	})
	a.Start()
	b.Start()
	t.Cleanup(a.Stop)
	t.Cleanup(b.Stop)

	for i := 0; i < 5; i++ {
		var resp echoResp
		if err := a.Call(context.Background(), b.ID(), "echo", echoReq{Text: "fast"}, &resp); err != nil {
			t.Fatal(err)
		}
	}
	if binaryFrames.Load() < 10 { // 5 requests + 5 replies minimum
		t.Fatalf("saw %d binary frames on the wire, want >= 10", binaryFrames.Load())
	}
	if otherFrames.Load() != 0 {
		t.Fatalf("saw %d non-binary frames between two binary-capable peers", otherFrames.Load())
	}
}

// nullTransport is a transport black hole for white-box tests that
// never need real delivery.
type nullTransport struct{ id ids.NodeID }

func (n nullTransport) ID() ids.NodeID                { return n.id }
func (n nullTransport) Send(ids.NodeID, []byte) error { return nil }
func (n nullTransport) Recv(ctx context.Context) (Datagram, error) {
	<-ctx.Done()
	return Datagram{}, ctx.Err()
}

// TestReplyCacheRingReuse is the memory-regression half of the ring
// buffer fix: under sustained churn the eviction order must stay inside
// one fixed backing array (the old append-and-reslice order pinned an
// ever-growing one), the cache must track exactly the most recent
// entries, and evicted call ids must become cache misses again.
func TestReplyCacheRingReuse(t *testing.T) {
	p := NewPeerOn(nullTransport{id: 1}, Options{ReplyCache: 4})
	p.mu.Lock()
	for i := uint64(1); i <= 1000; i++ {
		p.cacheReply(i, envelope{CallID: i})
	}
	ringCap := cap(p.seenRing)
	cached := len(p.seen)
	_, oldestEvicted := p.seen[996]
	var missing []uint64
	for i := uint64(997); i <= 1000; i++ {
		if _, ok := p.seen[i]; !ok {
			missing = append(missing, i)
		}
	}
	p.mu.Unlock()
	if ringCap != 4 {
		t.Fatalf("ring backing array has cap %d after 1000 insertions, want exactly 4", ringCap)
	}
	if cached != 4 {
		t.Fatalf("cache holds %d entries, want 4", cached)
	}
	if oldestEvicted {
		t.Fatal("call id 996 still cached after 4 newer entries")
	}
	if missing != nil {
		t.Fatalf("recent call ids %v evicted early", missing)
	}
}

// chanTransport is a transport the test drives by hand: datagrams pushed
// into in are received by the peer, and every frame the peer sends is
// copied into out.
type chanTransport struct {
	id  ids.NodeID
	in  chan Datagram
	out chan []byte
}

func (c chanTransport) ID() ids.NodeID { return c.id }
func (c chanTransport) Send(_ ids.NodeID, payload []byte) error {
	c.out <- bytes.Clone(payload)
	return nil
}
func (c chanTransport) Recv(ctx context.Context) (Datagram, error) {
	select {
	case d := <-c.in:
		return d, nil
	case <-ctx.Done():
		return Datagram{}, ctx.Err()
	}
}

// TestJSONEnvelopeRequestDropped: a request in the retired JSON
// envelope format, inside a valid CRC frame, is dropped by the receive
// loop — its handler never runs and no reply goes out. A binary request
// queued behind it proves the loop got past the JSON frame.
func TestJSONEnvelopeRequestDropped(t *testing.T) {
	tr := chanTransport{id: 1, in: make(chan Datagram, 2), out: make(chan []byte, 4)}
	p := NewPeerOn(tr, Options{})
	var served atomic.Int64
	p.Handle("echo", func(_ context.Context, _ ids.NodeID, body []byte) ([]byte, error) {
		served.Add(1)
		return body, nil
	})
	p.Start()
	t.Cleanup(p.Stop)

	jsonReq := []byte(`{"kind":1,"callId":7,"origin":2,"method":"echo","body":{"text":"x"}}`)
	framed := binary.BigEndian.AppendUint32(nil, crc32.ChecksumIEEE(jsonReq))
	framed = append(framed, jsonReq...)
	tr.in <- Datagram{From: 2, To: 1, Payload: framed}

	bp := getFrameBuf()
	defer putFrameBuf(bp)
	probe := envelope{Kind: kindRequest, CallID: 8, Origin: 2, Method: "echo", Body: []byte(`{"text":"y"}`)}
	tr.in <- Datagram{From: 2, To: 1, Payload: bytes.Clone(encodeFrame(bp, &probe))}

	select {
	case out := <-tr.out:
		body, ok := verifyFrame(out)
		var reply envelope
		if !ok || !decodeEnvelope(body, &reply) || reply.CallID != probe.CallID {
			t.Fatalf("first reply is not the binary probe's: % x", out)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no reply to the binary probe")
	}
	select {
	case out := <-tr.out:
		t.Fatalf("peer sent a second frame, answering the JSON request: % x", out)
	case <-time.After(50 * time.Millisecond):
	}
	if n := served.Load(); n != 1 {
		t.Fatalf("handler ran %d times, want 1 (the binary probe only)", n)
	}
}
