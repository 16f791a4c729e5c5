// Envelope wire codec. Every envelope travels as a fixed header plus
// length-delimited strings inside the CRC32 frame introduced with the
// corruption defences, encoded into a pooled buffer with zero
// steady-state allocations. Application bodies stay JSON — only the
// envelope around them is binary.
//
// The first byte of the framed body is binMagic, followed by a version
// byte, so a future layout change bumps binVersion without another
// magic. The decoder rejects anything else, JSON envelopes included.
package rpc

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"runtime"
	"sync"

	"mca/internal/ids"
)

// binMagic is the first body byte of an envelope. 0xC1 is not valid
// UTF-8, so no text document (a JSON envelope in particular) can be
// misread as an envelope.
const binMagic byte = 0xC1

// binVersion is the layout version, the second body byte. The decoder
// rejects versions it does not know, which drops the frame.
const binVersion byte = 1

// Flag bits of the binary header's flags byte.
const (
	flagErr   byte = 1 << 0 // envelope carries an error reply
	flagTrace byte = 1 << 1 // envelope carries a trace context
)

// binHeaderLen is the fixed prefix: magic, version, kind, flags, call
// id, origin.
const binHeaderLen = 1 + 1 + 1 + 1 + 8 + 8

// appendEnvelope appends the encoding of env to buf.
//
// Layout (after the CRC32 frame prefix):
//
//	[0]     magic 0xC1
//	[1]     version (1)
//	[2]     kind (1 request, 2 reply)
//	[3]     flags (bit0 error, bit1 trace)
//	[4:12]  call id, big endian
//	[12:20] origin node id, big endian
//	        uvarint method length, method bytes
//	        if trace flag: trace id [8], span id [8], big endian
//	        if error flag: uvarint message length, message bytes
//	        uvarint body length, body bytes
func appendEnvelope(buf []byte, env *envelope) []byte {
	var flags byte
	if env.IsErr {
		flags |= flagErr
	}
	if env.V >= wireVersionTrace {
		flags |= flagTrace
	}
	buf = append(buf, binMagic, binVersion, byte(env.Kind), flags)
	buf = binary.BigEndian.AppendUint64(buf, env.CallID)
	buf = binary.BigEndian.AppendUint64(buf, uint64(env.Origin))
	buf = binary.AppendUvarint(buf, uint64(len(env.Method)))
	buf = append(buf, env.Method...)
	if flags&flagTrace != 0 {
		buf = binary.BigEndian.AppendUint64(buf, env.Trace)
		buf = binary.BigEndian.AppendUint64(buf, env.Span)
	}
	if flags&flagErr != 0 {
		buf = binary.AppendUvarint(buf, uint64(len(env.ErrMsg)))
		buf = append(buf, env.ErrMsg...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(env.Body)))
	buf = append(buf, env.Body...)
	return buf
}

// readDelimited splits a uvarint-length-prefixed byte string off data.
func readDelimited(data []byte) (val, rest []byte, ok bool) {
	n, w := binary.Uvarint(data)
	if w <= 0 || n > uint64(len(data)-w) {
		return nil, nil, false
	}
	return data[w : w+int(n)], data[w+int(n):], true
}

// decodeEnvelope parses an envelope into env. It is strict — unknown
// versions, unknown flag bits, short fields and trailing bytes are all
// rejected — so a corrupted frame that happens to pass the CRC (or a
// deliberately malformed one) is dropped rather than misread. Method is
// interned and Body aliases data, so the caller must not reuse data's
// backing array afterwards; inbound frame buffers are owned by their
// consumer, which makes the alias safe (and the decode allocation-free).
func decodeEnvelope(data []byte, env *envelope) bool {
	if len(data) < binHeaderLen || data[0] != binMagic || data[1] != binVersion {
		return false
	}
	k := kind(data[2])
	if k != kindRequest && k != kindReply {
		return false
	}
	flags := data[3]
	if flags&^(flagErr|flagTrace) != 0 {
		return false
	}
	env.Kind = k
	env.CallID = binary.BigEndian.Uint64(data[4:12])
	env.Origin = ids.NodeID(binary.BigEndian.Uint64(data[12:20]))
	rest := data[binHeaderLen:]
	method, rest, ok := readDelimited(rest)
	if !ok {
		return false
	}
	env.Method = internMethod(method)
	if flags&flagTrace != 0 {
		if len(rest) < 16 {
			return false
		}
		env.V = wireVersionTrace
		env.Trace = binary.BigEndian.Uint64(rest[0:8])
		env.Span = binary.BigEndian.Uint64(rest[8:16])
		rest = rest[16:]
	}
	if flags&flagErr != 0 {
		var msg []byte
		msg, rest, ok = readDelimited(rest)
		if !ok {
			return false
		}
		env.IsErr = true
		env.ErrMsg = string(msg)
	}
	body, rest, ok := readDelimited(rest)
	if !ok || len(rest) != 0 {
		return false
	}
	if len(body) > 0 {
		env.Body = body
	}
	return true
}

// --- method interning ---

// methodIntern maps method-name bytes to a canonical string so binary
// decode allocates no string per request in steady state. The table is
// bounded: method names arrive off the network, and an adversarial
// stream of unique names must not grow it without limit.
var methodIntern = struct {
	sync.RWMutex
	m map[string]string
}{m: make(map[string]string)}

const methodInternLimit = 1024

func internMethod(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	methodIntern.RLock()
	s, ok := methodIntern.m[string(b)] // no alloc: compiler-recognised []byte map key
	methodIntern.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	methodIntern.Lock()
	if len(methodIntern.m) < methodInternLimit {
		methodIntern.m[s] = s
	}
	methodIntern.Unlock()
	return s
}

// --- pooled frame buffers ---

// framePool recycles encode buffers on the send path: one buffer covers
// the CRC prefix and the envelope, so an entire send is a single
// (pool-amortised) allocation-free append chain. Buffers above
// framePoolMax are not returned — one huge body must not pin memory in
// the pool forever.
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

const framePoolMax = 64 << 10

func getFrameBuf() *[]byte { return framePool.Get().(*[]byte) }

func putFrameBuf(bp *[]byte) {
	if cap(*bp) > framePoolMax {
		return
	}
	framePool.Put(bp)
}

// encodeFrame encodes env into bp's backing array (growing it as
// needed, and recording the growth in *bp so the pool keeps it) and
// returns the complete CRC-framed wire bytes. The result aliases *bp:
// it is valid until bp is reused or returned to the pool.
func encodeFrame(bp *[]byte, env *envelope) []byte {
	buf := append((*bp)[:0], 0, 0, 0, 0) // CRC placeholder
	buf = appendEnvelope(buf, env)
	binary.BigEndian.PutUint32(buf[:4], crc32.ChecksumIEEE(buf[4:]))
	*bp = buf
	return buf
}

// EnvelopeRoundTripAllocs measures the mean heap allocations of one
// envelope encode+decode cycle (frame, CRC, parse) over runs
// iterations. It is the allocs-regression probe shared by the codec
// tests and experiment E24; the steady-state expectation is zero.
func EnvelopeRoundTripAllocs(runs int) float64 {
	env := envelope{
		Kind:   kindRequest,
		CallID: 0x12345678,
		Origin: 7,
		Method: "dist.prepare",
		Body:   json.RawMessage(`{"txn":42,"op":"transfer","amount":10}`),
		V:      wireVersionTrace,
		Trace:  0xDEADBEEFCAFE,
		Span:   0xFEEDFACE,
	}
	bp := getFrameBuf()
	defer putFrameBuf(bp)
	cycle := func() {
		body, ok := verifyFrame(encodeFrame(bp, &env))
		if !ok {
			panic("rpc: framed envelope failed its own CRC")
		}
		var dec envelope
		if !decodeEnvelope(body, &dec) {
			panic("rpc: envelope failed to decode")
		}
		if dec.CallID != env.CallID || dec.Method != env.Method {
			panic("rpc: envelope round trip mismatch")
		}
	}
	// Warm the pool, the intern table and the buffer growth before
	// measuring the steady state.
	for i := 0; i < 16; i++ {
		cycle()
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}
