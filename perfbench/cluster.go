package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"mca/internal/action"
	"mca/internal/dist"
	"mca/internal/ids"
	"mca/internal/netsim"
	"mca/internal/node"
	"mca/internal/object"
	"mca/internal/rpc"
	"mca/internal/tcpnet"
	"mca/internal/trace"
)

// The benchmark builds its own cluster from the public node, dist and
// object APIs: the crash phase and the register read-back need the node
// handles.

// regArg is the argument of every register op. Span, non-zero only in
// the traced run, names the driver's invoke span so the register can
// record its own span under it.
type regArg struct {
	Delta int    `json:"delta,omitempty"`
	Span  uint32 `json:"span,omitempty"`
}

// register is one transactional integer cell hosted by a participant,
// durable through the node's stable store.
type register struct {
	mu    sync.Mutex
	nd    *node.Node
	objID ids.ObjectID
	val   *object.Managed[int64]
	spans *spanLog // nil when untraced
}

// Register runs when the node starts or restarts. The register's
// object is loaded lazily, at the first op of the incarnation: the dist
// manager serves no op before it has resolved the in-doubt
// transactions into stable storage, so the load sees the repaired
// state. An instance loaded any earlier could miss that repair.
func (r *register) Register(nd *node.Node, _ *rpc.Peer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nd = nd
	r.val = nil
}

func (r *register) Recover(context.Context, *node.Node) {}

func (r *register) value() *object.Managed[int64] {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.val == nil {
		m, err := object.Load[int64](r.objID, r.nd.Stable())
		if err != nil {
			// Never written: the register still holds its initial 0.
			m = object.New[int64](0, object.WithStore(r.nd.Stable()), object.WithID(r.objID))
		}
		r.val = m
	}
	return r.val
}

// Invoke implements dist.Resource: "add" adds Delta, "get" returns the
// value.
func (r *register) Invoke(a *action.Action, op string, arg []byte) ([]byte, error) {
	begin := time.Now()
	var in regArg
	if err := json.Unmarshal(arg, &in); err != nil {
		return nil, err
	}
	var out []byte
	var err error
	switch op {
	case "add":
		err = r.value().Write(a, func(v *int64) error { *v += int64(in.Delta); return nil })
		out = []byte("{}")
	case "get":
		var v int64
		err = r.value().Read(a, func(x int64) error { v = x; return nil })
		if err == nil {
			out, err = json.Marshal(v)
		}
	default:
		err = errors.New("register: unknown op " + op)
	}
	if r.spans != nil && in.Span != 0 {
		r.spans.resource(in.Span, begin, time.Now())
	}
	return out, err
}

// cluster is one coordinator plus two participants over netsim or
// loopback TCP; register i lives on participant i%2.
type cluster struct {
	spec  workloadSpec
	nw    *netsim.Network
	tn    *tcpnet.Network
	nodes []*node.Node // [0] coordinator, [1..] participants
	coord *dist.Manager
	regs  []*register
	names []string
	hosts []ids.NodeID
	part  []int // part[i] is the participant (1 or 2) hosting register i
	spans *spanLog
}

const participants = 2

// rpcOptions: retransmit every 5ms; a call lives 5s, longer than any
// scheduled downtime, so a crash delays calls instead of failing them.
var rpcOptions = rpc.Options{RetryInterval: 5 * time.Millisecond, CallTimeout: 5 * time.Second}

// newCluster builds and starts a cluster. When spans is non-nil the
// cluster is traced: every node records the distributed trace through
// one tail sampler, and the registers record their spans into spans.
func newCluster(spec workloadSpec, spans *spanLog, seed uint64) (*cluster, error) {
	c := &cluster{spec: spec, spans: spans}
	var sampler *trace.Sampler
	if spans != nil {
		sampler = trace.NewSampler(trace.SamplerConfig{Threshold: spec.slo, BaselineN: 128, Seed: seed})
	}
	for i := 0; i <= participants; i++ {
		opts := []node.Option{node.WithRPCOptions(rpcOptions)}
		if sampler != nil {
			rec := trace.NewRecorder()
			rec.SetSampler(sampler)
			opts = append(opts, node.WithTracer(rec))
		}
		nd, err := c.newNode(opts)
		if err != nil {
			c.close()
			return nil, err
		}
		nd.Stable().WAL().SetForceDelay(spec.forceDelay)
		c.nodes = append(c.nodes, nd)
	}
	c.coord = dist.NewManager(c.nodes[0])
	mgrs := []*dist.Manager{dist.NewManager(c.nodes[1]), dist.NewManager(c.nodes[2])}
	for i := 0; i < spec.registers; i++ {
		p := 1 + i%participants
		r := &register{objID: ids.NewObjectID(), spans: spans}
		name := fmt.Sprintf("r%d", i)
		c.nodes[p].Host(r)
		mgrs[p-1].RegisterResource(name, r)
		c.regs = append(c.regs, r)
		c.names = append(c.names, name)
		c.hosts = append(c.hosts, c.nodes[p].ID())
		c.part = append(c.part, p)
	}
	return c, nil
}

func (c *cluster) newNode(opts []node.Option) (*node.Node, error) {
	if !c.spec.tcp {
		if c.nw == nil {
			c.nw = netsim.New(netsim.Config{MinDelay: c.spec.linkDelay, MaxDelay: c.spec.linkDelay})
		}
		return node.New(c.nw, opts...)
	}
	if c.tn == nil {
		c.tn = tcpnet.NewNetwork()
	}
	ep, err := c.tn.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	nd, err := node.NewOn(ep, opts...)
	if err != nil {
		ep.Close()
		return nil, err
	}
	return nd, nil
}

// close stops every node and the simulated network.
func (c *cluster) close() {
	for _, nd := range c.nodes {
		nd.Stop()
	}
	if c.nw != nil {
		c.nw.Close()
	}
}
