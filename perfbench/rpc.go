package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"protoacc/internal/fleet"
	"protoacc/internal/pb/codec"
	"protoacc/internal/pb/dynamic"
	"protoacc/internal/pb/schema"
	"protoacc/internal/serve"
	"protoacc/internal/serve/cluster"
	"protoacc/internal/workloads"
)

// rpcReq is one entry of an RPC workload's request pool with the bytes a
// correct daemon must answer: the software codec's canonical encoding of
// the payload, which both operations return.
type rpcReq struct {
	op      serve.Op
	schema  string
	payload []byte
	want    []byte
}

// Request budgets: the daemon drops a request after reqTimeout, the
// client stops waiting after clientWait. Both are far above every latency
// limit, so a request that hits either has already missed.
const (
	reqTimeout = 2 * time.Second
	clientWait = 3 * time.Second
)

// deserShare is the fleet operation split (§3.2): C++ deserialization
// versus serialization cycles, ≈64% deserialize.
var deserShare = fleet.FleetCyclesInCppDeser / (fleet.FleetCyclesInCppDeser + fleet.FleetCyclesInCppSer)

func newRPCReq(t *schema.Message, name string, op serve.Op, payload []byte) (rpcReq, error) {
	m, err := codec.Unmarshal(t, payload)
	if err != nil {
		return rpcReq{}, err
	}
	want, err := codec.Marshal(m)
	if err != nil {
		return rpcReq{}, err
	}
	return rpcReq{op: op, schema: name, payload: payload, want: want}, nil
}

// smallPool is the small-rpc pool: every varint and mixed catalog sample
// under both operations. Picks draw the op from the fleet split and the
// sample uniformly.
func smallPool() ([]rpcReq, func(rng *rand.Rand) func(n int) int, error) {
	cat := serve.DefaultCatalog()
	var pool []rpcReq
	for _, op := range []serve.Op{serve.OpDeserialize, serve.OpSerialize} {
		for _, name := range []string{"varint", "mixed"} {
			e := cat.Lookup(name)
			for i := 0; i < e.NumSamples(); i++ {
				r, err := newRPCReq(e.Type, name, op, e.SamplePayload(i))
				if err != nil {
					return nil, nil, err
				}
				pool = append(pool, r)
			}
		}
	}
	half := len(pool) / 2 // deser entries first, then ser
	pick := func(rng *rand.Rand) func(int) int {
		return func(int) int {
			if rng.Float64() < deserShare {
				return rng.Intn(half)
			}
			return half + rng.Intn(half)
		}
	}
	return pool, pick, nil
}

// stringPoolSize is the number of generated string payloads. Bucket
// quotas follow the fleet message-size shares (Figure 3), with at least
// one payload per bucket so the byte-heavy tail is always present.
const stringPoolSize = 256

// stringPayloads generates canonical ServeString payloads whose sizes
// follow the fleet message-size buckets, capped at maxPayload.
func stringPayloads(rng *rand.Rand, t *schema.Message, maxPayload int) ([][]byte, error) {
	var out [][]byte
	for _, b := range fleet.MessageSizes() {
		quota := int(b.Share*stringPoolSize + 0.5)
		if quota < 1 {
			quota = 1
		}
		lo, hi := int(b.Lo), maxPayload
		if b.Hi != fleet.Unbounded && int(b.Hi) < hi {
			hi = int(b.Hi)
		}
		for i := 0; i < quota; i++ {
			size := lo + rng.Intn(hi-lo+1)
			// Tag and length prefix take 1 + up to 3 bytes.
			n := size - 2
			if size > 129 {
				n = size - 3
			}
			if size > 16385 {
				n = size - 4
			}
			if n < 0 {
				n = 0
			}
			s := make([]byte, n)
			for j := range s {
				s[j] = byte(' ' + rng.Intn(95))
			}
			m := dynamic.New(t)
			m.SetBytes(1, s)
			p, err := codec.Marshal(m)
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// fleetPool is the fleet-pool pool: a workloads.Synthesize trace over the
// default catalog, in record order, where every string record carries a
// generated fleet-sized payload instead of its catalog sample. Picks walk
// the trace.
func fleetPool(seed int64) ([]rpcReq, func(rng *rand.Rand) func(n int) int, error) {
	cat := serve.DefaultCatalog()
	tr, err := workloads.Synthesize(workloads.SynthOptions{Seed: seed, Catalog: cat})
	if err != nil {
		return nil, nil, err
	}
	strT := cat.Lookup("string").Type
	strs, err := stringPayloads(rand.New(rand.NewSource(seed)), strT, 64<<10)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	pool := make([]rpcReq, len(tr.Records))
	for i, rec := range tr.Records {
		e := cat.Lookup(rec.Schema)
		payload := e.SamplePayload(rec.Sample)
		if rec.Schema == "string" {
			payload = strs[rng.Intn(len(strs))]
		}
		if pool[i], err = newRPCReq(e.Type, rec.Schema, rec.Op, payload); err != nil {
			return nil, nil, err
		}
	}
	pick := func(rng *rand.Rand) func(int) int {
		off := rng.Intn(len(pool))
		return func(n int) int { return (off + n) % len(pool) }
	}
	return pool, pick, nil
}

// doer is the client call every RPC target makes: serve.Conn,
// cluster.Balancer and serve.InProc all have it.
type doer interface {
	Do(serve.Request) (serve.Response, error)
}

// rpcTarget sends pool entries round-robin over its clients and checks
// every OK response against the canonical bytes.
type rpcTarget struct {
	pool    []rpcReq
	clients []doer
	next    atomic.Uint64
}

func (t *rpcTarget) do(idx int) outcome {
	r := &t.pool[idx]
	c := t.clients[t.next.Add(1)%uint64(len(t.clients))]
	resp, err := c.Do(serve.Request{Op: r.op, Schema: r.schema, Timeout: reqTimeout, Payload: r.payload})
	return classify(resp, err, r.want)
}

func classify(resp serve.Response, err error, want []byte) outcome {
	switch {
	case errors.Is(err, serve.ErrTimeout):
		return timeoutOutcome
	case err != nil:
		return transportOutcome
	case resp.Status != serve.StatusOK:
		return statusOutcome
	case !bytes.Equal(resp.Payload, want):
		return mismatchOutcome
	}
	return okOutcome
}

// dialConns opens n multiplexed connections to addr.
func dialConns(addr string, n int) ([]doer, func(), error) {
	var cs []*serve.Conn
	closeAll := func() {
		for _, c := range cs {
			c.Close()
		}
	}
	for i := 0; i < n; i++ {
		c, err := serve.DialWith(addr, serve.DialOptions{Timeout: clientWait})
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		cs = append(cs, c)
	}
	out := make([]doer, len(cs))
	for i, c := range cs {
		out[i] = c
	}
	return out, closeAll, nil
}

// newBalancer builds the fleet-pool client: p2c routing over the daemons
// with hedging and health polling off, one connection per node.
func newBalancer(ds []*daemon) (*cluster.Balancer, error) {
	var addrs []string
	for _, d := range ds {
		addrs = append(addrs, d.addr)
	}
	return cluster.New(cluster.Options{
		Addrs:   addrs,
		Routing: serve.RoutePowerOfTwo,
		Dial:    serve.DialOptions{Timeout: clientWait},
	})
}
