package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"polytm/internal/repl"
	"polytm/internal/wire"
)

// maxHops bounds one write's redirect/failover chain: how many
// endpoints it may try before giving up.
const maxHops = 6

// endpoint is one server in the set: its address and a lazily dialed
// pooled client.
type endpoint struct {
	addr string
	mu   sync.Mutex
	cl   *Client
}

// client returns the endpoint's pooled client, dialing on first use
// and after a drop.
func (e *endpoint) client(opts []Option) (*Client, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cl != nil {
		return e.cl, nil
	}
	cl, err := Dial(e.addr, opts...)
	if err != nil {
		return nil, err
	}
	e.cl = cl
	return cl, nil
}

// drop discards the endpoint's client (it re-dials on next use).
func (e *endpoint) drop() {
	e.mu.Lock()
	cl := e.cl
	e.cl = nil
	e.mu.Unlock()
	if cl != nil {
		cl.Close()
	}
}

// ReplicaSet is a topology-aware client over one primary and any
// number of follower replicas. It serves Client's typed operations —
// the same code (ops), over a transport that routes by opcode:
//
//   - snapshot-class reads (GET/MGET/SCAN) load-balance round-robin
//     across the replicas, falling back to the primary when a replica
//     is down (or none are configured);
//   - everything else pins to the primary. A *wire.NotPrimaryError
//     redirect is followed to the address it names; a transport error
//     triggers failover — the set walks its known endpoints with
//     backoff until one accepts the request (a promoted follower) —
//     both bounded by maxHops.
//
// The consistency contract matches the server's: replica reads are
// prefix-consistent snapshots (possibly slightly stale), exactly what
// snapshot/weak semantics already promise on the primary.
type ReplicaSet struct {
	ops  // the typed operations, over route
	opts []Option

	mu        sync.Mutex
	endpoints []*endpoint // endpoints[primary] is the current write target
	primary   int

	rr atomic.Uint64 // replica round-robin cursor

	failovers atomic.Uint64 // primary re-points observed by this client
}

// DialReplicaSet creates a set over the primary and its replicas. Only
// the primary is dialed eagerly; replicas dial on first read (a
// replica that is down just shifts reads to the others, or the
// primary). When the set has replicas, an unreachable primary does NOT
// fail the dial — the cluster may have failed over before this client
// started, so the first write probes the ring for the new primary
// instead. Every endpoint's pooled client is dialed with opts.
func DialReplicaSet(primary string, replicas []string, opts ...Option) (*ReplicaSet, error) {
	rs := &ReplicaSet{opts: opts}
	rs.send = rs.route
	rs.endpoints = append(rs.endpoints, &endpoint{addr: primary})
	for _, r := range replicas {
		if r == "" || r == primary {
			continue
		}
		rs.endpoints = append(rs.endpoints, &endpoint{addr: r})
	}
	if _, err := rs.endpoints[0].client(opts); err != nil {
		if len(rs.endpoints) == 1 {
			return nil, err
		}
		// Leave the dead primary registered: reads already route to the
		// replicas, and the write hop loop rotates past it (following a
		// NotPrimary redirect if a replica knows who leads now).
	}
	return rs, nil
}

// Close closes every dialed endpoint.
func (rs *ReplicaSet) Close() error {
	rs.mu.Lock()
	eps := append([]*endpoint(nil), rs.endpoints...)
	rs.mu.Unlock()
	for _, e := range eps {
		e.drop()
	}
	return nil
}

// PrimaryAddr returns the current write target's address.
func (rs *ReplicaSet) PrimaryAddr() string {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.endpoints[rs.primary].addr
}

// Failovers reports how many times this client re-pointed its primary.
func (rs *ReplicaSet) Failovers() uint64 { return rs.failovers.Load() }

// primaryEndpoint returns the current write target.
func (rs *ReplicaSet) primaryEndpoint() *endpoint {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.endpoints[rs.primary]
}

// setPrimary re-points the write target at addr, registering the
// address if it is new (a redirect may name an endpoint the set was
// never configured with).
func (rs *ReplicaSet) setPrimary(addr string) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for i, e := range rs.endpoints {
		if e.addr == addr {
			if rs.primary != i {
				rs.primary = i
				rs.failovers.Add(1)
			}
			return
		}
	}
	rs.endpoints = append(rs.endpoints, &endpoint{addr: addr})
	rs.primary = len(rs.endpoints) - 1
	rs.failovers.Add(1)
}

// advancePrimary rotates the write target to the next known endpoint
// (failover probing when no redirect address is available).
func (rs *ReplicaSet) advancePrimary(from *endpoint) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.endpoints[rs.primary] != from {
		return // someone else already moved it
	}
	rs.primary = (rs.primary + 1) % len(rs.endpoints)
	rs.failovers.Add(1)
}

// nextReplica returns the next read endpoint round-robin, preferring
// non-primary endpoints; nil when the set has no replicas.
func (rs *ReplicaSet) nextReplica() *endpoint {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	n := len(rs.endpoints)
	if n <= 1 {
		return nil
	}
	// n-1 non-primary endpoints; pick by cursor, skipping the primary.
	k := int(rs.rr.Add(1)-1) % (n - 1)
	for i, j := 0, 0; i < n; i++ {
		if i == rs.primary {
			continue
		}
		if j == k {
			return rs.endpoints[i]
		}
		j++
	}
	return nil
}

// route is the set's transport: the opcodes a follower may answer go to
// a replica, every other to the primary.
func (rs *ReplicaSet) route(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	switch req.Op {
	case wire.OpGet, wire.OpMGet, wire.OpScan:
		return rs.read(ctx, req)
	}
	return rs.write(ctx, req)
}

// write sends one request to the primary, following
// NotPrimary redirects and failing over past dead endpoints, bounded
// by maxHops.
func (rs *ReplicaSet) write(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	var lastErr error
	for hop := 0; hop < maxHops; hop++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ep := rs.primaryEndpoint()
		cl, err := ep.client(rs.opts)
		if err == nil {
			var resp *wire.Response
			resp, err = cl.roundTrip(ctx, req)
			if err == nil {
				var np *wire.NotPrimaryError
				if err := resp.Err(); errors.As(err, &np) {
					// The follower told us who leads: go there. With no
					// address (promotion in progress), probe the ring.
					if np.Primary != "" {
						rs.setPrimary(np.Primary)
					} else {
						rs.advancePrimary(ep)
					}
					lastErr = np
					continue
				}
				return resp, nil
			}
		}
		// Dial or transport failure: this endpoint is gone; drop its
		// pool, rotate, and back off before the next candidate.
		lastErr = err
		ep.drop()
		rs.advancePrimary(ep)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(repl.Backoff{Min: 50 * time.Millisecond, Max: time.Second}.Delay(hop)):
		}
	}
	return nil, fmt.Errorf("client: no reachable primary after %d attempts: %w", maxHops, lastErr)
}

// read sends one snapshot-class request to a replica (round-robin),
// falling back to the primary when the replica fails or none exist.
func (rs *ReplicaSet) read(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	if ep := rs.nextReplica(); ep != nil {
		if cl, err := ep.client(rs.opts); err == nil {
			if resp, err := cl.roundTrip(ctx, req); err == nil {
				return resp, nil
			}
			ep.drop()
		}
	}
	ep := rs.primaryEndpoint()
	cl, err := ep.client(rs.opts)
	if err != nil {
		return nil, err
	}
	return cl.roundTrip(ctx, req)
}
