package exchange

import (
	"sync"
	"sync/atomic"

	"fmore/internal/admission"
)

// NodeInfo is one registered edge node. The mutable fields are atomics so
// the hot bid-admission path (lookup → blacklist check → bid count) takes
// no lock at all.
type NodeInfo struct {
	// ID is the node's identifier, unique exchange-wide.
	ID int

	meta        atomic.Pointer[string]
	bids        atomic.Int64
	blacklisted atomic.Bool
	// admit is the node's private admission bucket, minted lazily on its
	// first admission-checked bid. Hanging it off the registry entry keeps
	// the hot path allocation-free (a pointer load) and bounds limiter
	// memory by the registry's own size — no separate keyed map to shard,
	// expire, or box int keys into.
	admit atomic.Pointer[admission.Bucket]
}

// admitBucket returns the node's private admission bucket, minting it on
// first use. Racing minters CAS and converge on one bucket; the loser's
// throwaway bucket was never observed, so token accounting stays exact.
// Returns nil (unlimited) when the controller has no node-level limit.
func (n *NodeInfo) admitBucket(c *admission.Controller) *admission.Bucket {
	if b := n.admit.Load(); b != nil {
		return b
	}
	b := c.NewNodeBucket()
	if b == nil {
		return nil
	}
	if n.admit.CompareAndSwap(nil, b) {
		return b
	}
	return n.admit.Load()
}

// Meta returns the node's opaque caller label (address, capability string,
// ...), empty if never set.
func (n *NodeInfo) Meta() string {
	if p := n.meta.Load(); p != nil {
		return *p
	}
	return ""
}

// Bids returns how many of the node's accepted bids are in closed rounds or
// in the rounds still collecting (a job's removal takes its round's back).
func (n *NodeInfo) Bids() int64 { return n.bids.Load() }

// Blacklisted reports whether the node has been banned (contract breach).
func (n *NodeInfo) Blacklisted() bool { return n.blacklisted.Load() }

// Registry is the node directory of the exchange: one open-addressed table,
// published through an atomic pointer, that readers probe without a lock
// and without writing. All methods are safe for concurrent use. Outside
// the package it is read-only: the exchange writes it only through its
// logged mutations (RegisterNode, BlacklistNode) and replay.
type Registry struct {
	table atomic.Pointer[regTable]
	mu    sync.Mutex // serializes inserts, once per node lifetime
	size  atomic.Int64
}

// regTable is one published generation of the registry: a power-of-two
// number of slots, at most half of them filled. A slot is written once,
// from nil to its node, and never emptied, so a nil slot ends every probe.
type regTable []atomic.Pointer[NodeInfo]

// newRegistry returns an empty registry of 64 slots.
func newRegistry() *Registry {
	r, t := &Registry{}, make(regTable, 64)
	r.table.Store(&t)
	return r
}

// find probes linearly from id's Fibonacci home slot. It returns the node,
// or nil and the empty slot that ended the probe.
func (t regTable) find(id int) (*NodeInfo, int) {
	for i := homeSlot(id, len(t)); ; i = (i + 1) & (len(t) - 1) {
		if n := t[i].Load(); n == nil || n.ID == id {
			return n, i
		}
	}
}

// register adds the node if absent and returns its info record. A
// non-empty meta always updates the record (last non-empty write wins), so
// a node that auto-registered through a bare bid can later be labeled via
// POST /nodes.
//
// Inserting re-probes under mu, publishes a doubled copy of the table before
// the load would pass one half, and fills the empty slot atomically.
func (r *Registry) register(id int, meta string) (info *NodeInfo) {
	if info, _ = r.table.Load().find(id); info == nil {
		r.mu.Lock()
		t := *r.table.Load()
		var slot int
		if info, slot = t.find(id); info == nil {
			if 2*(r.Len()+1) > len(t) {
				g := make(regTable, 2*len(t))
				for i := range t {
					if n := t[i].Load(); n != nil {
						_, s := g.find(n.ID)
						g[s].Store(n)
					}
				}
				t = g
				r.table.Store(&t)
				_, slot = t.find(id)
			}
			info = &NodeInfo{ID: id}
			t[slot].Store(info)
			r.size.Add(1)
		}
		r.mu.Unlock()
	}
	if meta != "" {
		info.meta.Store(&meta)
	}
	return info
}

// Lookup resolves a node without write intent.
func (r *Registry) Lookup(id int) (*NodeInfo, bool) {
	info, _ := r.table.Load().find(id)
	return info, info != nil
}

// Len returns the registered-node count without taking any lock.
func (r *Registry) Len() int { return int(r.size.Load()) }

// restore reinstates a node exactly as a WAL snapshot captured it: meta,
// accepted-bid counter and ban flag. Replay-only — it runs single-threaded
// before the exchange is reachable, and tail records replayed afterwards
// (re-registrations, bans, per-round bid counts) layer on top of it.
func (r *Registry) restore(id int, meta string, bids int64, banned bool) {
	info := r.register(id, meta)
	info.bids.Store(bids)
	info.blacklisted.Store(banned)
}

// Range calls fn for every registered node until fn returns false. It
// walks one loaded table without a lock: every node registered before the
// call is visited exactly once, one registered meanwhile may or may not be.
func (r *Registry) Range(fn func(*NodeInfo) bool) {
	t := *r.table.Load()
	for i := range t {
		if n := t[i].Load(); n != nil && !fn(n) {
			return
		}
	}
}
