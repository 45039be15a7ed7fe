package admission

import (
	"sync"
	"sync/atomic"
	"time"
)

// Scope names the admission level that shed a request. The values double as
// the Prometheus `reason` label of admission_shed_total.
type Scope string

// Shed scopes, outermost first: the hierarchy is checked global → node →
// job, and the in-flight gate fronts the whole HTTP handler.
const (
	ScopeGlobal   Scope = "global"
	ScopeNode     Scope = "node"
	ScopeJob      Scope = "job"
	ScopeInflight Scope = "inflight"
)

// inflightRetryHint is the retry_after handed out when the in-flight gate
// sheds: slots free as fast as requests complete, so the hint is short.
const inflightRetryHint = 10 * time.Millisecond

// defaultOverloadWindow is how long after the most recent shed the
// controller keeps reporting overloaded on /v1/healthz, so probers see a
// stable signal instead of a flapping one.
const defaultOverloadWindow = time.Second

// Config sizes a Controller. Zero rates/limits mean "unlimited" at that
// level, so a Config only constrains the levels the operator asked for.
type Config struct {
	// GlobalRate / GlobalBurst bound total bid admissions per second across
	// the whole exchange.
	GlobalRate  float64
	GlobalBurst int
	// NodeRate / NodeBurst bound each node's bid rate. Registered nodes get
	// a private bucket (attached to the registry entry); nodes bidding
	// before registration share one bucket, which also throttles
	// registration-spray abuse.
	NodeRate  float64
	NodeBurst int
	// JobRate / JobBurst bound each job's intake rate.
	JobRate  float64
	JobBurst int
	// MaxInflight caps concurrently executing bid-submit requests; excess
	// requests are shed before their body is read.
	MaxInflight int64
	// MaxStreams caps concurrent SSE subscribers; at the cap the oldest
	// stream is evicted (its context canceled) to make room — newest wins.
	MaxStreams int
	// Now overrides the clock (tests). Defaults to time.Now.
	Now func() time.Time
}

// Controller is the admission authority for one exchange: it owns the
// global bucket, mints the per-node and per-job buckets, gates request
// concurrency and SSE subscriptions, and aggregates shed accounting. All
// hot-path methods are lock-free and allocation-free; only the SSE
// registry takes a (stream-lifecycle-rate) mutex.
type Controller struct {
	cfg    Config
	global *Bucket
	shared *Bucket // one bucket shared by all not-yet-registered nodes

	// Clock. Reading the OS clock per admitted bid is the single largest
	// cost the controller could add to the submit hot path, so AdmitBid
	// runs on cachedNow — refreshed only when a bucket rejects. A stale
	// clock is conservative for GCRA (it can only under-admit, never
	// over-admit: the TAT advances per admission regardless of now), and
	// the refresh-on-reject means every shed decision and retry hint is
	// computed against the real clock. With the default clock, nowNano
	// reads the monotonic elapsed time since construction instead of
	// calling through the cfg.Now func value.
	monotonic bool
	base      time.Time
	cachedNow atomic.Int64

	inflight atomic.Int64
	lastShed atomic.Int64 // controller-clock nanos of the most recent shed, 0 = never

	shedGlobal   atomic.Int64
	shedNode     atomic.Int64
	shedJob      atomic.Int64
	shedInflight atomic.Int64
	sseEvicted   atomic.Int64

	mu      sync.Mutex
	oldest  *stream // FIFO eviction order: oldest ← … ← newest
	newest  *stream
	streams int
}

// stream is one SSE subscription in the controller's FIFO eviction list.
type stream struct {
	evict      func()
	prev, next *stream
	inList     bool
}

// NewController builds a Controller from cfg. It never returns nil; a
// zero Config yields a controller that admits everything but still counts
// in-flight requests and serves healthz stats.
func NewController(cfg Config) *Controller {
	c := &Controller{
		cfg:    cfg,
		global: NewBucket(cfg.GlobalRate, cfg.GlobalBurst),
		shared: NewBucket(cfg.NodeRate, cfg.NodeBurst),
	}
	if cfg.Now == nil {
		c.monotonic = true
		c.base = time.Now()
	}
	c.cachedNow.Store(c.nowNano())
	return c
}

// nowNano reads the controller's clock: monotonic elapsed nanos since
// construction by default (one runtime nanotime read, no func-value call),
// or the injected cfg.Now for tests. The +1 keeps the very first reading
// nonzero so lastShed's 0-means-never sentinel holds.
func (c *Controller) nowNano() int64 {
	if c.monotonic {
		return int64(time.Since(c.base)) + 1
	}
	return c.cfg.Now().UnixNano()
}

// refreshNow re-reads the clock and publishes it to the admission fast
// path.
func (c *Controller) refreshNow() int64 {
	n := c.nowNano()
	c.cachedNow.Store(n)
	return n
}

// NewNodeBucket mints a private per-node bucket (nil when the node level
// is unlimited or the controller is nil). The caller owns attaching it to
// the node's registry entry.
func (c *Controller) NewNodeBucket() *Bucket {
	if c == nil {
		return nil
	}
	return NewBucket(c.cfg.NodeRate, c.cfg.NodeBurst)
}

// NewJobBucket mints a private per-job bucket (nil when unlimited).
func (c *Controller) NewJobBucket() *Bucket {
	if c == nil {
		return nil
	}
	return NewBucket(c.cfg.JobRate, c.cfg.JobBurst)
}

// UnregisteredBucket returns the bucket shared by all nodes that have no
// registry entry yet.
func (c *Controller) UnregisteredBucket() *Bucket {
	if c == nil {
		return nil
	}
	return c.shared
}

// AdmitBid runs one bid through the hierarchy: global, then the node's
// bucket, then the job's. Each level consumes independently, so under
// overload an outer level may spend a token on a bid an inner level sheds;
// the waste is bounded by the inner level's rate and keeps the check
// lock-free. nil buckets are unlimited levels.
//
// The check first runs against the cached clock; a rejection under a stale
// clock triggers one real clock read and a retry of that level, so steady
// headroom costs no clock reads at all while every actual shed (and its
// retry hint) is judged against fresh time.
func (c *Controller) AdmitBid(node, job *Bucket) (ok bool, scope Scope, retryAfter time.Duration) {
	if c == nil {
		return true, "", 0
	}
	now := c.cachedNow.Load()
	fresh := false
	ok, retry := c.global.Allow(now)
	if !ok {
		now, fresh = c.refreshNow(), true
		ok, retry = c.global.Allow(now)
	}
	if !ok {
		c.shedGlobal.Add(1)
		c.noteShed(now)
		return false, ScopeGlobal, retry
	}
	if ok, retry = node.Allow(now); !ok {
		if !fresh {
			now, fresh = c.refreshNow(), true
			ok, retry = node.Allow(now)
		}
		if !ok {
			c.shedNode.Add(1)
			c.noteShed(now)
			return false, ScopeNode, retry
		}
	}
	if ok, retry = job.Allow(now); !ok {
		if !fresh {
			now = c.refreshNow()
			ok, retry = job.Allow(now)
		}
		if !ok {
			c.shedJob.Add(1)
			c.noteShed(now)
			return false, ScopeJob, retry
		}
	}
	return true, "", 0
}

// BeginRequest claims an in-flight slot for one bid-submit request; the
// caller must pair an admitted claim with EndRequest. Shed requests are the
// cheapest possible 429: no body read, no idempotency claim.
func (c *Controller) BeginRequest() (ok bool, retryAfter time.Duration) {
	if c == nil {
		return true, 0
	}
	n := c.inflight.Add(1)
	if max := c.cfg.MaxInflight; max > 0 && n > max {
		c.inflight.Add(-1)
		c.shedInflight.Add(1)
		c.noteShed(c.nowNano())
		return false, inflightRetryHint
	}
	return true, 0
}

// EndRequest releases the slot claimed by an admitted BeginRequest.
func (c *Controller) EndRequest() {
	if c != nil {
		c.inflight.Add(-1)
	}
}

// AcquireStream registers one SSE subscription. When the stream cap is
// reached the OLDEST registered stream is evicted — its evict callback
// (typically a context cancel) runs on the caller's goroutine — so new
// subscribers always get in. The returned release must be called when the
// stream ends; it is idempotent against a concurrent eviction.
func (c *Controller) AcquireStream(evict func()) (release func()) {
	if c == nil || c.cfg.MaxStreams <= 0 {
		return func() {}
	}
	s := &stream{evict: evict, inList: true}
	var victim *stream
	c.mu.Lock()
	if c.streams >= c.cfg.MaxStreams && c.oldest != nil {
		victim = c.oldest
		c.removeLocked(victim)
	}
	// Append at the newest end.
	s.prev = c.newest
	if c.newest != nil {
		c.newest.next = s
	} else {
		c.oldest = s
	}
	c.newest = s
	c.streams++
	c.mu.Unlock()
	if victim != nil {
		c.sseEvicted.Add(1)
		victim.evict()
	}
	return func() {
		c.mu.Lock()
		c.removeLocked(s)
		c.mu.Unlock()
	}
}

// removeLocked unlinks s if it is still registered.
func (c *Controller) removeLocked(s *stream) {
	if !s.inList {
		return
	}
	s.inList = false
	if s.prev != nil {
		s.prev.next = s.next
	} else {
		c.oldest = s.next
	}
	if s.next != nil {
		s.next.prev = s.prev
	} else {
		c.newest = s.prev
	}
	s.prev, s.next = nil, nil
	c.streams--
}

// noteShed stamps the overload clock.
func (c *Controller) noteShed(now int64) { c.lastShed.Store(now) }

// Overloaded reports whether the exchange should advertise overload to
// health probers: either the in-flight gate is saturated right now, or a
// shed happened within the overload window. The returned hint is the
// retry_after_ms to serve alongside a 503.
func (c *Controller) Overloaded() (bool, time.Duration) {
	if c == nil {
		return false, 0
	}
	if max := c.cfg.MaxInflight; max > 0 && c.inflight.Load() >= max {
		return true, inflightRetryHint
	}
	if last := c.lastShed.Load(); last > 0 {
		if rem := int64(defaultOverloadWindow) - (c.nowNano() - last); rem > 0 {
			return true, time.Duration(rem)
		}
	}
	return false, 0
}

// Stats is a point-in-time snapshot of the controller's accounting.
type Stats struct {
	Overloaded   bool
	RetryAfter   time.Duration
	Inflight     int64
	ShedGlobal   int64
	ShedNode     int64
	ShedJob      int64
	ShedInflight int64
	SSEActive    int64
	SSEEvicted   int64
}

// ShedTotal sums the sheds across every scope.
func (s Stats) ShedTotal() int64 {
	return s.ShedGlobal + s.ShedNode + s.ShedJob + s.ShedInflight
}

// Stats snapshots the controller.
func (c *Controller) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	over, retry := c.Overloaded()
	c.mu.Lock()
	active := int64(c.streams)
	c.mu.Unlock()
	return Stats{
		Overloaded:   over,
		RetryAfter:   retry,
		Inflight:     c.inflight.Load(),
		ShedGlobal:   c.shedGlobal.Load(),
		ShedNode:     c.shedNode.Load(),
		ShedJob:      c.shedJob.Load(),
		ShedInflight: c.shedInflight.Load(),
		SSEActive:    active,
		SSEEvicted:   c.sseEvicted.Load(),
	}
}
