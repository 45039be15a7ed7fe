// Package partition defines the exchange cluster's partition map: a
// versioned assignment of partitions to replica base URLs with rendezvous
// (highest-random-weight) hashing of job IDs onto partitions.
//
// The map is the single routing truth shared by every layer of a
// partitioned deployment: each exchange replica embeds it to reject jobs it
// does not own (the wrong_partition error carries the owner's URL),
// cmd/fmore-router consults it to forward requests, and pkg/client fetches
// it from GET /v1/cluster/partitions to route per-job calls directly.
//
// Who refreshes, from whom, how often: nobody polls. A consumer (router or
// SDK) holds a Routes; after its first map (the router's -replicas flag,
// the SDK's EnableRouting) it fetches again only when a replica refuses one
// of its requests with wrong_partition — inside that request, from the
// refuser, one fetch in flight at a time (Routes.Reaim) — and, in the SDK,
// on a durability_lost answer, from its base URL.
//
// Rendezvous hashing was chosen over a ring: with P partitions the owner of
// a job is argmax over partitions of h(partition, job), so adding or
// removing one partition moves only the jobs that hash highest to it —
// 1/P of the keyspace — with no virtual-node bookkeeping. Ownership depends
// only on the partition ID set, never on map order or replica URLs, so a
// URL change (replica moved hosts) re-routes nothing.
//
// The map is static for now and versioned from day one: Version is bumped
// by whoever distributes a new map, Handle swaps it atomically, and every
// consumer treats a higher version as strictly newer. Leader handoff and
// live rebalancing build on exactly this substrate.
package partition

import (
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"sort"
	"strings"
	"sync/atomic"
)

// Replica is one partition → replica assignment of the cluster map.
type Replica struct {
	// Partition names the partition (e.g. "p0"). IDs are unique within a
	// map and participate in the rendezvous hash, so renaming a partition
	// reassigns its jobs.
	Partition string `json:"partition"`
	// URL is the base URL of the exchange replica serving the partition
	// (scheme://host:port, no /v1 suffix).
	URL string `json:"url"`
}

// Map is the versioned cluster topology: which replica owns which
// partition. A Map is immutable once published — swap a new value through a
// Handle instead of mutating in place.
type Map struct {
	// Version orders maps: consumers replace their copy only with a
	// strictly newer one.
	Version int64 `json:"version"`
	// Partitions is the full assignment. Owner ignores its order.
	Partitions []Replica `json:"partitions"`
}

// Validate checks the map is routable: at least one partition, unique
// non-empty partition IDs, and absolute http(s) base URLs.
func (m *Map) Validate() error {
	if m == nil || len(m.Partitions) == 0 {
		return fmt.Errorf("partition: map has no partitions")
	}
	if m.Version < 1 {
		return fmt.Errorf("partition: map version %d (want >= 1)", m.Version)
	}
	seen := make(map[string]struct{}, len(m.Partitions))
	for _, r := range m.Partitions {
		if r.Partition == "" {
			return fmt.Errorf("partition: empty partition id")
		}
		// '"' and '\' would need escaping inside a Prometheus label value.
		if strings.ContainsAny(r.Partition, "=, \t\n/\"\\") {
			return fmt.Errorf("partition: id %q contains a reserved character", r.Partition)
		}
		if _, dup := seen[r.Partition]; dup {
			return fmt.Errorf("partition: duplicate partition %q", r.Partition)
		}
		seen[r.Partition] = struct{}{}
		if !absoluteHTTP(r.URL) {
			return fmt.Errorf("partition: %s: url %q must be absolute http(s)", r.Partition, r.URL)
		}
	}
	return nil
}

// Document is the GET /v1/cluster/partitions payload: a replica's current
// cluster map plus the partition that replica serves. Every replica serves
// the same map; routers and SDKs fetch it (Routes.Refresh) and advance
// their Handle when Version increases.
type Document struct {
	Version int64 `json:"version"`
	// Local is the partition served by the replica that answered.
	Local      string    `json:"local"`
	Partitions []Replica `json:"partitions"`
}

// Map returns the validated routing map the document carries.
func (d Document) Map() (*Map, error) {
	m := &Map{Version: d.Version, Partitions: d.Partitions}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeMap reads one Document from r and returns its validated Map.
func DecodeMap(r io.Reader) (*Map, error) {
	var d Document
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("partition: decoding map document: %w", err)
	}
	return d.Map()
}

// Misdirect is the routing part of a wrong_partition (421) error envelope:
// the partition owning the job under the refusing replica's map, that
// partition's replica base URL, and the map version behind the verdict — so
// routers and SDKs retry against the right box without a second map fetch.
type Misdirect struct {
	Partition  string `json:"partition,omitempty"`
	ReplicaURL string `json:"replica_url,omitempty"`
	MapVersion int64  `json:"map_version,omitempty"`
}

// absoluteHTTP reports whether raw is an absolute http(s) URL with a host —
// the only kind of replica address a map or a 421 envelope may name.
func absoluteHTTP(raw string) bool {
	u, err := url.Parse(raw)
	return err == nil && (u.Scheme == "http" || u.Scheme == "https") && u.Host != ""
}

// Owner returns the replica owning jobID under rendezvous hashing: the
// partition with the highest h(partition, jobID). Deterministic for a fixed
// partition ID set, independent of map order; ties (astronomically
// unlikely) break toward the lexically smaller partition ID so every
// consumer agrees. ok is false only on an empty map.
func (m *Map) Owner(jobID string) (Replica, bool) {
	if m == nil || len(m.Partitions) == 0 {
		return Replica{}, false
	}
	best := 0
	bestHash := rendezvousHash(m.Partitions[0].Partition, jobID)
	for i := 1; i < len(m.Partitions); i++ {
		h := rendezvousHash(m.Partitions[i].Partition, jobID)
		if h > bestHash || (h == bestHash && m.Partitions[i].Partition < m.Partitions[best].Partition) {
			best, bestHash = i, h
		}
	}
	return m.Partitions[best], true
}

// Owns reports whether the named partition owns jobID under this map.
func (m *Map) Owns(partitionID, jobID string) bool {
	owner, ok := m.Owner(jobID)
	return ok && owner.Partition == partitionID
}

// Lookup resolves a partition ID to its replica.
func (m *Map) Lookup(partitionID string) (Replica, bool) {
	if m == nil {
		return Replica{}, false
	}
	for _, r := range m.Partitions {
		if r.Partition == partitionID {
			return r, true
		}
	}
	return Replica{}, false
}

// Default returns the map's default replica — the lexically smallest
// partition ID — the stable target for requests that are not job-scoped
// (listings, registry writes without fan-out, metrics).
func (m *Map) Default() (Replica, bool) {
	if m == nil || len(m.Partitions) == 0 {
		return Replica{}, false
	}
	best := 0
	for i := 1; i < len(m.Partitions); i++ {
		if m.Partitions[i].Partition < m.Partitions[best].Partition {
			best = i
		}
	}
	return m.Partitions[best], true
}

// Spec renders the map's assignment in the flag form Parse accepts
// (partitions in lexical order; the version is carried separately).
func (m *Map) Spec() string {
	parts := make([]string, len(m.Partitions))
	for i, r := range m.Partitions {
		parts[i] = r.Partition + "=" + r.URL
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// rendezvousHash is a 64-bit FNV-1a over partition \x00 job. Hand-rolled
// (no hash/fnv allocation, no []byte conversion) because the exchange runs
// it once per request on the ownership check.
func rendezvousHash(partitionID, jobID string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(partitionID); i++ {
		h ^= uint64(partitionID[i])
		h *= prime64
	}
	h ^= 0 // the separator byte keeps ("ab","c") and ("a","bc") distinct
	h *= prime64
	for i := 0; i < len(jobID); i++ {
		h ^= uint64(jobID[i])
		h *= prime64
	}
	return h
}

// Parse builds a version-1 map from the comma-separated flag form
// "p0=http://host:port,p1=http://host:port".
func Parse(spec string) (*Map, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("partition: empty map spec")
	}
	m := &Map{Version: 1}
	for _, ent := range strings.Split(spec, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		id, u, ok := strings.Cut(ent, "=")
		if !ok {
			return nil, fmt.Errorf("partition: bad map entry %q (want partition=url)", ent)
		}
		m.Partitions = append(m.Partitions, Replica{Partition: strings.TrimSpace(id), URL: strings.TrimSpace(u)})
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Handle is an atomically swappable reference to the current Map. The
// exchange's per-request ownership check is one Handle.Load — the hot path
// never takes a lock or copies the map.
type Handle struct {
	p atomic.Pointer[Map]
}

// NewHandle returns a handle holding m (which may be nil).
func NewHandle(m *Map) *Handle {
	h := &Handle{}
	if m != nil {
		h.p.Store(m)
	}
	return h
}

// Load returns the current map (nil before the first Store).
func (h *Handle) Load() *Map { return h.p.Load() }

// Store publishes m unconditionally.
func (h *Handle) Store(m *Map) { h.p.Store(m) }

// Advance publishes m only if it is strictly newer than the current map,
// and reports whether it was installed. Concurrent refreshers can race
// without ever rolling the handle back to an older version.
func (h *Handle) Advance(m *Map) bool {
	for {
		cur := h.p.Load()
		if cur != nil && m.Version <= cur.Version {
			return false
		}
		if h.p.CompareAndSwap(cur, m) {
			return true
		}
	}
}

// Assignment scopes one exchange replica to its partition of the cluster:
// Local names the partition this replica serves and Map is the live
// cluster map the replica embeds (and serves from /v1/cluster/partitions).
type Assignment struct {
	// Local is the partition this replica owns.
	Local string
	// Map is the shared handle; swapping a newer map through it re-routes
	// without restarting the replica.
	Map *Handle
}

// Validate checks the assignment names a partition present in its map.
func (a *Assignment) Validate() error {
	if a.Local == "" {
		return fmt.Errorf("partition: assignment has no local partition")
	}
	if a.Map == nil {
		return fmt.Errorf("partition: assignment has no map handle")
	}
	m := a.Map.Load()
	if err := m.Validate(); err != nil {
		return err
	}
	if _, ok := m.Lookup(a.Local); !ok {
		return fmt.Errorf("partition: local partition %q is not in the map", a.Local)
	}
	return nil
}

// Owns reports whether this replica owns jobID under the current map. A nil
// assignment — or one whose handle holds no map yet — owns everything (the
// unpartitioned single-process posture).
func (a *Assignment) Owns(jobID string) bool {
	if a == nil {
		return true
	}
	m := a.Map.Load()
	if m == nil {
		return true
	}
	return m.Owns(a.Local, jobID)
}

// Owner resolves jobID's owning replica under the current map.
func (a *Assignment) Owner(jobID string) (Replica, bool) {
	if a == nil {
		return Replica{}, false
	}
	return a.Map.Load().Owner(jobID)
}
