package partition

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// MapPath is where every replica serves its Document.
const MapPath = "/v1/cluster/partitions"

// CodeWrongPartition is the envelope code of a 421 refusal (pkg/api re-exports it).
const CodeWrongPartition = "wrong_partition"

// maxPeerBody bounds what is read of a peer's answer: a map of thousands of
// partitions, or any error envelope, fits with room to spare.
const maxPeerBody = 1 << 20

// refreshTimeout bounds one map fetch; it runs inside the misdirected
// request, against a replica that answered a moment ago. Tests shorten it.
var refreshTimeout = 2 * time.Second

// Transport is the upstream transport of pkg/client's default client and of
// cmd/fmore-router wherever the router's own upstream does not serve: https
// replicas, replicas behind an environment proxy, and platforms without the
// upstream's idle-connection check. It is http.DefaultTransport's settings
// with the per-host idle pool as large as the whole pool, the bounds the
// router's upstream keeps too. A consumer talks to a handful of hosts, and
// the default of two idle connections per host closes every connection
// above two as it is returned, so more than two requests in flight to one
// replica re-dial on every wave.
var Transport = func() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = t.MaxIdleConns
	return t
}()

// Routes is a consumer's routing state: the map it routes by (none yet in
// the zero value) and the re-aim rule cmd/fmore-router and pkg/client share.
type Routes struct {
	Handle
	refreshing atomic.Bool
}

// Refresh fetches the map from the replica (or router) at baseURL and
// installs it if strictly newer. Single-flight: while one fetch is out,
// other callers return nil at once and keep routing by what they have.
func (r *Routes) Refresh(ctx context.Context, hc *http.Client, baseURL string) error {
	if !r.refreshing.CompareAndSwap(false, true) {
		return nil
	}
	defer r.refreshing.Store(false)
	ctx, cancel := context.WithTimeout(ctx, refreshTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(baseURL, "/")+MapPath, nil)
	if err != nil {
		return fmt.Errorf("partition: building map request: %w", err)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("partition: fetching map: %w", err)
	}
	defer resp.Body.Close() //nolint:errcheck // read side
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("partition: fetching map from %s: HTTP %d", baseURL, resp.StatusCode)
	}
	m, err := DecodeMap(io.LimitReader(resp.Body, maxPeerBody))
	if err != nil {
		return err
	}
	r.Advance(m)
	return nil
}

// Reaim is the one re-aim rule. resp, answered by the replica at base URL
// from, is routing feedback iff its status is 421, its code wrong_partition
// and its owner an absolute http(s) URL. The refuser then executed nothing:
// Reaim consumes the body, refreshes the map from the refuser (best effort:
// a failed fetch costs the next misroute a hop, not this request) and
// returns the owner, to which the caller sends the identical request — same
// body, same Idempotency-Key — exactly once, relaying whatever comes back,
// a second 421 included. Anything else returns ok=false with resp still
// readable, for the caller to surface like any other response.
func (r *Routes) Reaim(ctx context.Context, hc *http.Client, from string, resp *http.Response) (owner Replica, ok bool) {
	if resp.StatusCode != http.StatusMisdirectedRequest {
		return Replica{}, false
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, maxPeerBody))
	var env struct {
		Code string `json:"code"`
		Misdirect
	}
	if json.Unmarshal(raw, &env) != nil || env.Code != CodeWrongPartition || !absoluteHTTP(env.ReplicaURL) {
		// Hand back what was read in front of what was not.
		resp.Body = struct {
			io.Reader
			io.Closer
		}{io.MultiReader(bytes.NewReader(raw), resp.Body), resp.Body}
		return Replica{}, false
	}
	resp.Body.Close() //nolint:errcheck // consumed
	_ = r.Refresh(ctx, hc, from)
	return Replica{Partition: env.Partition, URL: strings.TrimRight(env.ReplicaURL, "/")}, true
}
