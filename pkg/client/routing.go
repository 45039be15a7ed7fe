package client

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"fmore/internal/partition"
	"fmore/pkg/api"
)

type (
	// PartitionReplica is one partition → replica assignment of the
	// cluster map, as served by GET /v1/cluster/partitions.
	PartitionReplica = partition.Replica
	// ClusterPartitions is the cluster's partition map: which exchange
	// replica owns which partition, under which map version (plus Local,
	// the partition served by the replica that answered the fetch).
	ClusterPartitions = partition.Document
)

// ClusterPartitionsMap fetches the exchange's partition map without changing
// the client's routing state. An unpartitioned exchange answers
// CodeNotFound.
func (c *Client) ClusterPartitionsMap(ctx context.Context) (ClusterPartitions, error) {
	var cp ClusterPartitions
	err := c.do(ctx, request{route: api.GetPartitions, out: &cp, retry: true})
	return cp, err
}

// EnableRouting fetches the cluster partition map from the client's base URL
// and turns on SDK-side routing: every per-job call is sent directly to the
// replica owning the job under rendezvous hashing, falling back through the
// base URL (typically the router) when a replica is unreachable. A
// wrong_partition response is re-aimed once, transparently, whether or not
// routing is on (see send) — refreshing the map as it does, so a map
// version bump converges after a single misroute. Idempotency keys make
// the redo of a redirected POST exactly-once.
//
// Against an unpartitioned exchange the fetch 404s; routing simply stays off
// and EnableRouting returns nil, so callers can enable it unconditionally.
func (c *Client) EnableRouting(ctx context.Context) error {
	err := c.RefreshPartitions(ctx)
	var ae *APIError
	if errors.As(err, &ae) && ae.Status == 404 {
		return nil
	}
	return err
}

// RefreshPartitions re-fetches the cluster map and installs it if strictly
// newer than the one the client routes by (the map version is monotone; a
// concurrent refresh can never roll routing back).
func (c *Client) RefreshPartitions(ctx context.Context) error {
	cp, err := c.ClusterPartitionsMap(ctx)
	if err != nil {
		return err
	}
	m, err := cp.Map()
	if err != nil {
		return fmt.Errorf("client: invalid partition map: %w", err)
	}
	c.routes.Advance(m)
	return nil
}

// RoutingVersion returns the version of the partition map the client routes
// by, or 0 when routing is off.
func (c *Client) RoutingVersion() int64 {
	if m := c.routes.Load(); m != nil {
		return m.Version
	}
	return 0
}

// routedBase picks the base URL for a call of route on id: the replica
// owning the job when the route is job-scoped and routing is on, the
// client's own base otherwise.
func (c *Client) routedBase(route api.Route, id string) string {
	if (route.Scope == api.JobPath || route.Scope == api.JobBody) && id != "" {
		if owner, ok := c.routes.Load().Owner(id); ok {
			return strings.TrimRight(owner.URL, "/")
		}
	}
	return c.base
}
