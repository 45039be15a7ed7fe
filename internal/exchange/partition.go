package exchange

import (
	"fmt"

	"fmore/internal/partition"
)

// WrongPartitionError reports a job-scoped request that reached a replica
// whose cluster map places the job on a different replica. The HTTP layer
// renders it as 421 Misdirected Request with code wrong_partition and the
// owning replica's base URL in the envelope, which is what lets the router
// and the SDK converge in a single retry.
type WrongPartitionError struct {
	// JobID is the misrouted job.
	JobID string
	// Partition and ReplicaURL identify the owner under the replica's map.
	Partition  string
	ReplicaURL string
	// MapVersion is the version of the map that produced the verdict, so a
	// client holding a newer map can tell a stale rejection from a fresh one.
	MapVersion int64
}

func (e *WrongPartitionError) Error() string {
	return fmt.Sprintf("exchange: job %q belongs to partition %s at %s (map v%d)",
		e.JobID, e.Partition, e.ReplicaURL, e.MapVersion)
}

// Partition returns the replica's partition assignment (nil when the
// exchange runs unpartitioned).
func (ex *Exchange) Partition() *partition.Assignment { return ex.part }

// PartitionMap returns the replica's current cluster map (nil when
// unpartitioned).
func (ex *Exchange) PartitionMap() *partition.Map {
	if ex.part == nil {
		return nil
	}
	return ex.part.Map.Load()
}

// misdirected returns the *WrongPartitionError naming jobID's owner, and
// counts the refusal, when this replica is partitioned and its map places
// the job elsewhere; nil otherwise (unpartitioned, no map yet, or ours).
func (ex *Exchange) misdirected(jobID string) error {
	p := ex.part
	if p == nil {
		return nil
	}
	m := p.Map.Load()
	if m == nil {
		return nil
	}
	owner, ok := m.Owner(jobID)
	if !ok || owner.Partition == p.Local {
		return nil
	}
	ex.metrics.wrongPartition.Add(1)
	return &WrongPartitionError{
		JobID:      jobID,
		Partition:  owner.Partition,
		ReplicaURL: owner.URL,
		MapVersion: m.Version,
	}
}

// missingJob classifies a job the exchange does not host. On a partitioned
// replica whose map places the job elsewhere it is a routing miss —
// *WrongPartitionError carrying the owner — so the router and SDK can
// re-aim; everything else is a plain unknown_job. Hosted jobs never reach
// this path, which keeps the partition check entirely off the hot path: a
// correctly routed request costs zero extra work, and only lookup misses
// pay the one atomic map-handle load plus the rendezvous hash.
func (ex *Exchange) missingJob(jobID string) error {
	if err := ex.misdirected(jobID); err != nil {
		return err
	}
	return fmt.Errorf("%w: %q", ErrUnknownJob, jobID)
}

// checkCreateOwnership enforces placement at creation time: an explicit job
// ID that rendezvous-hashes to another partition is refused with the owner
// in the error, before any state is touched. Creation is the one operation
// that is ownership-strict rather than host-based — it decides where the
// job's WAL records and outcome history will live.
func (ex *Exchange) checkCreateOwnership(jobID string) error {
	if jobID == "" {
		return nil
	}
	return ex.misdirected(jobID)
}
