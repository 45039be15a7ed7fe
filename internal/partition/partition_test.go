package partition

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func twoPartitions() *Map {
	return &Map{Version: 1, Partitions: []Replica{
		{Partition: "p0", URL: "http://127.0.0.1:8780"},
		{Partition: "p1", URL: "http://127.0.0.1:8781"},
	}}
}

// TestOwnerDeterministicAndOrderIndependent: ownership depends only on the
// partition ID set, not on map order or URLs.
func TestOwnerDeterministicAndOrderIndependent(t *testing.T) {
	m := twoPartitions()
	rev := &Map{Version: 1, Partitions: []Replica{m.Partitions[1], m.Partitions[0]}}
	relabeled := &Map{Version: 9, Partitions: []Replica{
		{Partition: "p0", URL: "http://elsewhere:1"},
		{Partition: "p1", URL: "http://elsewhere:2"},
	}}
	for i := 0; i < 512; i++ {
		job := fmt.Sprintf("job-%d", i)
		a, ok := m.Owner(job)
		b, ok2 := rev.Owner(job)
		c, ok3 := relabeled.Owner(job)
		if !ok || !ok2 || !ok3 {
			t.Fatalf("owner lookup failed for %q", job)
		}
		if a.Partition != b.Partition || a.Partition != c.Partition {
			t.Fatalf("owner of %q unstable: %q vs %q vs %q", job, a.Partition, b.Partition, c.Partition)
		}
	}
}

// TestOwnerDistribution: HRW spreads sequential job IDs across partitions
// without gross imbalance (each partition within [25%, 75%] of 2048 jobs
// over 2 partitions is a loose 6σ-style bound).
func TestOwnerDistribution(t *testing.T) {
	m := twoPartitions()
	counts := map[string]int{}
	const n = 2048
	for i := 0; i < n; i++ {
		owner, _ := m.Owner(fmt.Sprintf("job-%d", i))
		counts[owner.Partition]++
	}
	for p, c := range counts {
		if c < n/4 || c > 3*n/4 {
			t.Fatalf("partition %s owns %d/%d jobs — rendezvous hash badly skewed: %v", p, c, n, counts)
		}
	}
	if len(counts) != 2 {
		t.Fatalf("only %d partitions ever own a job: %v", len(counts), counts)
	}
}

// TestOwnerMinimalDisruption: removing one partition moves only the jobs it
// owned; every other job keeps its owner (the rendezvous property that
// makes map changes cheap).
func TestOwnerMinimalDisruption(t *testing.T) {
	big := &Map{Version: 1, Partitions: []Replica{
		{Partition: "p0", URL: "http://h:1"},
		{Partition: "p1", URL: "http://h:2"},
		{Partition: "p2", URL: "http://h:3"},
	}}
	small := &Map{Version: 2, Partitions: big.Partitions[:2]}
	for i := 0; i < 1024; i++ {
		job := fmt.Sprintf("task/%d", i)
		before, _ := big.Owner(job)
		after, _ := small.Owner(job)
		if before.Partition != "p2" && before.Partition != after.Partition {
			t.Fatalf("job %q moved %s -> %s though its partition survived", job, before.Partition, after.Partition)
		}
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	m, err := Parse("p1=http://127.0.0.1:8781, p0=http://127.0.0.1:8780")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Partitions) != 2 || m.Version != 1 {
		t.Fatalf("parsed map = %+v", m)
	}
	if got := m.Spec(); got != "p0=http://127.0.0.1:8780,p1=http://127.0.0.1:8781" {
		t.Fatalf("Spec() = %q", got)
	}
	if _, err := Parse(""); err == nil {
		t.Fatal("empty spec must not parse")
	}
	if _, err := Parse("p0=http://a,p0=http://b"); err == nil {
		t.Fatal("duplicate partition must not parse")
	}
	if _, err := Parse("p0=ftp://a"); err == nil {
		t.Fatal("non-http url must not parse")
	}
	if _, err := Parse("justaurl"); err == nil {
		t.Fatal("entry without '=' must not parse")
	}
	for _, id := range []string{`p"0`, `p\0`} {
		if _, err := Parse(id + "=http://a"); err == nil {
			t.Fatalf("partition id %s must not parse: it is a Prometheus label value", id)
		}
	}
}

func TestValidate(t *testing.T) {
	m := twoPartitions()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Map{Version: 1, Partitions: []Replica{{Partition: "a b", URL: "http://h:1"}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("partition id with space must not validate")
	}
	if err := (&Map{}).Validate(); err == nil {
		t.Fatal("empty map must not validate")
	}
}

func TestAssignment(t *testing.T) {
	m := twoPartitions()
	a := &Assignment{Local: "p0", Map: NewHandle(m)}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	ownedHere, ownedThere := 0, 0
	for i := 0; i < 256; i++ {
		if a.Owns(fmt.Sprintf("job-%d", i)) {
			ownedHere++
		} else {
			ownedThere++
		}
	}
	if ownedHere == 0 || ownedThere == 0 {
		t.Fatalf("assignment owns %d/%d — partitioning is degenerate", ownedHere, ownedHere+ownedThere)
	}
	// A nil assignment is the unpartitioned posture: owns everything.
	var nilA *Assignment
	if !nilA.Owns("anything") {
		t.Fatal("nil assignment must own every job")
	}
	bad := &Assignment{Local: "p9", Map: NewHandle(m)}
	if err := bad.Validate(); err == nil {
		t.Fatal("assignment to a partition outside the map must not validate")
	}
}

// TestHandleAdvance: Advance is monotone under concurrent refreshers — the
// handle never rolls back to an older version.
func TestHandleAdvance(t *testing.T) {
	h := NewHandle(nil)
	var wg sync.WaitGroup
	for v := int64(1); v <= 32; v++ {
		wg.Add(1)
		go func(v int64) {
			defer wg.Done()
			h.Advance(&Map{Version: v, Partitions: []Replica{{Partition: "p0", URL: "http://h:1"}}})
		}(v)
	}
	wg.Wait()
	if got := h.Load().Version; got != 32 {
		t.Fatalf("handle version = %d, want 32", got)
	}
	if h.Advance(&Map{Version: 31, Partitions: []Replica{{Partition: "p0", URL: "http://h:1"}}}) {
		t.Fatal("Advance accepted an older map")
	}
}

func TestDefault(t *testing.T) {
	m := &Map{Version: 1, Partitions: []Replica{
		{Partition: "pz", URL: "http://h:3"},
		{Partition: "pa", URL: "http://h:1"},
	}}
	d, ok := m.Default()
	if !ok || d.Partition != "pa" {
		t.Fatalf("Default() = %+v ok=%v, want pa", d, ok)
	}
}

// TestDecodeMap pins the one decode path the router and the SDK share: the
// /v1/cluster/partitions document round-trips to the map that produced it,
// in the wire field order the API has always served, and an unroutable or
// malformed document is refused.
func TestDecodeMap(t *testing.T) {
	m := twoPartitions()
	raw, err := json.Marshal(Document{Version: m.Version, Local: "p1", Partitions: m.Partitions})
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"version":1,"local":"p1","partitions":[{"partition":"p0","url":"http://127.0.0.1:8780"},`
	if !strings.HasPrefix(string(raw), want) {
		t.Fatalf("document wire form = %s, want prefix %s", raw, want)
	}
	got, err := DecodeMap(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("decoded %+v, want %+v", got, m)
	}
	for name, doc := range map[string]string{
		"version 0":     `{"version":0,"partitions":[{"partition":"p0","url":"http://h:1"}]}`,
		"no partitions": `{"version":3,"partitions":[]}`,
		"relative url":  `{"version":3,"partitions":[{"partition":"p0","url":"h:1"}]}`,
		"not json":      `<html>`,
	} {
		if _, err := DecodeMap(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}
