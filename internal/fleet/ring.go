// Package fleet shards evaluation work across a set of mppmd replicas.
//
// The coordinator consistent-hash-shards the mixes of one /v1/eval
// request across the fleet — the ring is keyed by the mix alone, so
// every config of a mix lands on the same replica — and sends each
// replica that owns any mix one streaming sub-request: its mixes under
// all of the request's configs (a binary wire stream, or NDJSON to a
// peer on another wire version). Replicas stream rows config-major, so
// the coordinator maps each shard row back to its grid index and merges
// the streams into one deterministic response through a reorder buffer
// — the merged output is byte-identical to what a single replica would
// have produced for the whole request. A request with fewer mixes than
// replicas uses fewer replicas. A dead replica's mixes are re-hashed
// onto the survivors; retried rows are suppressed by index, which is
// safe because evaluation is deterministic.
//
// The same package provides the peer artifact-fetch client: a replica
// joining a warm fleet pulls recordings and profiles from healthy peers
// (raw stored bytes, codec checksum intact) instead of recomputing
// them. Both the coordinator and the fetcher refuse peers whose artifact
// codec format version differs, so mixed-version rollouts never exchange
// undecodable bytes.
package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// defaultVNodes is the virtual-node count per replica. 64 points per
// replica keeps the assignment spread within a few percent of even for
// small fleets while the ring stays tiny (a 16-replica fleet is 1024
// points).
const defaultVNodes = 64

// Ring is a consistent-hash ring over a fixed replica set. Keys are
// assigned to the replica owning the first ring point at or clockwise
// of the key's hash. Replicas are hashed by their base URL, so every
// coordinator built over the same peer list — in any order — agrees on
// ownership, and removing a replica only moves the keys it owned.
type Ring struct {
	replicas []string
	points   []ringPoint
}

type ringPoint struct {
	hash    uint64
	replica int
}

// NewRing builds a ring over the replica base URLs with vnodes virtual
// nodes each (defaultVNodes when vnodes <= 0).
func NewRing(replicas []string, vnodes int) (*Ring, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("fleet: ring needs at least one replica")
	}
	seen := make(map[string]bool, len(replicas))
	for _, u := range replicas {
		if u == "" {
			return nil, fmt.Errorf("fleet: empty replica URL")
		}
		if seen[u] {
			return nil, fmt.Errorf("fleet: duplicate replica URL %q", u)
		}
		seen[u] = true
	}
	if vnodes <= 0 {
		vnodes = defaultVNodes
	}
	r := &Ring{
		replicas: replicas,
		points:   make([]ringPoint, 0, len(replicas)*vnodes),
	}
	for i, u := range replicas {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:    hash64(u + "#" + strconv.Itoa(v)),
				replica: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		p, q := r.points[a], r.points[b]
		if p.hash != q.hash {
			return p.hash < q.hash
		}
		return p.replica < q.replica // deterministic tie-break
	})
	return r, nil
}

// Replicas returns the replica count.
func (r *Ring) Replicas() int { return len(r.replicas) }

// Replica returns replica i's base URL.
func (r *Ring) Replica(i int) string { return r.replicas[i] }

// Owner returns the index of the replica owning key among those alive
// reports true for, or -1 if none are. A dead owner's keys fall to the
// next clockwise alive point — the consistent-hash failover property the
// coordinator leans on when a replica dies mid-sweep.
func (r *Ring) Owner(key string, alive func(int) bool) int {
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].hash >= h
	})
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if alive == nil || alive(p.replica) {
			return p.replica
		}
	}
	return -1
}

// hash64 is FNV-1a 64 run through the murmur3 64-bit finalizer: fast,
// dependency-free and stable across processes, which is all a
// work-placement hash needs. FNV-1a alone barely moves the high bits
// when only the last bytes of a key differ: a replica's virtual nodes
// ("url#0", "url#1", ...) would fall into a few tight clumps, and one
// replica of two can then own 99.5% of the ring.
func hash64(s string) uint64 {
	f := fnv.New64a()
	_, _ = f.Write([]byte(s))
	h := f.Sum64()
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
