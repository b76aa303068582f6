// Package gateway fronts a fleet of backend garbler processes behind one
// listener. It relays the propose/grant protocol frame-by-frame without
// running any cryptography itself, shards sessions across backends by
// consistent-hashing the proposed program name (so one program's sessions
// — and therefore its warm caches and garble-ahead pools — pin to one
// backend), sheds load per peer with Retry-After hints, health-checks the
// fleet, and exposes live admin and metrics endpoints.
package gateway

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// replicas is the virtual-node count per backend on the hash ring. 64
// vnodes keep the keyspace split within a few percent of even for small
// fleets while keeping ring rebuilds cheap.
const replicas = 64

// ring is a consistent-hash ring over backend addresses. Each backend
// owns replicas points on a 32-bit circle; a key routes to the first
// point clockwise of its hash. Adding or removing one backend moves only
// the arcs adjacent to its own points — every other program keeps its
// backend, which is the property that preserves warm caches across fleet
// resizes. Not safe for concurrent use; the Gateway guards it. The zero
// value is an empty ring.
type ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint32
	addr string
}

func hashKey(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// add inserts a backend's virtual nodes; it reports how many ring points
// changed (the "moves" metric — arcs whose owner is now different).
func (r *ring) add(addr string) int {
	for i := 0; i < replicas; i++ {
		r.points = append(r.points, ringPoint{
			hash: hashKey(fmt.Sprintf("%s#%d", addr, i)),
			addr: addr,
		})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return replicas
}

// remove deletes a backend's virtual nodes, reporting how many points
// changed owner.
func (r *ring) remove(addr string) int {
	kept := r.points[:0]
	moved := 0
	for _, p := range r.points {
		if p.addr == addr {
			moved++
			continue
		}
		kept = append(kept, p)
	}
	r.points = kept
	return moved
}

// pick walks the ring clockwise from key's hash and returns the first
// distinct backend ok admits — the affinity node when it is healthy and
// under its load bound, the next ring node when it is not (the
// bounded-load spill). It returns "" when no backend qualifies.
func (r *ring) pick(key string, ok func(addr string) bool) string {
	n := len(r.points)
	if n == 0 {
		return ""
	}
	h := hashKey(key)
	start := sort.Search(n, func(i int) bool { return r.points[i].hash >= h }) % n
	seen := make(map[string]bool)
	for i := 0; i < n; i++ {
		addr := r.points[(start+i)%n].addr
		if seen[addr] {
			continue
		}
		seen[addr] = true
		if ok(addr) {
			return addr
		}
	}
	return ""
}

// addrs returns the distinct backends on the ring, sorted.
func (r *ring) addrs() []string {
	seen := make(map[string]bool)
	var out []string
	for _, p := range r.points {
		if !seen[p.addr] {
			seen[p.addr] = true
			out = append(out, p.addr)
		}
	}
	sort.Strings(out)
	return out
}
