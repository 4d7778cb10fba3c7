package ps

import (
	"fmt"
	"slices"
	"strings"
)

// Placement maps shard keys to parameter-server indices. The paper places
// model layers over the per-node parameter servers either round-robin (the
// TensorFlow default policy) or, under the ED allocation, "locally": a
// stage's parameters live on the node that hosts that stage in every virtual
// worker, so weight synchronization never crosses nodes.
//
// A placement's key order is the layout of a Sharded built over it: its
// exchanges carry one vector per key in that order.
type Placement struct {
	keys    []string
	servers int
}

// RoundRobin assigns keys to servers in order, the default policy: keys[i]
// goes to server i mod servers.
func RoundRobin(keys []string, servers int) (*Placement, error) {
	if servers < 1 {
		return nil, fmt.Errorf("ps: need at least one server, got %d", servers)
	}
	return &Placement{keys: slices.Clone(keys), servers: servers}, nil
}

// positions lists where one server's keys sit in the placement's key order,
// sorted by key: the server's layout. It is never nil.
func (p *Placement) positions(server int) []int {
	out := []int{}
	for i := server; i < len(p.keys); i += p.servers {
		out = append(out, i)
	}
	slices.SortFunc(out, func(a, b int) int { return strings.Compare(p.keys[a], p.keys[b]) })
	return out
}

// KeysOn lists the keys held by one server, sorted — the server's layout —
// so whatever walks them (registration, a restore's first-mismatch error)
// does so in one order.
func (p *Placement) KeysOn(server int) []string {
	var out []string
	for _, i := range p.positions(server) {
		out = append(out, p.keys[i])
	}
	return out
}

// checkLayout holds a keyed call (PushOrdered, PullAtInto) to the whole
// layout it addresses, in order: anything else is an error, never vectors
// matched to the wrong keys.
func checkLayout(keys, layout []string) error {
	if slices.Equal(keys, layout) {
		return nil
	}
	i := 0
	for i < min(len(keys), len(layout)) && keys[i] == layout[i] {
		i++
	}
	return fmt.Errorf("ps: %d keys are not the %d-key layout in order: they differ at position %d", len(keys), len(layout), i)
}
