package ps

import (
	"fmt"
	"slices"
)

// Placement maps shard keys to parameter-server indices. The paper places
// model layers over the per-node parameter servers either round-robin (the
// TensorFlow default policy) or, under the ED allocation, "locally": a
// stage's parameters live on the node that hosts that stage in every virtual
// worker, so weight synchronization never crosses nodes.
type Placement struct {
	assign  map[string]int
	servers int
}

// RoundRobin assigns keys to servers in order, the default policy.
func RoundRobin(keys []string, servers int) (*Placement, error) {
	if servers < 1 {
		return nil, fmt.Errorf("ps: need at least one server, got %d", servers)
	}
	p := &Placement{assign: make(map[string]int, len(keys)), servers: servers}
	for i, k := range keys {
		p.assign[k] = i % servers
	}
	return p, nil
}

// serverOf reports which server holds a key.
func (p *Placement) serverOf(key string) (int, error) {
	srv, ok := p.assign[key]
	if !ok {
		return 0, fmt.Errorf("ps: shard %q not placed", key)
	}
	return srv, nil
}

// KeysOn lists the keys held by one server, sorted, so whatever walks them
// (registration, a restore's first-mismatch error) does so in one order.
func (p *Placement) KeysOn(server int) []string {
	var out []string
	for k, s := range p.assign {
		if s == server {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	return out
}
