package partition

import (
	"fmt"
	"math"

	"hetpipe/internal/hw"
	"hetpipe/internal/profile"
	"hetpipe/internal/sched"
)

// planner is the dynamic program behind Partition: the per-call constants of
// the K = k*V virtual stages and the DP's slabs, kept inside the Partitioner
// so a warm one allocates nothing here. cost and solve are methods rather
// than closures so hetlint's hot-path rules hold them to lookups and
// arithmetic: cost runs thousands of times per plan, so a range walk or an
// allocation creeping back into it is what made planning slow.
//
// The planner also remembers whether cuts is the optimum of the constants it
// holds (solved), which lets the next call carry that optimum instead of
// solving again when only the stashes grew — see carries — and, when the old
// cuts no longer fit, re-solve only the entries that moved — see solve.
type planner struct {
	tab  *profile.Tables
	L, K int
	// occupancy is the interleave degree V as cost's multiplier.
	occupancy float64
	versions  int64 // the schedule's WeightVersions

	// Per virtual stage j, which runs on GPU j%k of the worker:
	whole []float64 // the GPU's whole-model time
	// links[j] classifies the interconnect between virtual stages j-1 and j;
	// for j%k == 0 that is the wrap link from the last GPU back to the first.
	links []hw.LinkKind
	// budget[j] is the weight and stash bytes one chunk may use as virtual
	// stage j: an even 1/V split of the device capacity left after the
	// per-GPU workspace (all of it at V=1). The per-chunk budget keeps
	// per-GPU totals sound — V chunks each within their slice, plus the
	// workspace once, sum to at most the device capacity — while staying
	// monotone in Nm, which MaxNm's binary search depends on.
	budget  []int64
	stashes []int64 // the schedule's ChunkStash(j, K, nm)

	// best[j*(L+1)+i] is the minimal bottleneck for placing the first i
	// layers onto virtual stages 0..j (stage j ends at i); choice is the cut
	// that achieves it. Stage-major, so the inner loop over cuts reads stage
	// j-1's row contiguously.
	best   []float64
	choice []int
	// cuts[j] is where virtual stage j of the solved plan starts; cuts[K] = L.
	cuts []int
	// solved says cuts is the optimum of the constants above. Every call
	// clears it on entry and only a call that returns a plan sets it again.
	solved bool
}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// setup loads the constants of one Partition call. It fails when the
// performance model cannot price one of the worker's GPU types — found here,
// once per GPU, rather than as an infinite cost the DP would report as a
// memory problem.
//
// While it overwrites them, setup compares the new constants with the ones
// the last plan was solved for, and reports grown when the two problems
// differ at most in stashes, none of which shrank: the same tables, L, K, V
// and weight versions, and element-wise equal whole, links and budget. Only
// the values are compared, never which schedule or worker produced them.
func (p *planner) setup(tab *profile.Tables, sc sched.Schedule, c *hw.Cluster, vw *hw.VirtualWorker, L, V, nm int) (grown bool, err error) {
	k := len(vw.GPUs)
	K := k * V
	versions := int64(sc.WeightVersions())
	grown = p.solved && tab == p.tab && L == p.L && K == p.K && float64(V) == p.occupancy && versions == p.versions
	p.solved = false
	p.tab, p.L, p.K, p.occupancy, p.versions = tab, L, K, float64(V), versions
	workspace := tab.Perf().WorkspaceBytes
	p.whole = resize(p.whole, K)
	p.links = resize(p.links, K)
	p.budget = resize(p.budget, K)
	p.stashes = resize(p.stashes, K)
	p.best = resize(p.best, K*(L+1))
	p.choice = resize(p.choice, K*(L+1))
	p.cuts = resize(p.cuts, K+1)
	for j := 0; j < K; j++ {
		g := vw.GPUs[j%k]
		whole := 0.0
		if j < k {
			if whole, err = tab.WholeModelTime(g.Type); err != nil {
				return false, fmt.Errorf("partition: virtual worker %s: %w", vw.TypeString(), err)
			}
		} else {
			whole = p.whole[j-k]
		}
		link := hw.LinkLocal
		if j > 0 {
			link = c.LinkBetween(vw.GPUs[(j-1)%k], g)
		}
		budget := (g.Type.MemoryBytes - workspace) / int64(V)
		stash := int64(sc.ChunkStash(j, K, nm))
		grown = grown && whole == p.whole[j] && link == p.links[j] && budget == p.budget[j] && stash >= p.stashes[j]
		p.whole[j], p.links[j], p.budget[j], p.stashes[j] = whole, link, budget, stash
	}
	return grown, nil
}

// carries reports whether the cuts of the last solve are the optimum of the
// problem setup just loaded, given that setup reported it grown: they are
// exactly when every chunk still fits its budget under the new stashes.
//
// Why that is exact, ties included. Along the Nm axis cost(lo,hi,j) is either
// a time no stash enters or +Inf, and growing stashes only enlarge the +Inf
// set, so every DP value can only rise. solve keeps at each (j, i) the
// smallest cut attaining min max(prev[cut], cost). On the old optimum's path
// every chunk still fits, so its values are unchanged and still minimal;
// every other candidate only got worse; and every smaller cut was already
// strictly worse. The same picks, hence the same cuts.
func (p *planner) carries() bool {
	for j := 0; j < p.K; j++ {
		if p.tab.ChunkBytes(p.cuts[j], p.cuts[j+1], p.versions, p.stashes[j]) > p.budget[j] {
			return false
		}
	}
	return true
}

// cost returns the execution time of layers [lo,hi) as virtual stage j, or
// +Inf when it violates the stage's memory budget. The memory term follows
// the partitioner's schedule; the time term keeps the paper's Section 7
// definition (compute plus serialized receives) at V = 1, so contiguous plans
// stay comparable across schedules and overlap's gains show up in the
// executor rather than being double-counted here.
//
// At V > 1 a chunk is throughput-critical on two separate axes: its GPU
// hosts V chunks (occupancy ~ V * compute), and the minibatch round trip
// threads every chunk's compute plus its overlapped transfers (the
// interleaved in-flight window is K, so the per-chunk round-trip share is
// compute + receives). The cost is the max of the two, which degenerates
// to exactly the V = 1 expression above — compute-plus-receive alone
// would steer the DP toward near-empty chunks that exist only to carry a
// cheap boundary, while compute alone lets the round trip blow up.
//
//hetlint:hotpath
func (p *planner) cost(lo, hi, j int) float64 {
	if p.tab.ChunkBytes(lo, hi, p.versions, p.stashes[j]) > p.budget[j] {
		return math.Inf(1)
	}
	return p.price(p.tab.StageTime(p.whole[j], lo, hi), lo, hi, j)
}

// price is cost for a chunk known to fit, given its tables' StageTime.
//
//hetlint:hotpath
func (p *planner) price(stage float64, lo, hi, j int) float64 {
	fwd, bwd := p.tab.SplitStage(stage)
	t := fwd + bwd
	if j > 0 {
		t += p.tab.BoundaryTime(lo-1, p.links[j])
	}
	if j < p.K-1 {
		t += p.tab.BoundaryTime(hi-1, p.links[j+1])
	}
	return max(p.occupancy*(fwd+bwd), t)
}

// floor is what walk stops on, applied to occupancy·StageTime: the chunk's
// occupancy-scaled stage time shaved by eight ulps. It never exceeds the
// chunk's cost. Cost is at least fl(V·fl(fwd + bwd)), and fwd + bwd is within
// two roundings of the StageTime it was split from
// (profile.Tables.SplitStage), so cost >= V·stage·(1-2^-51)(1-2^-53); the
// floor is at most V·stage·(1+2^-53)²(1-2^-50), which is smaller. At V = 1
// the product is the StageTime itself, exactly. Like the StageTime, and
// because rounding a product by a positive constant is monotone, it never
// falls as lo does. fwd + bwd itself would not do: two roundings away from a
// monotone quantity, it is not provably monotone.
//
//hetlint:hotpath
func floor(scaled float64) float64 { return scaled * (1 - 0x1p-50) }

// solve runs the dynamic program over prefixes and, when a memory-feasible
// split exists, leaves its cut points in p.cuts and reports ok. priced is
// the cuts its walks examined past the memory check. Virtual stage j must leave
// at least one layer for each later stage and each earlier stage must have
// had one, so stage j ends at i in [j+1, L-(K-1-j)] and starts at a cut in
// [j, i) — exactly the ends stage j-1 was solved for, which is why the
// slabs need no clearing between calls. The last stage is solved at i = L
// alone: the traceback and carries read nothing else of its row.
//
// A grown call (setup) that cannot carry passes grown and re-solves the slabs
// in place, keeping every entry whose answer cannot have moved. The argument
// is carries', entry by entry. Growing stashes only turn costs into +Inf, so
// no value can fall, and an entry that was +Inf stays +Inf (pick 0, as walk
// leaves it). An entry whose old pick c still fits attains max(prev[c], its
// unchanged cost) at c, so when the new prev[c] is at most the old value it
// attains exactly the old value, which is still the minimum; every smaller
// cut was strictly worse and only rose, so c is still the smallest cut
// attaining it. Every other entry is walked again. The old values may be a
// few carries old: the argument needs only that no stash shrank since.
//
//hetlint:hotpath
func (p *planner) solve(grown bool) (priced int, ok bool) {
	L, K, row := p.L, p.K, p.L+1
	for i := p.first(0); i <= L-(K-1); i++ {
		p.best[i] = p.cost(0, i, 0)
		p.choice[i] = 0
	}
	for j := 1; j < K; j++ {
		prev, cur, pick := p.best[(j-1)*row:j*row], p.best[j*row:(j+1)*row], p.choice[j*row:(j+1)*row]
		for i := p.first(j); i <= L-(K-1-j); i++ {
			if !grown || !p.keeps(prev, cur[i], pick[i], i, j) {
				n := 0
				cur[i], pick[i], n = p.walk(prev, i, j)
				priced += n
			}
		}
	}
	if math.IsInf(p.best[(K-1)*row+L], 1) {
		return priced, false
	}
	p.cuts[0], p.cuts[K] = 0, L
	for j := K - 1; j > 0; j-- {
		p.cuts[j] = p.choice[j*row+p.cuts[j+1]]
	}
	return priced, true
}

// first is the first end solve computes for virtual stage j: the last stage
// is solved at L alone.
//
//hetlint:hotpath
func (p *planner) first(j int) int {
	if j == p.K-1 {
		return p.L
	}
	return j + 1
}

// keeps reports whether a re-solve may keep entry (j, i), whose old value and
// pick are old and c, over the already re-solved row prev (see solve).
//
//hetlint:hotpath
func (p *planner) keeps(prev []float64, old float64, c, i, j int) bool {
	return math.IsInf(old, 1) || p.tab.ChunkBytes(c, i, p.versions, p.stashes[j]) <= p.budget[j] && prev[c] <= old
}

// walk solves entry (j, i) over row prev: it returns the entry's value and
// pick, and how many cuts it examined past the memory check.
//
// The bottleneck with a cut is max(prev[cut], cost of [cut, i) as stage j).
// As the cut falls the first term falls and the second rises, and the best
// cut sits near where they cross — for balanced stages about 1/(j+1) of the
// range below i. So the walk starts at i-1 and goes down, and stops at the
// first cut whose stage alone can no longer reach the incumbent: one that
// does not fit (a chunk's bytes only grow as the cut falls), or whose floor
// of occupancy·StageTime is strictly above it (so is every lower cut's, and
// every lower cut's cost). It reads the stage FLOPs from the tables' column
// i, in one sequential pass.
// Walking up from j instead prices the other j/(j+1) of the range. The answer
// is the ascending scan's, ties included — the smallest cut attaining the
// minimum: going down, a cut that equals the incumbent replaces it, and a
// prefix is skipped only when it is strictly worse or itself infeasible.
//
//hetlint:hotpath
func (p *planner) walk(prev []float64, i, j int) (float64, int, int) {
	inf := math.Inf(1)
	whole, budget, stash := p.whole[j], p.budget[j], p.stashes[j]
	col := p.tab.Column(i)
	b, at, n := inf, 0, 0
	for cut := i - 1; cut >= j; cut-- {
		if p.tab.ChunkBytes(cut, i, p.versions, stash) > budget {
			break
		}
		n++
		pv := prev[cut]
		if pv > b || pv == inf {
			continue
		}
		stage := p.tab.Time(whole, col[cut])
		if floor(p.occupancy*stage) > b {
			break
		}
		if v := max(pv, p.price(stage, cut, i, j)); v <= b {
			b, at = v, cut
		}
	}
	return b, at, n
}
