package cover

import (
	"errors"
	"fmt"
	"sort"

	"dsmec/internal/datamap"
)

// ErrUncoverable is returned when some required block is held by no
// device.
var ErrUncoverable = errors.New("cover: universe not covered by the union of usable sets")

// Result is a data division: Coverage[i] is the slice C_i assigned to
// device i (possibly empty), Involved lists devices with non-empty slices
// in ascending order, and MaxLoad is the largest slice size.
type Result struct {
	Coverage []*datamap.Set
	Involved []int
	MaxLoad  int
}

// finalize fills the derived fields from Coverage.
func (r *Result) finalize() {
	r.Involved = r.Involved[:0]
	r.MaxLoad = 0
	for i, c := range r.Coverage {
		if c.Len() > 0 {
			r.Involved = append(r.Involved, i)
		}
		if c.Len() > r.MaxLoad {
			r.MaxLoad = c.Len()
		}
	}
}

// usableIn returns UD_i ∩ D for every device, validating inputs.
func usableIn(universe *datamap.Set, usable []*datamap.Set) ([]*datamap.Set, error) {
	if len(usable) == 0 {
		return nil, fmt.Errorf("cover: no usable sets")
	}
	out := make([]*datamap.Set, len(usable))
	for i, u := range usable {
		out[i] = u.Intersect(universe)
	}
	if !universe.SubsetOf(datamap.UnionOf(out...)) {
		return nil, ErrUncoverable
	}
	return out, nil
}

// BalancedPartition is the paper's Section IV.A greedy. At every step it
// picks the device with the smallest non-empty remaining usable set,
// assigns that whole set to the device, and removes it from the remaining
// universe.
func BalancedPartition(universe *datamap.Set, usable []*datamap.Set) (*Result, error) {
	ud, err := usableIn(universe, usable)
	if err != nil {
		return nil, err
	}
	res := &Result{Coverage: make([]*datamap.Set, len(ud))}
	for i := range res.Coverage {
		res.Coverage[i] = datamap.NewSet()
	}
	remaining := universe.Clone()
	for remaining.Len() > 0 {
		r := -1
		best := 0
		for i, u := range ud {
			n := u.IntersectLen(remaining)
			if n == 0 {
				continue
			}
			if r < 0 || n < best {
				r, best = i, n
			}
		}
		if r < 0 {
			// usableIn guaranteed coverage, so this cannot happen; guard
			// anyway rather than loop forever.
			return nil, ErrUncoverable
		}
		slice := ud[r].Intersect(remaining)
		res.Coverage[r] = slice
		remaining.Subtract(slice)
	}
	res.finalize()
	return res, nil
}

// BalancedPartitionLPT is an ablation variant of BalancedPartition: it
// orders blocks by how few devices hold them (scarcest first) and assigns
// each to its least-loaded owner, in the style of
// longest-processing-time-first machine scheduling.
func BalancedPartitionLPT(universe *datamap.Set, usable []*datamap.Set) (*Result, error) {
	ud, err := usableIn(universe, usable)
	if err != nil {
		return nil, err
	}
	res := &Result{Coverage: make([]*datamap.Set, len(ud))}
	for i := range res.Coverage {
		res.Coverage[i] = datamap.NewSet()
	}

	blocks := universe.Blocks()
	owners := make(map[datamap.BlockID][]int, len(blocks))
	for _, b := range blocks {
		for i, u := range ud {
			if u.Contains(b) {
				owners[b] = append(owners[b], i)
			}
		}
	}
	sort.SliceStable(blocks, func(a, b int) bool {
		return len(owners[blocks[a]]) < len(owners[blocks[b]])
	})
	for _, b := range blocks {
		best := -1
		for _, i := range owners[b] {
			if best < 0 || res.Coverage[i].Len() < res.Coverage[best].Len() {
				best = i
			}
		}
		res.Coverage[best].Add(b)
	}
	res.finalize()
	return res, nil
}

// FewestSets is the Section IV.B greedy set cover: repeatedly take the
// device covering the most still-uncovered blocks.
func FewestSets(universe *datamap.Set, usable []*datamap.Set) (*Result, error) {
	ud, err := usableIn(universe, usable)
	if err != nil {
		return nil, err
	}
	res := &Result{Coverage: make([]*datamap.Set, len(ud))}
	for i := range res.Coverage {
		res.Coverage[i] = datamap.NewSet()
	}
	remaining := universe.Clone()
	for remaining.Len() > 0 {
		r := -1
		best := 0
		for i, u := range ud {
			// Strict > keeps the lowest-indexed maximizer, making the
			// greedy deterministic.
			if n := u.IntersectLen(remaining); n > best {
				r, best = i, n
			}
		}
		if r < 0 || best == 0 {
			return nil, ErrUncoverable
		}
		slice := ud[r].Intersect(remaining)
		res.Coverage[r] = slice
		remaining.Subtract(slice)
	}
	res.finalize()
	return res, nil
}

// Verify checks the three conditions of Definitions 1 and 2: slices are
// subsets of their device's usable data, pairwise disjoint, and their
// union is exactly the universe.
func Verify(universe *datamap.Set, usable []*datamap.Set, res *Result) error {
	if len(res.Coverage) != len(usable) {
		return fmt.Errorf("cover: %d slices for %d devices", len(res.Coverage), len(usable))
	}
	union := datamap.NewSet()
	total := 0
	for i, c := range res.Coverage {
		if !c.SubsetOf(usable[i]) {
			return fmt.Errorf("cover: slice %d not a subset of its usable set", i)
		}
		if !c.SubsetOf(universe) {
			return fmt.Errorf("cover: slice %d exceeds the universe", i)
		}
		union.Union(c)
		total += c.Len()
	}
	if !union.Equal(universe) {
		return fmt.Errorf("cover: union of slices misses part of the universe")
	}
	if total != universe.Len() {
		return fmt.Errorf("cover: slices overlap (%d assigned blocks for %d universe blocks)",
			total, universe.Len())
	}
	return nil
}

// OptimalMaxLoad solves problem P3 exactly. Every block has the same
// size, so a slice's load is its block count and P3 is makespan
// minimisation of unit jobs with eligibility sets: find the smallest
// load bound L under which every block goes to one of the devices
// holding it and no device takes more than L blocks. L is found by
// binary search from the counting bound ⌈|D|/n⌉, and each probe is a
// bipartite b-matching by augmenting paths, so the solve is polynomial.
//
// The partition is deterministic: each probe builds a new matching and
// matches blocks in ascending order. A block goes to its lowest-indexed
// holder with room under the bound; only when every holder is full does
// it move earlier blocks along an augmenting path, again trying devices
// by index. The returned MaxLoad is the optimum.
func OptimalMaxLoad(universe *datamap.Set, usable []*datamap.Set) (*Result, error) {
	ud, err := usableIn(universe, usable)
	if err != nil {
		return nil, err
	}
	blocks := universe.Blocks()
	holders := make([][]int, len(blocks))
	for r, b := range blocks {
		for i, u := range ud {
			if u.Contains(b) {
				holders[r] = append(holders[r], i)
			}
		}
	}
	// L = |D| is always feasible; owner, once set, is the matching at hi.
	lo, hi := (len(blocks)+len(ud)-1)/len(ud), len(blocks)
	var owner []int
	for lo < hi {
		mid := lo + (hi-lo)/2
		if m := matchBlocks(holders, len(ud), mid); m != nil {
			hi, owner = mid, m
		} else {
			lo = mid + 1
		}
	}
	if owner == nil {
		owner = matchBlocks(holders, len(ud), hi)
	}
	res := &Result{Coverage: make([]*datamap.Set, len(ud))}
	for i := range res.Coverage {
		res.Coverage[i] = datamap.NewSet()
	}
	for r, i := range owner {
		res.Coverage[i].Add(blocks[r])
	}
	res.finalize()
	return res, nil
}

// matchBlocks gives every block r one of its holders[r] with no device
// taking more than limit blocks, by augmenting paths (Kuhn's algorithm
// with device capacities). It returns each block's device, or nil when
// no such assignment exists.
func matchBlocks(holders [][]int, devices, limit int) []int {
	owner := make([]int, len(holders))
	taken := make([][]int, devices) // blocks matched to each device
	seen := make([]int, devices)    // last augmentation that visited a device
	var augment func(r, stamp int) bool
	augment = func(r, stamp int) bool {
		for _, i := range holders[r] {
			if len(taken[i]) < limit {
				taken[i] = append(taken[i], r)
				owner[r] = i
				return true
			}
		}
		// Every holder is full: free a slot by moving one of their
		// blocks on to another holder.
		for _, i := range holders[r] {
			if seen[i] == stamp {
				continue
			}
			seen[i] = stamp
			for k, moved := range taken[i] {
				if augment(moved, stamp) {
					taken[i][k] = r
					owner[r] = i
					return true
				}
			}
		}
		return false
	}
	for r := range holders {
		if !augment(r, r+1) {
			return nil
		}
	}
	return owner
}

// OptimalSetCount exhaustively computes the smallest number of devices
// whose usable sets cover the universe. Exponential; tests only.
func OptimalSetCount(universe *datamap.Set, usable []*datamap.Set) (int, error) {
	ud, err := usableIn(universe, usable)
	if err != nil {
		return 0, err
	}
	n := len(ud)
	if n > 20 {
		return 0, fmt.Errorf("cover: OptimalSetCount limited to 20 devices, got %d", n)
	}
	bestCount := n + 1
	for mask := 0; mask < 1<<n; mask++ {
		count := 0
		union := datamap.NewSet()
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				count++
				union.Union(ud[i])
			}
		}
		if count < bestCount && universe.SubsetOf(union) {
			bestCount = count
		}
	}
	if bestCount > n {
		return 0, ErrUncoverable
	}
	return bestCount, nil
}
