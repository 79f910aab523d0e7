package cover

import (
	"errors"
	"math"
	"testing"

	"dsmec/internal/datamap"
	"dsmec/internal/rng"
)

func sets(ss ...[]datamap.BlockID) []*datamap.Set {
	out := make([]*datamap.Set, len(ss))
	for i, s := range ss {
		out[i] = datamap.NewSet(s...)
	}
	return out
}

func TestBalancedPartitionSimple(t *testing.T) {
	universe := datamap.NewSet(1, 2, 3, 4)
	usable := sets(
		[]datamap.BlockID{1, 2},
		[]datamap.BlockID{2, 3, 4},
	)
	res, err := BalancedPartition(universe, usable)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(universe, usable, res); err != nil {
		t.Fatal(err)
	}
	// Greedy: device 0 has the smaller usable set {1,2}; it takes it all.
	// Device 1 then takes the remainder {3,4}. Max load 2.
	if !res.Coverage[0].Equal(datamap.NewSet(1, 2)) {
		t.Errorf("C_0 = %v, want {1,2}", res.Coverage[0])
	}
	if !res.Coverage[1].Equal(datamap.NewSet(3, 4)) {
		t.Errorf("C_1 = %v, want {3,4}", res.Coverage[1])
	}
	if res.MaxLoad != 2 {
		t.Errorf("MaxLoad = %d, want 2", res.MaxLoad)
	}
	if len(res.Involved) != 2 {
		t.Errorf("Involved = %v, want both devices", res.Involved)
	}
}

func TestBalancedPartitionSkipsUselessDevices(t *testing.T) {
	universe := datamap.NewSet(1, 2)
	usable := sets(
		nil,                     // nothing usable
		[]datamap.BlockID{1, 2}, // everything
		[]datamap.BlockID{5, 6}, // disjoint from universe
	)
	res, err := BalancedPartition(universe, usable)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(universe, usable, res); err != nil {
		t.Fatal(err)
	}
	if len(res.Involved) != 1 || res.Involved[0] != 1 {
		t.Errorf("Involved = %v, want [1]", res.Involved)
	}
}

func TestUncoverable(t *testing.T) {
	universe := datamap.NewSet(1, 2, 9)
	usable := sets([]datamap.BlockID{1}, []datamap.BlockID{2})
	for name, fn := range map[string]func(*datamap.Set, []*datamap.Set) (*Result, error){
		"BalancedPartition":    BalancedPartition,
		"BalancedPartitionLPT": BalancedPartitionLPT,
		"FewestSets":           FewestSets,
	} {
		if _, err := fn(universe, usable); !errors.Is(err, ErrUncoverable) {
			t.Errorf("%s: err = %v, want ErrUncoverable", name, err)
		}
	}
	if _, err := OptimalMaxLoad(universe, usable); !errors.Is(err, ErrUncoverable) {
		t.Errorf("OptimalMaxLoad: err = %v, want ErrUncoverable", err)
	}
	if _, err := OptimalSetCount(universe, usable); !errors.Is(err, ErrUncoverable) {
		t.Errorf("OptimalSetCount: err = %v, want ErrUncoverable", err)
	}
}

func TestNoUsableSets(t *testing.T) {
	if _, err := BalancedPartition(datamap.NewSet(1), nil); err == nil {
		t.Error("empty usable list should fail")
	}
}

func TestEmptyUniverse(t *testing.T) {
	universe := datamap.NewSet()
	usable := sets([]datamap.BlockID{1, 2})
	for name, fn := range map[string]func(*datamap.Set, []*datamap.Set) (*Result, error){
		"BalancedPartition":    BalancedPartition,
		"BalancedPartitionLPT": BalancedPartitionLPT,
		"FewestSets":           FewestSets,
	} {
		res, err := fn(universe, usable)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Involved) != 0 || res.MaxLoad != 0 {
			t.Errorf("%s: empty universe should involve nobody", name)
		}
	}
}

func TestFewestSetsPrefersBigSets(t *testing.T) {
	universe := datamap.NewSet(1, 2, 3, 4, 5)
	usable := sets(
		[]datamap.BlockID{1, 2},
		[]datamap.BlockID{1, 2, 3, 4, 5}, // covers everything alone
		[]datamap.BlockID{4, 5},
	)
	res, err := FewestSets(universe, usable)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(universe, usable, res); err != nil {
		t.Fatal(err)
	}
	if len(res.Involved) != 1 || res.Involved[0] != 1 {
		t.Errorf("Involved = %v, want [1]", res.Involved)
	}
}

func TestFewestSetsGreedyChain(t *testing.T) {
	// Classic bait instance: the size-4 set looks best but forces three
	// picks, while the two size-3 sets cover everything.
	universe := datamap.NewSet(1, 2, 3, 4, 5, 6)
	usable := sets(
		[]datamap.BlockID{1, 2, 4, 5}, // bait: greedy takes this first
		[]datamap.BlockID{1, 2, 3},
		[]datamap.BlockID{4, 5, 6},
	)
	res, err := FewestSets(universe, usable)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(universe, usable, res); err != nil {
		t.Fatal(err)
	}
	opt, err := OptimalSetCount(universe, usable)
	if err != nil {
		t.Fatal(err)
	}
	if opt != 2 {
		t.Fatalf("optimal = %d, want 2 (the two size-3 sets)", opt)
	}
	if got := len(res.Involved); got != 3 {
		t.Errorf("greedy used %d sets, want 3 on this adversarial instance", got)
	}
}

func TestOptimalMaxLoad(t *testing.T) {
	universe := datamap.NewSet(1, 2, 3, 4)
	usable := sets(
		[]datamap.BlockID{1, 2, 3, 4},
		[]datamap.BlockID{1, 2, 3, 4},
	)
	got, err := OptimalMaxLoad(universe, usable)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(universe, usable, got); err != nil {
		t.Fatal(err)
	}
	// Blocks ascending, holders by device index: 1 and 2 fill device 0
	// up to the bound 2, and 3 and 4 go to device 1.
	if got.MaxLoad != 2 || !got.Coverage[0].Equal(datamap.NewSet(1, 2)) {
		t.Errorf("OptimalMaxLoad = %d with C_0 = %v, want 2 with {1,2} (split evenly)",
			got.MaxLoad, got.Coverage[0])
	}

	// Block 3 is shared, block 4 only on device 1: the optimum moves 3
	// to device 0.
	usable2 := sets(
		[]datamap.BlockID{1, 2, 3},
		[]datamap.BlockID{3, 4},
	)
	got2, err := OptimalMaxLoad(universe, usable2)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(universe, usable2, got2); err != nil {
		t.Fatal(err)
	}
	if got2.MaxLoad != 2 {
		t.Errorf("OptimalMaxLoad = %d, want 2 ({1,2} vs {3,4})", got2.MaxLoad)
	}

	// One exclusive heavy holder: device 0 alone holds 1, 2 and 3, so
	// the optimum is forced to 3.
	usable3 := sets(
		[]datamap.BlockID{1, 2, 3, 4},
		[]datamap.BlockID{4},
	)
	got3, err := OptimalMaxLoad(universe, usable3)
	if err != nil {
		t.Fatal(err)
	}
	if got3.MaxLoad != 3 || !got3.Coverage[1].Equal(datamap.NewSet(4)) {
		t.Errorf("OptimalMaxLoad = %d with C_1 = %v, want 3 with {4}", got3.MaxLoad, got3.Coverage[1])
	}
}

// bruteForceMaxLoad exhaustively computes the smallest achievable maximum
// slice size, the objective of P3, as the small-instance oracle for
// OptimalMaxLoad. Exponential: at most 16 blocks.
func bruteForceMaxLoad(t testing.TB, universe *datamap.Set, usable []*datamap.Set) int {
	t.Helper()
	ud, err := usableIn(universe, usable)
	if err != nil {
		t.Fatal(err)
	}
	blocks := universe.Blocks()
	if len(blocks) > 16 {
		t.Fatalf("brute force limited to 16 blocks, got %d", len(blocks))
	}
	loads := make([]int, len(ud))
	best := len(blocks) + 1
	var rec func(idx, curMax int)
	rec = func(idx, curMax int) {
		if curMax >= best {
			return // prune
		}
		if idx == len(blocks) {
			best = curMax
			return
		}
		b := blocks[idx]
		for i, u := range ud {
			if !u.Contains(b) {
				continue
			}
			loads[i]++
			rec(idx+1, max(curMax, loads[i]))
			loads[i]--
		}
	}
	rec(0, 0)
	return best
}

func TestOptimalLimits(t *testing.T) {
	// OptimalMaxLoad is polynomial and takes any size; only the
	// exhaustive OptimalSetCount is capped.
	big := datamap.NewSet()
	for b := 0; b < 17; b++ {
		big.Add(datamap.BlockID(b))
	}
	if res, err := OptimalMaxLoad(big, []*datamap.Set{big}); err != nil || res.MaxLoad != 17 {
		t.Errorf("OptimalMaxLoad on 17 blocks, one device: %v, %v; want load 17", res, err)
	}
	many := make([]*datamap.Set, 21)
	for i := range many {
		many[i] = datamap.NewSet(1)
	}
	if _, err := OptimalSetCount(datamap.NewSet(1), many); err == nil {
		t.Error("OptimalSetCount should reject > 20 devices")
	}
}

// randomInstance builds a random coverable instance.
func randomInstance(seedName string, trial, devices, blocks, perDev int) (*datamap.Set, []*datamap.Set) {
	r := rng.NewSource(int64(trial)).Stream(seedName)
	universe := datamap.NewSet()
	for b := 0; b < blocks; b++ {
		universe.Add(datamap.BlockID(b))
	}
	usable := make([]*datamap.Set, devices)
	for i := range usable {
		usable[i] = datamap.NewSet()
		for j := 0; j < perDev; j++ {
			usable[i].Add(datamap.BlockID(r.Intn(blocks)))
		}
	}
	// Guarantee coverage: assign every block to one random device too.
	for b := 0; b < blocks; b++ {
		usable[r.Intn(devices)].Add(datamap.BlockID(b))
	}
	return universe, usable
}

func TestInvariantsRandom(t *testing.T) {
	for trial := 0; trial < 100; trial++ {
		universe, usable := randomInstance("cover-inv", trial, 6, 20, 5)
		for name, fn := range map[string]func(*datamap.Set, []*datamap.Set) (*Result, error){
			"BalancedPartition":    BalancedPartition,
			"BalancedPartitionLPT": BalancedPartitionLPT,
			"FewestSets":           FewestSets,
		} {
			res, err := fn(universe, usable)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if err := Verify(universe, usable, res); err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
		}
	}
}

func TestBalancedBeatsOrMatchesSetCoverOnLoad(t *testing.T) {
	// The balanced heuristics exist to reduce MaxLoad; across random
	// instances LPT must never lose to FewestSets on max load (FewestSets
	// crams blocks into few devices).
	worse := 0
	for trial := 0; trial < 50; trial++ {
		universe, usable := randomInstance("cover-load", trial, 6, 18, 6)
		lpt, err := BalancedPartitionLPT(universe, usable)
		if err != nil {
			t.Fatal(err)
		}
		fewest, err := FewestSets(universe, usable)
		if err != nil {
			t.Fatal(err)
		}
		if lpt.MaxLoad > fewest.MaxLoad {
			worse++
		}
	}
	if worse > 2 {
		t.Errorf("LPT had worse max load than set cover in %d/50 trials", worse)
	}
}

func TestFewestSetsLogNRatio(t *testing.T) {
	// Empirical check of the O(ln n) bound: greedy count ≤ (ln(U)+1)·OPT.
	for trial := 0; trial < 40; trial++ {
		universe, usable := randomInstance("cover-ratio", trial, 8, 14, 4)
		res, err := FewestSets(universe, usable)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := OptimalSetCount(universe, usable)
		if err != nil {
			t.Fatal(err)
		}
		bound := (math.Log(float64(universe.Len())) + 1) * float64(opt)
		if float64(len(res.Involved)) > bound+1e-9 {
			t.Fatalf("trial %d: greedy %d sets, bound %.2f (opt %d)",
				trial, len(res.Involved), bound, opt)
		}
		if len(res.Involved) < opt {
			t.Fatalf("trial %d: greedy %d beat optimal %d (impossible)", trial, len(res.Involved), opt)
		}
	}
}

func TestBalancedPartitionRatioEmpirical(t *testing.T) {
	// Record the paper-claimed 1/(1−e⁻¹) ≈ 1.58 ratio empirically on
	// small instances; allow a little slack beyond the claimed bound and
	// fail only on gross violations, since the claim concerns the
	// submodular relaxation.
	worstRatio := 1.0
	for trial := 0; trial < 40; trial++ {
		universe, usable := randomInstance("cover-p3", trial, 4, 12, 5)
		res, err := BalancedPartition(universe, usable)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := OptimalMaxLoad(universe, usable)
		if err != nil {
			t.Fatal(err)
		}
		if opt.MaxLoad == 0 {
			continue
		}
		ratio := float64(res.MaxLoad) / float64(opt.MaxLoad)
		if ratio > worstRatio {
			worstRatio = ratio
		}
	}
	t.Logf("worst empirical BalancedPartition ratio: %.3f", worstRatio)
	if worstRatio > 3.0 {
		t.Errorf("BalancedPartition ratio %.2f grossly exceeds expectations", worstRatio)
	}
}

func TestLPTBetterOrEqualOnAverage(t *testing.T) {
	// Ablation sanity: LPT should on average produce max loads no worse
	// than the paper's smallest-set-first greedy.
	sumPaper, sumLPT := 0, 0
	for trial := 0; trial < 60; trial++ {
		universe, usable := randomInstance("cover-lpt", trial, 6, 24, 8)
		paper, err := BalancedPartition(universe, usable)
		if err != nil {
			t.Fatal(err)
		}
		lpt, err := BalancedPartitionLPT(universe, usable)
		if err != nil {
			t.Fatal(err)
		}
		sumPaper += paper.MaxLoad
		sumLPT += lpt.MaxLoad
	}
	t.Logf("avg max load: paper greedy %.2f, LPT %.2f", float64(sumPaper)/60, float64(sumLPT)/60)
	if sumLPT > sumPaper {
		t.Errorf("LPT average max load %d exceeds paper greedy %d", sumLPT, sumPaper)
	}
}

func TestVerifyCatchesBadResults(t *testing.T) {
	universe := datamap.NewSet(1, 2)
	usable := sets([]datamap.BlockID{1, 2}, []datamap.BlockID{1, 2})

	bad := &Result{Coverage: []*datamap.Set{datamap.NewSet(1)}}
	if err := Verify(universe, usable, bad); err == nil {
		t.Error("wrong slice count should fail")
	}
	overlap := &Result{Coverage: []*datamap.Set{datamap.NewSet(1, 2), datamap.NewSet(2)}}
	if err := Verify(universe, usable, overlap); err == nil {
		t.Error("overlapping slices should fail")
	}
	missing := &Result{Coverage: []*datamap.Set{datamap.NewSet(1), datamap.NewSet()}}
	if err := Verify(universe, usable, missing); err == nil {
		t.Error("incomplete cover should fail")
	}
	notSubset := &Result{Coverage: []*datamap.Set{datamap.NewSet(1), datamap.NewSet(9)}}
	if err := Verify(universe, usable, notSubset); err == nil {
		t.Error("slice outside usable set should fail")
	}
}

func TestOptimalMaxLoadMatchesBruteForce(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		universe, usable := randomInstance("cover-ilp", trial, 4, 12, 5)
		got, err := OptimalMaxLoad(universe, usable)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(universe, usable, got); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if want := bruteForceMaxLoad(t, universe, usable); got.MaxLoad != want {
			t.Fatalf("trial %d: matching %d != brute force %d", trial, got.MaxLoad, want)
		}
	}
}

func TestOptimalMaxLoadBeyondBruteForce(t *testing.T) {
	// 60 blocks over 8 devices: far beyond the 16-block brute-force cap.
	universe, usable := randomInstance("cover-ilp-big", 1, 8, 60, 20)
	opt, err := OptimalMaxLoad(universe, usable)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(universe, usable, opt); err != nil {
		t.Fatal(err)
	}
	greedy, err := BalancedPartition(universe, usable)
	if err != nil {
		t.Fatal(err)
	}
	lpt, err := BalancedPartitionLPT(universe, usable)
	if err != nil {
		t.Fatal(err)
	}
	if opt.MaxLoad > greedy.MaxLoad || opt.MaxLoad > lpt.MaxLoad {
		t.Errorf("optimum %d exceeds a heuristic (greedy %d, LPT %d)", opt.MaxLoad, greedy.MaxLoad, lpt.MaxLoad)
	}
	// A perfectly balanced division cannot beat ceil(|D|/n).
	if lb := (universe.Len() + len(usable) - 1) / len(usable); opt.MaxLoad < lb {
		t.Errorf("optimum %d below the counting bound %d", opt.MaxLoad, lb)
	}
	t.Logf("60 blocks / 8 devices: optimal %d, paper greedy %d, LPT %d", opt.MaxLoad, greedy.MaxLoad, lpt.MaxLoad)
}

func TestOptimalMaxLoadEdgeCases(t *testing.T) {
	if got, err := OptimalMaxLoad(datamap.NewSet(), sets([]datamap.BlockID{1})); err != nil || got.MaxLoad != 0 || len(got.Involved) != 0 {
		t.Errorf("empty universe = %v,%v want load 0, nobody involved", got, err)
	}
	if _, err := OptimalMaxLoad(datamap.NewSet(1, 9), sets([]datamap.BlockID{1})); !errors.Is(err, ErrUncoverable) {
		t.Errorf("uncoverable should fail, got %v", err)
	}
}

// fuzzInstance decodes a P3 instance from bytes: data[0] picks 1–8
// devices and data[1] a universe of 0–40 blocks. The remaining bytes
// are a bit string, device by device over blocks 0..|D|+3, saying which
// device holds which block; the last four blocks lie outside the
// universe, and bits past the end of data read as zero.
func fuzzInstance(data []byte) (*datamap.Set, []*datamap.Set) {
	at := func(k int) byte {
		if k < len(data) {
			return data[k]
		}
		return 0
	}
	devices := 1 + int(at(0))%8
	blocks := int(at(1)) % 41
	universe := datamap.NewSet()
	for b := 0; b < blocks; b++ {
		universe.Add(datamap.BlockID(b))
	}
	usable := make([]*datamap.Set, devices)
	bit := 0
	for i := range usable {
		usable[i] = datamap.NewSet()
		for b := 0; b < blocks+4; b++ {
			if at(2+bit/8)>>(bit%8)&1 == 1 {
				usable[i].Add(datamap.BlockID(b))
			}
			bit++
		}
	}
	return universe, usable
}

// FuzzOptimalMaxLoad checks the matching solver on byte-decoded
// instances: an uncoverable universe returns ErrUncoverable; otherwise
// the partition passes Verify, its MaxLoad is its largest slice, the
// optimum lies between the counting bound ⌈|D|/n⌉ and both greedies'
// loads, and on at most 16 blocks it equals the exhaustive search.
//
// The seed corpus in testdata/fuzz/FuzzOptimalMaxLoad holds an even
// split, a forced heavy holder, a chain that needs multi-step augmenting
// paths, an uncoverable block, an empty universe, and random instances
// at the brute-force limit (16 blocks) and beyond it (40 blocks).
func FuzzOptimalMaxLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		universe, usable := fuzzInstance(data)
		res, err := OptimalMaxLoad(universe, usable)
		if !universe.SubsetOf(datamap.UnionOf(usable...)) {
			if !errors.Is(err, ErrUncoverable) {
				t.Fatalf("uncoverable universe: err = %v, want ErrUncoverable", err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(universe, usable, res); err != nil {
			t.Fatal(err)
		}
		largest := 0
		for _, c := range res.Coverage {
			largest = max(largest, c.Len())
		}
		if res.MaxLoad != largest {
			t.Fatalf("MaxLoad %d, largest slice %d", res.MaxLoad, largest)
		}
		if lb := (universe.Len() + len(usable) - 1) / len(usable); res.MaxLoad < lb {
			t.Fatalf("optimum %d below the counting bound %d", res.MaxLoad, lb)
		}
		for name, greedy := range map[string]func(*datamap.Set, []*datamap.Set) (*Result, error){
			"BalancedPartition":    BalancedPartition,
			"BalancedPartitionLPT": BalancedPartitionLPT,
		} {
			g, err := greedy(universe, usable)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.MaxLoad > g.MaxLoad {
				t.Fatalf("optimum %d above %s's %d", res.MaxLoad, name, g.MaxLoad)
			}
		}
		if universe.Len() <= 16 {
			if want := bruteForceMaxLoad(t, universe, usable); res.MaxLoad != want {
				t.Fatalf("optimum %d, exhaustive search %d", res.MaxLoad, want)
			}
		}
	})
}
