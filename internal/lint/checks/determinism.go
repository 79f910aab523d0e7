package checks

import (
	"go/ast"
	"go/token"
	"go/types"

	"dsmec/internal/lint"
)

// Determinism returns the analyzer guarding the byte-identical-output
// invariant: the same scenario and seed must produce the same bytes at
// any -parallel value. Three things silently break it and are flagged
// in deterministic packages:
//
//   - wall-clock reads (time.Now, time.Since, time.Until, time.Sleep):
//     wall time differs run to run, so any value derived from it that
//     reaches an output desynchronizes the goldens. Timing that feeds
//     observability must route through internal/obs (obs.StartTimer),
//     which owns the wall clock and is exempt by design.
//   - the global math/rand source (rand.Intn, rand.Shuffle, ...): the
//     process-wide source is shared across goroutines, so draw order —
//     and therefore every value — depends on scheduling. Constructors
//     (rand.New, rand.NewSource, ...) are fine: seeded private sources
//     are the required pattern (internal/rng).
//   - map iteration whose body writes to state outside the loop in an
//     order-dependent way (appending to a slice, overwriting a scalar,
//     float accumulation, writing output, returning a range variable)
//     with no subsequent sort in the same block: Go randomizes map
//     order per run. Keyed writes (m2[k] = v) and commutative integer
//     accumulation are order-independent and pass; sorting the
//     collected slice afterwards also passes.
func Determinism() *lint.Analyzer {
	return &lint.Analyzer{
		Name: "determinism",
		Doc:  "flags wall-clock reads, global math/rand, and order-dependent map iteration in deterministic packages",
		Run:  runDeterminism,
	}
}

// wallClockFuncs are the time package functions that read the wall
// clock. time.Duration arithmetic and constants stay legal.
var wallClockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
	"Sleep": true,
}

// randConstructors are the math/rand package-level functions that build
// private sources instead of drawing from the global one.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

func runDeterminism(pass *lint.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkDeterministicSelector(pass, n)
			case *ast.RangeStmt:
				// Handled via the enclosing block below so the
				// following statements are visible for sort detection.
			case *ast.BlockStmt:
				checkMapRangesInBlock(pass, n)
			case *ast.CaseClause:
				checkMapRangesInStmts(pass, n.Body)
			}
			return true
		})
	}
	return nil
}

// checkDeterministicSelector flags selector uses resolving to a
// wall-clock read or a global math/rand draw, whatever the import is
// named locally.
func checkDeterministicSelector(pass *lint.Pass, sel *ast.SelectorExpr) {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (e.g. (*rand.Rand).Intn, time.Time.Sub) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			pass.Reportf(sel.Pos(),
				"time.%s reads the wall clock in a deterministic package; route timing through internal/obs (obs.StartTimer)",
				fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			pass.Reportf(sel.Pos(),
				"global math/rand source (%s.%s) in a deterministic package; draw from a seeded *rand.Rand (internal/rng)",
				fn.Pkg().Name(), fn.Name())
		}
	}
}

// checkMapRangesInBlock examines every map-range statement in the block
// with its following statements in view, so a sort after the loop can
// license order-dependent collection.
func checkMapRangesInBlock(pass *lint.Pass, block *ast.BlockStmt) {
	checkMapRangesInStmts(pass, block.List)
}

func checkMapRangesInStmts(pass *lint.Pass, stmts []ast.Stmt) {
	for i, stmt := range stmts {
		rng, ok := stmt.(*ast.RangeStmt)
		if !ok {
			continue
		}
		t := pass.TypesInfo.Types[rng.X].Type
		if t == nil {
			continue
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			continue
		}
		why := orderDependentWrite(pass, rng)
		if why == "" {
			continue
		}
		if sortFollows(pass, stmts[i+1:]) {
			continue
		}
		pass.Reportf(rng.For,
			"map iteration order is random and the body %s with no subsequent sort; iterate sorted keys or sort the result",
			why)
	}
}

// orderDependentWrite reports how the loop body leaks iteration order
// into surrounding state, or "" when every write it can see is
// order-independent. The analysis is heuristic and errs toward
// flagging; false positives carry a //meclint:allow(determinism) with
// the reason the order cannot be observed.
func orderDependentWrite(pass *lint.Pass, rng *ast.RangeStmt) string {
	body := rng.Body
	inBody := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= body.Pos() && obj.Pos() < body.End()
	}
	// isRangeVar reports whether obj is the loop's key or value binding.
	isRangeVar := func(obj types.Object) bool {
		if obj == nil {
			return false
		}
		return obj.Pos() >= rng.Pos() && obj.Pos() < body.Pos()
	}
	outerObj := func(e ast.Expr) types.Object {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return nil
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || inBody(obj) || isRangeVar(obj) {
			return nil
		}
		return obj
	}
	isInteger := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsInteger != 0
	}

	var why string
	found := func(reason string) { why = reason }

	ast.Inspect(body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				switch lhs := lhs.(type) {
				case *ast.Ident:
					obj := outerObj(lhs)
					if obj == nil {
						continue
					}
					// Commutative integer accumulation (+=, *=, |=, &=,
					// ^=) is order-independent; everything else on an
					// outer variable is not (float sums reassociate,
					// plain = keeps the last key visited, appends keep
					// iteration order).
					switch n.Tok {
					case token.ADD_ASSIGN, token.MUL_ASSIGN, token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
						if isInteger(obj.Type()) {
							continue
						}
						found("accumulates a non-integer outside the loop (float addition is order-dependent)")
					default:
						found("writes to " + lhs.Name + " declared outside the loop")
					}
				case *ast.IndexExpr:
					// Keyed writes m2[k] = v are order-independent when
					// keys are distinct; slice/array index writes keyed
					// by the range variables are too. Leave both alone.
				case *ast.SelectorExpr:
					if root := rootIdent(lhs); root != nil {
						if obj := outerObj(root); obj != nil {
							found("writes field " + lhs.Sel.Name + " of " + root.Name + " declared outside the loop")
						}
					}
				}
			}
		case *ast.IncDecStmt:
			if id, ok := n.X.(*ast.Ident); ok {
				if obj := outerObj(id); obj != nil && !isInteger(obj.Type()) {
					found("increments a non-integer outside the loop")
				}
			}
		case *ast.SendStmt:
			found("sends on a channel (delivery order follows map order)")
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				dep := false
				ast.Inspect(res, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok && isRangeVar(pass.TypesInfo.Uses[id]) {
						dep = true
						return false
					}
					return true
				})
				if dep {
					found("returns a value derived from the range variables (an arbitrary map element)")
					break
				}
			}
		case *ast.CallExpr:
			// Writing to an outer builder/writer records map order into
			// the output stream.
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if root := rootIdent(sel.X); root != nil {
					if obj := outerObj(root); obj != nil && isWriterLike(obj.Type()) {
						found("writes output through " + root.Name + " in iteration order")
					}
				}
			}
		}
		return true
	})
	return why
}

// rootIdent walks selector/index chains down to their base identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isWriterLike reports whether t is a byte-stream builder whose write
// order is observable: strings.Builder, bytes.Buffer, or anything with
// a Write([]byte) (int, error) method.
func isWriterLike(t types.Type) bool {
	for _, name := range []string{"strings.Builder", "bytes.Buffer"} {
		if types.TypeString(t, nil) == name || types.TypeString(t, nil) == "*"+name {
			return true
		}
	}
	ms := types.NewMethodSet(types.NewPointer(t))
	for i := 0; i < ms.Len(); i++ {
		m := ms.At(i).Obj()
		if m.Name() != "Write" {
			continue
		}
		sig, ok := m.Type().(*types.Signature)
		if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 2 {
			continue
		}
		if s, ok := sig.Params().At(0).Type().(*types.Slice); ok {
			if b, ok := s.Elem().(*types.Basic); ok && b.Kind() == types.Byte {
				return true
			}
		}
	}
	return false
}

// sortFollows reports whether any later statement in the same block
// sorts something, which licenses order-dependent collection above it.
func sortFollows(pass *lint.Pass, rest []ast.Stmt) bool {
	for _, stmt := range rest {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "sort", "slices":
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}
