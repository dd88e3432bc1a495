package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// determinism: the replay/wire path must be a pure function of its
// inputs. Every bit-identical guarantee the test suite enforces —
// kill-and-recover equality, journal-replay equality, content-hash
// stable engine compiles, v1/v2 parity — reduces to three mechanical
// rules on the code that produces persisted or hashed bytes:
//
//  1. no iteration over a map in an order-sensitive position (Go
//     randomizes range order per execution);
//  2. no time.Now/Since/Until and no global math/rand source (seeded
//     *rand.Rand values threaded through the noise seam are fine —
//     their state is part of the snapshot);
//  3. no floating-point accumulation in map-iteration order (float
//     addition does not commute in rounding).
//
// Scope: all of internal/persist, internal/wire, internal/chunked and
// internal/report (the wire formats themselves), plus functions in internal/core and
// internal/stream whose names say they are on the snapshot/replay path
// (Snapshot, Restore, Marshal, Encode, ApplyStep, fingerprints and
// hashes).
//
// A map range whose body is provably order-insensitive — it only
// collects keys/values for later sorting, fills another map, deletes,
// or counts with integers — is not flagged: collect-then-sort is the
// idiomatic fix, and flagging it would teach people to ignore the
// analyzer.

// Determinism is the analyzer instance.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "flags nondeterminism (map order, clocks, global rand) on the replay/wire path",
	Run:  runDeterminism,
}

// determinismWholePkgs are fully in-scope packages.
var determinismWholePkgs = []string{"internal/persist", "internal/wire", "internal/chunked", "internal/report"}

// determinismFuncRe scopes core/stream to their wire-path functions.
var determinismFuncRe = regexp.MustCompile(`(?i)snapshot|restore|marshal|unmarshal|encode|decode|wire|applystep|fingerprint|contenthash|replay`)

// determinismFuncPkgs are packages scoped by function name.
var determinismFuncPkgs = []string{"internal/core", "internal/stream"}

// nondetCalls are the clock and global-randomness entry points.
var nondetCalls = map[string]string{
	"time.Now":   "wall-clock reads differ between original run and replay",
	"time.Since": "wall-clock reads differ between original run and replay",
	"time.Until": "wall-clock reads differ between original run and replay",
}

func pathMatchesAny(path string, frags []string) bool {
	for _, f := range frags {
		if strings.Contains(path, f) {
			return true
		}
	}
	return false
}

// runDeterminism is the per-package entry point.
func runDeterminism(pass *Pass) {
	whole := pathMatchesAny(pass.Pkg.Path, determinismWholePkgs)
	byName := pathMatchesAny(pass.Pkg.Path, determinismFuncPkgs)
	if !whole && !byName {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !whole && !determinismFuncRe.MatchString(fd.Name.Name) {
				continue
			}
			checkDeterminism(pass, fd)
		}
	}
}

// checkDeterminism scans one scoped function (closures included — they
// run on the same path).
func checkDeterminism(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.RangeStmt:
			t := pass.TypeOf(st.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if benignMapRange(info, st) {
				return true
			}
			if floatAccumulation(info, st.Body) {
				pass.Reportf(st.Pos(), "float accumulation over map iteration order in %s: FP addition does not commute in rounding, so replays diverge bit-by-bit; iterate sorted keys", fd.Name.Name)
			} else {
				pass.Reportf(st.Pos(), "map iteration order is randomized; %s is on the replay/wire path — sort the keys before iterating", fd.Name.Name)
			}
		case *ast.CallExpr:
			fn := calleeFunc(info, st)
			if fn == nil {
				return true
			}
			name := fn.FullName()
			if why, ok := nondetCalls[name]; ok {
				pass.Reportf(st.Pos(), "%s in %s: %s", name, fd.Name.Name, why)
				return true
			}
			// Package-level math/rand functions draw from the process
			// global source; seeded *rand.Rand methods are deterministic
			// state machines and pass.
			if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "math/rand" {
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
					pass.Reportf(st.Pos(), "math/rand.%s uses the global source in %s: replays cannot reproduce the draw; thread a seeded *rand.Rand through the noise seam", fn.Name(), fd.Name.Name)
				}
			}
		}
		return true
	})
}

// benignMapRange reports whether every statement of a map-range body is
// order-insensitive: appending the key/value for later sorting, filling
// a map or set, deleting, or integer counting.
func benignMapRange(info *types.Info, st *ast.RangeStmt) bool {
	for _, stmt := range st.Body.List {
		if !benignStmt(info, stmt) {
			return false
		}
	}
	return true
}

// benignStmt classifies one statement as order-insensitive.
func benignStmt(info *types.Info, stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		if len(s.Lhs) != len(s.Rhs) {
			return false
		}
		for i := range s.Lhs {
			if !benignAssign(info, s.Lhs[i], s.Rhs[i], s.Tok.String()) {
				return false
			}
		}
		return true
	case *ast.IncDecStmt:
		return true // x++ / x-- commute
	case *ast.ExprStmt:
		// delete(m, k) is order-insensitive.
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" && info.Uses[id] == nil {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && id.Name == "delete" {
					return true
				}
			}
		}
		return false
	default:
		return false
	}
}

// benignAssign classifies one assignment inside a map range.
func benignAssign(info *types.Info, lhs, rhs ast.Expr, tok string) bool {
	switch tok {
	case "=", ":=":
		// m[k] = v — filling a map is order-insensitive.
		if ix, ok := lhs.(*ast.IndexExpr); ok {
			if t := info.TypeOf(ix.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					return true
				}
			}
			return false
		}
		// xs = append(xs, ...) — collect-then-sort.
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin || info.Uses[id] == nil {
					return true
				}
			}
		}
		return false
	case "+=", "-=", "|=", "&=", "^=":
		// Integer accumulation commutes; float does not.
		if t := info.TypeOf(lhs); t != nil {
			if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// floatAccumulation reports whether the body compound-assigns into a
// float in iteration order.
func floatAccumulation(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || (as.Tok.String() != "+=" && as.Tok.String() != "*=" && as.Tok.String() != "-=") {
			return true
		}
		for _, lhs := range as.Lhs {
			if t := info.TypeOf(lhs); t != nil {
				if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
					found = true
				}
			}
		}
		return true
	})
	return found
}
