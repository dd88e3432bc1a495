package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Cross-package facts. Wire structs are declared in one package
// (internal/stream's ServerState, internal/service's sessionState) and
// constructed in others, so the unkeyed-literal check needs a table
// built over every package of the run before any single-package pass
// executes.

// wireMarkRe matches the wire marker: `//tplvet:wire v<N>` optionally
// followed by ` schema=<hex>`.
var wireMarkRe = regexp.MustCompile(`^tplvet:wire\s+(v\d+)(?:\s+schema=([0-9a-f]+))?\s*$`)

// WireStruct is one `//tplvet:wire`-marked struct.
type WireStruct struct {
	// Version is the declared wire version ("v2").
	Version string
	// RecordedSchema is the schema= hash on the marker ("" if absent).
	RecordedSchema string
	// ActualSchema is the hash of the struct's current field set.
	ActualSchema string
	// MarkerPos is the marker comment's position.
	MarkerPos token.Pos
	// NamePos is the declared type name's position; findings about the
	// marker anchor here (a comment line cannot carry another comment,
	// so reports and allows live on the declaration line).
	NamePos token.Pos
	// NonStruct is set when the marker decorates a non-struct type.
	NonStruct bool
}

// Index is the cross-package fact table for one run.
type Index struct {
	// Wire maps the named type of each marked struct to its marker.
	Wire map[*types.TypeName]*WireStruct
}

// BuildIndex scans every package's type declarations for wire markers.
func BuildIndex(pkgs []*Package) *Index {
	idx := &Index{Wire: make(map[*types.TypeName]*WireStruct)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					mark, pos := wireMarker(gd, ts)
					if mark == nil {
						continue
					}
					obj, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
					if !ok {
						continue
					}
					ws := &WireStruct{Version: mark[1], RecordedSchema: mark[2], MarkerPos: pos, NamePos: ts.Name.Pos()}
					st, ok := obj.Type().Underlying().(*types.Struct)
					if !ok {
						ws.NonStruct = true
					} else {
						ws.ActualSchema = schemaHash(obj.Pkg(), st)
					}
					idx.Wire[obj] = ws
				}
			}
		}
	}
	return idx
}

// wireMarker finds a wire marker in the doc comment of a type spec (or
// its enclosing GenDecl). Returns the regexp groups and the comment pos.
func wireMarker(gd *ast.GenDecl, ts *ast.TypeSpec) ([]string, token.Pos) {
	for _, doc := range []*ast.CommentGroup{ts.Doc, ts.Comment, gd.Doc} {
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if m := wireMarkRe.FindStringSubmatch(text); m != nil {
				return m, c.Pos()
			}
		}
	}
	return nil, token.NoPos
}

// schemaHash fingerprints a struct's wire-relevant shape: field names
// and types in declaration order. Any addition, removal, rename,
// reorder or retype changes the hash, which forces the marker line —
// and with it a reviewed version decision — to change in the same diff.
// Unexported fields count too: the legacy gob readers skip them, but
// the binary encodings do not, and a hash that ignored them would wave
// half the schema through.
func schemaHash(pkg *types.Package, st *types.Struct) string {
	qual := types.RelativeTo(pkg)
	var b strings.Builder
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		b.WriteString(f.Name())
		b.WriteByte(' ')
		b.WriteString(types.TypeString(f.Type(), qual))
		b.WriteByte(';')
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:6])
}
