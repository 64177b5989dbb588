package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"
)

// TestOnly keeps the kernel's surface to what the program itself uses.
// An exported internal/ name that no non-test code uses outside its own
// declaration is surface only a test can reach: a knob nobody turns, an
// accessor nobody reads. A field of a *Config or *Options struct that no
// non-test code sets is a setting only a test can change. Both are
// reported; deleting the name is the usual fix, and the name stays only
// with a //lint:allow testonly annotation that says why.
//
// The rule reads the module-wide use set (moduleUses), built once from
// every package the loader type-checked. The loader type-checks non-test
// files only and always loads the whole module, so a test is never a use
// and a narrow package pattern reports what ./... reports. Not reported:
// methods that satisfy an interface (a call through the interface names
// the interface's method), interface methods, embedded fields (promoted
// selections name no field), and JSON-tagged fields (encoding/json sets
// and reads them by reflection).
var TestOnly = &Analyzer{
	Name: "testonly",
	Doc: "flag exported internal/ names that only tests use, and *Config/*Options fields " +
		"that no non-test code sets",
	Run: runTestOnly,
}

func runTestOnly(pass *Pass) error {
	if !strings.Contains(pass.Path, "internal/") {
		return nil
	}
	m := pass.uses
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() && !m.used[obj] {
			pass.Reportf(obj.Pos(), "%s is exported but only tests use it", name)
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named := tn.Type().(*types.Named) // an interface's methods are on Underlying(), unchecked
		for i := 0; i < named.NumMethods(); i++ {
			fn := named.Method(i)
			if fn.Exported() && !m.used[fn] && !m.satisfies(named, fn.Name()) {
				pass.Reportf(fn.Pos(), "method %s.%s is exported but only tests use it", name, fn.Name())
			}
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		setting := strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() || f.Embedded() {
				continue
			}
			if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
				continue
			}
			switch {
			case !m.used[f]:
				pass.Reportf(f.Pos(), "field %s.%s is exported but only tests use it", name, f.Name())
			case setting && !m.set[f]:
				pass.Reportf(f.Pos(), "field %s.%s is never set outside tests", name, f.Name())
			}
		}
	}
	return nil
}

// moduleUses is what the loaded packages' non-test code does with
// declared objects: used holds every object named outside its own
// declaration, set every struct field assigned, keyed in a composite
// literal, or taken by address (flag.IntVar(&cfg.N, …)). ifaces indexes every interface the
// module declares, writes or imports by method name.
type moduleUses struct {
	used   map[types.Object]bool
	set    map[types.Object]bool
	ifaces map[string][]*types.Interface
}

// newModuleUses walks every package once. A declaration's references to
// itself do not count: a recursive call, a type naming itself in a field,
// or a method naming its receiver's type.
func newModuleUses(pkgs []*Package) *moduleUses {
	m := &moduleUses{
		used:   make(map[types.Object]bool),
		set:    make(map[types.Object]bool),
		ifaces: make(map[string][]*types.Interface),
	}
	m.addInterface(types.Universe.Lookup("error").Type())
	seen := make(map[*types.Package]bool)
	for _, pkg := range pkgs {
		m.addScopeInterfaces(pkg.Types, seen)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					m.walk(pkg.Info, d, declared(pkg.Info, d))
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						m.walk(pkg.Info, spec, declared(pkg.Info, spec))
					}
				}
			}
		}
	}
	return m
}

// declared returns the objects a top-level declaration introduces, with
// a method's receiver type counted as its own.
func declared(info *types.Info, n ast.Node) map[types.Object]bool {
	self := make(map[types.Object]bool)
	switch n := n.(type) {
	case *ast.FuncDecl:
		fn, ok := info.Defs[n.Name].(*types.Func)
		if !ok {
			break
		}
		self[fn] = true
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				self[named.Obj()] = true
			}
		}
	case *ast.TypeSpec:
		self[info.Defs[n.Name]] = true
	}
	return self
}

func (m *moduleUses) walk(info *types.Info, n ast.Node, self map[types.Object]bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil && !self[obj] {
				m.used[origin(obj)] = true
			}
		case *ast.InterfaceType:
			m.addInterface(info.TypeOf(n))
		case *ast.CompositeLit:
			m.markLiteral(info, n)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				m.markSet(info, lhs)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				m.markSet(info, n.X)
			}
		}
		return true
	})
}

// markLiteral records the fields a struct literal sets: the keyed ones,
// or every field of an unkeyed literal.
func (m *moduleUses) markLiteral(info *types.Info, lit *ast.CompositeLit) {
	t := info.TypeOf(lit)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok || len(lit.Elts) == 0 {
		return
	}
	if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); !keyed {
		for i := 0; i < st.NumFields(); i++ {
			m.used[origin(st.Field(i))] = true
			m.set[origin(st.Field(i))] = true
		}
		return
	}
	for _, e := range lit.Elts {
		if id, ok := e.(*ast.KeyValueExpr).Key.(*ast.Ident); ok {
			if f := info.Uses[id]; f != nil {
				m.set[origin(f)] = true
			}
		}
	}
}

// markSet records every field on the selector path an assignment writes
// through: `c.Sched.Policy = p` sets both Policy and Sched.
func (m *moduleUses) markSet(info *types.Info, x ast.Expr) {
	for {
		switch e := x.(type) {
		case *ast.ParenExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.StarExpr:
			x = e.X
		case *ast.SelectorExpr:
			if f, ok := info.Uses[e.Sel].(*types.Var); ok && f.IsField() {
				m.set[origin(f)] = true
			}
			x = e.X
		default:
			return
		}
	}
}

// addScopeInterfaces indexes the named interfaces of pkg and of every
// package it imports, transitively.
func (m *moduleUses) addScopeInterfaces(pkg *types.Package, seen map[*types.Package]bool) {
	if seen[pkg] {
		return
	}
	seen[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams().Len() == 0 {
				m.addInterface(tn.Type())
			}
		}
	}
	for _, imp := range pkg.Imports() {
		m.addScopeInterfaces(imp, seen)
	}
}

func (m *moduleUses) addInterface(t types.Type) {
	if t == nil {
		return
	}
	it, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		m.ifaces[name] = append(m.ifaces[name], it)
	}
}

// satisfies reports whether named or *named implements an interface
// that has a method called name, which a call through that interface
// reaches without naming named's method.
func (m *moduleUses) satisfies(named *types.Named, name string) bool {
	ptr := types.NewPointer(named)
	for _, it := range m.ifaces[name] {
		if types.Implements(named, it) || types.Implements(ptr, it) {
			return true
		}
	}
	return false
}

// origin maps an instantiated generic method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
