package analysis

import (
	"go/types"
	"reflect"
)

// Fact is a datum one analyzer attaches to a package-level object so that the
// analysis of a *depending* package can see through the import boundary —
// the same role x/tools' analysis.Fact plays. A fact type is a pointer to a
// struct and declares itself with the AFact marker method.
//
// Facts attach to package-level functions, methods on package-level named
// types, and package-level type names: those are the only objects an
// importing package can reach, and the only ones with a stable cross-package
// key ("Handle", "Device.Handle", "ConnState"). Exporting a fact on any other
// object is a no-op by design.
type Fact interface{ AFact() }

// objectKey renders the stable cross-package key of a package-level object:
// "Name" for functions, type names, vars, and consts; "Recv.Name" for
// methods. It returns "" for objects that cannot carry facts (locals, fields,
// interface methods without a concrete receiver).
func objectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return ""
			}
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Name()
}

// factKey identifies one stored fact: one analyzer may attach one fact of
// each type to each object.
type factKey struct {
	pkg      string // package import path
	obj      string // objectKey within the package
	analyzer string
	typ      string // fact type's struct name
}

// Store holds every exported object fact of one whole-program run. The driver
// threads one Store through all packages in dependency order.
type Store struct {
	m map[factKey]Fact
}

// NewStore builds an empty store.
func NewStore() *Store {
	return &Store{m: map[factKey]Fact{}}
}

// factTypeName names a fact's dynamic type within the store's keys.
func factTypeName(f Fact) string {
	t := reflect.TypeOf(f)
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.Name()
}

// FactSet is one analyzer's view of the store while analyzing one package:
// exports attach to that analyzer's name, imports resolve against it.
type FactSet struct {
	store    *Store
	analyzer string
	pkg      *types.Package
}

// View scopes the store to one (analyzer, package) pass.
func (s *Store) View(analyzer string, pkg *types.Package) *FactSet {
	return &FactSet{store: s, analyzer: analyzer, pkg: pkg}
}

// export records fact on obj. Objects without a stable key are skipped (see
// Fact); re-exporting overwrites, so re-analyzing a package is idempotent.
func (fs *FactSet) export(obj types.Object, fact Fact) {
	key := objectKey(obj)
	if key == "" {
		return
	}
	fs.store.m[factKey{obj.Pkg().Path(), key, fs.analyzer, factTypeName(fact)}] = fact
}

// imp copies the stored fact for obj into ptr and reports whether one
// existed. ptr selects the fact type, exactly like x/tools.
func (fs *FactSet) imp(obj types.Object, ptr Fact) bool {
	key := objectKey(obj)
	if key == "" {
		return false
	}
	got, ok := fs.store.m[factKey{obj.Pkg().Path(), key, fs.analyzer, factTypeName(ptr)}]
	if !ok {
		return false
	}
	dv := reflect.ValueOf(ptr)
	sv := reflect.ValueOf(got)
	if dv.Type() != sv.Type() || dv.Kind() != reflect.Pointer {
		return false
	}
	dv.Elem().Set(sv.Elem())
	return true
}
