package optimizer

import (
	"reflect"
	"testing"
)

// TestRecordsHoldNoPointers pins what makes the planner's per-candidate
// stores cheap: a planRec — a join candidate and a kept record alike — and
// the DP table entry, the frontier's bucket entry and the key arena's
// element hold no pointer, slice, string, map or interface, so storing,
// copying and clearing them moves plain words the garbage collector never
// scans and no write barrier guards.
func TestRecordsHoldNoPointers(t *testing.T) {
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				check(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			check(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String, reflect.Map,
			reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s", path, typ.Kind())
		}
	}
	for _, v := range []any{planRec{}, joinRel{}, bucketEnt{}, hashedKey{}} {
		typ := reflect.TypeOf(v)
		check(typ.Name(), typ)
		t.Logf("%s: %d bytes", typ.Name(), typ.Size())
	}
}

// TestIdentityTellsVariantsApart forces the collisions a construction call
// rarely produces: next to every join record of two real calls it keeps the
// record's variants under every two-input join operator and every
// combination of enforcing sorts, and next to every sort record variants on
// other key lists, so that plans differing in exactly one operator, sort or
// key list share everything else. Across all of them, two records must share
// an identity exactly when their trees' Signature strings are equal.
func TestIdentityTellsVariantsApart(t *testing.T) {
	q, _ := debugStarQuery(t)
	a, err := NewAnalysis(q, nil, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := debugAllOrdersConfig(t, a)
	w := NewWorkspace()
	for _, opt := range []Options{{ExportAll: true}, {EnableNestLoop: true, ExportAll: true, PaperPrune: true}} {
		p := w.planners(1)[0]
		p.reset(a, cfg, opt)
		if _, err := p.plan(); err != nil {
			t.Fatal(err)
		}
		for r, n := int32(0), p.recs.n; r < n; r++ {
			c := *p.recs.at(r)
			switch {
			case c.op == OpSort:
				for _, ord := range []int32{ordOrderBy, ordGroupBy, 1, 2} {
					v := c
					v.order = ord
					p.recs.push(v)
				}
			case c.inner >= 0 && !isScan(c.op):
				for _, op := range []Op{OpHashJoin, OpMergeJoin, OpNestLoopMat} {
					for sorts := uint8(0); sorts <= sortOuter|sortInner; sorts++ {
						v := c
						v.op, v.sorts = op, sorts
						p.recs.push(v)
					}
				}
			}
		}
		clear(w.ids)
		w.on, w.memo = p, fit(w.memo, int(p.recs.n))
		p.startTrees()
		bySig, byID := map[string]int32{}, map[int32]string{}
		for r := int32(0); r < p.recs.n; r++ {
			id, sig := w.identity(r), p.tree(r).Signature()
			if other, ok := bySig[sig]; ok && other != id {
				t.Fatalf("opt=%+v: %s has identities %d and %d", opt, sig, other, id)
			}
			if other, ok := byID[id]; ok && other != sig {
				t.Fatalf("opt=%+v: identity %d names %s and %s", opt, id, other, sig)
			}
			bySig[sig], byID[id] = id, sig
		}
		t.Logf("opt=%+v: %d records, %d distinct plans", opt, p.recs.n, len(bySig))
		p.release()
	}
}
