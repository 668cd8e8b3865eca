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
