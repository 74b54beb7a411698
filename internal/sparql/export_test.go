package sparql

import (
	"reflect"
	"unsafe"
)

// Unnumber clears the parser's number of every term of q's tree, as if
// other code had built it, so that a Scope numbers its terms by name.
func Unnumber(q *Query) { unnumber(reflect.ValueOf(q)) }

var termType = reflect.TypeFor[Term]()

func unnumber(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			unnumber(v.Elem())
		}
	case reflect.Slice, reflect.Array:
		for i := range v.Len() {
			unnumber(v.Index(i))
		}
	case reflect.Struct:
		if v.Type() == termType {
			if v.CanAddr() {
				(*Term)(unsafe.Pointer(v.UnsafeAddr())).num = 0
			}
			return
		}
		for i := range v.NumField() {
			unnumber(v.Field(i))
		}
	}
}

// RecycledIRI is the IRI every term of a poisoned node holds.
const RecycledIRI = recycledIRI
