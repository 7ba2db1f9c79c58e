package service

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"secpb/internal/config"
	"secpb/internal/engine"
)

// TestResultJSONCoversResult: every engine.Result field either reaches
// EncodeResult's bytes or is listed in resultJSONOmits, and no listed
// field does. A field added to Result without a decision fails here.
func TestResultJSONCoversResult(t *testing.T) {
	base := EncodeResult(engine.Result{})
	typ := reflect.TypeOf(engine.Result{})
	for i := 0; i < typ.NumField(); i++ {
		var r engine.Result
		f, name := reflect.ValueOf(&r).Elem().Field(i), typ.Field(i).Name
		switch {
		case f.Type() == reflect.TypeOf(config.Scheme(0)):
			f.Set(reflect.ValueOf(config.SchemeCOBCM))
		case f.CanInt():
			f.SetInt(1)
		case f.CanUint():
			f.SetUint(1)
		case f.CanFloat():
			f.SetFloat(0.5)
		case f.Kind() == reflect.String:
			f.SetString("x")
		case f.Type() == reflect.TypeOf((*error)(nil)).Elem():
			f.Set(reflect.ValueOf(errors.New("x")))
		default:
			t.Fatalf("Result.%s: no non-zero value for kind %s", name, f.Kind())
		}
		mirrored := !bytes.Equal(EncodeResult(r), base)
		switch {
		case !mirrored && !resultJSONOmits[name]:
			t.Errorf("Result.%s is neither mirrored in resultJSON nor listed in resultJSONOmits", name)
		case mirrored && resultJSONOmits[name]:
			t.Errorf("Result.%s is listed in resultJSONOmits but reaches EncodeResult", name)
		}
	}
	for name := range resultJSONOmits {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("resultJSONOmits names %s, which Result does not have", name)
		}
	}
}
