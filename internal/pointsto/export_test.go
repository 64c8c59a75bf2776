package pointsto

import (
	"bytes"
	"encoding/gob"
	"reflect"
)

// EditWire gob-decodes data into the wire record, adds each edit's
// delta to the integer field it names, and re-encodes the record. The
// integer fields are numbered in a fixed walk of the record (struct
// fields in order, slice elements in order); an index picks one modulo
// their count, so every index names a field. It lets a fuzz target
// reach structural inconsistencies that byte-level mutation of a gob
// stream almost never produces.
func EditWire(data []byte, edits [][2]int64) ([]byte, error) {
	var w wireAnalysis
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, err
	}
	var ints []reflect.Value
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Int, reflect.Uint8, reflect.Uint64:
			ints = append(ints, v)
		}
	}
	walk(reflect.ValueOf(&w).Elem())
	for _, e := range edits {
		if len(ints) == 0 {
			break
		}
		v := ints[uint64(e[0])%uint64(len(ints))]
		if v.CanInt() {
			v.SetInt(v.Int() + e[1])
		} else {
			v.SetUint(v.Uint() + uint64(e[1]))
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
