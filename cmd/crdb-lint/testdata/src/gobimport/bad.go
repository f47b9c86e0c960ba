// Positive cases for the gobimport check: a program file that imports
// encoding/gob, under its own name or an alias.
package gobimport

import (
	"bytes"
	"encoding/gob"        // want gobimport
	stdgob "encoding/gob" // want gobimport
)

type record struct{ Name string } // want deadsurface

func encode(r record) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(r)
	return buf.Bytes(), err
}

func decode(b []byte) (record, error) {
	var r record
	err := stdgob.NewDecoder(bytes.NewReader(b)).Decode(&r)
	return r, err
}
