package workload

import (
	"bytes"
	"testing"
)

// FuzzParseGraph feeds the graph parser arbitrary bytes. Invariants: it
// never panics, and an accepted graph round-trips ParseGraph →
// MarshalGraph → ParseGraph to byte-identical canonical JSON.
func FuzzParseGraph(f *testing.F) {
	f.Add([]byte(`{"name":"g","ops":[{"id":"x","kind":"input","rows":2,"cols":2},{"id":"y","kind":"elementwise","fn":"relu","inputs":["x"]}]}`))
	f.Add([]byte(`{"name":"s","seed":3,"ops":[{"id":"r","kind":"input","rows":1,"cols":4,"data":[1,2,3,4]},{"id":"p","kind":"scatter","parts":2,"inputs":["r"]},{"id":"g","kind":"gather","inputs":["p"]}]}`))
	f.Add([]byte(`{"name":"c","ops":[{"id":"a","kind":"elementwise","fn":"add","inputs":["b","b"]},{"id":"b","kind":"elementwise","fn":"relu","inputs":["a"]}]}`))
	f.Add([]byte(`{"name":"","ops":[]}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseGraph(data)
		if err != nil {
			return
		}
		first, err := MarshalGraph(g)
		if err != nil {
			t.Fatalf("MarshalGraph rejected a parsed graph: %v", err)
		}
		g2, err := ParseGraph(first)
		if err != nil {
			t.Fatalf("ParseGraph rejected its own canonical form: %v\n%s", err, first)
		}
		second, err := MarshalGraph(g2)
		if err != nil {
			t.Fatalf("MarshalGraph rejected the round-tripped graph: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("canonical JSON not stable:\n first %s\nsecond %s", first, second)
		}
	})
}
