package checkpoint

import (
	"bytes"
	"testing"
)

// FuzzReadSnapshot feeds arbitrary bytes to the one decoder of persisted
// state. Corrupt input must return an error, never panic; whatever does
// decode must either restore into a pico model or be rejected with the model
// untouched. The committed corpus (testdata/fuzz/FuzzReadSnapshot) holds the
// small structural seeds — a snapshot's leading bytes with the gob type
// descriptors, retired format numbers in both layouts, garbage; the full
// valid snapshot and its deeper truncations are ~200 KB each and are rebuilt
// here instead (the encoding is deterministic).
func FuzzReadSnapshot(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, modelSnapshot(f, newPico(1))); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/3])
	f.Add(valid[:len(valid)-1])

	dst := newPico(2)
	before := flatWeights(dst)
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := snap.Restore(ModelState(dst)); err != nil {
			if !sameBits(before, flatWeights(dst)) {
				t.Fatalf("rejected restore (%v) wrote to the model", err)
			}
			return
		}
		before = flatWeights(dst)
	})
}
