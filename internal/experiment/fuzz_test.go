package experiment_test

import (
	"bytes"
	"testing"

	"nbhd/internal/experiment"
)

// FuzzParseSpec holds the strict spec parser to two properties: no
// input panics it, and any spec it accepts re-encodes to JSON that
// parses again to the same encoding. Seeds live under
// testdata/fuzz/FuzzParseSpec.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := experiment.ParseSpec(data)
		if err != nil {
			return
		}
		first, err := experiment.MarshalIndentSpec(spec)
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		again, err := experiment.ParseSpec(first)
		if err != nil {
			t.Fatalf("re-encoded spec rejected: %v\n%s", err, first)
		}
		second, err := experiment.MarshalIndentSpec(again)
		if err != nil {
			t.Fatalf("re-parsed spec does not encode: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip changed the spec:\n%s\nvs\n%s", first, second)
		}
	})
}
