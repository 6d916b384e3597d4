package serve_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"nbhd/internal/serve"
)

// FuzzParseConfig holds the strict gateway config parser to two
// properties: no input panics it, and any config it accepts re-encodes
// to JSON that parses again to the same encoding. Seeds live under
// testdata/fuzz/FuzzParseConfig.
func FuzzParseConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := serve.ParseConfig(data)
		if err != nil {
			return
		}
		first, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("accepted config does not encode: %v", err)
		}
		again, err := serve.ParseConfig(first)
		if err != nil {
			t.Fatalf("re-encoded config rejected: %v\n%s", err, first)
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("re-parsed config does not encode: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip changed the config:\n%s\nvs\n%s", first, second)
		}
	})
}
