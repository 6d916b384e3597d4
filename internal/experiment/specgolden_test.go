package experiment_test

import (
	"bytes"
	"fmt"
	"testing"

	"nbhd/internal/experiment"
)

// builtinSpecBytes renders every builtin spec with MarshalIndentSpec
// under two small configs: the defaults, and one that sets every
// BuiltinConfig field. Each document is headed by a "== config name"
// line.
func builtinSpecBytes(t *testing.T) []byte {
	t.Helper()
	configs := []struct {
		label string
		cfg   experiment.BuiltinConfig
	}{
		{"small", experiment.BuiltinConfig{Coordinates: 12, Seed: 7}},
		{"full", experiment.BuiltinConfig{
			Coordinates:      12,
			Seed:             7,
			BaseURL:          "http://127.0.0.1:18431",
			APIKey:           "key",
			TrainEpochs:      2,
			Quantized:        true,
			Morphology:       "coastal",
			Condition:        "noise",
			MatrixKinds:      []string{"vlm", "cnn-int8"},
			MatrixConditions: []string{"clean", "occlusion"},
		}},
	}
	var buf bytes.Buffer
	for _, c := range configs {
		for _, name := range experiment.BuiltinNames() {
			spec, err := experiment.Builtin(name, c.cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", c.label, name, err)
			}
			doc, err := experiment.MarshalIndentSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "== %s %s\n", c.label, name)
			buf.Write(doc)
		}
	}
	return buf.Bytes()
}

// TestBuiltinSpecsGolden pins the encoded bytes of every builtin spec.
// The lab journal keys runs by a hash of the spec document and the
// FuzzParseSpec seeds are spec documents, so a change to a field name,
// tag or order shows up here first.
func TestBuiltinSpecsGolden(t *testing.T) {
	assertGolden(t, "builtin_specs.golden", builtinSpecBytes(t))
}
