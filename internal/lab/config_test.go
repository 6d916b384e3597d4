package lab_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"nbhd/internal/experiment"
	"nbhd/internal/lab"
)

// TestConfigBuiltinEncoding pins the JSON form of a lab config's
// builtin section, every field set and none, and reads it back through
// ParseConfig.
func TestConfigBuiltinEncoding(t *testing.T) {
	for _, tc := range []struct {
		builtin experiment.BuiltinConfig
		want    string
	}{
		{experiment.BuiltinConfig{}, `{}`},
		{experiment.BuiltinConfig{
			Coordinates: 12, Seed: 7, BaseURL: "http://127.0.0.1:18431", APIKey: "key",
			TrainEpochs: 2, Quantized: true, Morphology: "coastal", Condition: "noise",
			MatrixKinds: []string{"vlm", "cnn-int8"}, MatrixConditions: []string{"clean", "occlusion"},
		}, `{"builtin":{"coordinates":12,"seed":7,"base_url":"http://127.0.0.1:18431","api_key":"key","train_epochs":2,"quantized":true,"morphology":"coastal","condition":"noise","matrix_kinds":["vlm","cnn-int8"],"matrix_conditions":["clean","occlusion"]}}`},
	} {
		data, err := json.Marshal(lab.Config{Builtin: tc.builtin})
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != tc.want {
			t.Errorf("encoded %s\nwant    %s", data, tc.want)
		}
		cfg, err := lab.ParseConfig(data)
		if err != nil {
			t.Fatalf("ParseConfig(%s): %v", data, err)
		}
		if !reflect.DeepEqual(cfg.Builtin, tc.builtin) {
			t.Errorf("read back %+v, want %+v", cfg.Builtin, tc.builtin)
		}
	}
}
