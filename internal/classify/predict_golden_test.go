package classify

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"nbhd/internal/backbone"
	"nbhd/internal/render"
)

// predictGolden runs PredictBatch at the served shape — InputSize 64,
// the default channels [8, 16, 32] — on batches of 16 and of 1, first
// on an untrained model and then after one epoch on a small corpus, and
// returns the encoded file: one JSON string per frame, naming the case
// and frame and listing its probabilities at %.17g. quantized routes
// every PredictBatch through the int8 path.
func predictGolden(t *testing.T, quantized bool) []byte {
	t.Helper()
	ex := examples(t, 17, 64)
	m, err := New(Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if cfg, _ := backbone.Weights(m.Net); cfg.InputSize != 64 || cfg.Channels != [3]int{8, 16, 32} {
		t.Fatalf("golden model is %d px %v, want the served 64 px [8 16 32]", cfg.InputSize, cfg.Channels)
	}
	if err := m.SetQuantized(quantized); err != nil {
		t.Fatal(err)
	}
	imgs := make([]*render.Image, len(ex))
	for i := range ex {
		imgs[i] = ex[i].Image
	}
	var lines []string
	add := func(state string) {
		for _, c := range []struct {
			name  string
			batch []*render.Image
			first int
		}{{"b16", imgs[:16], 0}, {"b1", imgs[16:], 16}} {
			probs, err := m.PredictBatch(c.batch)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range probs {
				line := fmt.Sprintf("%s %s f%d", state, c.name, c.first+i)
				for _, v := range p {
					line += fmt.Sprintf(" %.17g", v)
				}
				lines = append(lines, line)
			}
		}
	}
	add("untrained")
	if err := m.Train(ex[:16], TrainConfig{Epochs: 1, BatchSize: 8, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	add("epoch1")
	return encodeGolden(t, lines)
}

// encodeGolden writes lines as a JSON array of strings, one per line.
func encodeGolden(t *testing.T, lines []string) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, line := range lines {
		enc, err := json.Marshal(line)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(enc)
		if i < len(lines)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]\n")
	return buf.Bytes()
}

// checkGolden fails at the first line where got differs from the file
// at path.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines := strings.Split(string(got), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("predictions diverge from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("predictions have %d lines, %s has %d", len(gotLines), path, len(wantLines))
}

// TestPredictGolden pins the CNN's f32 answers at the shape the gateway
// serves, bit for bit, against testdata/predict.json. There is no
// -update flag: the file is regenerated only from a commit whose
// answers are known good.
func TestPredictGolden(t *testing.T) {
	checkGolden(t, "testdata/predict.json", predictGolden(t, false))
}

// TestPredictGoldenInt8 pins the same answers on the int8 path against
// testdata/predict_int8.json. Integer accumulation makes them exact for
// any batching, so a change in how the quantized convolution walks a
// batch — its per-batch activation scale, its im2col, its bias add —
// shows here bit for bit instead of inside a tolerance.
func TestPredictGoldenInt8(t *testing.T) {
	checkGolden(t, "testdata/predict_int8.json", predictGolden(t, true))
}
