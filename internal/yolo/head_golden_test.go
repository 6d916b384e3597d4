package yolo

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"nbhd/internal/backbone"
	"nbhd/internal/render"
	"nbhd/internal/tensor"
)

// quantizedHeadGolden trains a 32 px detector for one epoch, switches it
// to the int8 path and runs the network DetectBatch runs on batches of 8
// and of 1, returning the raw head output before decoding: one JSON
// string per frame, naming the case and frame and listing its grid
// values at %.17g.
func quantizedHeadGolden(t *testing.T) []byte {
	t.Helper()
	ex := tinyExamples(t, 9, 32)
	m, err := New(Config{InputSize: 32, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Train(ex[:8], TrainConfig{Epochs: 1, BatchSize: 4, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetQuantized(true); err != nil {
		t.Fatal(err)
	}
	imgs := make([]*render.Image, len(ex))
	for i := range ex {
		imgs[i] = ex[i].Image
	}
	var lines []string
	for _, c := range []struct {
		name  string
		batch []*render.Image
		first int
	}{{"b8", imgs[:8], 0}, {"b1", imgs[8:], 8}} {
		err := backbone.Infer(m.Net, c.batch, func(out *tensor.Tensor) {
			per := out.NumElems() / len(c.batch)
			for i := range c.batch {
				line := fmt.Sprintf("%s f%d", c.name, c.first+i)
				for _, v := range out.Data[i*per : (i+1)*per] {
					line += fmt.Sprintf(" %.17g", v)
				}
				lines = append(lines, line)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}

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

// TestQuantizedHeadGolden pins the detector's int8 head output, bit for
// bit, against testdata/head_int8.json. There is no -update flag: the
// file is regenerated only from a commit whose answers are known good.
func TestQuantizedHeadGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/head_int8.json")
	if err != nil {
		t.Fatal(err)
	}
	got := quantizedHeadGolden(t)
	if bytes.Equal(got, want) {
		return
	}
	gotLines := strings.Split(string(got), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("head output diverges from testdata/head_int8.json at line %d:\ngot:  %.200s\nwant: %.200s", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("head output has %d lines, testdata/head_int8.json has %d", len(gotLines), len(wantLines))
}
