package dataset

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"nbhd/internal/render"
)

// goldenSeeds are the degradation seeds the conditions golden runs each
// op under: small and negative seeds, seeds that normalise to 0 modulo
// 2³¹−1 (and so take math/rand's replacement seed), the replacement
// seed itself and the int64 extremes.
var goldenSeeds = []int64{
	0, 1, -1, 7,
	1<<31 - 1, -(1<<31 - 1), 3 * (1<<31 - 1),
	89482311, math.MinInt64, math.MaxInt64,
}

// goldenFrames renders the conditions golden's inputs: four study
// frames at 1×1, 37×37 and 96×96, plus one non-square 37×23 frame.
func goldenFrames(t *testing.T) (*Study, []Example) {
	t.Helper()
	study := testStudyWith(t, StudyConfig{Coordinates: 3, Seed: 11})
	var out []Example
	for _, size := range []int{1, 37, 96} {
		exs, err := study.RenderExamples([]int{0, 3, 6, 9}, size)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, exs...)
	}
	fr := study.Frames[5].Scene
	img, err := render.Render(fr, render.Config{Width: 37, Height: 23})
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, Example{ID: fr.ID, Image: img, Objects: fr.Objects})
	return study, out
}

// conditionsGolden applies every capture condition, the SNR noise op
// and both augmentation arms to the golden frames and returns the
// encoded file: one JSON string per output image, naming it and ending
// in its size and the hex SHA-256 of its raw float32 encoding.
func conditionsGolden(t *testing.T) []byte {
	t.Helper()
	var lines []string
	add := func(name string, m *render.Image) {
		sum := sha256.Sum256(m.EncodeRawF32())
		lines = append(lines, fmt.Sprintf("%s %dx%d %s", name, m.W, m.H, hex.EncodeToString(sum[:])))
	}
	study, frames := goldenFrames(t)
	for i, ex := range frames {
		for _, cond := range degradedConditions() {
			seeds := append([]int64{ConditionSeed(study.seed, ex.ID, cond)}, goldenSeeds...)
			for _, seed := range seeds {
				out, err := ApplyCondition(cond, ex.Image, seed)
				if err != nil {
					t.Fatal(err)
				}
				add(fmt.Sprintf("%d:%s/%s/seed=%d", i, ex.ID, cond, seed), out)
			}
		}
	}
	for i, ex := range frames {
		for _, snr := range SNRLevels() {
			for _, seed := range []int64{5, -(1<<31 - 1)} {
				add(fmt.Sprintf("%d:%s/snr%g/seed=%d", i, ex.ID, snr, seed), ex.Image.AddGaussianNoiseSNR(snr, seed))
			}
		}
	}
	// A crop of a 1×1 frame is degenerate, so augmentation starts at 37×37.
	augFrames := frames[4:]
	for _, seed := range []int64{3, math.MaxInt64} {
		for _, arm := range []struct {
			name string
			ops  []AugmentOp
		}{{"flip", FlippingOps()}, {"flipcrop", FlippingAndCroppingOps()}} {
			aug, err := Augment(augFrames, arm.ops, seed)
			if err != nil {
				t.Fatal(err)
			}
			for i, ex := range aug[len(augFrames):] {
				add(fmt.Sprintf("augment/%s/seed=%d/%d:%s/boxes=%d", arm.name, seed, i, ex.ID, len(ex.Objects)), ex.Image)
			}
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

// TestConditionsGolden pins the degradation ops byte for byte: night,
// occlusion and noise under edge and per-frame seeds, the Fig. 3 SNR
// noise and both Fig. 2 augmentation arms, over frames from 1×1 to
// 96×96.
func TestConditionsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/conditions.json")
	if err != nil {
		t.Fatal(err)
	}
	got := conditionsGolden(t)
	if bytes.Equal(got, want) {
		return
	}
	gotLines := strings.Split(string(got), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("outputs diverge from testdata/conditions.json at line %d:\ngot:  %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("outputs have %d lines, testdata/conditions.json has %d", len(gotLines), len(wantLines))
}
