package vlm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"nbhd/internal/prompt"
	"nbhd/internal/render"
	"nbhd/internal/scene"
)

// answerFrame is one named image of the answer golden.
type answerFrame struct {
	name string
	img  *render.Image
}

// answerFrames returns the golden's images: two rendered 96×96 study
// frames, a 1×1 frame (fewer pixels than the 512-word hash sample) and
// a 37×23 frame whose sample stride does not divide its length. The
// synthetic frames are filled from seeded math/rand sources, whose
// streams are fixed by the Go 1 compatibility promise.
func answerFrames(t *testing.T) []answerFrame {
	t.Helper()
	_, ex := studyExamples(t, 1)
	synthetic := func(w, h int, seed int64) *render.Image {
		img := render.MustNewImage(w, h)
		rng := rand.New(rand.NewSource(seed))
		for i := range img.Pix {
			img.Pix[i] = rng.Float32()
		}
		return img
	}
	return []answerFrame{
		{"study0-96x96", ex[0].Image},
		{"study1-96x96", ex[1].Image},
		{"rand-1x1", synthetic(1, 1, 11)},
		{"rand-37x23", synthetic(37, 23, 12)},
	}
}

// answerIndicatorLists are the question lists of the golden: the
// canonical order, a partial list, a reordering and a list with
// duplicates.
func answerIndicatorLists() [][]scene.Indicator {
	all := scene.Indicators()
	return [][]scene.Indicator{
		all[:],
		{scene.SingleLaneRoad, scene.Apartment},
		{scene.Apartment, scene.MultilaneRoad, scene.Sidewalk, scene.Streetlight, scene.Powerline, scene.SingleLaneRoad},
		{scene.Sidewalk, scene.Sidewalk, scene.Powerline, scene.Sidewalk},
	}
}

// answerGolden answers every request of the golden and returns the
// encoded file: one JSON string per request, naming the request and
// ending in its answers as Y/N letters.
func answerGolden(t *testing.T) []byte {
	t.Helper()
	frames := answerFrames(t)
	var lines []string
	add := func(m *Model, f answerFrame, req Request) {
		req.Image = f.img
		got, err := m.Classify(req)
		if err != nil {
			t.Fatalf("%s on %s: %v", m.ID(), f.name, err)
		}
		inds := make([]string, len(req.Indicators))
		for i, ind := range req.Indicators {
			inds[i] = fmt.Sprint(ind.Index())
		}
		ans := make([]byte, len(got))
		for i, yes := range got {
			ans[i] = 'N'
			if yes {
				ans[i] = 'Y'
			}
		}
		lines = append(lines, fmt.Sprintf("%s %s %v %v t=%g p=%g s=%d n=%d [%s] %s",
			m.ID(), f.name, req.Language, req.Mode, req.Temperature, req.TopP,
			req.Shots, req.Nonce, strings.Join(inds, " "), ans))
	}
	for _, id := range AllModels() {
		m, err := NewModel(mustProfile(t, id))
		if err != nil {
			t.Fatal(err)
		}
		// Every language × mode × frame × question list at the
		// provider's default sampling.
		for _, lang := range prompt.Languages() {
			for _, mode := range []prompt.Mode{prompt.Parallel, prompt.Sequential} {
				for _, f := range frames {
					for _, inds := range answerIndicatorLists() {
						add(m, f, Request{Indicators: inds, Language: lang, Mode: mode})
					}
				}
			}
		}
		// Sampling parameters, shots and nonces, cycling the language
		// and mode so shots meet non-English prompts.
		all := scene.Indicators()
		k := 0
		for _, temp := range []float64{0.2, 1.0, 1.8} {
			for _, topP := range []float64{0.5, 1.0} {
				for _, shots := range []int{0, 4} {
					for _, nonce := range []int64{0, -1, 7} {
						for _, f := range []answerFrame{frames[0], frames[2], frames[3]} {
							add(m, f, Request{
								Indicators:  all[:],
								Language:    prompt.Languages()[k%4],
								Mode:        []prompt.Mode{prompt.Parallel, prompt.Sequential}[k/4%2],
								Temperature: temp,
								TopP:        topP,
								Shots:       shots,
								Nonce:       nonce,
							})
							k++
						}
					}
				}
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

// TestAnswersGolden pins the simulated models' answers byte for byte
// beyond the defaults the experiment goldens exercise: every model,
// language and mode; non-default temperature, top-p, shots and nonces;
// tiny and odd-sized frames; partial, reordered and duplicated question
// lists.
func TestAnswersGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/answers.json")
	if err != nil {
		t.Fatal(err)
	}
	got := answerGolden(t)
	if bytes.Equal(got, want) {
		return
	}
	gotLines := strings.Split(string(got), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("answers diverge from testdata/answers.json at line %d:\ngot:  %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("answers have %d lines, testdata/answers.json has %d", len(gotLines), len(wantLines))
}
