package prompt

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"nbhd/internal/scene"
)

func TestQuestionAllLanguages(t *testing.T) {
	for _, lang := range Languages() {
		for _, ind := range scene.Indicators() {
			q, err := Question(ind, lang)
			if err != nil {
				t.Errorf("Question(%v,%v): %v", ind, lang, err)
			}
			if q == "" {
				t.Errorf("Question(%v,%v) empty", ind, lang)
			}
		}
	}
	if _, err := Question(scene.Sidewalk, Language(99)); err == nil {
		t.Error("unknown language accepted")
	}
}

func TestLanguageAndModeStrings(t *testing.T) {
	if English.String() != "English" || Chinese.String() != "Chinese" {
		t.Error("language names wrong")
	}
	if Language(42).String() != "Language(42)" {
		t.Error("unknown language name wrong")
	}
	if Parallel.String() != "parallel" || Sequential.String() != "sequential" {
		t.Error("mode names wrong")
	}
	if Mode(7).String() != "Mode(7)" {
		t.Error("unknown mode name wrong")
	}
}

func TestPaperOrder(t *testing.T) {
	order := PaperOrder()
	if order[0] != scene.MultilaneRoad || order[5] != scene.Apartment {
		t.Errorf("PaperOrder = %v", order)
	}
}

func TestParallelPromptEnglish(t *testing.T) {
	order := PaperOrder()
	p, err := ParallelPrompt(order[:], English)
	if err != nil {
		t.Fatalf("ParallelPrompt: %v", err)
	}
	if !strings.Contains(p, "multi-lane road") {
		t.Error("missing multilane question")
	}
	if !strings.Contains(p, "And is") {
		t.Error("missing 'And' connective between questions")
	}
	// All six questions present.
	if got := strings.Count(p, "?"); got < 6 {
		t.Errorf("only %d question marks", got)
	}
	if _, err := ParallelPrompt(nil, English); err == nil {
		t.Error("empty indicator list accepted")
	}
}

func TestParallelPromptSpanish(t *testing.T) {
	order := PaperOrder()
	p, err := ParallelPrompt(order[:], Spanish)
	if err != nil {
		t.Fatalf("ParallelPrompt: %v", err)
	}
	if !strings.Contains(p, "acera") {
		t.Error("missing Spanish sidewalk question")
	}
	if !strings.Contains(p, "Y ¿") && !strings.Contains(p, "Y ¿La") {
		// The connective precedes subsequent questions.
		if !strings.Contains(p, "Y ") {
			t.Error("missing Spanish connective")
		}
	}
}

func TestSequentialPrompts(t *testing.T) {
	order := PaperOrder()
	ps, err := SequentialPrompts(order[:], English)
	if err != nil {
		t.Fatalf("SequentialPrompts: %v", err)
	}
	if len(ps) != 6 {
		t.Fatalf("prompts = %d", len(ps))
	}
	for i, p := range ps {
		if !strings.Contains(p, "?") {
			t.Errorf("prompt %d has no question: %q", i, p)
		}
	}
	if _, err := SequentialPrompts(nil, English); err == nil {
		t.Error("empty list accepted")
	}
}

func TestDetectLanguage(t *testing.T) {
	order := PaperOrder()
	for _, lang := range Languages() {
		p, err := ParallelPrompt(order[:], lang)
		if err != nil {
			t.Fatalf("ParallelPrompt(%v): %v", lang, err)
		}
		if got := DetectLanguage(p); got != lang {
			t.Errorf("DetectLanguage(%v prompt) = %v", lang, got)
		}
	}
	if got := DetectLanguage("unrelated text"); got != English {
		t.Errorf("unknown text detected as %v, want English default", got)
	}
}

func TestQuestionsInParallel(t *testing.T) {
	order := PaperOrder()
	for _, lang := range Languages() {
		p, err := ParallelPrompt(order[:], lang)
		if err != nil {
			t.Fatalf("ParallelPrompt: %v", err)
		}
		got := QuestionsIn(p, lang)
		if len(got) != 6 {
			t.Fatalf("%v: found %d questions, want 6 (%v)", lang, len(got), got)
		}
		for i, ind := range order {
			if got[i] != ind {
				t.Errorf("%v: question %d = %v, want %v", lang, i, got[i], ind)
			}
		}
	}
}

func TestQuestionsInSingle(t *testing.T) {
	q, err := Question(scene.Powerline, English)
	if err != nil {
		t.Fatal(err)
	}
	got := QuestionsIn(q, English)
	if len(got) != 1 || got[0] != scene.Powerline {
		t.Errorf("QuestionsIn single = %v", got)
	}
}

func TestQuestionsInSubset(t *testing.T) {
	inds := []scene.Indicator{scene.Sidewalk, scene.Apartment}
	p, err := ParallelPrompt(inds, English)
	if err != nil {
		t.Fatal(err)
	}
	got := QuestionsIn(p, English)
	if len(got) != 2 || got[0] != scene.Sidewalk || got[1] != scene.Apartment {
		t.Errorf("subset QuestionsIn = %v", got)
	}
}

func TestAnswerWord(t *testing.T) {
	tests := []struct {
		v    bool
		lang Language
		want string
	}{
		{true, English, "Yes"},
		{false, English, "No"},
		{true, Spanish, "Sí"},
		{false, Spanish, "No"},
		{true, Chinese, "是"},
		{false, Chinese, "否"},
		{true, Bengali, "হ্যাঁ"},
		{false, Bengali, "না"},
	}
	for _, tt := range tests {
		if got := AnswerWord(tt.v, tt.lang); got != tt.want {
			t.Errorf("AnswerWord(%v,%v) = %q, want %q", tt.v, tt.lang, got, tt.want)
		}
	}
}

func TestFormatAndParseRoundTrip(t *testing.T) {
	answers := []bool{true, false, false, true, false, true}
	for _, lang := range Languages() {
		text := FormatAnswers(answers, lang)
		got, err := ParseAnswers(text, len(answers), lang)
		if err != nil {
			t.Fatalf("%v: ParseAnswers(%q): %v", lang, text, err)
		}
		for i := range answers {
			if got[i] != answers[i] {
				t.Errorf("%v: answer %d = %v, want %v", lang, i, got[i], answers[i])
			}
		}
	}
}

func TestParseAnswersRobustness(t *testing.T) {
	tests := []struct {
		text string
		n    int
		want []bool
	}{
		{"Yes, No, No, Yes, No, Yes", 6, []bool{true, false, false, true, false, true}},
		{"yes\nno\nyes", 3, []bool{true, false, true}},
		{"Yes. No. Yes.", 3, []bool{true, false, true}},
		{"'Yes', 'No'", 2, []bool{true, false}},
	}
	for _, tt := range tests {
		got, err := ParseAnswers(tt.text, tt.n, English)
		if err != nil {
			t.Errorf("ParseAnswers(%q): %v", tt.text, err)
			continue
		}
		for i := range tt.want {
			if got[i] != tt.want[i] {
				t.Errorf("ParseAnswers(%q)[%d] = %v", tt.text, i, got[i])
			}
		}
	}
}

func TestParseAnswersErrors(t *testing.T) {
	if _, err := ParseAnswers("Yes, No", 6, English); err == nil {
		t.Error("short reply accepted")
	}
	if _, err := ParseAnswers("maybe, perhaps", 2, English); err == nil {
		t.Error("unparseable reply accepted")
	}
	if _, err := ParseAnswers("Yes", 0, English); err == nil {
		t.Error("zero count accepted")
	}
	// Extra answers are an error too (reply must match question count).
	if _, err := ParseAnswers("Yes, No, Yes", 2, English); err == nil {
		t.Error("overlong reply accepted")
	}
}

func TestParseAnswersChinese(t *testing.T) {
	got, err := ParseAnswers("是，否，是", 3, Chinese)
	if err != nil {
		t.Fatalf("ParseAnswers: %v", err)
	}
	want := []bool{true, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("answer %d = %v", i, got[i])
		}
	}
}

// Property: FormatAnswers/ParseAnswers round-trips arbitrary boolean
// vectors in every language.
func TestFormatParseProperty(t *testing.T) {
	f := func(bits []bool, langIdx uint8) bool {
		if len(bits) == 0 || len(bits) > 32 {
			return true
		}
		langs := Languages()
		lang := langs[int(langIdx)%len(langs)]
		text := FormatAnswers(bits, lang)
		got, err := ParseAnswers(text, len(bits), lang)
		if err != nil {
			return false
		}
		for i := range bits {
			if got[i] != bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: QuestionsIn finds exactly the indicators a parallel prompt
// asks about, for any non-empty subset in any language.
func TestQuestionsInSubsetProperty(t *testing.T) {
	f := func(mask uint8, langIdx uint8) bool {
		var inds []scene.Indicator
		for i, ind := range PaperOrder() {
			if mask&(1<<i) != 0 {
				inds = append(inds, ind)
			}
		}
		if len(inds) == 0 {
			return true
		}
		langs := Languages()
		lang := langs[int(langIdx)%len(langs)]
		p, err := ParallelPrompt(inds, lang)
		if err != nil {
			return false
		}
		got := QuestionsIn(p, lang)
		if len(got) != len(inds) {
			return false
		}
		for i := range inds {
			if got[i] != inds[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// FuzzParseAnswers holds the boundary a remote model's reply crosses:
// any reply, count and language parse without panicking, an accepted
// reply carries exactly the asked-for count, and every answer vector
// survives FormatAnswers → ParseAnswers in every prompt language. Seeds
// live under testdata/fuzz/FuzzParseAnswers.
func FuzzParseAnswers(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string, n int, lang uint8, bits uint64) {
		if got, err := ParseAnswers(text, n, Language(lang)); err == nil && len(got) != n {
			t.Fatalf("ParseAnswers(%q, %d, %d) accepted %d answers", text, n, lang, len(got))
		}
		l := Languages()[int(lang)%len(Languages())]
		v := make([]bool, 1+int(uint64(n)%64))
		for i := range v {
			v[i] = bits&(1<<i) != 0
		}
		reply := FormatAnswers(v, l)
		got, err := ParseAnswers(reply, len(v), l)
		if err != nil {
			t.Fatalf("%v: formatted reply %q rejected: %v", l, reply, err)
		}
		if !slices.Equal(got, v) {
			t.Fatalf("%v: %q parsed as %v, want %v", l, reply, got, v)
		}
	})
}
