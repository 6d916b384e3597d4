// Package ensemble implements the paper's majority-voting rule
// (§IV-C2): combine per-image Yes/No answers from several LLMs, reaching
// a prediction "when at least two models agree" (for a three-model
// committee), plus the model-selection step that picks the top performers
// to vote and the paper's committee itself. Asking the members is the
// backend layer's job: backend.Voting asks each member and applies Vote.
// The package also provides the multi-frame fusion the paper lists as
// future work (§V): combining the four headings of one coordinate.
package ensemble

import (
	"fmt"
	"sort"

	"nbhd/internal/metrics"
	"nbhd/internal/scene"
	"nbhd/internal/vlm"
)

// Vote combines per-model answer vectors by strict majority: an indicator
// is predicted present when more than half the models say yes. All answer
// vectors must be the same length. An even split predicts absent
// (conservative).
func Vote(answers [][]bool) ([]bool, error) {
	if len(answers) == 0 {
		return nil, fmt.Errorf("ensemble: no answer vectors")
	}
	n := len(answers[0])
	for i, a := range answers {
		if len(a) != n {
			return nil, fmt.Errorf("ensemble: answer vector %d has %d entries, want %d", i, len(a), n)
		}
	}
	out := make([]bool, n)
	for k := 0; k < n; k++ {
		yes := 0
		for _, a := range answers {
			if a[k] {
				yes++
			}
		}
		out[k] = yes*2 > len(answers)
	}
	return out, nil
}

// ModelScore pairs a backend with its average accuracy.
type ModelScore struct {
	// ID is the backend's name.
	ID       string
	Accuracy float64
}

// SelectTop ranks backends by average accuracy (from their evaluation
// reports, keyed by backend name) and returns the best k, the paper's
// "top three LLMs" step. Ties break lexicographically on the name for
// determinism.
func SelectTop(reports map[string]*metrics.ClassReport, k int) ([]ModelScore, error) {
	if k <= 0 {
		return nil, fmt.Errorf("ensemble: k must be positive, got %d", k)
	}
	if len(reports) == 0 {
		return nil, fmt.Errorf("ensemble: no reports")
	}
	scores := make([]ModelScore, 0, len(reports))
	for name, rep := range reports {
		_, _, _, acc := rep.Averages()
		scores = append(scores, ModelScore{ID: name, Accuracy: acc})
	}
	sort.Slice(scores, func(a, b int) bool {
		if scores[a].Accuracy != scores[b].Accuracy {
			return scores[a].Accuracy > scores[b].Accuracy
		}
		return scores[a].ID < scores[b].ID
	})
	if k > len(scores) {
		k = len(scores)
	}
	return scores[:k], nil
}

// FusionStrategy combines the four per-heading answers of one coordinate.
type FusionStrategy int

const (
	// FuseAny marks an indicator present if any heading sees it —
	// appropriate for coordinate-level environment profiling, where an
	// indicator visible in any direction exists at the location.
	FuseAny FusionStrategy = iota + 1
	// FuseMajority requires more than half the headings to agree.
	FuseMajority
)

// String names the strategy.
func (f FusionStrategy) String() string {
	switch f {
	case FuseAny:
		return "any"
	case FuseMajority:
		return "majority"
	default:
		return fmt.Sprintf("FusionStrategy(%d)", int(f))
	}
}

// FuseHeadings combines per-heading presence vectors into one
// coordinate-level vector (§V future work: "incorporate multiple
// consecutive images in different directions").
func FuseHeadings(perHeading [][scene.NumIndicators]bool, strategy FusionStrategy) ([scene.NumIndicators]bool, error) {
	var out [scene.NumIndicators]bool
	if len(perHeading) == 0 {
		return out, fmt.Errorf("ensemble: no heading vectors")
	}
	for k := 0; k < scene.NumIndicators; k++ {
		yes := 0
		for _, v := range perHeading {
			if v[k] {
				yes++
			}
		}
		switch strategy {
		case FuseAny:
			out[k] = yes > 0
		case FuseMajority:
			out[k] = yes*2 > len(perHeading)
		default:
			return out, fmt.Errorf("ensemble: unknown fusion strategy %d", int(strategy))
		}
	}
	return out, nil
}

// PaperCommittee returns the paper's top-three committee in vote order:
// Gemini 1.5 Pro, Claude 3.7 and Grok 2 (§IV-C2). The backend layer
// majority-votes them as a voting spec over one member spec each.
func PaperCommittee() []vlm.ModelID {
	return []vlm.ModelID{vlm.Gemini15Pro, vlm.Claude37, vlm.Grok2}
}
