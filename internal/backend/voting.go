package backend

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"nbhd/internal/ensemble"
)

func init() {
	Register("voting", func(ctx context.Context, s Spec, env Env) (Backend, error) {
		if len(s.Members) == 0 {
			return nil, fmt.Errorf("voting spec needs members")
		}
		// Members are compared as the JSON documents specs are, so an
		// omitted field and its zero value are the same member.
		seen := make(map[string]int, len(s.Members))
		for i, ms := range s.Members {
			doc, err := json.Marshal(ms)
			if err != nil {
				return nil, fmt.Errorf("member %d: %w", i, err)
			}
			if j, dup := seen[string(doc)]; dup {
				return nil, fmt.Errorf("member %d repeats member %d and would vote twice", i, j)
			}
			seen[string(doc)] = i
		}
		members := make([]Backend, 0, len(s.Members))
		for i, ms := range s.Members {
			m, err := OpenWith(ctx, ms, env)
			if err != nil {
				return nil, fmt.Errorf("member %d: %w", i, err)
			}
			members = append(members, m)
		}
		return NewVoting(s.Name, members...)
	})
}

// Voting majority-votes the answers of member backends with
// ensemble.Vote. It is the repo's one committee: the paper's top-three
// vote is a voting spec over vlm members in process, and over http
// members it runs the same committee fully remotely with bit-identical
// answers. The voting spec rejects a member spec that repeats an
// earlier one; NewVoting itself accepts any members.
type Voting struct {
	name    string
	members []Backend
	caps    Capabilities
}

// NewVoting builds a voting backend over the members. All members must
// agree on the render resolution; the merged capabilities are the most
// conservative of the members'.
func NewVoting(name string, members ...Backend) (*Voting, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("backend: voting needs at least one member")
	}
	if name == "" {
		name = "voting"
	}
	caps := members[0].Capabilities()
	caps.PreferredBatch = normBatch(caps.PreferredBatch)
	for _, m := range members[1:] {
		mc := m.Capabilities()
		caps.PerceivedFeatures = caps.PerceivedFeatures && mc.PerceivedFeatures
		if b := normBatch(mc.PreferredBatch); b < caps.PreferredBatch {
			caps.PreferredBatch = b
		}
		if mc.MaxConcurrency > 0 && (caps.MaxConcurrency <= 0 || mc.MaxConcurrency < caps.MaxConcurrency) {
			caps.MaxConcurrency = mc.MaxConcurrency
		}
		if mc.RenderSize != caps.RenderSize {
			return nil, fmt.Errorf("backend: voting members disagree on render size (%d vs %d)", caps.RenderSize, mc.RenderSize)
		}
	}
	return &Voting{name: name, members: append([]Backend(nil), members...), caps: caps}, nil
}

func normBatch(b int) int {
	if b < 1 {
		return 1
	}
	return b
}

// Name identifies the backend.
func (v *Voting) Name() string { return v.name }

// Close closes every member that owns resources (e.g. HTTP members'
// connection pools), joining their errors.
func (v *Voting) Close() error {
	var errs []error
	for _, m := range v.members {
		if err := Close(m); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Capabilities returns the most conservative merge of the members'.
func (v *Voting) Capabilities() Capabilities { return v.caps }

// Classify asks every member for the batch concurrently — a remote
// committee's latency is the slowest member, not the sum — and
// majority-votes per item. The first member error cancels the rest.
func (v *Voting) Classify(ctx context.Context, req BatchRequest) (BatchResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	perMember := make([]BatchResult, len(v.members))
	errs := make([]error, len(v.members))
	var wg sync.WaitGroup
	for mi := range v.members {
		wg.Add(1)
		go func(mi int) {
			defer wg.Done()
			m := v.members[mi]
			res, err := m.Classify(ctx, req)
			if err != nil {
				errs[mi] = fmt.Errorf("backend: %s: member %s: %w", v.name, m.Name(), err)
				cancel()
				return
			}
			if len(res.Answers) != len(req.Items) {
				errs[mi] = fmt.Errorf("backend: %s: member %s returned %d answer vectors for %d items", v.name, m.Name(), len(res.Answers), len(req.Items))
				cancel()
				return
			}
			perMember[mi] = res
		}(mi)
	}
	wg.Wait()
	// Report failures in member order, skipping cancellations our own
	// cancel() induced so the root cause isn't masked.
	var canceled error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) {
			if canceled == nil {
				canceled = err
			}
			continue
		}
		return BatchResult{}, err
	}
	if canceled != nil {
		return BatchResult{}, canceled
	}
	answers := make([][]bool, len(req.Items))
	for i := range req.Items {
		votes := make([][]bool, len(v.members))
		for mi := range v.members {
			votes[mi] = perMember[mi].Answers[i]
		}
		voted, err := ensemble.Vote(votes)
		if err != nil {
			return BatchResult{}, fmt.Errorf("backend: %s: item %s: %w", v.name, req.Items[i].ID, err)
		}
		answers[i] = voted
	}
	return BatchResult{Answers: answers}, nil
}
