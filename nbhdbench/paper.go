package main

import (
	"bytes"
	"context"
	"runtime"
	"sort"
	"time"

	"nbhd/internal/backend"
	"nbhd/internal/core"
	"nbhd/internal/experiment"
	"nbhd/internal/metrics"
	"nbhd/internal/vlm"
)

// paperSweep runs the builtin f5 experiment — four simulated LLMs and
// their top-three majority vote — at paper scale, one full Runner.Run on
// a fresh corpus per op: what one llmeval invocation does.
type paperSweep struct {
	seed int64
	ops  int
	spec experiment.Spec
	// ref is the encoded sweep reports every op must reproduce.
	ref []byte
	// opGo sums the runtime counters over the last pass's ops, without
	// the collection forced between them.
	opGo goCounters
}

const (
	paperCoordinates = 300
	// paperOpCost is the nominal wall time of one f5 run at paper scale
	// on the 2-core reference host.
	paperOpCost = 650 * time.Millisecond
	// paperVote is the f5 vote sweep's name.
	paperVote = "f5:voting"
	// llmRenderSize is the pipeline's default LLM frame resolution, the
	// size the f5 backends are served at.
	llmRenderSize = 96
)

func newPaperSweep(seed int64, seconds int) instance {
	return &paperSweep{seed: seed, ops: opCount(seconds, paperOpCost)}
}

func (w *paperSweep) runner() *experiment.Runner {
	return experiment.NewRunner(experiment.RunnerConfig{Workers: runtime.NumCPU()})
}

// setup builds the spec and makes one warm-up run, whose output is the
// reference every op must reproduce.
func (w *paperSweep) setup(ctx context.Context) error {
	spec, err := experiment.Builtin("f5", experiment.BuiltinConfig{Coordinates: paperCoordinates, Seed: w.seed})
	if err != nil {
		return err
	}
	w.spec = spec
	res, err := w.runner().Run(ctx, spec, nil)
	if err != nil {
		return err
	}
	w.ref, err = encodeSweeps(res.Sweeps)
	return err
}

func (w *paperSweep) prepare(context.Context) error { return nil }

// encodeSweeps concatenates the diffable encoding of every sweep.
func encodeSweeps(sweeps []experiment.SweepResult) ([]byte, error) {
	var buf bytes.Buffer
	for _, sw := range sweeps {
		b, err := experiment.EncodeSweepReports(sw)
		if err != nil {
			return nil, err
		}
		buf.Write(b)
	}
	return buf.Bytes(), nil
}

// frames is the number of frames a report scored.
func frames(r *metrics.ClassReport) int { return r.PerClass[0].Total() }

// runSink turns the runner's progress events into spans: the corpus
// build (Run entry to RunStarted) and each sweep.
type runSink struct {
	rec    *Recorder
	ctx    context.Context
	corpus *Open
	sweep  *Open
	cells  int
}

func (s *runSink) event(ev experiment.Event) {
	switch ev.Kind {
	case experiment.RunStarted:
		s.corpus.Close(0)
	case experiment.SweepStarted:
		_, s.sweep = s.rec.Start(s.ctx, "core.sweep")
		s.cells = 0
	case experiment.ReportReady:
		s.cells++
	case experiment.SweepFinished:
		s.sweep.Close(s.cells)
	}
}

func (w *paperSweep) run(ctx context.Context, rec *Recorder) (*pass, error) {
	p := &pass{work: map[string]float64{}}
	r := w.runner()
	var opGo goCounters
	for i := 0; i < w.ops; i++ {
		var sink experiment.Sink
		var op *Open
		rec := tracedSegment(rec, i)
		end := startSegment()
		g0 := readGoCounters()
		if rec != nil {
			opCtx, o := rec.Start(ctx, "experiment.run")
			op = o
			s := &runSink{rec: rec, ctx: opCtx}
			_, s.corpus = rec.Start(opCtx, "dataset.build_study")
			sink = s.event
		}
		res, err := r.Run(ctx, w.spec, sink)
		if op != nil {
			op.Close(0)
		}
		seg := end(0, nil)
		seg.ops = []time.Duration{seg.wall}
		seg.traced = rec != nil
		g := readGoCounters().sub(g0)
		opGo.AllocBytes += g.AllocBytes
		opGo.GCCycles += g.GCCycles
		p.attempted++
		seg.units = w.check(p, i, res, err)
		p.segments = append(p.segments, seg)
	}
	p.work["ops"] = float64(w.ops)
	w.opGo = opGo
	return p, nil
}

// check compares op i's result with the reference, failing the op on
// any difference, and returns the frame classifications it completed.
func (w *paperSweep) check(p *pass, i int, res *experiment.Result, err error) float64 {
	if err != nil {
		p.fail("op %d: %v", i, err)
		return 0
	}
	enc, err := encodeSweeps(res.Sweeps)
	if err != nil || !bytes.Equal(enc, w.ref) {
		p.fail("op %d: sweep reports differ from the reference (encode error %v)", i, err)
		return 0
	}
	var units float64
	cells := 0
	for _, sw := range res.Sweeps {
		for _, br := range sw.Reports {
			cells++
			units += float64(frames(br.Report))
			if n := frames(br.Report); n != paperCoordinates*core.FramesPerCoordinate {
				p.fail("op %d: cell %s/%s scored %d frames", i, sw.Name, br.Backend, n)
			}
		}
	}
	p.work["cells_per_op"] = float64(cells)
	// Ops whose reports match the reference byte for byte share its
	// accuracy.
	_, _, _, p.accuracy = res.Sweep(paperVote).Reports[0].Report.Averages()
	return units
}

// layers reads the runner's spans and then replays one op layer by
// layer, since the runner hides the render cache, the perception cache
// and the backends it opens.
func (w *paperSweep) layers(ctx context.Context, traced *pass, rec *Recorder) (map[string]float64, error) {
	out := map[string]float64{}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

	var runs, builds, cellMS []float64
	for _, s := range rec.Named("experiment.run") {
		runs = append(runs, ms(s.Dur()))
	}
	for _, s := range rec.Named("dataset.build_study") {
		builds = append(builds, ms(s.Dur()))
	}
	for _, s := range rec.Named("core.sweep") {
		if s.Items > 0 {
			cellMS = append(cellMS, ms(s.Dur())/float64(s.Items))
		}
	}
	out["experiment.run_ms"] = median(runs)
	out["dataset.build_study_ms"] = median(builds)
	out["core.cell_ms"] = median(cellMS)

	ops := float64(w.ops)
	out["go.alloc_mb_per_op"] = float64(w.opGo.AllocBytes) / (1 << 20) / ops
	out["go.gc_cycles_per_op"] = float64(w.opGo.GCCycles) / ops

	probe := NewRecorder()
	enc, renders, err := w.replay(ctx, probe)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(enc, w.ref) {
		traced.fail("layer replay reports differ from Runner.Run's")
	}
	out["dataset.renders_per_op"] = float64(renders)
	if renders != float64(w.spec.Dataset.Coordinates*core.FramesPerCoordinate) {
		traced.fail("replay rendered %v frames, want one per corpus frame", renders)
	}

	var renderUS, vlmUS, voteUS, voteSelfUS []float64
	spans := probe.Spans()
	kids := childrenOf(spans)
	for _, s := range spans {
		switch s.Name {
		case "render.frame":
			renderUS = append(renderUS, us(s.Dur()))
		case "backend.vlm":
			if s.Parent == 0 && s.Items > 0 {
				vlmUS = append(vlmUS, us(s.Dur())/float64(s.Items))
			}
		case "backend.vote":
			if s.Items > 0 {
				voteUS = append(voteUS, us(s.Dur())/float64(s.Items))
				voteSelfUS = append(voteSelfUS, us(selfTime(s, kids[s.ID]))/float64(s.Items))
			}
		}
	}
	out["render.frame_us"] = median(renderUS)
	out["backend.vlm_item_us"] = median(vlmUS)
	out["backend.vote_item_us"] = median(voteUS)
	out["backend.vote_self_us"] = median(voteSelfUS)

	var perceiveUS []float64
	for _, s := range probe.Named("vlm.perceive") {
		perceiveUS = append(perceiveUS, us(s.Dur()))
	}
	out["vlm.perceive_us"] = median(perceiveUS)
	return out, nil
}

// replay performs one f5 op through the same public calls Runner.Run
// makes — corpus, renders, the model sweep, the top-three vote — with
// every backend wrapped in a timing span. It returns the encoded
// reports and the number of frames the op rendered.
func (w *paperSweep) replay(ctx context.Context, rec *Recorder) ([]byte, float64, error) {
	pipe, err := core.NewPipeline(core.Config{Coordinates: w.spec.Dataset.Coordinates, Seed: w.spec.Dataset.Seed})
	if err != nil {
		return nil, 0, err
	}
	defer pipe.Close()
	// The engine renders every frame into this cache on first use;
	// rendering ahead moves that work without repeating it.
	size := llmRenderSize
	for i := 0; i < pipe.Study.Len(); i++ {
		_, o := rec.Start(ctx, "render.frame")
		if _, err := pipe.RenderCache().CondExample(i, size, ""); err != nil {
			return nil, 0, err
		}
		o.Close(1)
	}
	ev := pipe.NewEvaluator(core.EvalConfig{Workers: runtime.NumCPU()})
	models := w.spec.Sweeps[0]
	wrapped := make([]backend.Backend, len(models.Backends))
	for i, name := range models.Backends {
		b, err := backend.OpenWith(ctx, w.spec.Backends[name], pipe.BackendEnv())
		if err != nil {
			return nil, 0, err
		}
		wrapped[i] = &timedBackend{Backend: b, rec: rec, span: "backend.vlm"}
	}
	reports, err := ev.EvaluateBackendSet(ctx, wrapped, core.LLMOptions{})
	if err != nil {
		return nil, 0, err
	}
	modelSweep := experiment.SweepResult{Name: models.Name}
	for i, name := range models.Backends {
		modelSweep.Reports = append(modelSweep.Reports, experiment.BackendReport{Backend: name, Report: reports[i]})
	}
	// The runner's committee rule: top three by average accuracy, ties
	// broken by name.
	ranked := append([]experiment.BackendReport(nil), modelSweep.Reports...)
	sort.SliceStable(ranked, func(a, b int) bool {
		_, _, _, accA := ranked[a].Report.Averages()
		_, _, _, accB := ranked[b].Report.Averages()
		if accA != accB {
			return accA > accB
		}
		return ranked[a].Backend < ranked[b].Backend
	})
	voteSpec := w.spec.Sweeps[1]
	k := voteSpec.VoteTopK
	if k == 0 {
		k = 3
	}
	members := make([]backend.Backend, k)
	names := make([]string, k)
	for i := 0; i < k; i++ {
		names[i] = ranked[i].Backend
		members[i] = wrapped[indexOf(models.Backends, names[i])]
	}
	voting, err := backend.NewVoting(voteSpec.Name, members...)
	if err != nil {
		return nil, 0, err
	}
	voteRep, err := ev.EvaluateBackend(ctx, &timedBackend{Backend: voting, rec: rec, span: "backend.vote"}, core.LLMOptions{})
	if err != nil {
		return nil, 0, err
	}
	enc, err := encodeSweeps([]experiment.SweepResult{
		modelSweep,
		{Name: voteSpec.Name, Reports: []experiment.BackendReport{{Backend: voteSpec.Name, Members: names, Report: voteRep}}},
	})
	if err != nil {
		return nil, 0, err
	}
	renders := float64(pipe.RenderCache().Renders())
	// Perception also runs inside the engine's private cache, so time
	// the layer's public function over the same frames afterwards.
	for i := 0; i < pipe.Study.Len(); i++ {
		ex, err := pipe.RenderCache().CondExample(i, size, "")
		if err != nil {
			return nil, 0, err
		}
		_, o := rec.Start(ctx, "vlm.perceive")
		if _, err := vlm.Perceive(ex.Image); err != nil {
			return nil, 0, err
		}
		o.Close(1)
	}
	return enc, renders, nil
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}
