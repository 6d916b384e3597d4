// Command nbhdbench is the repository's benchmark. It drives one named
// workload in-process and times it end to end with tracing off; with
// -trace 1 it runs the same work with every other op or round traced,
// and reports per-layer numbers and the tracing overhead. See README.md
// for the workloads and metrics.
//
//	go run . -workload paper-sweep -seed 1 -seconds 6 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it records the
// environment and the run's work counters.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"nbhd/internal/tensor"
)

// setupRepeats is how many times a run builds its workload's state from
// scratch; setup_s is their median and the last one is measured.
const setupRepeats = 3

// metric is one named number in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the metrics an untraced run reports, with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"throughput_per_cpu_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"accuracy", "ratio"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the metrics a traced run reports. Every traced run
// reports all of them; a layer the workload never calls reads 0.
var perLayer = []struct{ name, unit string }{
	{"trace.overhead_pct", "%"},
	// paper-sweep
	{"experiment.run_ms", "ms"},
	{"dataset.build_study_ms", "ms"},
	{"core.cell_ms", "ms"},
	{"render.frame_us", "us"},
	{"vlm.perceive_us", "us"},
	{"backend.vlm_item_us", "us"},
	{"backend.vote_item_us", "us"},
	{"backend.vote_self_us", "us"},
	{"dataset.renders_per_op", "count"},
	{"go.alloc_mb_per_op", "MiB"},
	{"go.gc_cycles_per_op", "count"},
	// serve workloads; the GEMM path matters most on serve-cnn-miss
	{"classify.train_epoch_ms", "ms"},
	{"backend.classify_ms", "ms"},
	{"backend.batch_size", "count"},
	{"backend.batches", "count"},
	{"backend.items", "count"},
	{"classify.predict_batch_ms", "ms"},
	{"tensor.gemm_calls_per_item", "count"},
	{"tensor.panel_reuse_ratio", "ratio"},
	// serve workloads; the HTTP shell matters most on serve-zipf-upload
	{"serve.outside_backend_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.dedup_hits", "count"},
	{"serve.shed", "count"},
	{"render.decode_raw_us", "us"},
	{"go.alloc_kb_per_request", "KiB"},
}

// pass is one execution of a workload's fixed work.
type pass struct {
	// segments split the timed work into equal parts (an op or a
	// round); throughput is their median, so a stall of the host during
	// one part does not move it.
	segments []segment
	// attempted and failed count ops; a failed op is one that errored
	// or whose output did not match the reference.
	attempted, failed int
	accuracy          float64
	// work holds the counters the workload fixes; two passes of the
	// same workload and seed must agree on every one.
	work map[string]float64
	// observed holds counters that may differ between passes, reported
	// for diagnosis.
	observed map[string]float64
	// problems explains every failed check.
	problems []string
	// goDelta and tensor are the runtime's and the tensor kernels'
	// counters over the whole pass.
	goDelta goCounters
	tensor  tensor.ComputeStats
}

// segment is one equal part of a pass's timed work.
type segment struct {
	// units is the work done, in the workload's throughput unit: frame
	// classifications or requests.
	units float64
	// wall and cpu cover only the timed work.
	wall, cpu time.Duration
	// ops are the durations of the segment's operations: requests or
	// full runs.
	ops []time.Duration
	// peakRSS is the segment's own resident-memory high-water mark, MiB.
	peakRSS float64
	// traced marks a segment that ran with spans recorded.
	traced bool
}

// tracedSegment is the recorder segment i of a pass records into, nil
// for an untraced segment. A traced run traces every other segment, so
// traced and untraced segments see the same host and their difference
// is the tracing overhead.
func tracedSegment(rec *Recorder, i int) *Recorder {
	if i%2 == 1 {
		return rec
	}
	return nil
}

// overheadPct is how much slower the median traced segment ran than
// the median untraced one, in percent.
func (p *pass) overheadPct() float64 {
	var on, off []float64
	for _, seg := range p.segments {
		if seg.traced {
			on = append(on, seg.wall.Seconds())
		} else {
			off = append(off, seg.wall.Seconds())
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return 0
	}
	return 100 * (median(on)/median(off) - 1)
}

// startSegment begins one segment of timed work and returns the
// function that ends it. It first collects garbage, returns it to the
// OS and restarts the kernel's resident-memory high-water mark, so each
// segment starts from the same heap and its peak is its own.
func startSegment() func(units float64, ops []time.Duration) segment {
	debug.FreeOSMemory()
	_ = resetPeakRSS()
	c0, t0 := cpuTime(), time.Now()
	return func(units float64, ops []time.Duration) segment {
		wall, cpu := time.Since(t0), cpuTime()-c0
		return segment{units: units, wall: wall, cpu: cpu, ops: ops, peakRSS: peakRSSMB()}
	}
}

// latency summarizes the pass's op durations. When every segment holds
// enough ops for a tail of its own, the tail is the median of the
// segments' tails, so one slow stretch of the host does not set it.
func (p *pass) latency() latencySummary {
	var all []time.Duration
	for _, seg := range p.segments {
		all = append(all, seg.ops...)
	}
	s := summarize(all)
	var tails []float64
	for _, seg := range p.segments {
		if _, ok := tailPercentile(len(seg.ops)); !ok {
			return s
		}
		tails = append(tails, summarize(seg.ops).TailMS)
	}
	if len(tails) > 0 {
		s.TailMS = median(tails)
		s.TailOfSegments = true
	}
	return s
}

// peakRSS is the median of the segments' peak resident memory.
func (p *pass) peakRSS() float64 {
	var xs []float64
	for _, seg := range p.segments {
		xs = append(xs, seg.peakRSS)
	}
	return median(xs)
}

// segmentRates are the units per wall second of each segment.
func (p *pass) segmentRates() []float64 {
	var w []float64
	for _, s := range p.segments {
		w = append(w, s.units/s.wall.Seconds())
	}
	return w
}

// rates are the median units per wall second and per CPU second.
func (p *pass) rates() (perWall, perCPU float64) {
	var c []float64
	for _, s := range p.segments {
		c = append(c, s.units/s.cpu.Seconds())
	}
	return median(p.segmentRates()), median(c)
}

func (p *pass) fail(format string, args ...any) {
	p.failed++
	if len(p.problems) < 20 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// instance is one workload's state in a run.
type instance interface {
	// setup builds the workload's state from scratch; each setup gets a
	// fresh instance.
	setup(ctx context.Context) error
	// prepare builds the benchmark's own inputs and references for the
	// last setup's state; it is not part of setup_s.
	prepare(ctx context.Context) error
	// run executes the fixed work once; when rec is non-nil, every
	// other segment records spans into it.
	run(ctx context.Context, rec *Recorder) (*pass, error)
	// layers derives the per-layer metrics from such a pass and its
	// spans, calling layer functions directly where the engine hides
	// them.
	layers(ctx context.Context, traced *pass, rec *Recorder) (map[string]float64, error)
}

// workload is a named traffic mix.
type workload struct {
	name string
	make func(seed int64, seconds int) instance
}

var workloads = []workload{
	{"paper-sweep", newPaperSweep},
	{"serve-cnn-miss", newCNNMiss},
	{"serve-zipf-upload", newZipfUpload},
}

// opCount sizes a run: enough ops of the given nominal cost to fill the
// requested seconds, and never fewer than minOps. The count depends only
// on the arguments, so every run with the same arguments does the same
// work.
func opCount(seconds int, nominal time.Duration) int {
	n := int(time.Duration(seconds) * time.Second / nominal)
	if n < minOps {
		n = minOps
	}
	return n
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type detail struct {
	Environment environment `json:"environment"`
	Traced      bool        `json:"traced"`
	// PeakRSSReset is false when the kernel refused to restart the
	// high-water mark, so peak_rss_mb includes setup.
	PeakRSSReset bool `json:"peak_rss_reset"`
	// StealPct is the share of the machine's CPU time the hypervisor
	// withheld during the measured pass: high values mean the timings
	// measured the host, not the program.
	StealPct float64            `json:"steal_pct"`
	SetupS   []float64          `json:"setup_s"`
	Latency  latencySummary     `json:"latency"`
	Work     map[string]float64 `json:"work"`
	Observed map[string]float64 `json:"observed,omitempty"`
	// SegmentRates are the per-op or per-round units per wall second
	// whose median is throughput_per_s.
	SegmentRates []float64 `json:"segment_rates"`
	Problems     []string  `json:"problems,omitempty"`
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 6, "work budget: the run sizes its fixed work to take about this long")
	trace := flag.Int("trace", 0, "1 traces every other op or round and reports per-layer metrics")
	stateDir := flag.String("state-dir", "", "directory recording each (workload, seed, seconds)'s accuracy and work counters; later runs must match them")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *stateDir); err != nil {
		fmt.Fprintln(os.Stderr, "nbhdbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, stateDir string) error {
	var w *workload
	var names []string
	for i := range workloads {
		names = append(names, workloads[i].name)
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be positive")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	ctx := context.Background()

	repeats := setupRepeats
	if traced {
		repeats = 1 // setup_s is an end-to-end metric; a traced run skips it
	}
	var setups []float64
	var inst instance
	for i := 0; i < repeats; i++ {
		// A fresh instance each time, so the collection below frees the
		// previous setup's state before the next one is timed.
		inst = w.make(seed, seconds)
		runtime.GC()
		t := time.Now()
		if err := inst.setup(ctx); err != nil {
			return fmt.Errorf("%s: setup: %w", name, err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	if err := inst.prepare(ctx); err != nil {
		return fmt.Errorf("%s: prepare: %w", name, err)
	}
	// Segments restart the kernel's resident-memory high-water mark;
	// where it cannot be restarted, peak_rss_mb includes setup.
	peakReset := resetPeakRSS() == nil
	busy0, steal0 := hostTicks()

	var rec *Recorder
	if traced {
		rec = NewRecorder()
	}
	base, err := measure(ctx, inst, rec)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	busy1, steal1 := hostTicks()
	var vals map[string]float64
	if traced {
		// layers may fail checks of its own on the traced segments.
		if vals, err = inst.layers(ctx, base, rec); err != nil {
			return fmt.Errorf("%s: layers: %w", name, err)
		}
		vals["trace.overhead_pct"] = base.overheadPct()
	} else {
		perWall, perCPU := base.rates()
		latency := base.latency()
		vals = map[string]float64{
			"setup_s":              median(setups),
			"throughput_per_s":     perWall,
			"throughput_per_cpu_s": perCPU,
			"p50_ms":               latency.P50MS,
			"tail_ms":              latency.TailMS,
			"accuracy":             base.accuracy,
			"peak_rss_mb":          base.peakRSS(),
		}
	}
	declared := endToEnd
	if traced {
		declared = perLayer
	}
	res := result{Attempted: base.attempted, Failed: base.failed, Metrics: map[string]metric{}}
	for _, m := range declared {
		res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	for k := range vals {
		if _, ok := res.Metrics[k]; !ok {
			return fmt.Errorf("%s: metric %q is not declared", name, k)
		}
	}
	problems := base.problems
	if stateDir != "" {
		diffs, err := checkRepeat(stateDir, name, seed, seconds, base)
		if err != nil {
			return err
		}
		problems = append(problems, diffs...)
	}
	res.Correct = res.Failed == 0 && len(problems) == 0

	det := detail{
		Environment:  readEnvironment(name, seed),
		Traced:       traced,
		PeakRSSReset: peakReset,
		StealPct:     stealShare(busy0, steal0, busy1, steal1),
		SetupS:       setups,
		Latency:      base.latency(),
		Work:         base.work,
		Observed:     base.observed,
		SegmentRates: base.segmentRates(),
		Problems:     problems,
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(det); err != nil {
		return err
	}
	return enc.Encode(res)
}

// measure runs one pass and records the process-wide counters it moved.
func measure(ctx context.Context, inst instance, rec *Recorder) (*pass, error) {
	g0, t0 := readGoCounters(), tensor.Stats()
	p, err := inst.run(ctx, rec)
	if err != nil {
		return nil, err
	}
	g, t := readGoCounters(), tensor.Stats()
	p.goDelta = g.sub(g0)
	p.tensor = tensor.ComputeStats{
		GEMMCalls:          t.GEMMCalls - t0.GEMMCalls,
		QuantizedGEMMCalls: t.QuantizedGEMMCalls - t0.QuantizedGEMMCalls,
		PanelReuses:        t.PanelReuses - t0.PanelReuses,
		PanelAllocs:        t.PanelAllocs - t0.PanelAllocs,
	}
	return p, nil
}

// repeatRecord is what every run of one (workload, seed, seconds) must
// reproduce exactly.
type repeatRecord struct {
	Accuracy float64            `json:"accuracy"`
	Work     map[string]float64 `json:"work"`
}

// checkRepeat compares a pass with the first run of the same workload,
// seed and work budget recorded under dir, recording it if it is the
// first.
func checkRepeat(dir, name string, seed int64, seconds int, p *pass) ([]string, error) {
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-s%d.json", name, seed, seconds))
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		data, err := json.Marshal(repeatRecord{Accuracy: p.accuracy, Work: p.work})
		if err != nil {
			return nil, err
		}
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			return nil, err
		}
		return nil, os.Rename(tmp, path)
	}
	if err != nil {
		return nil, err
	}
	var first repeatRecord
	if err := json.Unmarshal(data, &first); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	diffs := compareWork(&pass{work: first.Work}, p)
	if first.Accuracy != p.accuracy {
		diffs = append(diffs, fmt.Sprintf("accuracy %v, the first run of this seed had %v", p.accuracy, first.Accuracy))
	}
	return diffs, nil
}

// compareWork lists every fixed work counter on which two passes of the
// same workload disagree.
func compareWork(a, b *pass) []string {
	keys := make([]string, 0, len(a.work))
	for k := range a.work {
		keys = append(keys, k)
	}
	for k := range b.work {
		if _, ok := a.work[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out []string
	for _, k := range keys {
		if a.work[k] != b.work[k] {
			out = append(out, fmt.Sprintf("work counter %s: %v then %v", k, a.work[k], b.work[k]))
		}
	}
	return out
}
