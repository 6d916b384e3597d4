package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"nbhd/internal/backend"
	"nbhd/internal/lockfile"
	"nbhd/internal/metrics"
	"nbhd/internal/scene"
)

// ArtifactSchemaVersion stamps run manifests so future readers can
// migrate old runs.
const ArtifactSchemaVersion = 1

// Store writes run artifacts: one directory per run holding a manifest
// plus a deterministic report JSON file per sweep and per analysis, so
// runs can be diffed (byte-for-byte on the report files) and tracked in
// CI.
//
// A Store is a writer: NewStore takes an exclusive advisory LOCK in the
// root (the shared flock helper the frame store and the lab workspace
// use), so two processes cannot interleave Saves into one directory.
// Release it with Close — long-running consumers (the lab daemon) fail
// fast on a still-locked run directory instead of corrupting it.
// Reading a run's files needs no Store at all: run directories are
// plain files, enumerated by Runs/ListRunArtifacts and compared by
// DiffRuns.
type Store struct {
	root string
	lock *lockfile.Lock
}

// NewStore opens (creating if needed) an artifact store rooted at dir
// and takes its writer lock.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("experiment: artifact store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	lock, err := lockfile.Acquire(filepath.Join(dir, "LOCK"))
	if err != nil {
		return nil, fmt.Errorf("experiment: artifact store %s is in use by another writer: %w", dir, err)
	}
	return &Store{root: dir, lock: lock}, nil
}

// Close releases the store's writer lock. It is idempotent; previously
// saved artifacts remain readable.
func (s *Store) Close() error {
	lock := s.lock
	s.lock = nil
	return lock.Release()
}

// RunDir returns the directory Save uses for the run name (which may
// not exist yet).
func (s *Store) RunDir(runName string) string {
	return filepath.Join(s.root, runDirName(runName))
}

// Runs lists the saved run directory names (the "run-*" base names),
// sorted.
func (s *Store) Runs() ([]string, error) {
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	var runs []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "run-") {
			runs = append(runs, e.Name())
		}
	}
	sort.Strings(runs)
	return runs, nil
}

// Manifest indexes one run's artifacts.
type Manifest struct {
	SchemaVersion int       `json:"schema_version"`
	Spec          Spec      `json:"spec"`
	Started       time.Time `json:"started"`
	Finished      time.Time `json:"finished"`
	// Sweeps and Analyses point at the per-step report files, with
	// summary metrics inline for quick triage.
	Sweeps   []SweepManifest    `json:"sweeps,omitempty"`
	Analyses []AnalysisManifest `json:"analyses,omitempty"`
}

// SweepManifest summarizes one sweep and names its report file.
type SweepManifest struct {
	Name    string          `json:"name"`
	File    string          `json:"file"`
	Reports []ReportSummary `json:"reports"`
}

// ReportSummary is one backend's macro averages.
type ReportSummary struct {
	Backend   string   `json:"backend"`
	Members   []string `json:"members,omitempty"`
	Precision float64  `json:"precision"`
	Recall    float64  `json:"recall"`
	F1        float64  `json:"f1"`
	Accuracy  float64  `json:"accuracy"`
}

// AnalysisManifest summarizes one analysis step and names its file.
type AnalysisManifest struct {
	Name      string `json:"name"`
	File      string `json:"file"`
	Locations int    `json:"locations"`
	Tracts    int    `json:"tracts"`
}

// classJSON is one indicator's confusion cells and derived metrics in
// the report artifact.
type classJSON struct {
	Indicator string  `json:"indicator"`
	TP        int     `json:"tp"`
	FP        int     `json:"fp"`
	TN        int     `json:"tn"`
	FN        int     `json:"fn"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
	Accuracy  float64 `json:"accuracy"`
}

// reportJSON is one backend's full report in the artifact.
type reportJSON struct {
	Backend  string        `json:"backend"`
	Members  []string      `json:"members,omitempty"`
	Classes  []classJSON   `json:"classes"`
	Averages ReportSummary `json:"averages"`
}

// sweepJSON is one sweep's report file.
type sweepJSON struct {
	Sweep   string       `json:"sweep"`
	Reports []reportJSON `json:"reports"`
}

// summarize computes a report's macro averages.
func summarize(backendName string, members []string, rep *metrics.ClassReport) ReportSummary {
	p, r, f1, acc := rep.Averages()
	return ReportSummary{Backend: backendName, Members: members, Precision: p, Recall: r, F1: f1, Accuracy: acc}
}

// EncodeSweepReports renders one sweep's reports as deterministic,
// human-diffable JSON — the byte format the artifact store writes and
// the bit-identity tests compare. The same confusion counts always
// produce the same bytes.
func EncodeSweepReports(sw SweepResult) ([]byte, error) {
	doc := sweepJSON{Sweep: sw.Name, Reports: make([]reportJSON, len(sw.Reports))}
	for i := range sw.Reports {
		br := &sw.Reports[i]
		rj := reportJSON{
			Backend:  br.Backend,
			Members:  br.Members,
			Classes:  make([]classJSON, 0, scene.NumIndicators),
			Averages: summarize(br.Backend, br.Members, br.Report),
		}
		for _, ind := range scene.Indicators() {
			c := br.Report.Of(ind)
			rj.Classes = append(rj.Classes, classJSON{
				Indicator: ind.String(),
				TP:        c.TP, FP: c.FP, TN: c.TN, FN: c.FN,
				Precision: c.Precision(),
				Recall:    c.Recall(),
				F1:        c.F1(),
				Accuracy:  c.Accuracy(),
			})
		}
		doc.Reports[i] = rj
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("experiment: encode sweep %q: %w", sw.Name, err)
	}
	return append(out, '\n'), nil
}

// scrubSecrets returns a copy of the spec with credentials removed so
// they never land in run artifacts.
func scrubSecrets(s Spec) Spec {
	var scrub func(b backend.Spec) backend.Spec
	scrub = func(b backend.Spec) backend.Spec {
		b.APIKey = ""
		if len(b.Members) > 0 {
			members := make([]backend.Spec, len(b.Members))
			for i := range b.Members {
				members[i] = scrub(b.Members[i])
			}
			b.Members = members
		}
		return b
	}
	backends := make(map[string]backend.Spec, len(s.Backends))
	for name, b := range s.Backends {
		backends[name] = scrub(b)
	}
	s.Backends = backends
	return s
}

// artifactFileName sanitizes a step name into a file name.
func artifactFileName(prefix, name string) string {
	mapped := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		default:
			return '-'
		}
	}, name)
	return prefix + "-" + mapped + ".json"
}

// runDirName sanitizes a run name into its directory name.
func runDirName(runName string) string {
	return strings.TrimSuffix(artifactFileName("run", runName), ".json")
}

// Save writes the run's artifacts into root/<run name> (creating or
// overwriting it) and returns the run directory: manifest.json plus one
// report file per sweep and analysis. Report files exclude timing, so
// two runs of the same spec and seed diff clean.
func (s *Store) Save(runName string, res *Result) (string, error) {
	if runName == "" {
		runName = res.Spec.Name
	}
	dir := filepath.Join(s.root, runDirName(runName))
	// Replace, don't layer: a stale report file from an earlier save of
	// a differently-shaped run must not survive next to the new
	// manifest, or directory diffs show phantom sweeps.
	if err := os.RemoveAll(dir); err != nil {
		return "", fmt.Errorf("experiment: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("experiment: %w", err)
	}
	man := Manifest{
		SchemaVersion: ArtifactSchemaVersion,
		Spec:          scrubSecrets(res.Spec),
		Started:       res.Started,
		Finished:      res.Finished,
	}
	for i := range res.Sweeps {
		sw := &res.Sweeps[i]
		file := artifactFileName("sweep", sw.Name)
		data, err := EncodeSweepReports(*sw)
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(filepath.Join(dir, file), data, 0o644); err != nil {
			return "", fmt.Errorf("experiment: %w", err)
		}
		sm := SweepManifest{Name: sw.Name, File: file}
		for k := range sw.Reports {
			sm.Reports = append(sm.Reports, summarize(sw.Reports[k].Backend, sw.Reports[k].Members, sw.Reports[k].Report))
		}
		man.Sweeps = append(man.Sweeps, sm)
	}
	for i := range res.Analyses {
		a := &res.Analyses[i]
		file := artifactFileName("analysis", a.Name)
		data, err := json.MarshalIndent(a, "", "  ")
		if err != nil {
			return "", fmt.Errorf("experiment: encode analysis %q: %w", a.Name, err)
		}
		if err := os.WriteFile(filepath.Join(dir, file), append(data, '\n'), 0o644); err != nil {
			return "", fmt.Errorf("experiment: %w", err)
		}
		man.Analyses = append(man.Analyses, AnalysisManifest{
			Name:      a.Name,
			File:      file,
			Locations: len(a.Result.Locations),
			Tracts:    len(a.Result.Tracts),
		})
	}
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return "", fmt.Errorf("experiment: encode manifest: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("experiment: %w", err)
	}
	return dir, nil
}
