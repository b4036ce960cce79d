package history

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"delayfree/internal/pmem"
)

// RunMeta identifies the stress round a history came from, enough to
// reproduce it deterministically.
type RunMeta struct {
	Stresser string `json:"stresser"`
	Family   string `json:"family"`
	Seed     int64  `json:"seed"`
	Shared   bool   `json:"shared"`
	Procs    int    `json:"procs"`
}

// Artifact is the machine-readable failing-history dump written when an
// audit finds a violation: the verdicts, the minimal set of operations
// they implicate, the recovered final state, and the round's pmem
// counters — everything needed to replay the diagnosis offline.
type Artifact struct {
	RunMeta
	TotalOps   int         `json:"totalOps"`
	Crashes    int         `json:"crashes"`
	Restarts   int         `json:"restarts"`
	Violations []Violation `json:"violations"`
	// MinimalOps is the union of the violations' witness operations,
	// deduplicated and in invocation order — the minimal failing
	// sub-history. The full merged history is deliberately not dumped;
	// re-run the seed with the recorder to regenerate it.
	MinimalOps []OpRecord `json:"minimalOps"`
	CrashMarks []Event    `json:"crashMarks,omitempty"`
	Final      FinalState `json:"final"`
	Stats      pmem.Stats `json:"stats"`
}

// NewArtifact assembles an artifact from a checked history.
func NewArtifact(meta RunMeta, h *History, violations []Violation, stats pmem.Stats) *Artifact {
	a := &Artifact{
		RunMeta:    meta,
		TotalOps:   len(h.Ops),
		Crashes:    len(h.Crashes),
		Restarts:   h.Restarts,
		Violations: violations,
		CrashMarks: h.Crashes,
		Final:      h.Final,
		Stats:      stats,
	}
	seen := make(map[uint64]bool)
	for _, v := range violations {
		for _, op := range v.Ops {
			if !seen[op.InvTicket] {
				seen[op.InvTicket] = true
				a.MinimalOps = append(a.MinimalOps, op)
			}
		}
	}
	sort.Slice(a.MinimalOps, func(i, j int) bool {
		return a.MinimalOps[i].InvTicket < a.MinimalOps[j].InvTicket
	})
	return a
}

// WriteArtifact writes the artifact as indented JSON under dir (empty
// selects the OS temp directory), returning the file path. The name
// encodes the reproduction coordinates.
func WriteArtifact(dir string, a *Artifact) (string, error) {
	if dir == "" {
		dir = os.TempDir()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("history: creating artifact dir: %w", err)
	}
	model := "private"
	if a.Shared {
		model = "shared"
	}
	path := filepath.Join(dir, fmt.Sprintf("history-%s-seed%d-%s.json", a.Stresser, a.Seed, model))
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return "", fmt.Errorf("history: encoding artifact: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("history: writing artifact: %w", err)
	}
	return path, nil
}
