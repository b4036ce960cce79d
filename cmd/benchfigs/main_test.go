package main

import (
	"strings"
	"testing"

	"delayfree/internal/harness"
	"delayfree/internal/workload"
)

// defaults returns every tunable at its default, as the flags start
// out.
func defaults() workload.Params {
	out := workload.Params{}
	for _, p := range harness.Params() {
		out[p.Name] = p.Default
	}
	return out
}

func TestCheckParams(t *testing.T) {
	if err := checkParams(defaults()); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if err := checkParams(defaults().Set("map-shards", 1)); err != nil {
		t.Fatalf("-map-shards 1 rejected: %v", err)
	}
	// Zero is a valid count for a seed size or a read mix, not for a
	// size a runner divides by or draws from.
	if err := checkParams(defaults().Set("seed-nodes", 0).Set("read-pct", 0)); err != nil {
		t.Fatalf("zero seed or read mix rejected: %v", err)
	}
	if err := checkParams(defaults().Set("read-pct", 100).Set("attiya", 1)); err != nil {
		t.Fatalf("all-Gets mix or Attiya CAS rejected: %v", err)
	}
	for _, c := range []struct {
		name string
		v    int64
	}{{"map-shards", 0}, {"map-keys", 0}, {"batch-max", 0}, {"seed-nodes", -1},
		{"read-pct", 101}, {"read-pct", 150}, {"attiya", 2}, {"attiya", 7}} {
		err := checkParams(defaults().Set(c.name, c.v))
		if err == nil || !strings.Contains(err.Error(), "-"+c.name+" ") {
			t.Errorf("-%s %d: got %v, want an error naming the flag", c.name, c.v, err)
		}
	}
}
