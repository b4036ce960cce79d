package main

import (
	"strings"
	"testing"

	"delayfree/internal/workload"
)

func TestCheckFlags(t *testing.T) {
	for _, cfg := range []workload.StressConfig{
		{},
		{Procs: 2, Ops: 20, Crashes: 50},
		{MinGap: 1000}, // -max-gap 0 derives the maximum
		{MaxGap: 500},  // -min-gap 0 derives; RunRound judges the pair
		{MinGap: 1000, MaxGap: 1000},
	} {
		if err := checkFlags(1, cfg); err != nil {
			t.Errorf("%+v rejected: %v", cfg, err)
		}
	}
	if err := checkFlags(-1, workload.StressConfig{}); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Errorf("-rounds -1: got %v, want a negative-flag error", err)
	}
	for _, cfg := range []workload.StressConfig{{Procs: -1}, {Ops: -1}, {Crashes: -1}, {MinGap: -1}, {MaxGap: -1}} {
		if err := checkFlags(1, cfg); err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("%+v: got %v, want a negative-flag error", cfg, err)
		}
	}
	err := checkFlags(1, workload.StressConfig{MinGap: 1000, MaxGap: 500})
	if err == nil || !strings.Contains(err.Error(), "-max-gap 500") || !strings.Contains(err.Error(), "-min-gap 1000") {
		t.Errorf("-min-gap 1000 -max-gap 500: got %v, want an error naming both flags", err)
	}
}
