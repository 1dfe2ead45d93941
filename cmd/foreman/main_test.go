package main

import (
	"testing"

	"repro/internal/core"
)

func TestPolicyByNameRejectsUnknown(t *testing.T) {
	for name, want := range map[string]core.ReschedulePolicy{
		"minimal":   core.MinimalMove,
		"reshuffle": core.FullReshuffle,
	} {
		if got, ok := policyByName(name); !ok || got != want {
			t.Errorf("policyByName(%q) = %v, %v; want %v", name, got, ok, want)
		}
	}
	for _, name := range []string{"reshufle", "", "minimal-move"} {
		if _, ok := policyByName(name); ok {
			t.Errorf("policyByName(%q) accepted", name)
		}
	}
}
