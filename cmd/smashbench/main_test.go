package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

func TestRunSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full report run")
	}
	var out bytes.Buffer
	if err := run([]string{"-scale", "0.15", "-seed", "42"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"Table I", "Table II", "Table III", "Table IV", "Table V",
		"Table VI", "Table XI", "Table XII",
		"Figure 6", "Figure 7", "Figure 8", "Figure 9", "Figure 10",
		"Case study", "Headline", "Main dimension study",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q", want)
		}
	}

	// The false-negative groups print in threat-name order, so the report
	// is the same from run to run.
	_, fn, ok := strings.Cut(text, "False negatives")
	if !ok {
		t.Fatal("report missing the false-negative list")
	}
	var threats []string
	for _, line := range strings.Split(fn, "\n")[1:] {
		if !strings.HasPrefix(line, "  ") {
			break
		}
		threats = append(threats, strings.Fields(line)[0])
	}
	if len(threats) < 4 {
		t.Fatalf("%d false-negative groups, want >= 4 to check their order", len(threats))
	}
	if !slices.IsSorted(threats) {
		t.Errorf("false-negative groups not in name order: %v", threats)
	}
}

func TestRunFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Error("bogus flag accepted")
	}
}
