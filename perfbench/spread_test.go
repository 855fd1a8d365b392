package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeRuns writes one result file per value of latency_ms for workload w.
func writeRuns(t *testing.T, dir, w string, values ...float64) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, w), 0o755); err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		line, err := json.Marshal(result{Correct: true, Attempted: 1, Metrics: map[string]metric{"latency_ms": {Value: v, Unit: "ms"}}})
		if err != nil {
			t.Fatal(err)
		}
		data := fmt.Appendf(nil, "log line\n%s\n", line)
		if err := os.WriteFile(filepath.Join(dir, w, fmt.Sprintf("%d.json", i+1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSpreadChecksBoundsAndAgreement(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end": [{"name": "latency_ms", "better": "lower", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	steady, wide, slower := filepath.Join(dir, "steady"), filepath.Join(dir, "wide"), filepath.Join(dir, "slower")
	writeRuns(t, steady, "w", 10, 10.1, 10.2, 9.9, 10)
	writeRuns(t, wide, "w", 10, 14, 8, 12, 9)
	writeRuns(t, slower, "w", 12, 12.1, 12.2, 11.9, 12)

	var out strings.Builder
	if err := printSpread(&out, spec, steady, ""); err != nil {
		t.Errorf("steady runs failed: %v\n%s", err, out.String())
	}
	if err := printSpread(&out, spec, wide, ""); err == nil {
		t.Errorf("a spread of 0.4 passed a bound of 0.1\n%s", out.String())
	}
	if err := printSpread(&out, spec, slower, steady); err == nil {
		t.Errorf("a median 20%% worse passed a bound of 0.1\n%s", out.String())
	}
	if err := printSpread(&out, spec, steady, slower); err != nil {
		t.Errorf("a faster median failed: %v\n%s", err, out.String())
	}
}
