package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestResilienceSuiteSmoke runs the quick-scale suite end to end: every
// loss-rate row completes with verified payloads, lossy rows actually
// saw faults and retransmits, and the report round-trips through JSON.
func TestResilienceSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second soak")
	}
	rep, err := ResilienceSuite(Quick)
	if err != nil {
		t.Fatalf("resilience suite: %v", err)
	}
	if len(rep.Results) != 4 {
		t.Fatalf("got %d rows, want 4", len(rep.Results))
	}
	// Retries are not asserted on the clean row: a retransmit there is a
	// timer beating a slow ack (routine under -race on a loaded host), not
	// a fault — the injected-fault counts are what must be zero.
	clean := rep.Results[0]
	if clean.DropPct != 0 || clean.Drops != 0 || clean.Dups != 0 {
		t.Errorf("clean row not clean: %+v", clean)
	}
	worst := rep.Results[len(rep.Results)-1]
	if worst.DropPct != 10 {
		t.Errorf("last row at %.1f%%, want 10%%", worst.DropPct)
	}
	if worst.Drops == 0 || worst.Dups == 0 || worst.Retries == 0 {
		t.Errorf("10%% row shows no faults or no recovery: %+v", worst)
	}

	path := filepath.Join(t.TempDir(), "r.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back ResilienceReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(back.Results) != len(rep.Results) {
		t.Fatal("JSON round trip lost rows")
	}
	if !strings.Contains(rep.Render(), "drop%") {
		t.Error("Render missing header")
	}
}
