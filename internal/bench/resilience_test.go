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
	// A lossless wire must see no retransmit: one there means the RTO beat
	// an ack. Only the race detector's slowdown is excused (it does that
	// to 1-3 frames in half the runs on a 2-core host).
	clean := rep.Results[0]
	if clean.DropPct != 0 || (clean.Retries != 0 && !raceBuild) || clean.Drops != 0 {
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
