package bench

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// reqBytesBaselinePath holds the committed steady-state request bytes/window
// snapshot of serial DPR on repeating-constant traffic — the wire-economics
// regression gate CI enforces.
const reqBytesBaselinePath = "testdata/reqbytes_baseline.txt"

// TestRequestBytesBudget fails when steady-state request traffic grows more
// than 10% over the committed baseline — a regression gate for the
// delta-shipping request path (a broken delta diff or dictionary would show
// up here as windows silently going back to full shipping). Regenerate the
// snapshot after an intended protocol change with UPDATE_REQBYTES_BASELINE=1.
func TestRequestBytesBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("wire benchmark: skipped in -short")
	}
	got, err := SteadyStateRequestBytes(1, 2000, 400, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("UPDATE_REQBYTES_BASELINE") != "" {
		if err := os.WriteFile(reqBytesBaselinePath, []byte(fmt.Sprintf("%d\n", got)), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("baseline updated: %d request bytes/window", got)
		return
	}
	raw, err := os.ReadFile(reqBytesBaselinePath)
	if err != nil {
		t.Fatalf("missing baseline snapshot (run with UPDATE_REQBYTES_BASELINE=1): %v", err)
	}
	baseline, err := strconv.ParseInt(strings.TrimSpace(string(raw)), 10, 64)
	if err != nil {
		t.Fatalf("corrupt baseline snapshot %q: %v", raw, err)
	}
	limit := baseline + baseline/10
	if got > limit {
		t.Errorf("steady-state request traffic %dB/window exceeds baseline %dB +10%% (%dB)", got, baseline, limit)
	}
	t.Logf("steady-state request bytes/window: %d (baseline %d)", got, baseline)
}
