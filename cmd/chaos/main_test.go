package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/chaos"
)

// TestJSONStdout: with -json - the campaign JSON is the whole of stdout,
// so it decodes as one document that re-encodes to the same bytes; the
// text summary goes to stderr.
func TestJSONStdout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-trials", "1", "-packets", "50", "-json", "-"}, &stdout, &stderr); code != 0 {
		t.Fatalf("chaos exited %d:\n%s", code, stderr.String())
	}
	var cr chaos.CampaignResult
	if err := json.Unmarshal(stdout.Bytes(), &cr); err != nil {
		t.Fatalf("stdout is not one JSON document: %v\n%s", err, stdout.String())
	}
	if len(cr.Trials) != 1 {
		t.Fatalf("%d trials in the JSON, want 1", len(cr.Trials))
	}
	again, err := cr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(again)+"\n" != stdout.String() {
		t.Fatal("decoded campaign re-encodes to different JSON")
	}
	if !strings.Contains(stderr.String(), "online fault recovery") {
		t.Fatalf("text summary missing from stderr:\n%s", stderr.String())
	}
}

// TestBadFlag: a flag that fails validation is a usage error, exit 2.
func TestBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-trials", "0"}, &stdout, &stderr); code != 2 {
		t.Fatalf("chaos -trials 0 exited %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-trials must be >= 1") || stdout.Len() != 0 {
		t.Fatalf("stdout %q, stderr %q", stdout.String(), stderr.String())
	}
}
