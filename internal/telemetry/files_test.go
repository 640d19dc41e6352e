package telemetry

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteFiles checks the shared -timeline/-jsonl writer: the files
// hold exactly what WriteTimeline and WriteJSONL produce from the same
// snapshot, an empty path writes nothing, and a failure names its
// artifact.
func TestWriteFiles(t *testing.T) {
	snap := goldenSnapshot()
	var wantTL, wantJL bytes.Buffer
	if err := WriteTimeline(&wantTL, snap); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&wantJL, snap); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	tl, jl := filepath.Join(dir, "run.json"), filepath.Join(dir, "run.jsonl")
	if err := WriteFiles(tl, jl, snap); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string][]byte{tl: wantTL.Bytes(), jl: wantJL.Bytes()} {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes differ from the in-memory export (%d bytes)", path, len(got), len(want))
		}
	}

	empty := t.TempDir()
	if err := WriteFiles("", "", snap); err != nil {
		t.Fatalf("empty paths: %v", err)
	}
	if err := WriteFiles("", filepath.Join(empty, "only.jsonl"), snap); err != nil {
		t.Fatal(err)
	}
	if ents, _ := os.ReadDir(empty); len(ents) != 1 || ents[0].Name() != "only.jsonl" {
		t.Errorf("an empty timeline path wrote files: %v", ents)
	}

	missing := filepath.Join(dir, "no-such-dir", "x")
	for _, c := range []struct{ timeline, jsonl, prefix string }{
		{missing, "", "timeline: "},
		{"", missing, "jsonl: "},
	} {
		err := WriteFiles(c.timeline, c.jsonl, snap)
		if err == nil || !strings.HasPrefix(err.Error(), c.prefix) {
			t.Errorf("uncreatable path: error %v, want prefix %q", err, c.prefix)
		}
	}
}
