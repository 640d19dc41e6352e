package telemetry

import (
	"fmt"
	"io"
	"os"
)

// WriteFiles writes a run's two file artifacts from one snapshot: the
// Chrome/Perfetto timeline (WriteTimeline) to timeline and the JSON
// Lines dump (WriteJSONL) to jsonl. An empty path skips that artifact.
// Errors are prefixed with the artifact they belong to ("timeline: ",
// "jsonl: ").
func WriteFiles(timeline, jsonl string, snap Snapshot) error {
	if err := writeFile(timeline, func(w io.Writer) error { return WriteTimeline(w, snap) }); err != nil {
		return fmt.Errorf("timeline: %w", err)
	}
	if err := writeFile(jsonl, func(w io.Writer) error { return WriteJSONL(w, snap) }); err != nil {
		return fmt.Errorf("jsonl: %w", err)
	}
	return nil
}

// writeFile streams fn's output into path; an empty path writes nothing.
func writeFile(path string, fn func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = fn(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
