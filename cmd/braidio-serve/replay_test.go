package main

import (
	"path/filepath"
	"testing"
)

// TestReplayCaptures runs -replay on each kind of capture serve's
// journal reader takes: a config-headed single stream and one segment,
// both verified as files through Replay, and a journal directory,
// verified through VerifyDir.
func TestReplayCaptures(t *testing.T) {
	testdata := filepath.Join("..", "..", "internal", "serve", "testdata")
	for _, capture := range []string{
		"pr7_single_stream.journal",
		filepath.Join("pr7_journal_dir", "seg-0002.jsonl"),
		"pr7_journal_dir",
	} {
		if err := runReplay(filepath.Join(testdata, capture)); err != nil {
			t.Errorf("-replay %s: %v", capture, err)
		}
	}
}
