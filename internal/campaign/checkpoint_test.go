package campaign

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzCheckpointReplay feeds arbitrary bytes to the resume path as the
// on-disk checkpoint of QuickSpec. Whatever the bytes, openCheckpoint must
// not panic, and when it accepts them:
//   - every replayed record names a cell of the spec;
//   - the file is truncated to its last newline (a torn tail is dropped),
//     or, if nothing complete remains, restarted with a fresh header;
//   - a cell recorded more than once resolves to its last record. Cells are
//     deterministic, so real duplicates (a cell rerun after its record was
//     torn and then rewritten) are identical and the choice is invisible.
func FuzzCheckpointReplay(f *testing.F) {
	spec := QuickSpec()
	path := filepath.Join(f.TempDir(), "seed.ckpt")
	if _, err := Run(spec, Config{Workers: 1, CheckpointPath: path}, fakeCellFunc); err != nil {
		f.Fatal(err)
	}
	real, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	lines := strings.SplitAfter(string(real), "\n")
	header, first := lines[0], lines[1]
	firstID := strings.Split(first, "\t")[1]

	f.Add(real)
	f.Add(real[:len(real)-7]) // torn tail
	f.Add([]byte(strings.Replace(string(real), spec.Fingerprint(), "0000000000000000", 1)))
	f.Add([]byte(string(real) + strings.Replace(first, "\t1\t", "\t2\t", 1))) // duplicate ID
	f.Add([]byte(header + "ok\t" + firstID + "\t1\t0\t" + strings.Repeat("9", 128<<10) + "\n"))

	known := map[string]bool{}
	for _, c := range spec.Cells() {
		known[c.ID] = true
	}
	freshHeader := fmt.Sprintf("%s\t%s\t%s\t%d\n", checkpointMagic, spec.Name, spec.Fingerprint(), len(spec.Cells()))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "campaign.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		done, cp, err := openCheckpoint(path, spec, true)
		if err != nil {
			return
		}
		if err := cp.close(); err != nil {
			t.Fatal(err)
		}
		complete := data[:bytes.LastIndexByte(data, '\n')+1]
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := string(complete)
		if len(complete) == 0 {
			want = freshHeader
		}
		if string(got) != want {
			t.Fatalf("checkpoint after open = %q, want %q", got, want)
		}
		// The last record naming each cell, by attempt count.
		lastAttempts := map[string]int{}
		for _, line := range strings.Split(want, "\n")[1:] {
			if parts := strings.SplitN(line, "\t", 4); len(parts) == 4 {
				lastAttempts[parts[1]], _ = strconv.Atoi(parts[2])
			}
		}
		for id, r := range done {
			if !known[id] || r.Cell.ID != id {
				t.Errorf("replayed record %q (cell %q) is not a cell of the spec", id, r.Cell.ID)
			}
			if r.Attempts != lastAttempts[id] {
				t.Errorf("cell %q replayed %d attempts, want the last record's %d", id, r.Attempts, lastAttempts[id])
			}
		}
	})
}
