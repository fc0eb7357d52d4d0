package store

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalReplay opens a journal file holding arbitrary bytes.
// Invariants: OpenJournal never panics; and the file it compacts to,
// reopened, replays with no torn records and the same live jobs (keys
// and IDs) in the same order.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte(`{"op":"accepted","id":"j1","key":"k1","spec":{"kind":"droop"},"unixMs":1}` + "\n" +
		`{"op":"started","id":"j1","key":"k1","unixMs":2}` + "\n"))
	f.Add([]byte(`{"op":"accepted","id":"j1","key":"k1","spec":{}}` + "\n" +
		`{"op":"done","id":"j1","key":"k1"}` + "\n" +
		`{"op":"accepted","id":"j2","key":"k2","priority":"high","spec":[1]}` + "\n" +
		`{"op":"acc`))
	f.Add([]byte(`{"op":"bogus","key":"k"}` + "\n" + `null` + "\n\n" + `{"op":"accepted","key":"k","spec":null}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, live, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("OpenJournal: %v", err)
		}
		j.Close()
		j2, live2, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("reopen compacted journal: %v", err)
		}
		defer j2.Close()
		if torn := j2.ReplayStats().TornRecords; torn != 0 {
			t.Fatalf("compacted journal replays %d torn records", torn)
		}
		if len(live2) != len(live) {
			t.Fatalf("live jobs: %d after compaction, %d before", len(live2), len(live))
		}
		for i := range live {
			if live2[i].Key != live[i].Key || live2[i].ID != live[i].ID {
				t.Fatalf("live job %d: %s/%s after compaction, %s/%s before",
					i, live2[i].Key, live2[i].ID, live[i].Key, live[i].ID)
			}
		}
	})
}
