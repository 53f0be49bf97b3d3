package pdisk_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"srmsort/internal/jobs"
	"srmsort/internal/pdisk"
)

// A sortd submit commits a job by renaming spec.json into a fresh job
// directory under the root. The directory's entry in the root must be
// synced before that rename, or a crash can lose a job the server has
// already acknowledged; a failing root sync stops the submit.
func TestJobSubmitSyncsRootBeforeSpec(t *testing.T) {
	root := t.TempDir()
	var (
		mu    sync.Mutex
		steps []string
		fail  error
	)
	rel := func(path string) string {
		r, err := filepath.Rel(root, path)
		if err != nil {
			return path
		}
		return r
	}
	realSync, realRename := *pdisk.SyncPath, *pdisk.RenamePath
	*pdisk.SyncPath = func(path string) error {
		mu.Lock()
		steps = append(steps, "sync "+rel(path))
		err := fail
		mu.Unlock()
		if err != nil && path == root {
			return err
		}
		return realSync(path)
	}
	*pdisk.RenamePath = func(from, to string) error {
		mu.Lock()
		steps = append(steps, "rename "+rel(from)+" "+rel(to))
		mu.Unlock()
		return realRename(from, to)
	}
	t.Cleanup(func() { *pdisk.SyncPath, *pdisk.RenamePath = realSync, realRename })

	m, err := jobs.NewManager(jobs.Options{Root: root, MemoryBudget: 100_000,
		Defaults: jobs.Spec{Algorithm: "srm", D: 4, B: 8, K: 3, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Kill()
	j, err := m.Submit(jobs.Spec{}, bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(time.Minute):
		t.Fatal("job never finished")
	}

	mu.Lock()
	got := slices.Clone(steps)
	mu.Unlock()
	commit := slices.Index(got, "rename job-000001/spec.json.tmp job-000001/spec.json")
	rootSync := slices.Index(got, "sync .")
	if commit < 0 || rootSync < 0 || rootSync > commit {
		t.Fatalf("steps %q: want \"sync .\" before the spec.json rename", got)
	}

	boom := errors.New("fsync failed")
	mu.Lock()
	steps, fail = nil, boom
	mu.Unlock()
	if _, err := m.Submit(jobs.Spec{}, bytes.NewReader(nil)); !errors.Is(err, boom) {
		t.Fatalf("Submit with a failing root sync: %v, want it surfaced", err)
	}
	mu.Lock()
	got = slices.Clone(steps)
	mu.Unlock()
	if !slices.Equal(got, []string{"sync ."}) {
		t.Fatalf("steps after a failed root sync %q, want only the root sync", got)
	}
	if _, err := os.Stat(filepath.Join(root, "job-000002")); !os.IsNotExist(err) {
		t.Fatalf("failed submit left its job directory behind: %v", err)
	}
}
