package persist_test

// Fault-injected coverage of the Atomic protocol through the FS seam —
// external test package so the tests can drive persist via
// internal/faultinject (which itself builds on persist.FS) without an
// import cycle. The headline satellite here: the parent-directory fsync
// after the rename is attempted on every successful write, and its failure
// surfaces to the caller instead of being swallowed (a crash after rename
// but before the dir entry hits disk loses the file on ext4/XFS).

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"gamelens/internal/faultinject"
	"gamelens/internal/persist"
)

func writeDoc(doc string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, doc)
		return err
	}
}

func TestAtomicSyncsParentDir(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	spy := faultinject.New(nil)
	if err := persist.AtomicFS(spy, path, writeDoc("{}")); err != nil {
		t.Fatal(err)
	}
	if n := spy.Count(faultinject.OpSyncDir); n != 1 {
		t.Errorf("directory synced %d times, want 1", n)
	}

	// A failing directory sync surfaces: the caller must not believe the
	// checkpoint durable when only the file, not its directory entry, was
	// synced.
	failing := faultinject.New(nil, faultinject.FailNth(faultinject.OpSyncDir, 1, faultinject.ErrInjected))
	err := persist.AtomicFS(failing, path, writeDoc("{}"))
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("dir-sync failure did not surface: %v", err)
	}
	if !strings.Contains(err.Error(), "syncing directory") {
		t.Errorf("dir-sync failure not named as such: %v", err)
	}
}

func TestAtomicTornWriteLeavesTargetIntact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	if err := persist.AtomicFS(nil, path, writeDoc("previous")); err != nil {
		t.Fatal(err)
	}
	fs := faultinject.New(nil, faultinject.TornWrite(1, 3))
	if err := persist.AtomicFS(fs, path, writeDoc("replacement")); err == nil {
		t.Fatal("torn write reported success")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "previous" {
		t.Errorf("target holds %q after a torn write, want the previous document", got)
	}
	// The torn temp file was cleaned up: only the target remains.
	names, err := persist.OS.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Errorf("directory holds %v after a torn write, want only the target", names)
	}
}

func TestAtomicENOSPCSurfaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	fs := faultinject.New(nil, faultinject.FailNth(faultinject.OpWrite, 1, faultinject.ErrNoSpace))
	err := persist.AtomicFS(fs, path, writeDoc("doc"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("full disk surfaced %v, want ENOSPC", err)
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Errorf("target exists after a failed write (err=%v)", statErr)
	}
}

func TestAtomicRenameFailureCleansTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	fs := faultinject.New(nil, faultinject.FailNth(faultinject.OpRename, 1, faultinject.ErrInjected))
	if err := persist.AtomicFS(fs, path, writeDoc("doc")); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("rename failure did not surface: %v", err)
	}
	names, err := persist.OS.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Errorf("directory holds %v after a failed rename, want it empty", names)
	}
	// No rename landed, so no directory sync should have been attempted.
	if n := fs.Count(faultinject.OpSyncDir); n != 0 {
		t.Errorf("directory synced %d times after a failed rename, want 0", n)
	}
}
