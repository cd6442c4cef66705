package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestAtomicWritesAndReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	write := func(doc string) error {
		return AtomicFS(nil, path, func(w io.Writer) error {
			_, err := io.WriteString(w, doc)
			return err
		})
	}
	if err := write("v1"); err != nil {
		t.Fatal(err)
	}
	if err := write("v2"); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v2" {
		t.Errorf("content = %q, want v2", got)
	}
}

// TestAtomicFailureLeavesTargetIntact pins the crash-safety contract: a
// failing write must leave the previous file untouched and no temp files
// behind.
func TestAtomicFailureLeavesTargetIntact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := os.WriteFile(path, []byte("good"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := AtomicFS(OS, path, func(w io.Writer) error {
		io.WriteString(w, "partial garbage")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want wrapped boom", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "good" {
		t.Errorf("target clobbered by failed write: %q", got)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
}

// writeFootedFile writes doc plus its integrity footer to a new file.
func writeFootedFile(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "state.json")
	if err := os.WriteFile(path, AppendFooter([]byte(doc)), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadFooted(t *testing.T) {
	type payload struct {
		Name string `json:"name"`
	}
	path := writeFootedFile(t, "{\"name\": \"payload\"}\n")
	var got payload
	if err := LoadFooted(nil, path, &got); err != nil || got.Name != "payload" {
		t.Fatalf("LoadFooted = %+v, %v", got, err)
	}
	if err := LoadFooted(OS, filepath.Join(t.TempDir(), "missing"), &got); !os.IsNotExist(err) || !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing file error = %v, want fs.ErrNotExist", err)
	}
	// A torn file — every proper prefix — is an error, names the file, and
	// decodes nothing.
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(whole); cut++ {
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got = payload{}
		err := LoadFooted(nil, path, &got)
		if err == nil || !strings.Contains(err.Error(), path) || got != (payload{}) {
			t.Fatalf("file cut at %d of %d: LoadFooted = %+v, %v; want an error naming the file and nothing decoded", cut, len(whole), got, err)
		}
	}
	// A footer that verifies over a document that does not decode is the
	// decoder's error, wrapped.
	var syntaxErr *json.SyntaxError
	if err := LoadFooted(nil, writeFootedFile(t, "not json\n"), &got); !errors.As(err, &syntaxErr) {
		t.Errorf("undecodable document: %v, want a wrapped *json.SyntaxError", err)
	}
	if err := ReadFooted(strings.NewReader(string(whole)), &got); err != nil || got.Name != "payload" {
		t.Errorf("ReadFooted = %+v, %v", got, err)
	}
}

// handleFS counts the read handles opened through it and closed again.
type handleFS struct {
	FS
	opened, closed int
}

type countedHandle struct {
	io.ReadCloser
	fs *handleFS
}

func (h *handleFS) Open(name string) (io.ReadCloser, error) {
	f, err := h.FS.Open(name)
	if err != nil {
		return nil, err
	}
	h.opened++
	return countedHandle{f, h}, nil
}

func (c countedHandle) Close() error {
	c.fs.closed++
	return c.ReadCloser.Close()
}

// TestQuarantine pins the naming: first free path.corrupt-N, nothing ever
// overwritten, the new name returned, a missing source an error — and every
// taken name the probe steps over has its handle closed.
func TestQuarantine(t *testing.T) {
	dir := t.TempDir()
	hfs := &handleFS{FS: OS}
	path := filepath.Join(dir, "state.json")
	for n, doc := range []string{"first", "second", "third"} {
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if n == 1 { // a gap in the numbering is filled, not skipped
			if err := os.Remove(path + ".corrupt-0"); err != nil {
				t.Fatal(err)
			}
		}
		to, err := Quarantine(hfs, path)
		want := path + []string{".corrupt-0", ".corrupt-0", ".corrupt-1"}[n]
		if err != nil || to != want {
			t.Fatalf("quarantine %d: %q, %v; want %q", n, to, err, want)
		}
		if got, err := os.ReadFile(to); err != nil || string(got) != doc {
			t.Fatalf("quarantine %d: %s holds %q (%v), want %q", n, to, got, err, doc)
		}
	}
	if got, err := os.ReadFile(path + ".corrupt-0"); err != nil || string(got) != "second" {
		t.Errorf("corrupt-0 holds %q (%v) after a later quarantine, want it untouched", got, err)
	}
	if hfs.opened != 1 || hfs.closed != hfs.opened {
		t.Errorf("probing opened %d existing quarantine files and closed %d, want 1 and 1", hfs.opened, hfs.closed)
	}
	if _, err := Quarantine(nil, path); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("quarantining a missing file: %v, want fs.ErrNotExist", err)
	}
}

// TestAppendFooterMatchesMarshal pins the appended footer line to the
// footer struct's own JSON — the form SplitFooter decodes and every file
// already on disk carries.
func TestAppendFooterMatchesMarshal(t *testing.T) {
	for _, doc := range []string{"", "\n", "{}\n", strings.Repeat("{\"k\": 1}\n", 5000)} {
		line, err := json.Marshal(footer{Format: FooterFormat, Bytes: len(doc), CRC32: crc32.ChecksumIEEE([]byte(doc))})
		if err != nil {
			t.Fatal(err)
		}
		want := doc + string(line) + "\n"
		if got := string(AppendFooter([]byte(doc))); got != want {
			t.Errorf("AppendFooter(%d bytes) ends %q, want %q", len(doc), got[len(doc):], want[len(doc):])
		}
	}
}

// TestWriteFooted pins the append-side writer: one Write carrying document
// plus footer, nothing at all when the build fails, and a recycled buffer
// that never leaks one document's bytes into the next.
func TestWriteFooted(t *testing.T) {
	var out bytes.Buffer
	for _, doc := range []string{strings.Repeat("long document\n", 100), "short\n"} {
		out.Reset()
		err := WriteFooted(&out, func(dst []byte) ([]byte, error) { return append(dst, doc...), nil })
		if err != nil {
			t.Fatal(err)
		}
		got, err := SplitFooter(out.Bytes())
		if err != nil || string(got) != doc {
			t.Fatalf("SplitFooter = %q, %v; want %q", got, err, doc)
		}
	}
	out.Reset()
	boom := errors.New("boom")
	err := WriteFooted(&out, func(dst []byte) ([]byte, error) { return append(dst, "half a docu"...), boom })
	if !errors.Is(err, boom) || out.Len() != 0 {
		t.Fatalf("failed build: err = %v, %d bytes written; want the build's error and nothing written", err, out.Len())
	}
}
