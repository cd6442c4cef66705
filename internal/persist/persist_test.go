package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestAtomicWritesAndReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	write := func(doc string) error {
		return Atomic(path, func(w io.Writer) error {
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
	err := Atomic(path, func(w io.Writer) error {
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

func TestLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	if err := os.WriteFile(path, []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	var got string
	err := Load(path, func(r io.Reader) error {
		b, err := io.ReadAll(r)
		got = string(b)
		return err
	})
	if err != nil || got != "payload" {
		t.Fatalf("Load = %q, %v", got, err)
	}
	if err := Load(filepath.Join(t.TempDir(), "missing"), func(io.Reader) error { return nil }); !os.IsNotExist(err) {
		t.Errorf("missing file error = %v, want IsNotExist", err)
	}
	boom := errors.New("boom")
	if err := Load(path, func(io.Reader) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("reader error not wrapped: %v", err)
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
