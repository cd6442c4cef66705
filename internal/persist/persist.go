// Package persist is the one place that knows the on-disk protocol of every
// checkpoint-style document (rollup checkpoints, the historical store's
// partition, pending and manifest files), in both directions.
//
// Writing: the document goes to a temporary file in the destination
// directory, is synced, and is renamed over the target only on success
// (AtomicFS), so a restarted monitor never reads a half-written file; its
// bytes are the JSON document followed by a one-line CRC footer
// (WriteFooted, AppendFooter). Reading: LoadFooted opens a file, verifies
// the footer (SplitFooter) — which rejects a file cut at any byte or
// altered anywhere — and only then decodes the JSON; ReadFooted is the same
// step over a reader. A file that fails either check is set aside by
// Quarantine under the first free name path.corrupt-N (N from 0), so no
// later quarantine of the same path overwrites an earlier one's evidence.
//
// Every durability-relevant operation goes through the FS seam, so tests
// can inject faults (internal/faultinject) at exactly the syscall that is
// supposed to be crash-safe: a torn write, a failed fsync, a rename that
// never lands, a full disk. The helpers taking an FS treat nil as the real
// filesystem (OS).
package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// File is the writable handle AtomicFS drives: the subset of *os.File the
// write-temp-sync-rename protocol needs.
type File interface {
	io.Writer
	Sync() error
	Close() error
	Name() string
}

// FS abstracts the filesystem operations the persistence layer performs —
// the seam through which internal/faultinject injects deterministic
// failures. OS is the real implementation. The helpers taking an FS treat
// nil as OS.
type FS interface {
	// CreateTemp creates a new temporary file in dir (os.CreateTemp
	// semantics for pattern).
	CreateTemp(dir, pattern string) (File, error)
	// Open opens the named file for reading.
	Open(name string) (io.ReadCloser, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes the named file.
	Remove(name string) error
	// ReadDir lists the names of the entries in dir. Implementations need
	// not sort them (os.ReadDir happens to; an injected FS may not), so
	// callers whose behavior depends on scan order must sort the returned
	// names themselves.
	ReadDir(dir string) ([]string, error)
	// SyncDir fsyncs the directory itself, making a completed rename
	// durable against power loss.
	SyncDir(dir string) error
	// MkdirAll creates the named directory along with any missing parents
	// (os.MkdirAll semantics: an existing directory is not an error).
	MkdirAll(dir string) error
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Open(name string) (io.ReadCloser, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names, nil
}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// AtomicFS writes the document produced by write to path via a
// write-temp-then-rename on fs (nil = OS): the temporary file lives in
// path's directory (a rename across filesystems is not atomic), is fsynced
// before the rename, and is removed on any failure. After the rename the
// parent directory is fsynced too — on ext4/XFS a crash after the rename
// but before the directory entry hits disk can otherwise lose the file
// entirely. On success the previous file at path, if any, is replaced in
// one step.
func AtomicFS(fs FS, path string, write func(io.Writer) error) (err error) {
	if fs == nil {
		fs = OS
	}
	tmp, err := fs.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			fs.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return fmt.Errorf("persist: writing %s: %w", path, err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("persist: syncing %s: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("persist: closing %s: %w", path, err)
	}
	if err = fs.Rename(tmp.Name(), path); err != nil {
		fs.Remove(tmp.Name())
		return fmt.Errorf("persist: committing %s: %w", path, err)
	}
	if err = fs.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("persist: syncing directory of %s: %w", path, err)
	}
	return nil
}

// FooterFormat names the integrity-footer line's schema. The string keeps
// its historical rollup name — it is baked into every gamelens-rollup-v3
// checkpoint already on disk — even though the footer now guards every
// CRC-footed document the persist layer carries (rollup checkpoints and
// the historical store's partition, pending and manifest files alike).
const FooterFormat = "gamelens-rollup-footer-v1"

// footer is the one-line JSON trailer AppendFooter appends after a
// document: the document's byte length and CRC32 (IEEE), terminated by a
// newline. SplitFooter requires it, which is what makes truncation
// detectable at every byte boundary — any proper prefix of a footed file
// either loses the trailing newline, tears the footer's JSON, or leaves a
// footer whose length/CRC no longer match the bytes before it. Without the
// footer a prefix that happened to end on a JSON boundary could decode as
// a valid, smaller document and silently mis-restore.
type footer struct {
	Format string `json:"format"`
	Bytes  int    `json:"bytes"`
	CRC32  uint32 `json:"crc32"`
}

// AppendFooter returns doc with its integrity footer line appended. The
// document must end with a newline of its own (json.Encoder output does),
// so the footer line is identifiable as the last line of the file. The line
// is the footer struct's compact JSON, written with appends (FooterFormat
// needs no escaping) — doc's spare capacity is used, nothing else allocated.
func AppendFooter(doc []byte) []byte {
	n, crc := len(doc), crc32.ChecksumIEEE(doc)
	doc = append(doc, `{"format":"`+FooterFormat+`","bytes":`...)
	doc = strconv.AppendInt(doc, int64(n), 10)
	doc = append(doc, `,"crc32":`...)
	doc = strconv.AppendUint(doc, uint64(crc), 10)
	return append(doc, "}\n"...)
}

// docPool recycles WriteFooted's document buffers: a checkpointing monitor
// encodes a few hundred KB every few bucket widths, and a fresh buffer would
// regrow to that size by doubling on every one of them.
var docPool = sync.Pool{New: func() any { return new([]byte) }}

// WriteFooted is the write side of every footed document encoded by
// appending: build appends the document (ending in its own newline) to the
// recycled buffer it is handed, the integrity footer goes on behind it, and
// w receives the whole file in a single Write. If build fails, its error is
// returned as is and nothing is written.
func WriteFooted(w io.Writer, build func(dst []byte) ([]byte, error)) error {
	bp := docPool.Get().(*[]byte)
	defer docPool.Put(bp)
	doc, err := build((*bp)[:0])
	if err == nil {
		doc = AppendFooter(doc)
		if _, werr := w.Write(doc); werr != nil {
			err = fmt.Errorf("persist: writing document: %w", werr)
		}
	}
	*bp = doc[:0] // keep whatever the buffer grew to
	return err
}

// SplitFooter validates data's integrity footer and returns the document
// bytes it covers. Every failure mode a truncation or bit flip can produce
// lands here: a missing terminator, a torn footer line, or a length/CRC
// mismatch against the preceding bytes.
func SplitFooter(data []byte) ([]byte, error) {
	if len(data) == 0 || data[len(data)-1] != '\n' {
		return nil, fmt.Errorf("persist: document truncated: missing integrity footer terminator")
	}
	body := data[:len(data)-1]
	i := bytes.LastIndexByte(body, '\n')
	if i < 0 {
		return nil, fmt.Errorf("persist: document has no integrity footer")
	}
	doc, line := body[:i+1], body[i+1:]
	var f footer
	if err := json.Unmarshal(line, &f); err != nil {
		return nil, fmt.Errorf("persist: corrupt integrity footer: %w", err)
	}
	if f.Format != FooterFormat {
		return nil, fmt.Errorf("persist: unknown integrity footer format %q", f.Format)
	}
	if f.Bytes != len(doc) || f.CRC32 != crc32.ChecksumIEEE(doc) {
		return nil, fmt.Errorf("persist: document integrity mismatch (torn or corrupted file)")
	}
	return doc, nil
}

// ReadFooted is the read side of every footed document: it reads r to the
// end, verifies the integrity footer, and decodes the document it covers
// into doc (a pointer, as for json.Unmarshal). Nothing is decoded from bytes
// the footer does not vouch for.
func ReadFooted(r io.Reader, doc any) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("persist: reading document: %w", err)
	}
	body, err := SplitFooter(data)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, doc); err != nil {
		return fmt.Errorf("persist: decoding document: %w", err)
	}
	return nil
}

// LoadFooted is ReadFooted over the file at path on fs (nil = OS) — the
// read-side counterpart of AtomicFS. A missing file surfaces the Open error
// unchanged, so it matches errors.Is(err, fs.ErrNotExist) and callers can
// treat "no file yet" as a cold start; every other failure names the path.
func LoadFooted(fs FS, path string, doc any) error {
	if fs == nil {
		fs = OS
	}
	f, err := fs.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := ReadFooted(f, doc); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Quarantine renames the corrupt file at path aside to path.corrupt-N on fs
// (nil = OS), N being the first number whose name is free, and returns the
// new name. Numbering restarts per path and never reuses a taken name, so
// repeated corruption of one path keeps every copy.
func Quarantine(fs FS, path string) (to string, err error) {
	if fs == nil {
		fs = OS
	}
	for n := 0; ; n++ {
		to = fmt.Sprintf("%s.corrupt-%d", path, n)
		f, err := fs.Open(to)
		if errors.Is(err, os.ErrNotExist) {
			break
		}
		if err != nil {
			return "", fmt.Errorf("persist: quarantining %s: %w", path, err)
		}
		f.Close()
	}
	if err := fs.Rename(path, to); err != nil {
		return "", fmt.Errorf("persist: quarantining %s: %w", path, err)
	}
	return to, nil
}
