// Package simfs simulates the shared FUSE/S3 file system (s3fs) the
// paper's deployment used for workflow inputs and outputs. It is an
// in-memory hierarchical store with S3-like per-operation latency
// accounting, letting the cost model charge realistic I/O time for
// the ~600 GB of files a full SciDock execution produces.
//
// An FS keeps two things apart: the accounting (every path and its
// size, which is all Stat, Exists, List, Remove, Stats, TotalBytes and
// the returned latencies read) and the contents (what Read returns).
// The accounting is logical and the storage is by reference: Write
// keeps the slice it is given, so a campaign that stages one rendering
// under many paths (the receptor PDBQT in every pair directory) holds
// its bytes once, while ops, bytes written, TotalBytes and the I/O
// latency count every path in full, as the object store would. After
// DropContents an FS keeps the accounting only: what a caller that
// never reads its files back needs, at none of their bytes.
package simfs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Latency parameters of the simulated object store (seconds).
const (
	opLatency        = 0.012 // per-request round trip
	writeBytesPerSec = 55e6  // sustained PUT bandwidth
	readBytesPerSec  = 80e6  // sustained GET bandwidth
)

// FS is a shared in-memory file system. All methods are safe for
// concurrent use by the engine's workers.
type FS struct {
	mu       sync.RWMutex
	sizes    map[string]int64  // every file: the accounting
	contents map[string][]byte // what Read returns; nil after DropContents

	ops        int64
	bytesRead  int64
	bytesWrite int64
}

// New returns an empty file system that keeps the contents it is
// given.
func New() *FS {
	return &FS{sizes: make(map[string]int64), contents: make(map[string][]byte)}
}

// clean canonicalizes a path: forward slashes, no trailing slash, must
// be absolute.
func clean(path string) (string, error) {
	if path == "" || path[0] != '/' {
		return "", fmt.Errorf("simfs: path %q must be absolute", path)
	}
	parts := strings.Split(path, "/")
	var out []string
	for _, p := range parts {
		switch p {
		case "", ".":
		case "..":
			if len(out) == 0 {
				return "", fmt.Errorf("simfs: path %q escapes root", path)
			}
			out = out[:len(out)-1]
		default:
			out = append(out, p)
		}
	}
	return "/" + strings.Join(out, "/"), nil
}

// DropContents discards every stored content and makes every later
// Write record the size only. Everything but Read answers exactly as
// before; Read of any path then fails, naming it.
func (fs *FS) DropContents() {
	fs.mu.Lock()
	fs.contents = nil
	fs.mu.Unlock()
}

// Write stores data at path (creating parents implicitly, as object
// stores do) and returns the simulated I/O time in seconds. Ownership
// of data passes to the file system: it keeps the slice (unless its
// contents were dropped), so the caller must not modify it afterwards,
// and may hand the same slice to any number of paths. Read returns a
// copy, so no reader can alias it.
func (fs *FS) Write(path string, data []byte) (float64, error) {
	p, err := clean(path)
	if err != nil {
		return 0, err
	}
	fs.mu.Lock()
	fs.sizes[p] = int64(len(data))
	if fs.contents != nil {
		fs.contents[p] = data
	}
	fs.ops++
	fs.bytesWrite += int64(len(data))
	fs.mu.Unlock()
	return opLatency + float64(len(data))/writeBytesPerSec, nil
}

// Read returns the content at path and the simulated I/O time. It
// fails for a path that holds no file, and for one whose content was
// dropped.
func (fs *FS) Read(path string) ([]byte, float64, error) {
	p, err := clean(path)
	if err != nil {
		return nil, 0, err
	}
	fs.mu.Lock()
	_, exists := fs.sizes[p]
	data, ok := fs.contents[p]
	if ok {
		fs.ops++
		fs.bytesRead += int64(len(data))
	}
	fs.mu.Unlock()
	switch {
	case !exists:
		return nil, 0, fmt.Errorf("simfs: %s: no such file", p)
	case !ok:
		return nil, 0, fmt.Errorf("simfs: %s: contents dropped", p)
	}
	return append([]byte(nil), data...), opLatency + float64(len(data))/readBytesPerSec, nil
}

// Stat returns the size of the file at path.
func (fs *FS) Stat(path string) (int64, error) {
	p, err := clean(path)
	if err != nil {
		return 0, err
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, ok := fs.sizes[p]
	if !ok {
		return 0, fmt.Errorf("simfs: %s: no such file", p)
	}
	return n, nil
}

// Exists reports whether path holds a file.
func (fs *FS) Exists(path string) bool {
	p, err := clean(path)
	if err != nil {
		return false
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, ok := fs.sizes[p]
	return ok
}

// Remove deletes a file.
func (fs *FS) Remove(path string) error {
	p, err := clean(path)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.sizes[p]; !ok {
		return fmt.Errorf("simfs: %s: no such file", p)
	}
	delete(fs.sizes, p)
	delete(fs.contents, p)
	return nil
}

// List returns the sorted paths under the given directory prefix.
func (fs *FS) List(dir string) ([]string, error) {
	p, err := clean(dir)
	if err != nil {
		return nil, err
	}
	prefix := p
	if prefix != "/" {
		prefix += "/"
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var out []string
	for f := range fs.sizes {
		if strings.HasPrefix(f, prefix) {
			out = append(out, f)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Stats reports cumulative operation and byte counters.
func (fs *FS) Stats() (ops, bytesRead, bytesWritten int64) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.ops, fs.bytesRead, fs.bytesWrite
}

// TotalBytes returns the sum of all stored file sizes (the "600 GB"
// figure of the paper, scaled to this reproduction).
func (fs *FS) TotalBytes() int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var n int64
	for _, size := range fs.sizes {
		n += size
	}
	return n
}
