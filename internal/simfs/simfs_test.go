package simfs

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	fs := New()
	wt, err := fs.Write("/exp/a.txt", []byte("hello"))
	if err != nil || wt <= 0 {
		t.Fatalf("write: %v, latency %v", err, wt)
	}
	data, rt, err := fs.Read("/exp/a.txt")
	if err != nil || rt <= 0 {
		t.Fatalf("read: %v, latency %v", err, rt)
	}
	if string(data) != "hello" {
		t.Errorf("data = %q", data)
	}
	// Returned slice is a copy.
	data[0] = 'X'
	again, _, _ := fs.Read("/exp/a.txt")
	if string(again) != "hello" {
		t.Error("read returned aliased storage")
	}
}

func TestPathValidation(t *testing.T) {
	fs := New()
	if _, err := fs.Write("relative.txt", nil); err == nil {
		t.Error("relative path accepted")
	}
	if _, err := fs.Write("/a/../../etc", nil); err == nil {
		t.Error("escaping path accepted")
	}
	if _, err := fs.Write("/a//b/./c.txt", []byte("x")); err != nil {
		t.Errorf("messy but valid path rejected: %v", err)
	}
	if !fs.Exists("/a/b/c.txt") {
		t.Error("canonicalization broken")
	}
}

func TestStatRemoveExists(t *testing.T) {
	fs := New()
	fs.Write("/d/f.map", make([]byte, 1234))
	n, err := fs.Stat("/d/f.map")
	if err != nil || n != 1234 {
		t.Errorf("stat = %d, %v", n, err)
	}
	if _, err := fs.Stat("/missing"); err == nil {
		t.Error("stat of missing file accepted")
	}
	if err := fs.Remove("/d/f.map"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/d/f.map") {
		t.Error("file survives removal")
	}
	if err := fs.Remove("/d/f.map"); err == nil {
		t.Error("double remove accepted")
	}
	if _, _, err := fs.Read("/d/f.map"); err == nil ||
		!strings.Contains(err.Error(), "no such file") {
		t.Errorf("read of removed file: %v", err)
	}
}

func TestList(t *testing.T) {
	fs := New()
	fs.Write("/exp/run1/a.dlg", []byte("1"))
	fs.Write("/exp/run1/b.dlg", []byte("2"))
	fs.Write("/exp/run2/c.dlg", []byte("3"))
	fs.Write("/other/x", []byte("4"))
	got, err := fs.List("/exp/run1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "/exp/run1/a.dlg" {
		t.Errorf("list = %v", got)
	}
	all, _ := fs.List("/")
	if len(all) != 4 {
		t.Errorf("root list = %v", all)
	}
	// Prefix must be a path component boundary.
	fs.Write("/exp/run10/z", []byte("5"))
	got, _ = fs.List("/exp/run1")
	if len(got) != 2 {
		t.Errorf("prefix boundary violated: %v", got)
	}
}

func TestCounters(t *testing.T) {
	fs := New()
	fs.Write("/a", make([]byte, 100))
	fs.Write("/b", make([]byte, 50))
	fs.Read("/a")
	ops, br, bw := fs.Stats()
	if ops != 3 || br != 100 || bw != 150 {
		t.Errorf("stats = %d %d %d", ops, br, bw)
	}
	if fs.TotalBytes() != 150 {
		t.Errorf("total = %d", fs.TotalBytes())
	}
}

func TestLatencyScalesWithSize(t *testing.T) {
	fs := New()
	small, _ := fs.Write("/s", make([]byte, 1))
	big, _ := fs.Write("/b", make([]byte, 100*1024*1024))
	if big <= small {
		t.Errorf("big write (%v) not slower than small (%v)", big, small)
	}
}

func TestConcurrentAccess(t *testing.T) {
	fs := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				path := "/w/" + string(rune('a'+id)) + "/f.txt"
				fs.Write(path, []byte("data"))
				fs.Read(path)
				fs.List("/w")
			}
		}(i)
	}
	wg.Wait()
	if got, _ := fs.List("/w"); len(got) != 8 {
		t.Errorf("files after concurrent writes = %d", len(got))
	}
}

// TestWriteSharesOneSlice pins Write's ownership contract: one slice
// staged under many paths is stored once, every path is accounted in
// full, and every Read is an independent copy.
func TestWriteSharesOneSlice(t *testing.T) {
	const paths, size = 100, 1 << 20
	blob := bytes.Repeat([]byte("receptor"), size/8)
	fs := New()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < paths; i++ {
		if _, err := fs.Write(fmt.Sprintf("/exp/pair%03d/rec.pdbqt", i), blob); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown >= 2*size {
		t.Errorf("heap grew %d bytes staging one %d-byte slice under %d paths", grown, size, paths)
	}
	if got := fs.TotalBytes(); got != paths*size {
		t.Errorf("TotalBytes = %d, want %d (logical, every path in full)", got, paths*size)
	}
	if _, _, written := fs.Stats(); written != paths*size {
		t.Errorf("bytes written = %d, want %d", written, paths*size)
	}
	a, _, err := fs.Read("/exp/pair000/rec.pdbqt")
	if err != nil {
		t.Fatal(err)
	}
	a[0] ^= 0xff
	for _, p := range []string{"/exp/pair000/rec.pdbqt", "/exp/pair099/rec.pdbqt"} {
		b, _, err := fs.Read(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, blob) {
			t.Errorf("%s changed after a reader modified its copy", p)
		}
	}
	runtime.KeepAlive(fs)
}
