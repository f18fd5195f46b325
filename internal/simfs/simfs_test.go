package simfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
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
	if n, err := fs.Stat("/a/b/c.txt"); err != nil || n != 1 {
		t.Errorf("canonicalization broken: stat = %d, %v", n, err)
	}
	if _, err := fs.Stat("/missing"); err == nil {
		t.Error("stat of missing file accepted")
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

// TestDropContentsKeepsAccounting feeds the same random write and
// overwrite sequences to a file system that keeps its
// contents and to one whose contents were dropped (half of them
// before any operation, half midway). Everything but Read must answer
// identically; Read on the dropped one fails, naming the path.
func TestDropContentsKeepsAccounting(t *testing.T) {
	dirs := []string{"/exp", "/exp/pair1", "/exp/pair2", "/other"}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keep, drop := New(), New()
		dropAt := 0
		if seed%2 == 0 {
			dropAt = 50
		}
		for op := 0; op < 100; op++ {
			if op == dropAt {
				drop.DropContents()
			}
			path := fmt.Sprintf("%s/f%d", dirs[rng.Intn(len(dirs))], rng.Intn(6))
			data := make([]byte, rng.Intn(3000))
			lk, ek := keep.Write(path, data)
			ld, ed := drop.Write(path, data)
			if lk != ld || ek != nil || ed != nil {
				t.Fatalf("seed %d op %d: Write(%s) = %v, %v vs %v, %v", seed, op, path, lk, ek, ld, ed)
			}
		}
		assertSameAccounting(t, seed, keep, drop)
	}
}

func assertSameAccounting(t *testing.T, seed int64, keep, drop *FS) {
	t.Helper()
	ok, rk, wk := keep.Stats()
	od, rd, wd := drop.Stats()
	if ok != od || rk != rd || wk != wd {
		t.Fatalf("seed %d: Stats = %d %d %d vs %d %d %d", seed, ok, rk, wk, od, rd, wd)
	}
	if keep.TotalBytes() != drop.TotalBytes() {
		t.Fatalf("seed %d: TotalBytes = %d vs %d", seed, keep.TotalBytes(), drop.TotalBytes())
	}
	for _, dir := range []string{"/", "/exp", "/exp/pair1", "/other"} {
		lk, _ := keep.List(dir)
		ld, _ := drop.List(dir)
		if !reflect.DeepEqual(lk, ld) {
			t.Fatalf("seed %d: List(%s) = %v vs %v", seed, dir, lk, ld)
		}
	}
	all, _ := keep.List("/")
	for _, p := range all {
		nk, ek := keep.Stat(p)
		nd, ed := drop.Stat(p)
		if nk != nd || ek != nil || ed != nil {
			t.Fatalf("seed %d: Stat(%s) = %d, %v vs %d, %v", seed, p, nk, ek, nd, ed)
		}
		if _, _, err := keep.Read(p); err != nil {
			t.Fatalf("seed %d: retaining Read(%s): %v", seed, p, err)
		}
		if _, _, err := drop.Read(p); err == nil || !strings.Contains(err.Error(), p) {
			t.Fatalf("seed %d: Read(%s) after DropContents = %v, want an error naming the path", seed, p, err)
		}
	}
	if _, ek := keep.Stat("/exp/f9"); ek == nil {
		t.Fatalf("seed %d: Stat of a never-written path succeeds", seed)
	}
	if _, ed := drop.Stat("/exp/f9"); ed == nil {
		t.Fatalf("seed %d: Stat of a never-written path succeeds after DropContents", seed)
	}
}

// TestDropContentsConcurrent drops the contents while writers run:
// every file is still accounted with its size, and none keeps content.
// Run under -race.
func TestDropContentsConcurrent(t *testing.T) {
	const writers, files = 4, 200
	fs := New()
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < files; j++ {
				fs.Write(fmt.Sprintf("/w/%d/%d", id, j), make([]byte, j))
			}
		}(i)
	}
	fs.DropContents()
	wg.Wait()
	paths, _ := fs.List("/w")
	if len(paths) != writers*files {
		t.Fatalf("%d files listed, want %d", len(paths), writers*files)
	}
	if got, want := fs.TotalBytes(), int64(writers*files*(files-1)/2); got != want {
		t.Errorf("TotalBytes = %d, want %d", got, want)
	}
	for _, p := range paths {
		if _, _, err := fs.Read(p); err == nil {
			t.Fatalf("%s kept its content after DropContents", p)
		}
	}
}
