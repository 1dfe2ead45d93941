package vfs

import (
	"path"
	"testing"
)

// A handle is nil until the file's first append and for a directory, and
// afterwards tracks every append, by path or through the handle.
func TestOpenHandleTracksAppends(t *testing.T) {
	now := 1.0
	fs := New(func() float64 { return now })
	if h := fs.Open("/d/f"); h != nil || h.Size() != 0 {
		t.Fatalf("Open before the first append = %v (size %d), want nil (size 0)", h, h.Size())
	}
	if err := fs.Append("/d/f", 10); err != nil {
		t.Fatal(err)
	}
	if fs.Open("/d") != nil || fs.Open("/") != nil {
		t.Fatal("Open of a directory is not nil")
	}
	h := fs.Open("/d/f")
	if h == nil || h.Size() != 10 {
		t.Fatalf("Open after append: size %d, want 10", h.Size())
	}
	now = 2
	if err := fs.Append("/d/f", 5); err != nil {
		t.Fatal(err)
	}
	if h.Size() != 15 {
		t.Fatalf("handle size after a path append = %d, want 15", h.Size())
	}
	now = 3
	if err := h.Append(7); err != nil {
		t.Fatal(err)
	}
	if info, _ := stat(fs, "/d/f"); info.Size != 22 || info.MTime != 3 || fs.Size("/d/f") != 22 {
		t.Fatalf("after a handle append: stat %+v, Size %d; want size 22 at mtime 3", info, fs.Size("/d/f"))
	}
	if h.Append(-1) == nil {
		t.Fatal("negative handle append succeeded")
	}
	_ = fs.WriteString("/d/text", "x")
	if err := fs.Open("/d/text").Append(1); err == nil {
		t.Fatal("size-only append to a content file through a handle succeeded")
	}
}

// A directory handle probes its children: nil for a missing name or a
// subdirectory, the file's own handle once it exists.
func TestOpenDirProbesChildren(t *testing.T) {
	fs := New(nil)
	var none *Dir
	if none.Open("f") != nil || fs.OpenDir("/out") != nil {
		t.Fatal("a missing directory has a child")
	}
	_ = fs.MkdirAll("/out/sub")
	d := fs.OpenDir("/out")
	if d == nil || d.Open("f") != nil || d.Open("sub") != nil {
		t.Fatal("directory handle: want an empty /out with no regular files")
	}
	_ = fs.Append("/out/f", 4)
	if h := d.Open("f"); h == nil || h != fs.Open("/out/f") || h.Size() != 4 {
		t.Fatal("directory handle does not find a file created after it was opened")
	}
	if fs.OpenDir("/out/f") != nil {
		t.Fatal("OpenDir of a regular file is not nil")
	}
}

// Reading a size or an existence by a clean path walks the tree in
// place and allocates nothing.
func TestCleanPathReadsAllocateNothing(t *testing.T) {
	fs := New(nil)
	_ = fs.Append("/runs/f/2005-021/outputs/1_salt.63", 10)
	for _, p := range []string{"/runs/f/2005-021/outputs/1_salt.63", "/runs/f/2005-021/outputs/2_salt.63", "/"} {
		if n := testing.AllocsPerRun(100, func() { fs.Size(p); fs.Exists(p) }); n != 0 {
			t.Errorf("Size+Exists(%q) allocates %.1f objects, want 0", p, n)
		}
	}
}

// FuzzLookup checks the clean-path fast path against path.Clean: over a
// small fixed tree, Exists, Size and Open on any string p answer as they
// do on path.Clean("/"+p).
func FuzzLookup(f *testing.F) {
	fs := New(nil)
	_ = fs.Append("/a/b", 3)
	_ = fs.Append("/a/c/d", 5)
	_ = fs.Append("/b", 7)
	_ = fs.MkdirAll("/e/.f")
	fs.Append("/runs/f1/out.63", 0)
	for _, seed := range []string{
		"", "a", "//a", "/a/./b", "/a/../b", "/a/b/", "/..", "/a//b",
		"runs//f1/./out.63", "/runs/f1/out.63", "/e/.f", "/a/c/d/..", ".", "/./",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, p string) {
		c := path.Clean("/" + p)
		if got, want := fs.Exists(p), fs.Exists(c); got != want {
			t.Fatalf("Exists(%q) = %v, Exists(%q) = %v", p, got, c, want)
		}
		if got, want := fs.Size(p), fs.Size(c); got != want {
			t.Fatalf("Size(%q) = %d, Size(%q) = %d", p, got, c, want)
		}
		if got, want := fs.Open(p), fs.Open(c); got != want {
			t.Fatalf("Open(%q) = %p, Open(%q) = %p", p, got, c, want)
		}
		if isClean(p) != (p == c) {
			t.Fatalf("isClean(%q) = %v, but path.Clean gives %q", p, isClean(p), c)
		}
	})
}
