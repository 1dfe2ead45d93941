// Package vfs is an in-memory virtual filesystem used by the factory
// simulator.
//
// Bulk scientific data (model outputs, data products) is tracked by size
// only — the simulator never materializes gigabytes of bytes — while small
// text files (run logs, configuration) carry real content so the log
// parser and crawler exercise the same code paths they would against a
// real directory tree. Paths use forward slashes; the root is "/".
//
// Files are never removed, so a handle from Open or OpenDir stays valid
// for the life of its FS: a watcher resolves a path once, then reads
// through one pointer instead of walking the path again.
//
// Every write takes the next value of one change count for the whole FS,
// and the FS keeps its regular files in the order of their last write,
// so WalkSince can answer "which files changed after count N?" without
// walking the tree.
package vfs

import (
	"cmp"
	"errors"
	"fmt"
	"path"
	"slices"
	"strings"
)

// Common errors returned by FS operations.
var (
	ErrNotExist = errors.New("vfs: file does not exist")
	ErrIsDir    = errors.New("vfs: is a directory")
	ErrNotDir   = errors.New("vfs: not a directory")
)

// FileInfo describes a file or directory.
type FileInfo struct {
	Path  string  // cleaned absolute path
	Name  string  // base name
	Size  int64   // logical size in bytes
	MTime float64 // virtual time of last modification
	// Gen is the FS's change count at the file's last write: every write
	// takes the next value of one counter for the whole FS, so a file
	// whose Gen is at most another's was last written no later. Born is
	// the change count of the file's first write, so Born <= Gen. Both
	// are 0 for directories and for files never written.
	Gen   uint64
	Born  uint64
	IsDir bool
}

// File is a node in the tree: a regular file or a directory. Open hands
// out a *File for a regular file as a handle to it.
type File struct {
	fs      *FS // for the clock, change count and write order of a write through a handle
	info    FileInfo
	content []byte // only for text files; nil for size-only bulk data
	// children holds a directory's entries in name order. A walk keeps the
	// slice it took, so a change never edits an entry a walk can see: a
	// child that sorts after the last entry is appended, past the length
	// any walk took, and any other child builds a new slice.
	children []*File
	// prev and next link the regular files in the order of their last
	// write, newest at FS.newest (write order is Gen order).
	prev, next *File
}

// find returns where name is, or would be, among the directory's
// entries, and whether it is there. It is slices.BinarySearchFunc written
// out: a directory probe costs no call per comparison.
func (f *File) find(name string) (int, bool) {
	lo, hi := 0, len(f.children)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if f.children[m].info.Name < name {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(f.children) && f.children[lo].info.Name == name
}

// add links a new child into the directory's entries, in name order.
func (f *File) add(c *File) {
	i, _ := f.find(c.info.Name)
	if i == len(f.children) {
		f.children = append(f.children, c)
	} else {
		f.children = slices.Insert(slices.Clip(f.children), i, c)
	}
}

// Size returns the file's logical size. A nil handle (a file that did not
// exist when it was opened) has size 0, as FS.Size reports.
func (f *File) Size() int64 {
	if f == nil {
		return 0
	}
	return f.info.Size
}

// Append grows a size-only file by n bytes and stamps the write (mtime
// and change count), as FS.Append does.
func (f *File) Append(n int64) error {
	if n < 0 {
		return fmt.Errorf("append %s: negative size %d", f.info.Path, n)
	}
	if f.content != nil {
		return fmt.Errorf("append %s: size-only append to content file", f.info.Path)
	}
	f.info.Size += n
	f.touch()
	return nil
}

// touch stamps a write, the mtime from the FS clock and the next change
// count, and moves the file to the newest end of the write order.
func (f *File) touch() {
	fs := f.fs
	f.info.MTime = fs.now()
	fs.gen++
	f.info.Gen = fs.gen
	if f.info.Born == 0 {
		f.info.Born = fs.gen
	}
	if fs.newest == f {
		return
	}
	if f.prev != nil {
		f.prev.next = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	}
	f.prev, f.next = fs.newest, nil
	if fs.newest != nil {
		fs.newest.next = f
	}
	fs.newest = f
}

// Dir is a handle to a directory, for a watcher that probes it for a
// child to appear. Like a File handle it stays valid for the FS's life.
type Dir File

// Open returns a handle to the directory's regular file name, or nil if
// there is none yet. A nil Dir has no files.
func (d *Dir) Open(name string) *File {
	if d == nil {
		return nil
	}
	if i, ok := (*File)(d).find(name); ok {
		return regular(d.children[i])
	}
	return nil
}

// regular returns f if it is a regular file, else nil.
func regular(f *File) *File {
	if f == nil || f.info.IsDir {
		return nil
	}
	return f
}

// FS is an in-memory filesystem. The zero value is not usable; use New.
//
// An FS has no lock and is not safe for concurrent use; the simulation
// drives it from one goroutine.
type FS struct {
	root *File
	// clock supplies the virtual time for mtimes. It may be nil, in which
	// case mtimes are zero.
	clock  func() float64
	gen    uint64 // the last write's change count (FileInfo.Gen)
	newest *File  // the last regular file written; File.prev leads back
}

// New creates an empty filesystem. clock, if non-nil, supplies virtual
// timestamps for modification times (typically sim.Engine.Now).
func New(clock func() float64) *FS {
	return &FS{
		root:  &File{info: FileInfo{Path: "/", Name: "/", IsDir: true}},
		clock: clock,
	}
}

func (fs *FS) now() float64 {
	if fs.clock == nil {
		return 0
	}
	return fs.clock()
}

// clean normalizes a path to an absolute, slash-separated form.
func clean(p string) string {
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(p)
}

// isClean reports whether clean would return p unchanged: a leading
// slash, then segments none of which is empty, "." or "..".
func isClean(p string) bool {
	return p == "/" || len(p) > 1 && p[0] == '/' && p[len(p)-1] != '/' &&
		!strings.Contains(p, "//") && !strings.Contains(p, "/./") && !strings.Contains(p, "/../") &&
		!strings.HasSuffix(p, "/.") && !strings.HasSuffix(p, "/..")
}

// lookup walks to the node for p, or returns nil. A clean path (the form
// every caller builds) is walked in place, segment by segment, without
// allocating; any other path is cleaned first.
func (fs *FS) lookup(p string) *File {
	if !isClean(p) {
		p = clean(p)
	}
	cur := fs.root
	for rest := p[1:]; rest != ""; {
		seg := rest
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			seg, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		i, ok := cur.find(seg)
		if !ok {
			return nil
		}
		cur = cur.children[i]
	}
	return cur
}

// MkdirAll creates a directory and all missing parents. Creating an
// existing directory is a no-op; a path component that is a regular file
// is an error.
func (fs *FS) MkdirAll(p string) error {
	p = clean(p)
	if p == "/" {
		return nil
	}
	cur := fs.root
	walked := ""
	for _, part := range strings.Split(strings.TrimPrefix(p, "/"), "/") {
		walked += "/" + part
		i, ok := cur.find(part)
		if !ok {
			cur.add(&File{info: FileInfo{Path: walked, Name: part, IsDir: true, MTime: fs.now()}})
		} else if !cur.children[i].info.IsDir {
			return fmt.Errorf("mkdir %s: %w", walked, ErrNotDir)
		}
		cur = cur.children[i]
	}
	return nil
}

// file returns the regular file at p for the operation op, creating it
// (and its parents) when lookup finds nothing there; a text file starts
// with empty content, a size-only one with none. A directory at p is an
// error.
func (fs *FS) file(op, p string, text bool) (*File, error) {
	f := fs.lookup(p)
	if f == nil {
		cp := clean(p)
		dir, name := path.Split(cp)
		if err := fs.MkdirAll(dir); err != nil {
			return nil, err
		}
		f = &File{fs: fs, info: FileInfo{Path: cp, Name: name, MTime: fs.now()}}
		if text {
			f.content = []byte{}
		}
		fs.lookup(dir).add(f)
	}
	if f.info.IsDir {
		return nil, fmt.Errorf("%s %s: %w", op, p, ErrIsDir)
	}
	return f, nil
}

// Append grows a size-only file by n bytes, creating it if absent.
func (fs *FS) Append(p string, n int64) error {
	if n < 0 {
		return fmt.Errorf("append %s: negative size %d", p, n)
	}
	f, err := fs.file("append", p, false)
	if err != nil {
		return err
	}
	return f.Append(n)
}

// WriteString replaces the content of a text file, creating it if absent.
func (fs *FS) WriteString(p, s string) error {
	f, err := fs.file("write", p, false)
	if err != nil {
		return err
	}
	f.content = []byte(s)
	f.info.Size = int64(len(f.content))
	f.touch()
	return nil
}

// AppendString appends text to a text file, creating it if absent.
func (fs *FS) AppendString(p, s string) error {
	f, err := fs.file("append", p, true)
	if err != nil {
		return err
	}
	if f.content == nil && f.info.Size > 0 {
		return fmt.Errorf("append %s: text append to size-only file", p)
	}
	f.content = append(f.content, s...)
	f.info.Size = int64(len(f.content))
	f.touch()
	return nil
}

// ReadFile returns the content of a text file.
func (fs *FS) ReadFile(p string) (string, error) {
	f := fs.lookup(p)
	if f == nil {
		return "", fmt.Errorf("read %s: %w", p, ErrNotExist)
	}
	if f.info.IsDir {
		return "", fmt.Errorf("read %s: %w", p, ErrIsDir)
	}
	if f.content == nil {
		return "", fmt.Errorf("read %s: size-only file has no content", p)
	}
	return string(f.content), nil
}

// Exists reports whether the path exists.
func (fs *FS) Exists(p string) bool { return fs.lookup(p) != nil }

// Size returns the logical size of a file, or 0 if it does not exist.
func (fs *FS) Size(p string) int64 { return fs.Open(p).Size() }

// Open returns a handle to the regular file at p, or nil while p does
// not exist or names a directory. The handle sees every later write,
// through it or by path.
func (fs *FS) Open(p string) *File { return regular(fs.lookup(p)) }

// OpenDir returns a handle to the directory at p, or nil while p does
// not exist or names a regular file.
func (fs *FS) OpenDir(p string) *Dir {
	if f := fs.lookup(p); f != nil && f.info.IsDir {
		return (*Dir)(f)
	}
	return nil
}

// Walk visits every file and directory under root in depth-first,
// name-sorted order, calling fn for each. Returning a non-nil error from fn
// stops the walk and propagates the error. A directory's entries are
// fixed once fn has returned for the directory itself: a child added to
// it after that, during the walk, is visited by the next walk only.
func (fs *FS) Walk(root string, fn func(info FileInfo) error) error {
	f := fs.lookup(root)
	if f == nil {
		return fmt.Errorf("walk %s: %w", clean(root), ErrNotExist)
	}
	return walk(f, fn)
}

func walk(f *File, fn func(info FileInfo) error) error {
	if err := fn(f.info); err != nil {
		return err
	}
	for _, c := range f.children {
		if err := walk(c, fn); err != nil {
			return err
		}
	}
	return nil
}

// WalkSince visits every regular file at or under root whose Gen is above
// since, in Walk's order, calling fn with each one's FileInfo as it is
// when fn is called. It picks the files before its first call to fn: a
// file written by fn that was not picked is offered by the next call.
// Since 0 walks the tree and offers every regular file; any other since
// reads the newest end of the write order, so a call costs the k files
// written after since (and the sort of them, O(k log k)), not the tree.
// A missing root is an error, as for Walk.
func (fs *FS) WalkSince(root string, since uint64, fn func(info FileInfo) error) error {
	f := fs.lookup(root)
	if f == nil {
		return fmt.Errorf("walk %s: %w", clean(root), ErrNotExist)
	}
	var picked []*File
	if since == 0 {
		picked = regulars(f, nil)
	} else {
		prefix := strings.TrimSuffix(f.info.Path, "/") + "/"
		for c := fs.newest; c != nil && c.info.Gen > since; c = c.prev {
			if c == f || strings.HasPrefix(c.info.Path, prefix) {
				picked = append(picked, c)
			}
		}
		slices.SortFunc(picked, func(a, b *File) int { return walkCompare(a.info.Path, b.info.Path) })
	}
	for _, c := range picked {
		if err := fn(c.info); err != nil {
			return err
		}
	}
	return nil
}

// regulars appends the regular files at or under f to out, in Walk's
// order.
func regulars(f *File, out []*File) []*File {
	if !f.info.IsDir {
		return append(out, f)
	}
	for _, c := range f.children {
		out = regulars(c, out)
	}
	return out
}

// walkCompare orders two clean paths as Walk visits them: name by name
// down the tree, so '/' ranks below every other byte ("/a/x" comes before
// "/a-b/x", though '-' is below '/').
func walkCompare(a, b string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			switch {
			case a[i] == '/':
				return -1
			case b[i] == '/':
				return 1
			}
			return cmp.Compare(a[i], b[i])
		}
	}
	return cmp.Compare(len(a), len(b))
}

// TreeSize returns the total size in bytes of all regular files under root.
func (fs *FS) TreeSize(root string) int64 {
	var total int64
	_ = fs.Walk(root, func(info FileInfo) error {
		if !info.IsDir {
			total += info.Size
		}
		return nil
	})
	return total
}
