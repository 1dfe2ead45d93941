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
package vfs

import (
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
	// whose Gen is at most another's was last written no later. It is 0
	// for directories and for files never written.
	Gen   uint64
	IsDir bool
}

// File is a node in the tree: a regular file or a directory. Open hands
// out a *File for a regular file as a handle to it.
type File struct {
	fs       *FS // for the mtime clock of appends through a handle
	info     FileInfo
	content  []byte // only for text files; nil for size-only bulk data
	children map[string]*File
	// sorted caches a directory's children in name order. A child that
	// sorts after the last entry is appended to it; any other addition
	// drops it (sets it to nil), and the next Walk of the directory
	// rebuilds it. Neither edits an entry a walk can see: a walk already
	// iterating the old slice keeps its own length, so it keeps its
	// snapshot.
	sorted []*File
}

// add links a new child into the directory.
func (f *File) add(c *File) {
	f.children[c.info.Name] = c
	if n := len(f.sorted); n > 0 && f.sorted[n-1].info.Name < c.info.Name {
		f.sorted = append(f.sorted, c)
	} else {
		f.sorted = nil
	}
}

// entries returns a directory's children in name order.
func (f *File) entries() []*File {
	if f.sorted == nil && len(f.children) > 0 {
		f.sorted = make([]*File, 0, len(f.children))
		for _, c := range f.children {
			f.sorted = append(f.sorted, c)
		}
		slices.SortFunc(f.sorted, func(a, b *File) int { return strings.Compare(a.info.Name, b.info.Name) })
	}
	return f.sorted
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

// touch stamps a write: the mtime from the FS clock and the next change
// count.
func (f *File) touch() {
	f.info.MTime = f.fs.now()
	f.fs.gen++
	f.info.Gen = f.fs.gen
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
	return regular(d.children[name])
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
// drives it from one goroutine. Reads are not read-only either: Walk
// fills each directory's name-ordered listing cache on first read after
// a change.
type FS struct {
	root *File
	// clock supplies the virtual time for mtimes. It may be nil, in which
	// case mtimes are zero.
	clock func() float64
	gen   uint64 // the last write's change count (FileInfo.Gen)
}

// New creates an empty filesystem. clock, if non-nil, supplies virtual
// timestamps for modification times (typically sim.Engine.Now).
func New(clock func() float64) *FS {
	return &FS{
		root: &File{
			info:     FileInfo{Path: "/", Name: "/", IsDir: true},
			children: make(map[string]*File),
		},
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
		if cur = cur.children[seg]; cur == nil {
			return nil
		}
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
		next, ok := cur.children[part]
		if !ok {
			next = &File{
				info:     FileInfo{Path: walked, Name: part, IsDir: true, MTime: fs.now()},
				children: make(map[string]*File),
			}
			cur.add(next)
		} else if !next.info.IsDir {
			return fmt.Errorf("mkdir %s: %w", walked, ErrNotDir)
		}
		cur = next
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
	for _, c := range f.entries() {
		if err := walk(c, fn); err != nil {
			return err
		}
	}
	return nil
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
