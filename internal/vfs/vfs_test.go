package vfs

import (
	"errors"
	"fmt"
	"math/rand"
	"path"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// stat returns the metadata at p.
func stat(fs *FS, p string) (FileInfo, error) {
	f := fs.lookup(p)
	if f == nil {
		return FileInfo{}, ErrNotExist
	}
	return f.info, nil
}

func TestCreateAndStat(t *testing.T) {
	fs := New(nil)
	if err := fs.Append("/runs/tillamook/out.63", 0); err != nil {
		t.Fatal(err)
	}
	info, err := stat(fs, "/runs/tillamook/out.63")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 0 || info.IsDir || info.Name != "out.63" {
		t.Fatalf("unexpected info %+v", info)
	}
	// Parents were created.
	dir, err := stat(fs, "/runs/tillamook")
	if err != nil || !dir.IsDir {
		t.Fatalf("parent dir: %+v, %v", dir, err)
	}
}

func TestAppendGrowsFile(t *testing.T) {
	fs := New(nil)
	if err := fs.Append("/data/1_salt.63", 1000); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append("/data/1_salt.63", 500); err != nil {
		t.Fatal(err)
	}
	if got := fs.Size("/data/1_salt.63"); got != 1500 {
		t.Fatalf("Size = %d, want 1500", got)
	}
}

func TestAppendNegativeFails(t *testing.T) {
	fs := New(nil)
	if err := fs.Append("/a", -1); err == nil {
		t.Fatal("negative append succeeded")
	}
}

func TestTextFiles(t *testing.T) {
	fs := New(nil)
	if err := fs.WriteString("/runs/f1/run.log", "walltime: 40000\n"); err != nil {
		t.Fatal(err)
	}
	if err := fs.AppendString("/runs/f1/run.log", "code: elcirc-5.01\n"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/runs/f1/run.log")
	if err != nil {
		t.Fatal(err)
	}
	want := "walltime: 40000\ncode: elcirc-5.01\n"
	if got != want {
		t.Fatalf("ReadFile = %q, want %q", got, want)
	}
	if fs.Size("/runs/f1/run.log") != int64(len(want)) {
		t.Fatalf("Size = %d, want %d", fs.Size("/runs/f1/run.log"), len(want))
	}
}

func TestMixingSizeOnlyAndContentFails(t *testing.T) {
	fs := New(nil)
	if err := fs.Append("/bulk", 10); err != nil {
		t.Fatal(err)
	}
	if err := fs.AppendString("/bulk", "text"); err == nil {
		t.Fatal("text append to size-only file succeeded")
	}
	if _, err := fs.ReadFile("/bulk"); err == nil {
		t.Fatal("ReadFile of size-only file succeeded")
	}
	if err := fs.WriteString("/text", "hi"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Append("/text", 10); err == nil {
		t.Fatal("size-only append to content file succeeded")
	}
}

func TestMTimeUsesClock(t *testing.T) {
	now := 0.0
	fs := New(func() float64 { return now })
	now = 42
	if err := fs.Append("/f", 1); err != nil {
		t.Fatal(err)
	}
	info, _ := stat(fs, "/f")
	if info.MTime != 42 {
		t.Fatalf("MTime = %v, want 42", info.MTime)
	}
	now = 100
	_ = fs.Append("/f", 1)
	info, _ = stat(fs, "/f")
	if info.MTime != 100 {
		t.Fatalf("MTime = %v, want 100", info.MTime)
	}
}

func TestReadDirSorted(t *testing.T) {
	fs := New(nil)
	for _, name := range []string{"/d/c", "/d/a", "/d/b"} {
		if err := fs.Append(name, 0); err != nil {
			t.Fatal(err)
		}
	}
	var names []string
	for _, f := range fs.lookup("/d").children {
		names = append(names, f.info.Name)
	}
	if strings.Join(names, ",") != "a,b,c" {
		t.Fatalf("names = %v", names)
	}
}

func TestReadDirErrors(t *testing.T) {
	fs := New(nil)
	if fs.OpenDir("/missing") != nil {
		t.Fatal("opened a missing directory")
	}
	fs.Append("/file", 0)
	if fs.OpenDir("/file") != nil {
		t.Fatal("opened a regular file as a directory")
	}
}

func TestWalkVisitsEverything(t *testing.T) {
	fs := New(nil)
	paths := []string{"/runs/a/out.63", "/runs/a/run.log", "/runs/b/out.63"}
	for _, p := range paths {
		if err := fs.Append(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	var visited []string
	err := fs.Walk("/runs", func(info FileInfo) error {
		visited = append(visited, info.Path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"/runs", "/runs/a", "/runs/a/out.63", "/runs/a/run.log", "/runs/b", "/runs/b/out.63"}
	if len(visited) != len(want) {
		t.Fatalf("visited = %v, want %v", visited, want)
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("visited = %v, want %v", visited, want)
		}
	}
}

// TestListingsTrackChangesBetweenWalks interleaves creates and MkdirAll
// with walks: every Walk and directory listing holds exactly the live entries
// in the order a fresh sort gives. Names like "a" and "a-b" make the walk
// order differ from a plain sort of full paths ('-' sorts before '/').
func TestListingsTrackChangesBetweenWalks(t *testing.T) {
	fs := New(nil)
	live := map[string]bool{"/": true} // every path that exists
	names := []string{"a", "a-b", "b", "c"}
	rng := rand.New(rand.NewSource(7))
	randomPath := func() string {
		p := ""
		for depth := 1 + rng.Intn(3); depth > 0; depth-- {
			p += "/" + names[rng.Intn(len(names))]
		}
		return p
	}
	for step := 0; step < 400; step++ {
		p := randomPath()
		switch rng.Intn(2) {
		case 0:
			if fs.Append(p, 0) == nil {
				for q := p; q != "/"; q = path.Dir(q) {
					live[q] = true
				}
			}
		case 1:
			if fs.MkdirAll(p) == nil {
				for q := p; q != "/"; q = path.Dir(q) {
					live[q] = true
				}
			}
		}
		// The walk order is a component-wise sort of the live paths.
		want := make([]string, 0, len(live))
		for q := range live {
			want = append(want, q)
		}
		slices.SortFunc(want, func(a, b string) int {
			return slices.Compare(strings.Split(a, "/"), strings.Split(b, "/"))
		})
		var walked []string
		if err := fs.Walk("/", func(info FileInfo) error { walked = append(walked, info.Path); return nil }); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(walked, want) {
			t.Fatalf("step %d: walk = %v, want %v", step, walked, want)
		}
		for _, dir := range want {
			if info, _ := stat(fs, dir); !info.IsDir {
				continue
			}
			var got, wantKids []string
			for _, f := range fs.lookup(dir).children {
				got = append(got, f.info.Path)
			}
			for _, q := range want {
				if q != "/" && path.Dir(q) == dir {
					wantKids = append(wantKids, q)
				}
			}
			if !slices.Equal(got, wantKids) {
				t.Fatalf("step %d: entries of %s = %v, want %v", step, dir, got, wantKids)
			}
		}
	}
}

func TestWalkKeepsEnteredDirectoriesFixed(t *testing.T) {
	fs := New(nil)
	fs.Append("/d/a", 0)
	fs.Append("/d/c", 0)
	visit := func(during func(FileInfo)) []string {
		var visited []string
		err := fs.Walk("/d", func(info FileInfo) error {
			visited = append(visited, info.Path)
			during(info)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return visited
	}
	// /d/e lands in /d after the walk has listed it. It sorts after every
	// entry, so it is appended to the listing the walk is iterating; /d/b
	// sorts before /d/c and builds a new listing.
	current := visit(func(info FileInfo) {
		switch info.Path {
		case "/d/a":
			if err := fs.Append("/d/e", 0); err != nil {
				t.Fatal(err)
			}
			if n := len(fs.lookup("/d").children); n != 3 {
				t.Fatalf("listing after creating /d/e has %d entries, want 3 (appended in place)", n)
			}
		case "/d/c":
			if err := fs.Append("/d/b", 0); err != nil {
				t.Fatal(err)
			}
		}
	})
	if want := []string{"/d", "/d/a", "/d/c"}; !slices.Equal(current, want) {
		t.Fatalf("walk that created /d/e and /d/b = %v, want %v", current, want)
	}
	if next, want := visit(func(FileInfo) {}), []string{"/d", "/d/a", "/d/b", "/d/c", "/d/e"}; !slices.Equal(next, want) {
		t.Fatalf("next walk = %v, want %v", next, want)
	}
}

// TestGenCountsEveryWrite checks that each write path stamps the file
// with a change count above every earlier one, and that directories and
// failed writes leave Gen alone.
func TestGenCountsEveryWrite(t *testing.T) {
	fs := New(nil)
	gen := func(p string) uint64 {
		info, err := stat(fs, p)
		if err != nil {
			t.Fatal(err)
		}
		return info.Gen
	}
	var last uint64
	for _, w := range []struct {
		name, path string
		write      func() error
	}{
		{"WriteString", "/runs/a/run.log", func() error { return fs.WriteString("/runs/a/run.log", "x") }},
		{"AppendString", "/runs/a/run.log", func() error { return fs.AppendString("/runs/a/run.log", "y") }},
		{"FS.Append", "/runs/a/out.63", func() error { return fs.Append("/runs/a/out.63", 10) }},
		{"File.Append", "/runs/a/out.63", func() error { return fs.Open("/runs/a/out.63").Append(5) }},
		{"WriteString again", "/runs/a/run.log", func() error { return fs.WriteString("/runs/a/run.log", "x") }},
	} {
		if err := w.write(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if g := gen(w.path); g <= last {
			t.Fatalf("%s: Gen = %d, want above %d", w.name, g, last)
		} else {
			last = g
		}
	}
	if err := fs.Open("/runs/a/run.log").Append(1); err == nil {
		t.Fatal("size-only append to a text file succeeded")
	}
	if g := gen("/runs/a/run.log"); g != last {
		t.Fatalf("failed append moved Gen to %d, want %d", g, last)
	}
	if err := fs.MkdirAll("/runs/b"); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"/", "/runs", "/runs/a", "/runs/b"} {
		if g := gen(dir); g != 0 {
			t.Fatalf("directory %s has Gen %d, want 0", dir, g)
		}
	}
}

func TestWalkErrorStops(t *testing.T) {
	fs := New(nil)
	fs.Append("/d/a", 0)
	fs.Append("/d/b", 0)
	sentinel := errors.New("stop")
	count := 0
	err := fs.Walk("/d", func(info FileInfo) error {
		count++
		if count == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestTreeSize(t *testing.T) {
	fs := New(nil)
	_ = fs.Append("/d/a", 100)
	_ = fs.Append("/d/sub/b", 250)
	if got := fs.TreeSize("/d"); got != 350 {
		t.Fatalf("TreeSize = %d, want 350", got)
	}
	if got := fs.TreeSize("/missing"); got != 0 {
		t.Fatalf("TreeSize(missing) = %d, want 0", got)
	}
}

func TestMkdirAllOverFileFails(t *testing.T) {
	fs := New(nil)
	fs.Append("/a", 0)
	if err := fs.MkdirAll("/a/b"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("err = %v, want ErrNotDir", err)
	}
}

func TestPathNormalization(t *testing.T) {
	fs := New(nil)
	if err := fs.Append("runs//f1/./out.63", 0); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("/runs/f1/out.63") {
		t.Fatal("normalized path not found")
	}
}

// Property: TreeSize equals the sum of appended bytes regardless of the
// directory layout the appends land in.
func TestPropertyTreeSizeConservation(t *testing.T) {
	f := func(sizes []uint16) bool {
		fs := New(nil)
		var total int64
		for i, s := range sizes {
			p := "/d"
			switch i % 3 {
			case 0:
				p += "/x/f"
			case 1:
				p += "/y/f"
			case 2:
				p += "/f"
			}
			p += string(rune('a' + i%7))
			if err := fs.Append(p, int64(s)); err != nil {
				return false
			}
			total += int64(s)
		}
		return fs.TreeSize("/d") == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkWalk walks a run tree of 80k logs (2000 forecasts × 40 days,
// /runs/<forecast>/<year-day>/run.log), as a daily harvest pass does over
// a tree that has not changed since the previous pass.
func BenchmarkWalk(b *testing.B) {
	fs := New(nil)
	for f := 0; f < 2000; f++ {
		for d := 1; d <= 40; d++ {
			if err := fs.WriteString(fmt.Sprintf("/runs/fc-%04d/2005-%03d/run.log", f, d), "x"); err != nil {
				b.Fatal(err)
			}
		}
	}
	walk := func() int {
		n := 0
		if err := fs.Walk("/runs", func(info FileInfo) error {
			if !info.IsDir {
				n++
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		return n
	}
	walk() // the previous pass
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := walk(); n != 80000 {
			b.Fatalf("walked %d logs, want 80000", n)
		}
	}
}
