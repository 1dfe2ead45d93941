package vfs

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// sinceNames are the names the WalkSince checks build paths from: prefixes
// of each other, names holding bytes below '/' (' ', '-', '.'), and
// multi-byte UTF-8, so that Walk's name-by-name order differs from a plain
// sort of whole paths.
var sinceNames = []string{"a", "a-b", "a.b", "a b", "ab", "é", "日"}

// applyOps decodes data two bytes per write and applies each write to fs:
// a text write, a size-only append, a text append, a MkdirAll, or a
// rewrite of an existing regular file (which moves it to the newest end of
// the write order). born records the change count of each path's first
// successful write.
func applyOps(fs *FS, data []byte, born map[string]uint64) {
	for ; len(data) >= 2; data = data[2:] {
		op, sel := data[0], int(data[1])
		p := ""
		for depth := 1 + int(op>>4)%3; depth > 0; depth-- {
			p += "/" + sinceNames[sel%len(sinceNames)]
			sel /= len(sinceNames)
		}
		var err error
		switch op % 5 {
		case 0:
			err = fs.WriteString(p, fmt.Sprint(len(data)))
		case 1:
			err = fs.Append(p, int64(1+op%7))
		case 2:
			err = fs.AppendString(p, "x")
		case 3:
			_ = fs.MkdirAll(p) // makes no regular file
			continue
		case 4:
			files := regulars(fs.root, nil)
			if len(files) == 0 {
				continue
			}
			f := files[int(data[1])%len(files)]
			p = f.info.Path
			if f.content != nil {
				err = fs.WriteString(p, "rewritten")
			} else {
				err = f.Append(1)
			}
		}
		if err == nil && born[p] == 0 {
			born[p] = fs.gen
		}
	}
}

// checkWalkSince holds WalkSince to Walk over fs: for every since from 0
// to the FS's last change count and every root (the top, a directory, an
// unclean directory path, a regular file and a missing path), WalkSince
// visits exactly Walk's regular files with Gen above since, in Walk's
// order and with the same FileInfo, or fails as Walk fails. Each file's
// Born must be the change count of its first write, and at most its Gen.
func checkWalkSince(t *testing.T, fs *FS, born map[string]uint64) {
	t.Helper()
	roots := []string{"/", "/a", "a-b//", "/missing/a"}
	if files := regulars(fs.root, nil); len(files) > 0 {
		roots = append(roots, files[len(files)/2].info.Path)
	}
	for _, root := range roots {
		var all []FileInfo
		walkErr := fs.Walk(root, func(info FileInfo) error {
			if !info.IsDir {
				all = append(all, info)
			}
			return nil
		})
		for _, info := range all {
			if info.Born != born[info.Path] || info.Born == 0 || info.Born > info.Gen {
				t.Fatalf("%s: Born %d, Gen %d; its first write was %d", info.Path, info.Born, info.Gen, born[info.Path])
			}
		}
		for since := uint64(0); since <= fs.gen; since++ {
			var want, got []FileInfo
			for _, info := range all {
				if info.Gen > since {
					want = append(want, info)
				}
			}
			err := fs.WalkSince(root, since, func(info FileInfo) error {
				got = append(got, info)
				return nil
			})
			if (err == nil) != (walkErr == nil) || err != nil && err.Error() != walkErr.Error() {
				t.Fatalf("WalkSince(%q, %d) error %v; Walk's %v", root, since, err, walkErr)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("WalkSince(%q, %d) visited\n%v\nwant\n%v", root, since, got, want)
			}
		}
	}
}

// TestWalkSinceMatchesWalk checks WalkSince against Walk on seeded random
// trees, after every few writes.
func TestWalkSinceMatchesWalk(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fs := New(func() float64 { return float64(rng.Intn(3)) })
		born := map[string]uint64{}
		for round := 0; round < 8; round++ {
			ops := make([]byte, 2*(1+rng.Intn(12)))
			rng.Read(ops)
			applyOps(fs, ops, born)
			checkWalkSince(t, fs, born)
		}
	}
}

// FuzzWalkSinceMatchesWalk makes the same check on fuzzed writes.
func FuzzWalkSinceMatchesWalk(f *testing.F) {
	for _, seed := range [][]byte{
		{0x00, 0x04, 0x10, 0x01, 0x10, 0x00}, // /ab, then /a-b/a before /a/a
		{0x00, 0x00, 0x00, 0x01, 0x00, 0x04, 0x04, 0x00},
		{0x10, 0x08, 0x11, 0x09, 0x20, 0x0a, 0x04, 0x01, 0x04, 0x02},
		{0x00, 0x05, 0x00, 0x06, 0x01, 0x01, 0x02, 0x02, 0x03, 0x03, 0x04, 0x07},
		{0x21, 0x30, 0x20, 0x31, 0x13, 0x02, 0x04, 0x05, 0x00, 0x30},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return
		}
		fs := New(nil)
		born := map[string]uint64{}
		applyOps(fs, data, born)
		checkWalkSince(t, fs, born)
	})
}

// A file written inside a WalkSince callback, new or rewritten, is not
// visited by that call unless the call had picked it, and is visited by
// the next; a picked file rewritten before its turn is visited with its
// new FileInfo.
func TestWalkSinceOffersLaterWritesToTheNextCall(t *testing.T) {
	fs := New(nil)
	for _, p := range []string{"/r/a", "/r/c", "/r/e"} {
		if err := fs.WriteString(p, "x"); err != nil {
			t.Fatal(err)
		}
	}
	since := fs.gen
	_ = fs.WriteString("/r/c", "y")
	_ = fs.WriteString("/r/e", "y")
	visit := func(since uint64, during func(FileInfo)) (visited []string) {
		t.Helper()
		err := fs.WalkSince("/r", since, func(info FileInfo) error {
			visited = append(visited, fmt.Sprintf("%s@%d", info.Path, info.Gen))
			during(info)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return visited
	}
	got := visit(since, func(info FileInfo) {
		if info.Path == "/r/c" {
			_ = fs.WriteString("/r/b", "new")   // sorts before /r/c: gen 6
			_ = fs.WriteString("/r/d", "new")   // sorts after it: gen 7
			_ = fs.WriteString("/r/a", "again") // not picked: gen 8
			_ = fs.WriteString("/r/e", "again") // picked: gen 9
		}
	})
	if want := []string{"/r/c@4", "/r/e@9"}; !slices.Equal(got, want) {
		t.Fatalf("call that wrote = %v, want %v", got, want)
	}
	if got, want := visit(since, func(FileInfo) {}), []string{"/r/a@8", "/r/b@6", "/r/c@4", "/r/d@7", "/r/e@9"}; !slices.Equal(got, want) {
		t.Fatalf("next call = %v, want %v", got, want)
	}
	got = visit(0, func(info FileInfo) {
		if info.Path == "/r/a" {
			_ = fs.WriteString("/r/aa", "new")
			_ = fs.Append("/r/f/g", 1)
		}
	})
	if want := []string{"/r/a@8", "/r/b@6", "/r/c@4", "/r/d@7", "/r/e@9"}; !slices.Equal(got, want) {
		t.Fatalf("call from 0 that wrote = %v, want %v", got, want)
	}
	if got, want := visit(9, func(FileInfo) {}), []string{"/r/aa@10", "/r/f/g@11"}; !slices.Equal(got, want) {
		t.Fatalf("next call = %v, want %v", got, want)
	}
}

// TestWalkKeepsEntriesAcrossInsert checks that a child inserted before
// the end of a directory's entries while a walk iterates them, with room
// left in the slice the walk took, does not shift what that walk visits.
func TestWalkKeepsEntriesAcrossInsert(t *testing.T) {
	fs := New(nil)
	for _, p := range []string{"/d/a", "/d/c", "/d/e"} {
		if err := fs.Append(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	if d := fs.lookup("/d"); cap(d.children) == len(d.children) {
		t.Fatalf("/d's entries have no spare capacity (len %d): the check would not bite", len(d.children))
	}
	var visited []string
	err := fs.Walk("/d", func(info FileInfo) error {
		visited = append(visited, info.Path)
		if info.Path == "/d/a" {
			return fs.Append("/d/b", 0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"/d", "/d/a", "/d/c", "/d/e"}; !slices.Equal(visited, want) {
		t.Fatalf("walk that inserted /d/b = %v, want %v", visited, want)
	}
}
