package harvest

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// textJournal is a read-only journal holding fixed text.
type textJournal string

func (j textJournal) Append(string) error   { return errors.New("read-only journal") }
func (j textJournal) Load() (string, error) { return string(j), nil }

// FuzzLoadJournal replays arbitrary text as the harvest journal, which a
// crash can leave torn and a disk can corrupt anywhere. Replay must never
// panic or fail, and every watermark it keeps must name a path.
func FuzzLoadJournal(f *testing.F) {
	clock := 100.0
	_, _, journal, _ := coldHarvest(f, &clock)
	first, _, _ := strings.Cut(journal, "\n")
	for _, seed := range []string{
		journal,
		journal[:len(journal)/2],
		"",
		"\n\n",
		first + "\n" + first,
		`{"type":"watermark","watermark":{"pa`,
		`{"type":"watermark"}`,
		`{"type":"watermark","watermark":{"path":""}}`,
		`{"type":"pass"}`,
		`{"type":"pass","pass":{"pass":-3}}`,
		`{"type":"bogus"}`,
		`[1,2,3]`,
		`null`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		marks, _, _, _, err := loadJournal(textJournal(text))
		if err != nil {
			t.Fatalf("loadJournal: %v", err)
		}
		for key, wm := range marks {
			if key == "" || wm.Path != key {
				t.Fatalf("watermark under %q names path %q", key, wm.Path)
			}
		}
	})
}

// FuzzReadSnapshot decodes arbitrary bytes as a harvest snapshot, the
// file a one-shot harvester warms its database from. Decoding must never
// panic or fail on content, and must return only records that validate.
func FuzzReadSnapshot(f *testing.F) {
	clock := 100.0
	_, _, _, snapshot := coldHarvest(f, &clock)
	first, _, _ := bytes.Cut(snapshot, []byte("\n"))
	for _, seed := range [][]byte{
		snapshot,
		snapshot[:len(snapshot)/2],
		nil,
		[]byte("\n\r\n"),
		append(append([]byte(nil), first...), first...),
		bytes.Replace(first, []byte(`"Day":1`), []byte(`"Day":0`), 1),
		bytes.Replace(first, []byte(`"Status":"completed"`), []byte(`"Status":"exploded"`), 1),
		bytes.Replace(first, []byte(`"HarvestedAt":100,`), nil, 1), // written before records carried it
		[]byte(`{"Forecast":"f","Day":1,"Status":"running"}`),
		[]byte(`{"Forecast":"f","Day":1e999}`),
		[]byte(`null`),
		append(bytes.Repeat([]byte("x"), maxSnapshotLine+1), append([]byte("\n"), first...)...),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := readSnapshot(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("readSnapshot: %v", err)
		}
		for _, r := range recs {
			if err := r.Validate(); err != nil {
				t.Fatalf("readSnapshot returned an invalid record: %v", err)
			}
		}
	})
}
