package harvest

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/logs"
	"repro/internal/statsdb"
)

// Snapshots give one-shot CLI harvesters a durable database. The journal
// persists watermarks across invocations, but the statistics database is
// in-memory: without a warm start every new process would have to re-read
// every log (pruneStaleMarks would drop the orphaned watermarks). A
// snapshot is the harvested records as JSONL, rewritten atomically after
// each pass; loading it before New restores the rows the watermarks vouch
// for, so the next pass is incremental across processes too.
//
// Crash-safety leans on pruneStaleMarks: if a process dies after
// journalling a file but before the snapshot rewrite, the next start
// finds a watermark without its row, drops it, and re-reads the file.

// maxSnapshotLine bounds one snapshot line. A record is a few hundred
// bytes, so a longer line is corrupt and skipped like any unparsable one.
const maxSnapshotLine = 64 << 10

// LoadSnapshot creates db's runs table and upserts the records stored at
// path into it. A missing snapshot is a cold start, not an error.
// Unparsable lines (a torn final write, an over-long corrupt line) are
// skipped — their files simply get re-read. Returns the number of records
// loaded.
func LoadSnapshot(db *statsdb.DB, path string) (int, error) {
	if _, err := statsdb.EnsureRunsTable(db); err != nil {
		return 0, err
	}
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("harvest: load snapshot: %w", err)
	}
	defer f.Close()
	recs, err := readSnapshot(f)
	if err != nil {
		return 0, fmt.Errorf("harvest: load snapshot: %w", err)
	}
	if _, _, err := statsdb.UpsertRuns(db, recs); err != nil {
		return 0, err
	}
	return len(recs), nil
}

// readSnapshot decodes the records of a snapshot, one JSON object per
// line, keeping only lines that parse and validate (a blank line parses
// as nothing). A line longer than maxSnapshotLine is skipped as it
// streams past, never held whole.
func readSnapshot(r io.Reader) ([]*logs.RunRecord, error) {
	br := bufio.NewReaderSize(r, maxSnapshotLine)
	var recs []*logs.RunRecord
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			for errors.Is(err, bufio.ErrBufferFull) {
				_, err = br.ReadSlice('\n')
			}
			line = nil
		}
		rec := &logs.RunRecord{}
		if json.Unmarshal(line, rec) == nil && rec.Validate() == nil {
			recs = append(recs, rec)
		}
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// SaveSnapshot atomically rewrites the snapshot at path from records
// (write to a temp file, fsync, rename).
func SaveSnapshot(path string, records []*logs.RunRecord) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("harvest: save snapshot: %w", err)
	}
	w := bufio.NewWriter(f)
	for _, r := range records {
		data, err := json.Marshal(r)
		if err == nil {
			_, err = w.Write(append(data, '\n'))
		}
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("harvest: save snapshot: %w", err)
		}
	}
	if err := w.Flush(); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("harvest: save snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("harvest: save snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("harvest: save snapshot: %w", err)
	}
	return nil
}
