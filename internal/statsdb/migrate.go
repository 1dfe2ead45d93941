package statsdb

import (
	"fmt"
	"sort"
)

// MigrationsTableName is the bookkeeping table recording which schema
// migrations have been applied to a database.
const MigrationsTableName = "schema_migrations"

// Migration is one versioned, idempotently tracked schema change. The
// harvester uses migrations to let the runs table evolve (new provenance
// columns) without invalidating databases built by older code: Apply runs
// at most once per database, in version order.
type Migration struct {
	Version int64
	Name    string
	Apply   func(db *DB) error
}

// migrationsTable finds or creates the bookkeeping table.
func migrationsTable(db *DB) (*Table, error) {
	if t := db.Table(MigrationsTableName); t != nil {
		return t, nil
	}
	return db.CreateTable(MigrationsTableName, Schema{
		{Name: "version", Type: Int},
		{Name: "name", Type: String},
	})
}

// SchemaVersion returns the highest migration version recorded in the
// database (0 when none have been applied).
func SchemaVersion(db *DB) int64 {
	t := db.Table(MigrationsTableName)
	if t == nil {
		return 0
	}
	var max int64
	for _, v := range t.cols[t.schema.Index("version")].ints {
		if v > max {
			max = v
		}
	}
	return max
}

// Migrate applies every not-yet-applied migration in ascending version
// order and records it in the schema_migrations table. Versions must be
// positive and unique. It returns the versions applied by this call; a
// failing migration stops the sequence (earlier migrations stay recorded).
func Migrate(db *DB, migrations []Migration) ([]int64, error) {
	ms := append([]Migration(nil), migrations...)
	sort.Slice(ms, func(i, j int) bool { return ms[i].Version < ms[j].Version })
	for i, m := range ms {
		if m.Version <= 0 {
			return nil, fmt.Errorf("statsdb: migration %q has non-positive version %d", m.Name, m.Version)
		}
		if i > 0 && ms[i-1].Version == m.Version {
			return nil, fmt.Errorf("statsdb: duplicate migration version %d (%q, %q)",
				m.Version, ms[i-1].Name, m.Name)
		}
		if m.Apply == nil {
			return nil, fmt.Errorf("statsdb: migration %d (%q) has no Apply", m.Version, m.Name)
		}
	}
	t, err := migrationsTable(db)
	if err != nil {
		return nil, err
	}
	done := make(map[int64]bool, t.n)
	for _, v := range t.cols[t.schema.Index("version")].ints {
		done[v] = true
	}
	var applied []int64
	for _, m := range ms {
		if done[m.Version] {
			continue
		}
		if err := m.Apply(db); err != nil {
			return applied, fmt.Errorf("statsdb: migration %d (%q): %w", m.Version, m.Name, err)
		}
		if err := t.Insert([]Value{IntVal(m.Version), StringVal(m.Name)}); err != nil {
			return applied, err
		}
		applied = append(applied, m.Version)
	}
	return applied, nil
}
