package server

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"relquery/internal/governor"
	"relquery/internal/relation"
)

// catalog is one version of a tenant's relations with the signature of
// their schemes (the parse cache's key). Neither is modified once the
// version is installed, and relations are immutable once loaded, so a query
// evaluates against the version it picked up while uploads install later
// ones.
type catalog struct {
	db  relation.Database
	sig string
}

// tenant is one named catalog plus its resource limits. The catalog is
// copy-on-write: an upload or drop builds the next version — map and
// signature — under mu, and a query takes the current one with a single
// pointer load.
type tenant struct {
	name   string
	limits governor.Limits

	mu  sync.Mutex // serializes writers
	cat atomic.Pointer[catalog]
}

func newTenant(name string, limits governor.Limits) *tenant {
	t := &tenant{name: name, limits: limits}
	t.cat.Store(&catalog{db: relation.NewDatabase()})
	return t
}

// schemeSignature renders the catalog's relation names and schemes in
// name order — the part of the database a parse depends on. A catalog
// version carries it from the upload that made it.
func schemeSignature(db relation.Database) string {
	var b strings.Builder
	for _, name := range db.Names() {
		b.WriteString(name)
		b.WriteByte('(')
		b.WriteString(db[name].Scheme().String())
		b.WriteString(");")
	}
	return b.String()
}

// snapshot returns the current catalog version.
func (t *tenant) snapshot() *catalog { return t.cat.Load() }

// update installs the version that edit makes out of a copy of the
// current one.
func (t *tenant) update(edit func(relation.Database)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.cat.Load().db
	db := make(relation.Database, len(old)+1)
	for name, r := range old {
		db[name] = r
	}
	edit(db)
	t.cat.Store(&catalog{db: db, sig: schemeSignature(db)})
}

func (t *tenant) put(name string, r *relation.Relation) {
	t.update(func(db relation.Database) { db.Put(name, r) })
}

func (t *tenant) drop(name string) (found bool) {
	t.update(func(db relation.Database) {
		_, found = db[name]
		delete(db, name)
	})
	return found
}

// loadAll installs every relation of db into the catalog.
func (t *tenant) loadAll(db relation.Database) {
	t.update(func(into relation.Database) {
		for name, r := range db {
			into.Put(name, r)
		}
	})
}

// ParseTenantSpec parses one -tenant flag value:
//
//	name:budget=10k,timeout=2s,max-rows=1m,mem=64000000
//
// where budget caps intermediate rows (the admission threshold), timeout
// is the per-evaluation deadline, max-rows caps the final result, and
// mem caps estimated materialized bytes: each materialized row is charged
// relation.RowBytes of its arity, 16 bytes a value, except a greedy binary
// plan's intermediate row, which holds no values and is charged 4 bytes
// per input it covers (DESIGN.md §12 has what each change meant for
// existing specs). Every key is optional; row values accept the k/m/g
// (×1000) suffixes of governor.ParseRows.
func ParseTenantSpec(spec string) (string, governor.Limits, error) {
	name, opts, ok := strings.Cut(spec, ":")
	name = strings.TrimSpace(name)
	if name == "" {
		return "", governor.Limits{}, fmt.Errorf("server: tenant spec %q: empty tenant name", spec)
	}
	var l governor.Limits
	if !ok || strings.TrimSpace(opts) == "" {
		return name, l, nil
	}
	for _, kv := range strings.Split(opts, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return "", governor.Limits{}, fmt.Errorf("server: tenant spec %q: %q is not key=value", spec, kv)
		}
		var err error
		switch key {
		case "budget":
			l.MaxIntermediateRows, err = governor.ParseRows(val)
		case "timeout":
			l.Deadline, err = governor.ParseTimeout(val)
		case "max-rows":
			l.MaxRows, err = governor.ParseRows(val)
		case "mem":
			var n int
			n, err = governor.ParseRows(val)
			l.MaxMemoryBytes = int64(n)
		default:
			err = fmt.Errorf("unknown key %q (want budget, timeout, max-rows or mem)", key)
		}
		if err != nil {
			return "", governor.Limits{}, fmt.Errorf("server: tenant spec %q: %w", spec, err)
		}
	}
	return name, l, nil
}

// relationInfo is one catalog listing entry.
type relationInfo struct {
	Name        string `json:"name"`
	Rows        int    `json:"rows"`
	Scheme      string `json:"scheme"`
	Fingerprint string `json:"fingerprint"`
}

// listing renders the catalog in name order.
func (t *tenant) listing() []relationInfo {
	db := t.snapshot().db
	out := make([]relationInfo, 0, len(db))
	for name, r := range db {
		out = append(out, relationInfo{
			Name:        name,
			Rows:        r.Len(),
			Scheme:      r.Scheme().String(),
			Fingerprint: relation.Fingerprint(r),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
