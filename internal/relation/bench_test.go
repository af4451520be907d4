package relation

import "testing"

// BenchmarkParseLeg parses one churned leg as an upload carries it: a
// 1 025-row two-column bare text. B/op and allocs/op are what the server
// pays to read the relation before its first query.
func BenchmarkParseLeg(b *testing.B) {
	text := legText(1025)
	b.ReportAllocs()
	b.SetBytes(int64(len(text)))
	for i := 0; i < b.N; i++ {
		if _, r, err := ParseRelation(text); err != nil || r.Len() != 1025 {
			b.Fatal(r, err)
		}
	}
}

// BenchmarkParseCatalog parses a catalog as POST /catalog carries it:
// three blocks of 1 025 two-column rows. A relation's rows are reserved
// from its block and its dedup index sized once, as an upload's are, so
// allocs/op counts relations, not lines.
func BenchmarkParseCatalog(b *testing.B) {
	text := catalogText(3, 1025)
	b.ReportAllocs()
	b.SetBytes(int64(len(text)))
	for i := 0; i < b.N; i++ {
		if db, err := ParseDatabase(text); err != nil || len(db) != 3 {
			b.Fatal(db, err)
		}
	}
}
