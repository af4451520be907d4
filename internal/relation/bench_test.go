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
