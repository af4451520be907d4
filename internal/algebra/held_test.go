package algebra_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"relquery/internal/algebra"
	"relquery/internal/join"
	"relquery/internal/relation"
	"relquery/internal/server"
)

// TestStreamHeldParity: on FuzzEvalParity's seed instances, one seed in
// four with every tuple hashing to 0, relqueryd answers each strategy's
// first ask — held when the generic join writes it, streamed when the tree
// join does — its second, which stores the answer, and its third, served
// it, with the comment lines and then exactly what WriteRelation writes of
// the answer EvalContext builds under that strategy.
func TestStreamHeldParity(t *testing.T) {
	joins := 0
	for seed := int64(0); seed < 16; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			if seed&3 == 3 {
				relation.CollideAllHashes(t)
			}
			rng := rand.New(rand.NewSource(seed))
			db := algebra.RandomDatabase(rng)
			e := algebra.RandomExpr(rng, db, 3)
			if _, ok := e.(*algebra.Join); ok {
				joins++
			}
			for _, strategy := range join.StrategyNames() {
				var ev algebra.Evaluator
				if err := ev.SetStrategy(strategy); err != nil {
					t.Fatal(err)
				}
				built, err := ev.EvalContext(context.Background(), e, db)
				if err != nil {
					t.Fatal(err)
				}
				var want bytes.Buffer
				if err := relation.WriteRelation(&want, "result", built); err != nil {
					t.Fatal(err)
				}
				s := server.New(server.Config{})
				s.Load("acme", db)
				h := s.Handler()
				for ask := 1; ask <= 3; ask++ {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/tenants/acme/query?strategy="+strategy, strings.NewReader(e.String())))
					_, rest, _ := strings.Cut(rec.Body.String(), "\n")
					count, block, _ := strings.Cut(rest, "\n")
					if rec.Code != http.StatusOK || !strings.HasPrefix(count, fmt.Sprintf("# %d tuples", built.Len())) || block != want.String() {
						t.Fatalf("%s over %v under %s, ask %d: status %d, body\n%s\nWriteRelation of the built answer\n%s", e, db, strategy, ask, rec.Code, rec.Body.String(), want.String())
					}
				}
			}
		})
	}
	if joins == 0 {
		t.Error("no seed's expression is a join: nothing was held")
	}
}
