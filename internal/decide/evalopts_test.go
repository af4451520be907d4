package decide

import (
	"testing"

	"relquery/internal/algebra"
	"relquery/internal/obs"
)

func TestMaterializeJoinTraced(t *testing.T) {
	db := testDB(t)
	phi := expr(t, "pi[A C](pi[A B](T) * pi[B C](T))", db)
	want, err := algebra.Eval(phi, db)
	if err != nil {
		t.Fatal(err)
	}
	got, tr, err := MaterializeJoinTraced(phi, db, algebra.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("traced result differs")
	}
	root := tr.Root()
	if root == nil || root.Op != obs.OpProject || root.OutputRows != want.Len() {
		t.Fatalf("root span = %+v, want project with %d rows", root, want.Len())
	}
	if tr.Metrics.Joins == 0 {
		t.Fatal("no joins recorded")
	}
}
