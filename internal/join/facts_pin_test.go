package join

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"relquery/internal/relation"
)

var updateFactsPin = flag.Bool("update-facts-pin", false, "rewrite testdata/facts_pin.json from this build")

// factsPin is every planning fact of one join node and the cover
// FractionalCover returns for it, floats by their bits: the strategy
// selector and both admission gates branch on the facts, so a rewrite of
// the planner has to reproduce them exactly, not approximately.
type factsPin struct {
	Parent []int    `json:"parent,omitempty"` // nil: cyclic
	Order  []int    `json:"order,omitempty"`
	Cover  []uint64 `json:"cover,omitempty"`
	Bound  uint64   `json:"bound"`
	Est    uint64   `json:"est"`
	Worst  uint64   `json:"worst"`
}

func pinFacts(p *Plan) factsPin {
	var pin factsPin
	if tree, ok := p.JoinTree(); ok {
		pin.Parent, pin.Order = tree.Parent, tree.Order
	}
	sizes := make([]int, len(p.Inputs))
	for i, r := range p.Inputs {
		sizes[i] = r.Len()
	}
	cover, _ := FractionalCover(SchemesOf(p.Inputs), sizes)
	for _, x := range cover {
		pin.Cover = append(pin.Cover, math.Float64bits(x))
	}
	est, worst := p.Peaks()
	pin.Bound, pin.Est, pin.Worst = math.Float64bits(p.AGMBound()), math.Float64bits(est), math.Float64bits(worst)
	return pin
}

// fuzzedNodes is a fixed sample of FuzzGYO's input space: its seed corpus
// plus random hypergraphs of up to five edges over fuzzAttrs, each with
// random relations.
func fuzzedNodes(t *testing.T) map[string][]*relation.Relation {
	masks := [][]byte{
		{0b000011, 0b000110, 0b001100},
		{0b000011, 0b000110, 0b000101},
		{0b000111, 0b001001, 0b010010, 0b100100},
		{0b000011, 0b000011, 0b000011, 0b001100, 0b110000},
	}
	rng := rand.New(rand.NewSource(16))
	for len(masks) < 300 {
		edges := make([]byte, 1+rng.Intn(5))
		for i := range edges {
			edges[i] = byte(1 + rng.Intn(63))
		}
		masks = append(masks, edges)
	}
	nodes := map[string][]*relation.Relation{}
	for i, edges := range masks {
		rels := make([]*relation.Relation, len(edges))
		for k, m := range edges {
			rels[k] = randomRelation(rng, maskEdge(t, m), 2+rng.Intn(12))
		}
		nodes[fmt.Sprintf("%03d-%v", i, edges)] = rels
	}
	return nodes
}

// TestPlanFactsPinned holds tree, cover, bound and both peaks of the
// fuzzed nodes to testdata/facts_pin.json, both for a plan that computes
// them and for a second plan that finds them computed. Tree and estimated
// peak are as recorded at 2404f4a, before the greedy simulation moved to
// plan-local attribute indices; bound, worst-case peak and cover were
// re-recorded with -update-facts-pin when the AGM LP became its packing
// dual, which moved them in the last bits only.
func TestPlanFactsPinned(t *testing.T) {
	const path = "testdata/facts_pin.json"
	nodes := fuzzedNodes(t)
	if *updateFactsPin {
		got := map[string]factsPin{}
		for name, rels := range nodes {
			got[name] = pinFacts(NewPlan(rels...))
		}
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]factsPin
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(nodes) {
		t.Fatalf("%d nodes, pinned table has %d", len(nodes), len(want))
	}
	for name, rels := range nodes {
		facts := new(Facts)
		for _, temperature := range []string{"cold", "warm"} {
			p := facts.Plan(rels...)
			if got := pinFacts(&p); !reflect.DeepEqual(got, want[name]) {
				t.Errorf("%s, %s:\n got  %+v\n want %+v", name, temperature, got, want[name])
			}
		}
	}
}
