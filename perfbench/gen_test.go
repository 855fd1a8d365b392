package main

import (
	"fmt"
	"reflect"
	"testing"

	"memdep/sim"
)

func TestSameSeedSameRequests(t *testing.T) {
	for _, ns := range []int{nsWarmup, nsMeasured, nsHot, nsTraced} {
		a, b := synthRequests(7, ns, 2*synthCombos), synthRequests(7, ns, 2*synthCombos)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("namespace %d: two generations from seed 7 differ", ns)
		}
	}
	if !reflect.DeepEqual(paperCells(7), paperCells(7)) {
		t.Fatal("paper grid order differs between two generations from seed 7")
	}
	if !reflect.DeepEqual(clientOrder(7, 1, 3, hotSetSize), clientOrder(7, 1, 3, hotSetSize)) {
		t.Fatal("client order differs between two generations from seed 7")
	}
	if reflect.DeepEqual(paperCells(7), paperCells(8)) {
		t.Error("seeds 7 and 8 give the same paper grid order")
	}
}

func TestSeedsAndNamespacesGiveDisjointSpecs(t *testing.T) {
	seen := map[string]string{}
	for seed := uint64(0); seed < 6; seed++ {
		for _, ns := range []int{nsWarmup, nsMeasured, nsHot, nsTraced} {
			for i, r := range synthRequests(seed, ns, 2*synthCombos) {
				key := r.Synth.CanonicalJSON()
				where := fmt.Sprintf("seed %d namespace %d request %d", seed, ns, i)
				if prev, dup := seen[key]; dup {
					t.Fatalf("%s repeats the spec of %s", where, prev)
				}
				seen[key] = where
			}
		}
	}
}

func TestEveryBlockHasTheSameMix(t *testing.T) {
	type combo struct {
		ops, alias, stages int
		pol                sim.Policy
	}
	for _, seed := range []uint64{1, 2, 99} {
		reqs := synthRequests(seed, nsMeasured, 3*synthCombos)
		for b := 0; b < 3; b++ {
			seen := map[combo]bool{}
			for _, r := range reqs[b*synthCombos : (b+1)*synthCombos] {
				seen[combo{r.Synth.Ops, r.Synth.AliasSetSize, r.Stages, r.Policy}] = true
			}
			if len(seen) != synthCombos {
				t.Errorf("seed %d block %d: %d distinct combinations, want %d", seed, b, len(seen), synthCombos)
			}
		}
	}
}

func TestPaperGridIsComplete(t *testing.T) {
	cells := paperCells(3)
	want := len(sim.Benchmarks()) * len(paperStages) * len(sim.Policies())
	seen := map[string]bool{}
	for _, c := range cells {
		seen[cellKey(c)] = true
	}
	if len(cells) != want || len(seen) != want {
		t.Errorf("%d cells, %d distinct; want %d", len(cells), len(seen), want)
	}
}
