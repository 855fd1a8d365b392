package main

import (
	"math/rand/v2"

	"memdep/sim"
)

// Every input the benchmark sends is a pure function of the run seed, so the
// same seed always yields the same request sequence.  Requests are drawn
// from disjoint namespaces: warm-up, measured, hot-set and traced requests
// of one run never coincide, and neither do the specs of two run seeds.
const (
	nsWarmup = iota + 1
	nsMeasured
	nsHot
	nsTraced
	nsCells
	nsClient
)

// nsBits and indexBits lay out synthSeed; the run seed takes the bits above.
const (
	indexBits = 20
	nsBits    = 4
)

// synthSeed returns the generator seed of the i-th synthetic spec of
// namespace ns under run seed seed.  Distinct (seed, ns, i) triples give
// distinct generator seeds while seed < 2^40, ns < 16 and i < 2^20.
func synthSeed(seed uint64, ns, i int) uint64 {
	return seed<<(indexBits+nsBits) | uint64(ns)<<indexBits | uint64(i)
}

// The request space of the synthetic workloads.
var (
	synthOps     = []int{16 << 10, 32 << 10, 64 << 10}
	synthAliases = []int{1, 4}
	synthPols    = []sim.Policy{sim.PolicyAlways, sim.PolicySync, sim.PolicyESync}
	synthStages  = []int{4, 8}
)

// newRand returns the run's generator for one namespace.
func newRand(seed uint64, ns int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(ns)))
}

// synthCombos is the size of the synthetic request space.
var synthCombos = len(synthOps) * len(synthAliases) * len(synthPols) * len(synthStages)

// synthRequests returns n never-repeating synthetic simulate requests of
// namespace ns.  Each has its own generator seed.  Their size, alias-set
// size, policy and stage count walk every combination of the request space
// once per block of synthCombos requests, in a seed-shuffled order, so runs
// with different seeds send different programs in the same mix.
func synthRequests(seed uint64, ns, n int) []sim.Request {
	r := newRand(seed, ns)
	out := make([]sim.Request, n)
	var perm []int
	for i := range out {
		if i%synthCombos == 0 {
			perm = r.Perm(synthCombos)
		}
		c := perm[i%synthCombos]
		ops := synthOps[c%len(synthOps)]
		c /= len(synthOps)
		alias := synthAliases[c%len(synthAliases)]
		c /= len(synthAliases)
		pol := synthPols[c%len(synthPols)]
		c /= len(synthPols)
		out[i] = sim.Request{
			Synth:  &sim.SynthSpec{Seed: synthSeed(seed, ns, i), Ops: ops, AliasSetSize: alias},
			Policy: pol,
			Stages: synthStages[c],
		}
	}
	return out
}

// paperStages are the Multiscalar configurations of the paper's evaluation.
var paperStages = []int{4, 8}

// paperCells returns the paper's grid -- every suite benchmark at its default
// scale, at 4 and 8 stages, under every policy -- in a seed-shuffled order.
func paperCells(seed uint64) []sim.Request {
	var out []sim.Request
	for _, b := range sim.Benchmarks() {
		for _, stages := range paperStages {
			for _, p := range sim.Policies() {
				out = append(out, sim.Request{Bench: b.Name, Stages: stages, Policy: p})
			}
		}
	}
	r := newRand(seed, nsCells)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// clientOrder returns the order in which client c walks a hot set of n
// requests on its pass-th pass: a fresh seed-drawn permutation per pass.
func clientOrder(seed uint64, c, pass, n int) []int {
	r := rand.New(rand.NewPCG(seed, uint64(nsClient)<<32|uint64(c)<<16|uint64(pass)))
	return r.Perm(n)
}
