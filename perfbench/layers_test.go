package main

import (
	"context"
	"testing"

	"memdep/internal/multiscalar"
	"memdep/sim"
)

// The traced run lowers requests onto the internal layers itself; a direct
// simulation must reproduce the facade's result exactly.
func TestLoweringMatchesFacade(t *testing.T) {
	ctx := context.Background()
	reqs := []sim.Request{
		synthRequests(1, nsTraced, 1)[0],
		{Bench: "compress", Stages: 4, Policy: sim.PolicySync, MaxInstructions: 20000},
	}
	reqs[0].Synth.Ops = 4096
	s := sim.NewSession(sim.WithWorkers(1))
	for _, req := range reqs {
		in, err := lower(req)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := in.buildProgram()
		if err != nil {
			t.Fatal(err)
		}
		item, err := multiscalar.Preprocess(prog, in.trace)
		if err != nil {
			t.Fatal(err)
		}
		got, err := multiscalar.NewSimulator().Simulate(ctx, item, in.cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cycles != want.Cycles || got.Instructions != want.Instructions || got.Misspeculations != want.Misspeculations {
			t.Errorf("%s: direct %d cycles / %d instructions / %d misspeculations, facade %d / %d / %d",
				req.WorkloadName(), got.Cycles, got.Instructions, got.Misspeculations, want.Cycles, want.Instructions, want.Misspeculations)
		}
	}
}
