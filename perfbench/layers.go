package main

import (
	"fmt"

	"memdep/internal/engine"
	"memdep/internal/memdep"
	"memdep/internal/multiscalar"
	"memdep/internal/policy"
	"memdep/internal/program"
	"memdep/internal/synth"
	"memdep/internal/trace"
	"memdep/internal/workload"
	"memdep/sim"
)

// The traced run calls each layer directly, beside the facade, on the same
// input.  These helpers lower a public request onto the internal layers the
// way the sim facade does; the traced run checks the direct results against
// the facade's (cycles, instructions, spec keys), which catches any drift
// between this lowering and the facade's own.

// layerInput is one request lowered onto the internal layers.
type layerInput struct {
	req   sim.Request // normalized
	trace trace.Config
	cfg   multiscalar.Config
	build engine.Spec // resolves to the request's *program.Program
	job   multiscalar.SimulateJob
}

// synthSpec converts the public synthetic spec to the generator's.
func synthSpec(s *sim.SynthSpec) synth.Spec {
	sp := synth.Spec{
		Name:         s.Name,
		Seed:         s.Seed,
		Ops:          s.Ops,
		Body:         s.Body,
		TaskSize:     s.TaskSize,
		TaskSpread:   s.TaskSpread,
		LoadFrac:     s.LoadFrac,
		StoreFrac:    s.StoreFrac,
		DepFrac:      s.DepFrac,
		AliasSetSize: s.AliasSetSize,
		LoopCarried:  s.LoopCarried,
	}
	for _, b := range s.DepDists {
		sp.DepDists = append(sp.DepDists, synth.DistBucket{Dist: b.Dist, Weight: b.Weight})
	}
	return sp
}

// lower validates and normalizes req and derives its layer inputs.
func lower(req sim.Request) (layerInput, error) {
	if err := req.Validate(); err != nil {
		return layerInput{}, err
	}
	req = req.Normalize()
	pol, err := policy.Parse(string(req.Policy))
	if err != nil {
		return layerInput{}, err
	}
	table, err := memdep.ParseTableKind(string(req.Predictor))
	if err != nil {
		return layerInput{}, err
	}
	core, err := multiscalar.ParseCoreMode(string(req.Core))
	if err != nil {
		return layerInput{}, err
	}
	cfg := multiscalar.DefaultConfig(req.Stages, pol)
	cfg.MemDep.Entries = req.MDPTEntries
	cfg.MemDep.Table = table
	cfg.MemDep.Ways = req.MDPTWays
	cfg.Core = core
	cfg.DDCSizes = req.DDCSizes

	in := layerInput{req: req, trace: trace.Config{MaxInstructions: req.MaxInstructions}, cfg: cfg}
	if req.Synth != nil {
		sp := synthSpec(req.Synth)
		if sp.Key() != req.Synth.CanonicalJSON() {
			return layerInput{}, fmt.Errorf("synth spec lowering drifted: %s vs %s", sp.Key(), req.Synth.CanonicalJSON())
		}
		in.build = synth.BuildJob{Spec: sp, Scale: req.Scale}
	} else {
		in.build = workload.BuildJob{Name: req.Bench, Scale: req.Scale}
	}
	in.job = multiscalar.SimulateJob{
		Item:   multiscalar.PreprocessJob{Program: in.build, Trace: in.trace},
		Config: cfg,
	}
	return in, nil
}

// buildProgram runs the build layer directly.
func (in layerInput) buildProgram() (*program.Program, error) {
	switch b := in.build.(type) {
	case synth.BuildJob:
		return b.Spec.Build(b.Scale), nil
	case workload.BuildJob:
		w, err := workload.Get(b.Name)
		if err != nil {
			return nil, err
		}
		return w.Build(b.Scale), nil
	}
	return nil, fmt.Errorf("unknown build spec %T", in.build)
}
