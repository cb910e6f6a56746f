package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// op is one closed-loop operation.
type op interface {
	// run executes the op the way the workload's callers do and checks
	// its outputs; it returns the packets it simulated.
	run(ctx context.Context, b *bench) (int, error)
	// replay repeats the op's work by calling each layer's public
	// functions in the order the server does (see mirror).
	replay(ctx context.Context, m *mirror) error
	// requests is how many server requests run makes.
	requests() int
}

func (r *analyzeReq) run(_ context.Context, b *bench) (int, error) { return 0, b.doAnalyze(r) }
func (r *analyzeReq) requests() int                                { return 1 }

func (v *validateOp) run(_ context.Context, b *bench) (int, error) {
	_, _, err := b.doValidate(v, false)
	return validatePackets, err
}
func (v *validateOp) requests() int { return 2 }

func (s simulateOp) run(ctx context.Context, b *bench) (int, error) { return b.doSimulate(ctx, s) }
func (s simulateOp) requests() int                                  { return 0 }

// clients is the closed-loop client count: Clara's callers (CLIs, CI
// sweeps, the eval harness) wait for each answer before asking again.
const clients = 2

// workloadDef defines one benchmark workload.
type workloadDef struct {
	name string
	// setup builds the state the timed loop runs against.
	setup func(ctx context.Context, seed int64) (*bench, error)
	// source returns client c's operation generator.
	source func(b *bench, seed int64, c int) func() op
	// prefix is how many operations the traced run replays.
	prefix int
}

var workloads = []*workloadDef{
	{
		name: "analyze",
		setup: func(_ context.Context, _ int64) (*bench, error) {
			b, err := newBench()
			if err != nil {
				return nil, err
			}
			return b, b.warmUp()
		},
		source: func(b *bench, seed int64, c int) func() op {
			g := newAnalyzeGen(seed, c, b.feas)
			return func() op { r := g.next(); return &r }
		},
		prefix: 1200,
	},
	{
		name: "simulate",
		setup: func(ctx context.Context, seed int64) (*bench, error) {
			b, err := newBench()
			if err != nil {
				return nil, err
			}
			return b, b.setupSimulate(ctx, seed)
		},
		source: func(b *bench, seed int64, c int) func() op {
			g := newSimulateGen(seed, c, len(b.sims))
			return func() op { return g.next() }
		},
		prefix: 24,
	},
	{
		name: "validate",
		setup: func(_ context.Context, _ int64) (*bench, error) {
			b, err := newBench()
			if err != nil {
				return nil, err
			}
			return b, b.warmUp()
		},
		source: func(b *bench, seed int64, c int) func() op {
			g := newValidateGen(seed, c, validatePairs(b.feas))
			return func() op { o := g.next(); return &o }
		},
		prefix: 132,
	},
}

func workloadByName(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want analyze, simulate or validate)", name)
}

// prefixOps is the traced run's operation sequence: the first ops of each
// client, interleaved round-robin.
func (w *workloadDef) prefixOps(b *bench, seed int64) []op {
	srcs := make([]func() op, clients)
	for c := range srcs {
		srcs[c] = w.source(b, seed, c)
	}
	ops := make([]op, w.prefix)
	for i := range ops {
		ops[i] = srcs[i%clients]()
	}
	return ops
}

// loopResult is a timed closed-loop run.
type loopResult struct {
	lats      []time.Duration // measured ops' latencies, sorted
	pkts      int             // packets simulated by measured ops
	elapsed   time.Duration   // summed wall time of the measured slices
	attempted int             // every op run, warm-up included
	errs      []error
	calib     []float64 // calibration burst rates around the slices
}

// Slicing of the timed loop: calibration bursts of calBurst run before
// every measured slice and after the last one.
const (
	sliceLen = 2500 * time.Millisecond
	calBurst = 250 * time.Millisecond
)

// closedLoop runs the workload's clients against b. Each client issues its
// next op as soon as the previous one completes. A warm-up slice runs first
// (its ops are checked, not timed); then measured slices cover measure,
// each preceded by a calibration burst on every core, so the bursts sample
// the host's speed across the whole run. A slice ends when every client
// has finished the op it was running at the slice's deadline.
func closedLoop(ctx context.Context, w *workloadDef, b *bench, seed int64, warm, measure time.Duration) loopResult {
	type clientResult struct {
		lats      []time.Duration
		pkts, ops int
		errs      []error
	}
	results := make([]clientResult, clients)
	nexts := make([]func() op, clients)
	for c := range nexts {
		nexts[c] = w.source(b, seed, c)
	}
	slice := func(d time.Duration, timed bool) time.Duration {
		start := time.Now()
		end := start.Add(d)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cr := &results[c]
				for t0 := time.Now(); t0.Before(end); t0 = time.Now() {
					pkts, err := nexts[c]().run(ctx, b)
					cr.ops++
					if err != nil {
						cr.errs = append(cr.errs, err)
					}
					if timed {
						cr.lats = append(cr.lats, time.Since(t0))
						cr.pkts += pkts
					}
				}
			}(c)
		}
		wg.Wait()
		return time.Since(start)
	}
	var res loopResult
	slice(warm, false)
	for done := time.Duration(0); done < measure; done += sliceLen {
		res.calib = append(res.calib, calibrationBurst(calBurst))
		res.elapsed += slice(min(sliceLen, measure-done), true)
	}
	res.calib = append(res.calib, calibrationBurst(calBurst))
	for _, cr := range results {
		res.lats = append(res.lats, cr.lats...)
		res.pkts += cr.pkts
		res.attempted += cr.ops
		res.errs = append(res.errs, cr.errs...)
	}
	sort.Slice(res.lats, func(i, j int) bool { return res.lats[i] < res.lats[j] })
	return res
}

// quantileMs is the q-quantile of sorted latencies in milliseconds, by
// linear interpolation between ranks.
func quantileMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1]) / 1e6
	}
	frac := pos - float64(i)
	return (float64(sorted[i])*(1-frac) + float64(sorted[i+1])*frac) / 1e6
}
