package main

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"clara"
	"clara/internal/cir"
	"clara/internal/lnic"
	"clara/internal/mapper"
	"clara/internal/nf"
	"clara/internal/nfc"
	"clara/internal/nicsim"
	"clara/internal/partial"
	"clara/internal/predict"
	"clara/internal/symexec"
	"clara/internal/workload"
)

// mirror replays operations by calling each layer's public function
// directly, in the order clara-serve and the clara package call them, so
// the traced run can time every layer from outside. It keeps the same
// caches the server and clara.NF keep: rendered results by request key,
// compiled NFs by source, one behaviour enumeration per NF, and annotated
// graphs per workload weight vector (capped like clara.NF's). The traced
// prefixes are short enough that the server's LRUs never evict, so plain
// maps reproduce their hits exactly; counts keeps the mirror's hits and
// misses in the server's terms, so the traced run can check that they
// match the server's own counters.
//
// model takes the simulated-time statistics of the reference stage only
// (its validation grid and worker-invariance probe), whose traces and
// seeds are fixed: they do not depend on the run seed or the workload.
type mirror struct {
	t       *tracer // nil for the untraced replay
	results map[string]bool
	nfs     map[string]*mirrorNF
	library map[string]string // corpus name → source
	names   map[string]string // source → corpus name
	sims    []*mirrorSim
	model   *modelAcc
	counts  serveCounters
}

type mirrorNF struct {
	name       string
	prog       *cir.Program
	graph      *cir.Graph
	classes    []symexec.Class
	enumerated bool
	annotated  map[symexec.Weights]*cir.Graph
	preload    map[string]int
	// direct marks an NF compiled outside the server (the simulate
	// set-up and the probe call the library directly): its annotations do
	// not reach the server's counters.
	direct bool
}

// mirrorSim is a simulate pair as the mirror's set-up rebuilt it.
type mirrorSim struct {
	n      *mirrorNF
	target *lnic.LNIC
	place  nicsim.Placement
	trace  *workload.Trace
	window int
}

// annotatedCap matches clara.NF's per-NF annotated-graph cache bound.
const annotatedCap = 64

func newMirror(t *tracer) *mirror {
	lib, names := map[string]string{}, map[string]string{}
	for name, spec := range nf.All() {
		lib[name], names[spec.Source] = spec.Source, name
	}
	return &mirror{t: t, results: map[string]bool{}, nfs: map[string]*mirrorNF{},
		library: lib, names: names, model: newModelAcc()}
}

// compiled returns the NF for source, compiling on first use (the server's
// NF cache).
func (m *mirror) compiled(ctx context.Context, source string) (*mirrorNF, error) {
	if n := m.nfs[source]; n != nil {
		m.counts.nfHits++
		return n, nil
	}
	m.counts.nfMisses++
	n, err := m.compile(ctx, source)
	if err != nil {
		return nil, err
	}
	m.nfs[source] = n
	return n, nil
}

// compile compiles source and builds its dataflow graph.
func (m *mirror) compile(ctx context.Context, source string) (*mirrorNF, error) {
	var prog *cir.Program
	err := m.t.call(ctx, "nfc.compile", "", false, func(context.Context) (int, error) {
		var err error
		prog, err = nfc.Compile(source)
		return 0, err
	})
	if err != nil {
		return nil, err
	}
	g, err := cir.BuildGraph(prog)
	if err != nil {
		return nil, err
	}
	name := m.names[source]
	if name == "" {
		name = prog.Name
	}
	return &mirrorNF{name: name, prog: prog, graph: g, preload: map[string]int{}}, nil
}

// annotated is clara.NF.annotatedGraph: enumerate once, annotate per
// weight vector.
func (m *mirror) annotated(ctx context.Context, n *mirrorNF, wl mapper.Workload) (*cir.Graph, error) {
	if !n.enumerated {
		err := m.t.call(ctx, "symexec.enumerate", n.name, false, func(ctx context.Context) (int, error) {
			var err error
			n.classes, err = symexec.EnumerateContext(ctx, n.prog)
			return 0, err
		})
		if err != nil {
			return nil, err
		}
		n.enumerated = true
	}
	w := symexec.WeightsFor(wl)
	if g, ok := n.annotated[w]; ok {
		if !n.direct {
			m.counts.annotHits++
		}
		return g, nil
	}
	if !n.direct {
		m.counts.annotMisses++
	}
	var g *cir.Graph
	_ = m.t.call(ctx, "symexec.annotate", n.name, false, func(context.Context) (int, error) {
		g = symexec.AnnotatedGraph(n.graph, n.classes, w)
		return 0, nil
	})
	if len(n.annotated) >= annotatedCap || n.annotated == nil {
		n.annotated = map[symexec.Weights]*cir.Graph{}
	}
	n.annotated[w] = g
	return g, nil
}

func (m *mirror) mapNF(ctx context.Context, n *mirrorNF, t *lnic.LNIC, wl mapper.Workload) (*mapper.Mapping, error) {
	g, err := m.annotated(ctx, n, wl)
	if err != nil {
		return nil, err
	}
	var mp *mapper.Mapping
	err = m.t.call(ctx, "mapper.map", n.name, false, func(context.Context) (int, error) {
		var err error
		mp, err = mapper.Map(g, t, wl, mapper.Hints{})
		return 0, err
	})
	return mp, err
}

// predict is clara.NF.PredictContext: map, then predict.
func (m *mirror) predict(ctx context.Context, n *mirrorNF, t *lnic.LNIC, wl mapper.Workload) error {
	mp, err := m.mapNF(ctx, n, t, wl)
	if err != nil {
		return err
	}
	return m.t.call(ctx, "predict.predict", n.name, false, func(context.Context) (int, error) {
		_, err := predict.PredictWithClasses(n.prog, n.classes, mp, t, wl, predict.Options{})
		return 0, err
	})
}

// infeasible reports a mapping that cannot place the NF on the target.
func infeasible(err error) bool {
	var ie *mapper.ErrInfeasible
	return errors.As(err, &ie)
}

func target(name string) (*lnic.LNIC, error) {
	mk, ok := lnic.Profiles()[name]
	if !ok {
		return nil, fmt.Errorf("unknown target %q", name)
	}
	return mk(), nil
}

// request replays one server request: a result-cache hit does no library
// work; a miss runs compute and, on success, caches the key.
func (m *mirror) request(key string, compute func() error) error {
	if m.results[key] {
		m.counts.resultHits++
		return nil
	}
	m.counts.resultMisses++
	if err := compute(); err != nil {
		return err
	}
	m.results[key] = true
	return nil
}

func (r *analyzeReq) replay(ctx context.Context, m *mirror) error {
	return m.request(r.key(), func() error {
		src := r.Source
		if src == "" {
			src = m.library[r.NF]
		}
		n, err := m.compiled(ctx, src)
		if err != nil {
			return err
		}
		wl, err := clara.ParseWorkload(r.Workload)
		if err != nil {
			return err
		}
		switch r.Endpoint {
		case "predict":
			t, err := target(r.Target)
			if err != nil {
				return err
			}
			return m.predict(ctx, n, t, wl)
		case "advise":
			// clara.AdviseContext warms the annotation, then predicts on
			// every target; an infeasible target is data, not an error.
			if _, err := m.annotated(ctx, n, wl); err != nil {
				return err
			}
			for _, name := range clara.Targets() {
				t, err := target(name)
				if err != nil {
					return err
				}
				_ = m.predict(ctx, n, t, wl)
			}
			return nil
		default:
			t, err := target(r.Target)
			if err != nil {
				return err
			}
			g, err := m.annotated(ctx, n, wl)
			if err != nil {
				return err
			}
			return m.t.call(ctx, "partial.analyze", n.name, false, func(ctx context.Context) (int, error) {
				_, err := partial.AnalyzeContext(ctx, g, t, lnic.HostX86(), wl, partial.DefaultPCIe(), 0)
				return 0, err
			})
		}
	})
}

// validate replays /v1/predict and then /v1/measure for one pair. The
// reference stage's validations (ref set) end on an infeasible mapping and
// feed the model statistics.
func (m *mirror) validate(ctx context.Context, v *validateOp, ref bool) error {
	src := m.library[v.Pair.NF]
	t, err := target(v.Pair.Target)
	if err != nil {
		return err
	}
	wl, err := clara.ParseWorkload(v.Workload)
	if err != nil {
		return err
	}
	pr := analyzeReq{Endpoint: "predict", NF: v.Pair.NF, Target: v.Pair.Target, Workload: v.Workload}
	predKey := pr.key()
	err = m.request(predKey, func() error {
		n, err := m.compiled(ctx, src)
		if err != nil {
			return err
		}
		return m.predict(ctx, n, t, wl)
	})
	if err != nil {
		if ref && infeasible(err) {
			return nil
		}
		return err
	}
	measKey := "measure\x00" + predKey + "\x00" + strconv.FormatInt(v.SimSeed, 10)
	return m.request(measKey, func() error {
		n, err := m.compiled(ctx, src)
		if err != nil {
			return err
		}
		prof, err := workload.ParseProfile(v.Workload)
		if err != nil {
			return err
		}
		tr, err := m.generate(ctx, prof)
		if err != nil {
			return err
		}
		mp, err := m.mapNF(ctx, n, t, wl)
		if err != nil {
			return err
		}
		m.decode(ctx, tr)
		res, err := m.runSolo(ctx, n, t, clara.PlacementOf(mp), tr, v.SimSeed)
		if err == nil && ref {
			m.model.add(n.name, res)
		}
		return err
	})
}

func (v *validateOp) replay(ctx context.Context, m *mirror) error { return m.validate(ctx, v, false) }

func (m *mirror) generate(ctx context.Context, prof workload.Profile) (*workload.Trace, error) {
	var tr *workload.Trace
	err := m.t.call(ctx, "workload.generate", "", false, func(ctx context.Context) (int, error) {
		var err error
		tr, err = workload.GenerateContext(ctx, prof)
		if err != nil {
			return 0, err
		}
		return len(tr.Packets), nil
	})
	return tr, err
}

func (m *mirror) decode(ctx context.Context, tr *workload.Trace) {
	_ = m.t.call(ctx, "packet.decode", "", false, func(context.Context) (int, error) {
		tr.Decoded()
		return len(tr.Packets), nil
	})
}

// runSolo is the classic unsharded simulation: construct a Sim, run it.
func (m *mirror) runSolo(ctx context.Context, n *mirrorNF, t *lnic.LNIC, place nicsim.Placement, tr *workload.Trace, seed int64) (*nicsim.Result, error) {
	var sim *nicsim.Sim
	cfg := nicsim.Config{NIC: t, Prog: n.prog, Place: place, Preload: n.preload, Seed: seed}
	err := m.t.call(ctx, "nicsim.new", n.name, false, func(ctx context.Context) (int, error) {
		var err error
		sim, err = nicsim.NewContext(ctx, cfg)
		return 0, err
	})
	if err != nil {
		return nil, err
	}
	var res *nicsim.Result
	err = m.t.call(ctx, "nicsim.run", n.name, false, func(ctx context.Context) (int, error) {
		var err error
		res, err = sim.RunContext(ctx, tr)
		return len(tr.Packets), err
	})
	return res, err
}

// runSharded is the two-worker sharded engine over the same trace.
func (m *mirror) runSharded(ctx context.Context, n *mirrorNF, t *lnic.LNIC, place nicsim.Placement, tr *workload.Trace, seed int64, window int) (*nicsim.Result, error) {
	cfg := nicsim.Config{NIC: t, Prog: n.prog, Place: place, Preload: n.preload, Seed: seed}
	var res *nicsim.Result
	err := m.t.call(ctx, "nicsim.run_sharded", n.name, true, func(ctx context.Context) (int, error) {
		var err error
		res, err = nicsim.RunShardedContext(ctx, cfg, tr, nicsim.ShardOpts{Workers: 2, Window: window})
		return len(tr.Packets), err
	})
	return res, err
}

// setupSimulate replays bench.setupSimulate.
func (m *mirror) setupSimulate(ctx context.Context, seed int64) error {
	t, err := target(simTarget)
	if err != nil {
		return err
	}
	all := nf.All()
	for pi, p := range simProfiles {
		prof, err := workload.ParseProfile(p.Spec)
		if err != nil {
			return err
		}
		wl := mapper.FromProfile(prof)
		prof.Packets, prof.Seed = 32768, seed*2+int64(pi)
		full, err := m.generate(ctx, prof)
		if err != nil {
			return err
		}
		prefixes := map[int]*workload.Trace{}
		for _, s := range simNFs {
			n := s.Packets[pi]
			tr := prefixes[n]
			if tr == nil {
				tr = &workload.Trace{Name: full.Name, Packets: full.Packets[:n]}
				m.decode(ctx, tr)
				prefixes[n] = tr
			}
			// Each simulate pair holds its own compiled NF, as set-up does.
			mn, err := m.compileFresh(ctx, all[s.Name])
			if err != nil {
				return err
			}
			mp, err := m.mapNF(ctx, mn, t, wl)
			if err != nil {
				return err
			}
			m.sims = append(m.sims, &mirrorSim{n: mn, target: t, place: clara.PlacementOf(mp), trace: tr, window: n / 2})
		}
	}
	s := m.sims[0]
	_, err = m.runSharded(ctx, s.n, s.target, s.place, s.trace, seed, s.window)
	return err
}

// compileFresh compiles a spec outside the server's NF cache, with its
// table preloads, the way the simulate set-up does.
func (m *mirror) compileFresh(ctx context.Context, spec nf.Spec) (*mirrorNF, error) {
	n, err := m.compile(ctx, spec.Source)
	if err != nil {
		return nil, err
	}
	n.direct = true
	for k, v := range spec.PreloadEntries {
		n.preload[k] = v
	}
	return n, nil
}

// replay of a simulate op runs the pair solo (the unsharded loop) and on
// two shard workers. The sharded run is the workload's own operation; the
// solo run gives the per-NF run-loop cost and the shard speed-up on the
// same trace.
func (s simulateOp) replay(ctx context.Context, m *mirror) error {
	p := m.sims[s.Pair]
	if _, err := m.runSolo(ctx, p.n, p.target, p.place, p.trace, s.SimSeed); err != nil {
		return err
	}
	_, err := m.runSharded(ctx, p.n, p.target, p.place, p.trace, s.SimSeed, p.window)
	return err
}

// probe replays the reference stage's worker-invariance probe: solo and
// two-worker runs of the fixed trace.
func (m *mirror) probe(ctx context.Context) error {
	n, err := m.compileFresh(ctx, nf.All()["firewall"])
	if err != nil {
		return err
	}
	t, err := target(simTarget)
	if err != nil {
		return err
	}
	prof, err := workload.ParseProfile(probeSpec)
	if err != nil {
		return err
	}
	mp, err := m.mapNF(ctx, n, t, mapper.FromProfile(prof))
	if err != nil {
		return err
	}
	tr, err := m.generate(ctx, prof)
	if err != nil {
		return err
	}
	m.decode(ctx, tr)
	place := clara.PlacementOf(mp)
	if _, err := m.runSolo(ctx, n, t, place, tr, 1); err != nil {
		return err
	}
	res, err := m.runSharded(ctx, n, t, place, tr, 1, len(tr.Packets)/2)
	if err == nil {
		m.model.add(n.name, res)
	}
	return err
}

// setup replays a workload's set-up.
func (m *mirror) setup(ctx context.Context, w *workloadDef, seed int64) error {
	if w.name == "simulate" {
		return m.setupSimulate(ctx, seed)
	}
	for _, name := range nf.Names() {
		for _, tn := range clara.Targets() {
			r := analyzeReq{Endpoint: "predict", NF: name, Target: tn}
			if err := r.replay(ctx, m); err != nil && !infeasible(err) {
				return err
			}
		}
	}
	return nil
}
