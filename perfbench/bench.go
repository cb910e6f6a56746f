package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clara"
	"clara/internal/nf"
	"clara/internal/serve"
)

// bench is one set-up's state: an in-process clara-serve with the NF corpus
// loaded, plus whatever the workload pre-builds.
type bench struct {
	srv  *serve.Server
	h    http.Handler
	feas feasibility
	// sims are the simulate workload's pre-mapped NFs and pre-generated,
	// pre-decoded traces, indexed by simulateOp.Pair.
	sims []*simPair
}

// simPair is one (NF, profile) point of the simulate workload.
type simPair struct {
	NF, Profile string
	nf          *clara.NF
	target      *clara.Target
	mapping     *clara.Mapping
	trace       *clara.Trace
	window      int // two shards per run
}

// newBench starts a server over the NF corpus. Requests reach its handler
// in process: the transport is not a Clara layer.
func newBench() (*bench, error) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	all := nf.All()
	for _, name := range nf.Names() {
		srv.AddNF(name, all[name].Source)
	}
	return &bench{srv: srv, h: srv.Handler(), feas: feasibility{}}, nil
}

func (b *bench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = b.srv.Shutdown(ctx) // idle by now; a drain timeout only means stray jobs
}

// post sends one request to the server's handler and returns the status and
// body.
func (b *bench) post(endpoint string, req serve.Request) (int, []byte) {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // serve.Request always marshals
	}
	w := httptest.NewRecorder()
	b.h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/"+endpoint, bytes.NewReader(body)))
	return w.Code, w.Body.Bytes()
}

// isInfeasible reports an answer that says the NF cannot be mapped onto the
// target: data about the pair, not a failure.
func isInfeasible(code int, body []byte) bool {
	return code == http.StatusBadRequest && bytes.Contains(body, []byte("infeasible"))
}

// warmUp asks for a default-workload prediction of every corpus NF on
// every target. That compiles and enumerates the corpus into the server's
// NF cache and records which pairs are feasible.
func (b *bench) warmUp() error {
	for _, name := range nf.Names() {
		for _, t := range clara.Targets() {
			code, body := b.post("predict", serve.Request{NF: name, Target: t})
			switch {
			case code == http.StatusOK:
				b.feas.add(name, t)
			case !isInfeasible(code, body):
				return fmt.Errorf("warm-up predict %s on %s: %d %s", name, t, code, body)
			}
		}
	}
	return nil
}

// setupSimulate compiles and maps the simulate NFs, generates both
// profiles' traces from the run seed, decodes every run's trace, and checks
// that one run gives identical results at one and at two workers.
func (b *bench) setupSimulate(ctx context.Context, seed int64) error {
	target, err := clara.NewTarget(simTarget)
	if err != nil {
		return err
	}
	all := nf.All()
	for pi, prof := range simProfiles {
		tp, err := clara.ParseTrafficProfile(prof.Spec)
		if err != nil {
			return err
		}
		wl, err := clara.ParseWorkload(prof.Spec)
		if err != nil {
			return err
		}
		tp.Packets, tp.Seed = 32768, seed*2+int64(pi)
		full, err := clara.GenerateTraceContext(ctx, tp)
		if err != nil {
			return fmt.Errorf("generate %s trace: %w", prof.Name, err)
		}
		prefixes := map[int]*clara.Trace{}
		for _, s := range simNFs {
			n := s.Packets[pi]
			tr := prefixes[n]
			if tr == nil {
				tr = &clara.Trace{Name: fmt.Sprintf("%s-%d", prof.Name, n), Packets: full.Packets[:n]}
				tr.Decoded()
				prefixes[n] = tr
			}
			spec := all[s.Name]
			nfc, err := clara.CompileNF(spec.Source)
			if err != nil {
				return fmt.Errorf("compile %s: %w", s.Name, err)
			}
			for k, v := range spec.PreloadEntries {
				nfc.Preload[k] = v
			}
			m, err := nfc.MapContext(ctx, target, wl, clara.Hints{})
			if err != nil {
				return fmt.Errorf("map %s: %w", s.Name, err)
			}
			b.sims = append(b.sims, &simPair{NF: s.Name, Profile: prof.Name,
				nf: nfc, target: target, mapping: m, trace: tr, window: n / 2})
		}
	}
	p := b.sims[0]
	return checkWorkerInvariance(ctx, p.nf, p.target, p.mapping, p.trace, seed, p.window)
}

// summary is the worker-invariance comparison key: every statistic a run's
// consumers read. Formatting it keeps NaN rates comparable.
func summary(r *clara.Measurement) string {
	return fmt.Sprintf("%d %d %v %v %v %+v %v %v", len(r.Packets), r.Errors, r.MeanLatency(),
		r.Percentile(50), r.Percentile(99), r.MeanBreakdown(), r.CacheHitRate, r.FlowCacheHitRate)
}

func checkWorkerInvariance(ctx context.Context, n *clara.NF, t *clara.Target, m *clara.Mapping, tr *clara.Trace, seed int64, window int) error {
	var sums [2]string
	for i, workers := range []int{1, 2} {
		r, err := n.MeasureOptionsContext(ctx, t, m, tr, seed, clara.MeasureOptions{Shards: workers, ShardWindow: window})
		if err != nil {
			return fmt.Errorf("worker-invariance run at %d workers: %w", workers, err)
		}
		sums[i] = summary(r)
	}
	if sums[0] != sums[1] {
		return fmt.Errorf("worker invariance broken on %s: 1 worker %s, 2 workers %s", n.Name(), sums[0], sums[1])
	}
	return nil
}

func positive(x float64) bool { return x > 0 && !math.IsInf(x, 0) }

// checkAnalyze checks one analyze answer: HTTP 200, a decodable body with a
// finite positive result, and for a repeated question a body byte-identical
// to the first answer.
func checkAnalyze(r *analyzeReq, code int, body []byte) error {
	if code != http.StatusOK {
		return fmt.Errorf("%s %s on %q: HTTP %d: %s", r.Endpoint, r.NF, r.Target, code, body)
	}
	var doc struct {
		Prediction *struct{ MeanCycles float64 }
		Advice     []struct {
			Feasible   bool
			MeanCycles float64
		}
		Analysis *struct {
			Best *struct{ TotalNanos float64 }
		}
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("%s: undecodable body: %w", r.Endpoint, err)
	}
	ok := false
	switch r.Endpoint {
	case "predict":
		ok = doc.Prediction != nil && positive(doc.Prediction.MeanCycles)
	case "advise":
		for _, a := range doc.Advice {
			if a.Feasible {
				ok = positive(a.MeanCycles)
				if !ok {
					break
				}
			}
		}
	case "partial":
		ok = doc.Analysis != nil && doc.Analysis.Best != nil && positive(doc.Analysis.Best.TotalNanos)
	}
	if !ok {
		return fmt.Errorf("%s %s on %q: no finite positive result in %.200s", r.Endpoint, r.NF, r.Target, body)
	}
	sum := sha256.Sum256(body)
	if r.first.seen && sum != r.first.sum {
		return fmt.Errorf("%s %s on %q: repeated question answered differently", r.Endpoint, r.NF, r.Target)
	}
	r.first.sum, r.first.seen = sum, true
	return nil
}

func (b *bench) doAnalyze(r *analyzeReq) error {
	code, body := b.post(r.Endpoint, serve.Request{NF: r.NF, Source: r.Source, Target: r.Target, Workload: r.Workload})
	return checkAnalyze(r, code, body)
}

// measured is the part of a /v1/measure answer the checks read.
type measured struct {
	Packets    int     `json:"packets"`
	Errors     int     `json:"errors"`
	MeanCycles float64 `json:"mean_cycles"`
}

// errInfeasible marks a validate pair the server cannot map.
var errInfeasible = errors.New("infeasible pair")

// doValidate predicts the pair and then measures it; it returns both mean
// latencies in cycles. With tolerateInfeasible an infeasible answer returns
// errInfeasible instead of failing.
func (b *bench) doValidate(op *validateOp, tolerateInfeasible bool) (pred, meas float64, err error) {
	req := serve.Request{NF: op.Pair.NF, Target: op.Pair.Target, Workload: op.Workload}
	code, body := b.post("predict", req)
	if tolerateInfeasible && isInfeasible(code, body) {
		return 0, 0, errInfeasible
	}
	if code != http.StatusOK {
		return 0, 0, fmt.Errorf("predict %s on %s: HTTP %d: %s", op.Pair.NF, op.Pair.Target, code, body)
	}
	var p struct{ Prediction *struct{ MeanCycles float64 } }
	if err := json.Unmarshal(body, &p); err != nil || p.Prediction == nil || !positive(p.Prediction.MeanCycles) {
		return 0, 0, fmt.Errorf("predict %s on %s: bad body %.200s", op.Pair.NF, op.Pair.Target, body)
	}
	req.Seed = op.SimSeed
	code, body = b.post("measure", req)
	if code != http.StatusOK {
		return 0, 0, fmt.Errorf("measure %s on %s: HTTP %d: %s", op.Pair.NF, op.Pair.Target, code, body)
	}
	var m measured
	if err := json.Unmarshal(body, &m); err != nil {
		return 0, 0, fmt.Errorf("measure %s on %s: undecodable body: %w", op.Pair.NF, op.Pair.Target, err)
	}
	if m.Packets != validatePackets || m.Errors != 0 || !positive(m.MeanCycles) {
		return 0, 0, fmt.Errorf("measure %s on %s: packets %d (want %d), errors %d, mean %v",
			op.Pair.NF, op.Pair.Target, m.Packets, validatePackets, m.Errors, m.MeanCycles)
	}
	return p.Prediction.MeanCycles, m.MeanCycles, nil
}

// doSimulate runs one sharded simulation and returns its packet count.
func (b *bench) doSimulate(ctx context.Context, op simulateOp) (int, error) {
	p := b.sims[op.Pair]
	r, err := p.nf.MeasureOptionsContext(ctx, p.target, p.mapping, p.trace, op.SimSeed,
		clara.MeasureOptions{Shards: 2, ShardWindow: p.window})
	if err != nil {
		return 0, fmt.Errorf("simulate %s/%s: %w", p.NF, p.Profile, err)
	}
	if len(r.Packets) != len(p.trace.Packets) || r.Errors != 0 || !positive(r.MeanLatency()) {
		return 0, fmt.Errorf("simulate %s/%s: packets %d (want %d), errors %d, mean %v",
			p.NF, p.Profile, len(r.Packets), len(p.trace.Packets), r.Errors, r.MeanLatency())
	}
	return len(r.Packets), nil
}

// candidatePairs is the whole validation grid, feasible or not: the
// reference stage learns feasibility from the server's answers.
func candidatePairs() []validatePair {
	all := feasibility{}
	for _, name := range nf.Names() {
		for _, t := range clara.Targets() {
			all.add(name, t)
		}
	}
	return validatePairs(all)
}

// probeSpec is the fixed trace of the reference stage's worker-invariance
// probe: the firewall under the hot profile, split into two shards.
const probeSpec = "packets=32768,flows=64,zipf=1.2,tcp=0.8,size=256,seed=1"

// partialSpec is the workload of the reference stage's partial sweep.
const partialSpec = "flows=1000,size=300"

// refValidate is a reference-stage validation: infeasible pairs are
// excluded, not failures, and the two mean latencies are kept for
// pred_mae_pct.
type refValidate struct {
	validateOp
	pred, meas float64
	infeasible bool
}

func (r *refValidate) run(_ context.Context, b *bench) (int, error) {
	pred, meas, err := b.doValidate(&r.validateOp, true)
	if errors.Is(err, errInfeasible) {
		r.infeasible = true
		return 0, nil
	}
	r.pred, r.meas = pred, meas
	return validatePackets, err
}

func (r *refValidate) replay(ctx context.Context, m *mirror) error {
	return m.validate(ctx, &r.validateOp, true)
}

func (r *refValidate) requests() int { return 2 }

// probeOp is the reference stage's worker-invariance probe.
type probeOp struct{}

func (probeOp) run(ctx context.Context, b *bench) (int, error) { return 0, b.probeInvariance(ctx) }
func (probeOp) replay(ctx context.Context, m *mirror) error    { return m.probe(ctx) }
func (probeOp) requests() int                                  { return 0 }

// referenceStage lists the fixed operations every run ends with, after its
// timed loop. None depends on the run seed:
//   - the validation grid on fixed traces and seeds (predict, then
//     measure), giving pred_mae_pct;
//   - a worker-invariance probe on a fixed two-shard trace;
//   - one partial-offload sweep per corpus NF.
func referenceStage() []op {
	var ops []op
	for _, v := range referenceOps(candidatePairs()) {
		ops = append(ops, &refValidate{validateOp: v})
	}
	ops = append(ops, probeOp{})
	for _, name := range nf.Names() {
		ops = append(ops, &analyzeReq{Endpoint: "partial", NF: name, Target: simTarget, Workload: partialSpec, first: &answer{}})
	}
	return ops
}

// refResult is the outcome of the reference stage.
type refResult struct {
	maePct            float64
	pairs             int // feasible pairs validated
	elapsed           time.Duration
	attempted, failed int
	errs              []error
}

// runOps runs ops on two clients, each taking the next op as it finishes
// one, and returns each op's packets and error and the wall time of the
// whole batch.
func runOps(ctx context.Context, b *bench, ops []op) ([]int, []error, time.Duration) {
	pkts := make([]int, len(ops))
	errs := make([]error, len(ops))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(ops); i = int(next.Add(1) - 1) {
				pkts[i], errs[i] = ops[i].run(ctx, b)
			}
		}()
	}
	wg.Wait()
	return pkts, errs, time.Since(start)
}

// runReference runs the reference stage on two clients.
func runReference(ctx context.Context, b *bench) refResult {
	ops := referenceStage()
	_, errs, elapsed := runOps(ctx, b, ops)
	res := refResult{elapsed: elapsed}
	sumErr := 0.0
	for i, o := range ops {
		if errs[i] != nil {
			res.attempted++
			res.failed++
			res.errs = append(res.errs, errs[i])
			continue
		}
		if v, ok := o.(*refValidate); ok {
			if v.infeasible {
				continue
			}
			res.pairs++
			sumErr += math.Abs(v.pred-v.meas) / v.meas
		}
		res.attempted++
	}
	res.maePct = 100 * sumErr / float64(res.pairs)
	return res
}

// gridRate runs the reference validation grid on a fresh server, so no
// answer comes from cache, and returns its simulated packets per second
// with the grid's failures.
func gridRate(ctx context.Context) (float64, int, []error, error) {
	b, err := newBench()
	if err != nil {
		return 0, 0, nil, err
	}
	defer b.close()
	var ops []op
	for _, v := range referenceOps(candidatePairs()) {
		ops = append(ops, &refValidate{validateOp: v})
	}
	pkts, errs, elapsed := runOps(ctx, b, ops)
	total := 0
	var failed []error
	for i := range ops {
		total += pkts[i]
		if errs[i] != nil {
			failed = append(failed, errs[i])
		}
	}
	return float64(total) / elapsed.Seconds(), len(ops), failed, nil
}

func (b *bench) probeInvariance(ctx context.Context) error {
	n, t, m, tr, err := probeInputs(ctx)
	if err != nil {
		return err
	}
	return checkWorkerInvariance(ctx, n, t, m, tr, 1, len(tr.Packets)/2)
}

// probeInputs compiles, maps and generates the invariance probe's inputs.
func probeInputs(ctx context.Context) (*clara.NF, *clara.Target, *clara.Mapping, *clara.Trace, error) {
	n, err := clara.CompileNF(nf.All()["firewall"].Source)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	t, err := clara.NewTarget(simTarget)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	wl, err := clara.ParseWorkload(probeSpec)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	m, err := n.MapContext(ctx, t, wl, clara.Hints{})
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("map invariance probe: %w", err)
	}
	tp, err := clara.ParseTrafficProfile(probeSpec)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	tr, err := clara.GenerateTraceContext(ctx, tp)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return n, t, m, tr, nil
}

// firstLine trims an error for the diagnostics printed to standard error.
func firstLine(err error) string {
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	return s
}
