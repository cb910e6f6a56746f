package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"clara/internal/nicsim"
	"clara/internal/obs"
)

// modelAcc accumulates simulated-time statistics — the model's outputs,
// which a speed-only change must leave identical.
type modelAcc struct {
	lat   map[string][]float64 // per-packet latency in cycles, by NF
	bd    nicsim.Breakdown     // summed per-packet cycle breakdowns
	cache []float64            // per-run, per-region cache hit rates
	fc    []float64            // per-run flow-cache hit rates
}

func newModelAcc() *modelAcc { return &modelAcc{lat: map[string][]float64{}} }

func (a *modelAcc) add(name string, r *nicsim.Result) {
	for i := range r.Packets {
		p := &r.Packets[i]
		a.lat[name] = append(a.lat[name], p.Latency)
		a.bd.Compute += p.Breakdown.Compute
		a.bd.Mem += p.Breakdown.Mem
		a.bd.Accel += p.Breakdown.Accel
		a.bd.Queue += p.Breakdown.Queue
		a.bd.Fixed += p.Breakdown.Fixed
	}
	regions := make([]string, 0, len(r.CacheHitRate))
	for k := range r.CacheHitRate {
		regions = append(regions, k)
	}
	sort.Strings(regions)
	for _, k := range regions {
		a.cache = append(a.cache, r.CacheHitRate[k])
	}
	if !math.IsNaN(r.FlowCacheHitRate) {
		a.fc = append(a.fc, r.FlowCacheHitRate)
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// percentile is the p-th percentile of xs by linear interpolation.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

func (a *modelAcc) metrics(out map[string]float64) {
	for _, s := range simNFs {
		out["model.mean_cycles."+s.Name] = mean(a.lat[s.Name])
		out["model.p99_cycles."+s.Name] = percentile(a.lat[s.Name], 99)
	}
	out["model.cache_hit_rate"] = mean(a.cache)
	out["model.flowcache_hit_rate"] = mean(a.fc)
	total := a.bd.Total()
	out["model.breakdown_compute"] = a.bd.Compute / total
	out["model.breakdown_mem"] = a.bd.Mem / total
	out["model.breakdown_accel"] = a.bd.Accel / total
	out["model.breakdown_queue"] = a.bd.Queue / total
	out["model.breakdown_fixed"] = a.bd.Fixed / total
}

// runtimeSample reads the Go runtime's GC CPU, total CPU and allocation
// counters.
type runtimeSample struct{ gcCPU, totalCPU, allocBytes float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeSample{s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())}
}

// serveCounters are the server's cache counters the traced run diffs.
type serveCounters struct{ resultHits, resultMisses, nfHits, nfMisses, annotHits, annotMisses int64 }

func (c serveCounters) sub(d serveCounters) serveCounters {
	return serveCounters{c.resultHits - d.resultHits, c.resultMisses - d.resultMisses, c.nfHits - d.nfHits,
		c.nfMisses - d.nfMisses, c.annotHits - d.annotHits, c.annotMisses - d.annotMisses}
}

func readServeCounters(m *obs.Metrics) serveCounters {
	var c serveCounters
	for _, ep := range []string{"predict", "advise", "partial", "measure"} {
		c.resultHits += m.Counter("clara_serve_cache_hits_total", "endpoint", ep).Value()
		c.resultMisses += m.Counter("clara_serve_cache_misses_total", "endpoint", ep).Value()
	}
	c.nfHits = m.Counter("clara_serve_nf_cache_hits_total").Value()
	c.nfMisses = m.Counter("clara_serve_nf_cache_misses_total").Value()
	c.annotHits = m.Counter("clara_annot_cache_hits_total").Value()
	c.annotMisses = m.Counter("clara_annot_cache_misses_total").Value()
	return c
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return math.NaN()
	}
	return float64(hits) / float64(hits+misses)
}

// layerMetrics derives the span-based per-layer metrics of a traced replay.
func layerMetrics(t *tracer, out map[string]float64) {
	ls := t.layers()
	get := func(name string) *layerStat {
		if s := ls[name]; s != nil {
			return s
		}
		return &layerStat{}
	}
	perCallMs := func(name string) float64 {
		s := get(name)
		return float64(s.Total) / 1e6 / float64(s.Calls)
	}
	nsPerPkt := func(name string) float64 {
		s := get(name)
		return float64(s.Total) / float64(s.Pkts)
	}
	out["nfc.compile_ms"] = perCallMs("nfc.compile")
	out["symexec.enumerate_ms"] = perCallMs("symexec.enumerate")
	out["symexec.steps"] = float64(get("symexec.enumerate").Usage.SymExecSteps)
	out["symexec.paths"] = float64(get("symexec.enumerate").Usage.SymExecPaths)
	out["mapper.map_ms"] = perCallMs("mapper.map")
	out["predict.predict_ms"] = perCallMs("predict.predict")
	out["partial.analyze_ms"] = perCallMs("partial.analyze")
	out["workload.generate_ns_per_pkt"] = nsPerPkt("workload.generate")
	out["packet.decode_ns_per_pkt"] = nsPerPkt("packet.decode")
	out["nicsim.new_ms"] = perCallMs("nicsim.new")
	run := get("nicsim.run")
	out["nicsim.run_ns_per_pkt"] = nsPerPkt("nicsim.run")
	out["nicsim.steps_per_pkt"] = float64(run.Usage.SimSteps) / float64(run.Usage.SimEvents)
	out["nicsim.ns_per_step"] = float64(run.Total) / float64(run.Usage.SimSteps)
	sh := get("nicsim.run_sharded")
	out["nicsim.sharded_ns_per_pkt"] = nsPerPkt("nicsim.run_sharded")
	out["nicsim.alloc_bytes_per_pkt"] = float64(sh.AllocBytes) / float64(sh.Pkts)

	// Per-NF run-loop cost, and the shard speed-up over ops that ran the
	// same trace solo (construction + run) and on two workers.
	perNF := map[string][2]float64{} // ns, packets
	solo := map[int]time.Duration{}
	sharded := map[int]time.Duration{}
	for i := range t.spans {
		s := &t.spans[i]
		switch s.Name {
		case "nicsim.run":
			v := perNF[s.Label]
			perNF[s.Label] = [2]float64{v[0] + float64(s.dur()), v[1] + float64(s.Pkts)}
			solo[s.Op] += s.dur()
		case "nicsim.new":
			solo[s.Op] += s.dur()
		case "nicsim.run_sharded":
			sharded[s.Op] += s.dur()
		}
	}
	for _, s := range simNFs {
		v := perNF[s.Name]
		out["nicsim.run_ns_per_pkt."+s.Name] = v[0] / v[1]
	}
	var soloSum, shardSum time.Duration
	for op, d := range sharded {
		if sd, ok := solo[op]; ok {
			soloSum += sd
			shardSum += d
		}
	}
	out["nicsim.shard_speedup"] = float64(soloSum) / float64(shardSum)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
