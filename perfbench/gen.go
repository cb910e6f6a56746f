package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"clara/internal/nf"
)

// The generators below are pure functions of the run seed, the client index
// and the set-up's feasibility table: the same seed yields the same
// operation sequence on every host, whatever the timing.

const (
	// repeatShare of analyze requests re-ask a question the same client
	// already got answered, so the result-cache hit share is a property of
	// the sequence rather than of scheduling. It stays clear of one half so
	// the median latency falls inside the cache-miss population instead of
	// on the gap between hits and misses.
	repeatShare = 0.45
	// coldShare of all analyze requests carry a freshly parameterised NF
	// source, paying a cold compile and behaviour enumeration.
	coldShare = 0.03
	// recentKeys bounds the window a repeat is drawn from. Two clients'
	// windows stay far inside the server's 1024-entry result cache, so a
	// repeat is always answered from it.
	recentKeys = 64
)

// feasibility maps each corpus NF to the targets it can be mapped onto,
// sorted; set-up fills it from the server's answers.
type feasibility map[string][]string

// clientRand derives a client's generator stream from the run seed.
func clientRand(seed int64, workload string, client int) *rand.Rand {
	h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(client+1)*0xBF58476D1CE4E5B9
	for _, c := range workload {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	return rand.New(rand.NewSource(int64(h >> 1)))
}

// answer is a request's first response body hash; its repeats must match.
type answer struct {
	sum  [32]byte
	seen bool
}

// analyzeReq is one analyze operation: a request to /v1/predict, /v1/advise
// or /v1/partial.
type analyzeReq struct {
	Endpoint string // "predict", "advise" or "partial"
	NF       string // corpus NF name; empty when Source is set
	Source   string // inline NF source of a cold request
	Target   string // empty for advise
	Workload string
	Cold     bool // first ask of a freshly parameterised source
	Repeat   bool // re-asks an earlier question of the same client
	first    *answer
}

func (r *analyzeReq) key() string {
	return r.Endpoint + "\x00" + r.NF + "\x00" + r.Source + "\x00" + r.Target + "\x00" + r.Workload
}

// analyzeGen generates one client's analyze requests.
type analyzeGen struct {
	rng    *rand.Rand
	client int
	feas   feasibility
	names  []string
	recent []*analyzeReq // ring of this client's last fresh requests
	pos    int
	asked  map[string]bool
	// coldBase and cold number the cold sources: parameter values are
	// coldBase+2*cold+client, so no two requests of the run share one.
	coldBase int
	cold     int
}

func newAnalyzeGen(seed int64, client int, feas feasibility) *analyzeGen {
	rng := clientRand(seed, "analyze", client)
	return &analyzeGen{
		rng: rng, client: client, feas: feas, names: nf.Names(),
		asked: map[string]bool{}, coldBase: rng.Intn(10000),
	}
}

func (g *analyzeGen) next() analyzeReq {
	if len(g.recent) > 0 && g.rng.Float64() < repeatShare {
		r := *g.recent[g.rng.Intn(len(g.recent))]
		r.Repeat, r.Cold = true, false
		return r
	}
	r := g.fresh()
	for g.asked[r.key()] {
		r = g.fresh()
	}
	g.asked[r.key()] = true
	r.first = &answer{}
	stored := r
	if len(g.recent) < recentKeys {
		g.recent = append(g.recent, &stored)
	} else {
		g.recent[g.pos] = &stored
		g.pos = (g.pos + 1) % recentKeys
	}
	return r
}

// fresh draws a new question: an endpoint, an NF (corpus or cold), a
// feasible target and a workload spec. Flow counts carry the client's
// parity, so the two clients never ask the same question.
// The endpoint weights, the spec ranges and the Zipf share are
// assumptions, not measured traffic; README.md gives the reason for each.
func (g *analyzeGen) fresh() analyzeReq {
	var r analyzeReq
	switch u := g.rng.Float64(); {
	case u < 0.5:
		r.Endpoint = "predict"
	case u < 0.75:
		r.Endpoint = "advise"
	default:
		r.Endpoint = "partial"
	}
	base := g.names[g.rng.Intn(len(g.names))]
	// Fresh requests are 1-repeatShare of all requests.
	if g.rng.Float64() < coldShare/(1-repeatShare) {
		n := g.coldBase + 2*g.cold + g.client
		g.cold++
		var spec nf.Spec
		switch g.rng.Intn(3) {
		case 0:
			base, spec = "firewall", nf.Firewall(70000+n)
		case 1:
			base, spec = "lpm", nf.LPM(20000+n)
		default:
			base, spec = "ratelimiter", nf.RateLimiter(6000+n)
		}
		r.Source, r.Cold = spec.Source, true
	} else {
		r.NF = base
	}
	if r.Endpoint != "advise" {
		ts := g.feas[base]
		r.Target = ts[g.rng.Intn(len(ts))]
	}
	flows := int(math.Exp(math.Log(8) + g.rng.Float64()*(math.Log(131072)-math.Log(8))))
	r.Workload = fmt.Sprintf("flows=%d,size=%d,tcp=%s", 2*flows+g.client,
		64+g.rng.Intn(1437), strconv.FormatFloat(float64(g.rng.Intn(5))/4, 'g', -1, 64))
	if g.rng.Float64() < 0.3 {
		r.Workload += ",zipf=1.2"
	}
	return r
}

// validatePackets is the trace length of every validate measurement.
const validatePackets = 2000

// validateShapes are the two traffic shapes every (NF, target) pair is
// validated under: many small uniform flows, and few Zipf-skewed heavy ones.
// The payload size is filled in per operation.
var validateShapes = []string{
	"flows=4096,tcp=0.8",
	"flows=64,zipf=1.2,tcp=0.5",
}

// validatePair is one (NF, target, shape) point of the validation grid.
type validatePair struct {
	NF, Target string
	Shape      int
}

// validatePairs lists every feasible pair in a fixed order.
func validatePairs(feas feasibility) []validatePair {
	var out []validatePair
	for _, name := range nf.Names() {
		for _, t := range feas[name] {
			for s := range validateShapes {
				out = append(out, validatePair{name, t, s})
			}
		}
	}
	return out
}

// validateOp predicts one pair and then measures it on a fresh trace.
type validateOp struct {
	Pair     validatePair
	Workload string // shape, payload size, packet count and trace seed
	SimSeed  int64
}

func validateSpec(shape, size int, traceSeed int64) string {
	return fmt.Sprintf("packets=%d,%s,size=%d,seed=%d", validatePackets, validateShapes[shape], size, traceSeed)
}

// cycler walks a client through a list of n items, each pass in a fresh
// seeded permutation, so every item recurs at a steady rate.
type cycler struct {
	rng   *rand.Rand
	n     int
	order []int
}

func (c *cycler) next() int {
	if len(c.order) == 0 {
		c.order = c.rng.Perm(c.n)
	}
	i := c.order[0]
	c.order = c.order[1:]
	return i
}

type validateGen struct {
	rng   *rand.Rand
	pairs []validatePair
	cyc   cycler
}

func newValidateGen(seed int64, client int, pairs []validatePair) *validateGen {
	rng := clientRand(seed, "validate", client)
	return &validateGen{rng: rng, pairs: pairs, cyc: cycler{rng: rng, n: len(pairs)}}
}

func (g *validateGen) next() validateOp {
	p := g.pairs[g.cyc.next()]
	return validateOp{
		Pair:     p,
		Workload: validateSpec(p.Shape, 64+g.rng.Intn(937), g.rng.Int63()),
		SimSeed:  g.rng.Int63(),
	}
}

// referenceOps are the validation grid under fixed traces and seeds:
// pred_mae_pct is taken over them, so it repeats exactly from run to run.
func referenceOps(pairs []validatePair) []validateOp {
	sizes := []int{64, 1000}
	out := make([]validateOp, len(pairs))
	for i, p := range pairs {
		out[i] = validateOp{Pair: p, Workload: validateSpec(p.Shape, sizes[p.Shape], int64(i+1)), SimSeed: 1}
	}
	return out
}

// simProfiles are the simulate workload's two traffic profiles. hot: few
// Zipf-skewed flows whose state fits the modelled EMEM cache. cold: many
// uniform TCP flows, far beyond the cache, nearly every packet a SYN that
// writes new flow state.
var simProfiles = []struct{ Name, Spec string }{
	{"hot", "flows=64,zipf=1.2,tcp=0.8,size=256"},
	{"cold", "flows=200000,tcp=1,size=512"},
}

// simNFs are the simulate workload's NFs, each stressing a different NIC
// resource, with the packets per run under each profile. Lengths are sized
// so every run costs tens of milliseconds of host time, which keeps the
// operation latency percentiles meaningful; each run is split into two
// shards.
var simNFs = []struct {
	Name    string
	Packets [2]int // hot, cold
}{
	{"firewall", [2]int{32768, 32768}},  // flow-cache lookups
	{"nat-full", [2]int{16384, 16384}},  // stateful writes + checksum accelerator
	{"lpm", [2]int{32768, 4096}},        // LPM accelerator, 10k preloaded rules
	{"dpi", [2]int{4096, 4096}},         // payload loop
	{"syncookie", [2]int{32768, 32768}}, // crypto accelerator
	{"vnfchain", [2]int{4096, 4096}},    // long chain
}

// simTarget is the NIC every simulate run is mapped onto.
const simTarget = "netronome"

// simulateOp is one sharded simulation of the set-up's pair number Pair.
type simulateOp struct {
	Pair    int
	SimSeed int64
}

type simulateGen struct {
	rng *rand.Rand
	cyc cycler
}

func newSimulateGen(seed int64, client, pairs int) *simulateGen {
	rng := clientRand(seed, "simulate", client)
	return &simulateGen{rng: rng, cyc: cycler{rng: rng, n: pairs}}
}

func (g *simulateGen) next() simulateOp {
	return simulateOp{Pair: g.cyc.next(), SimSeed: g.rng.Int63()}
}

// add records that name maps onto target, keeping the targets sorted.
func (f feasibility) add(name, target string) {
	f[name] = append(f[name], target)
	sort.Strings(f[name])
}
