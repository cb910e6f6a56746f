package main

import (
	"reflect"
	"testing"

	"clara"
	"clara/internal/nf"
)

// testFeasibility is the corpus feasibility table: everything maps except
// the payload-loop and crypto NFs on the pipeline ASIC.
func testFeasibility() feasibility {
	f := feasibility{}
	for _, name := range nf.Names() {
		for _, t := range clara.Targets() {
			if t == "pipeline-asic" && (name == "dpi" || name == "syncookie" || name == "vnfchain") {
				continue
			}
			f.add(name, t)
		}
	}
	return f
}

func analyzeSeq(seed int64, client, n int) []analyzeReq {
	g := newAnalyzeGen(seed, client, testFeasibility())
	out := make([]analyzeReq, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func validateSeq(seed int64, client, n int) []validateOp {
	g := newValidateGen(seed, client, validatePairs(testFeasibility()))
	out := make([]validateOp, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func simulateSeq(seed int64, client, n int) []simulateOp {
	g := newSimulateGen(seed, client, 2*len(simNFs))
	out := make([]simulateOp, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func TestSameSeedSameSequence(t *testing.T) {
	for c := 0; c < clients; c++ {
		if a, b := analyzeSeq(7, c, 3000), analyzeSeq(7, c, 3000); !reflect.DeepEqual(a, b) {
			t.Errorf("client %d: analyze sequences differ for one seed", c)
		}
		if a, b := validateSeq(7, c, 500), validateSeq(7, c, 500); !reflect.DeepEqual(a, b) {
			t.Errorf("client %d: validate sequences differ for one seed", c)
		}
		if a, b := simulateSeq(7, c, 500), simulateSeq(7, c, 500); !reflect.DeepEqual(a, b) {
			t.Errorf("client %d: simulate sequences differ for one seed", c)
		}
	}
}

func TestSecondSeedDiffers(t *testing.T) {
	if reflect.DeepEqual(analyzeSeq(1, 0, 200), analyzeSeq(2, 0, 200)) {
		t.Error("analyze: seeds 1 and 2 give the same sequence")
	}
	if reflect.DeepEqual(validateSeq(1, 0, 200), validateSeq(2, 0, 200)) {
		t.Error("validate: seeds 1 and 2 give the same sequence")
	}
	if reflect.DeepEqual(simulateSeq(1, 0, 200), simulateSeq(2, 0, 200)) {
		t.Error("simulate: seeds 1 and 2 give the same sequence")
	}
	if reflect.DeepEqual(analyzeSeq(1, 0, 200), analyzeSeq(1, 1, 200)) {
		t.Error("analyze: both clients send the same sequence")
	}
}

func TestAnalyzeRepeatAndColdShares(t *testing.T) {
	const n = 20000
	asked := [clients]map[string]bool{{}, {}}
	for c := 0; c < clients; c++ {
		repeats, cold := 0, 0
		for _, r := range analyzeSeq(3, c, n) {
			k := r.key()
			switch {
			case r.Repeat:
				repeats++
				if !asked[c][k] {
					t.Fatalf("client %d repeats a question it never asked: %q", c, k)
				}
			case asked[c][k]:
				t.Fatalf("client %d asks a fresh question twice: %q", c, k)
			default:
				asked[c][k] = true
			}
			if r.Cold {
				cold++
				if r.Source == "" || r.NF != "" {
					t.Fatalf("cold request without an inline source: %+v", r)
				}
			}
			if r.Endpoint != "advise" && r.Target == "" {
				t.Fatalf("%s request without a target", r.Endpoint)
			}
		}
		if got := float64(repeats) / n; got < repeatShare-0.02 || got > repeatShare+0.02 {
			t.Errorf("client %d: repeat share %.3f, want %.2f±0.02", c, got, repeatShare)
		}
		if got := float64(cold) / n; got < coldShare-0.005 || got > coldShare+0.005 {
			t.Errorf("client %d: cold share %.4f, want %.3f±0.005", c, got, coldShare)
		}
	}
	for k := range asked[0] {
		if asked[1][k] {
			t.Fatalf("both clients ask %q, so its cache hit would depend on scheduling", k)
		}
	}
}

func TestColdSourcesAreNew(t *testing.T) {
	corpus := map[string]bool{}
	for _, s := range nf.All() {
		corpus[s.Source] = true
	}
	seen := map[string]bool{}
	for c := 0; c < clients; c++ {
		for _, r := range analyzeSeq(5, c, 20000) {
			if !r.Cold {
				continue
			}
			if corpus[r.Source] || seen[r.Source] {
				t.Fatalf("cold source is not new:\n%s", r.Source)
			}
			seen[r.Source] = true
			if _, err := clara.CompileNF(r.Source); err != nil {
				t.Fatalf("cold source does not compile: %v", err)
			}
		}
	}
}

func TestValidateCoversEveryPair(t *testing.T) {
	pairs := validatePairs(testFeasibility())
	if len(pairs) != 66 {
		t.Fatalf("%d validate pairs, want 66", len(pairs))
	}
	count := map[validatePair]int{}
	seeds := map[int64]bool{}
	for _, op := range validateSeq(9, 0, 2*len(pairs)) {
		count[op.Pair]++
		if seeds[op.SimSeed] {
			t.Fatalf("simulator seed %d reused", op.SimSeed)
		}
		seeds[op.SimSeed] = true
	}
	for _, p := range pairs {
		if count[p] != 2 {
			t.Errorf("pair %+v appears %d times in two passes", p, count[p])
		}
	}
}

func TestReferenceOpsAreFixed(t *testing.T) {
	if a, b := referenceOps(candidatePairs()), referenceOps(candidatePairs()); !reflect.DeepEqual(a, b) {
		t.Error("reference operations differ between calls")
	}
}
