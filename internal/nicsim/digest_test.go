package nicsim

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"clara/internal/cir"
	"clara/internal/lnic"
	"clara/internal/mapper"
	"clara/internal/nf"
	"clara/internal/workload"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/result_digests.txt")

const digestFile = "result_digests.txt"

// digestSizes are the payload sizes the digest sweep runs. 1400 B frames
// exceed the Netronome's 1 kB CTM residency, so their tails take the EMEM
// spill path.
var digestSizes = []int{64, 512, 1400}

// resultDigest hashes everything a Result reports about timing: the float
// bits of every PacketResult (plus its verdict and class), the packet and
// error counts, per-region cache hit rates in name order, the flow-cache hit
// rate and the fault report. Two Results share a digest only if they agree
// bit for bit on all of it.
func resultDigest(r *Result) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	u64(uint64(len(r.Packets)))
	u64(uint64(r.Errors))
	for i := range r.Packets {
		p := &r.Packets[i]
		f64(p.ArrivalCycles)
		f64(p.DoneCycles)
		f64(p.Latency)
		u64(p.Verdict)
		h.Write([]byte(p.Class))
		b := &p.Breakdown
		f64(b.Compute)
		f64(b.Mem)
		f64(b.Accel)
		f64(b.Queue)
		f64(b.Fixed)
	}
	names := make([]string, 0, len(r.CacheHitRate))
	for name := range r.CacheHitRate {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h.Write([]byte(name))
		f64(r.CacheHitRate[name])
	}
	f64(r.FlowCacheHitRate)
	h.Write([]byte(r.Faults.String()))
	return hex.EncodeToString(h.Sum(nil))
}

// digestCases runs every corpus NF on every built-in target the mapper can
// place it on, at every digest payload size, both as one solo run and as a
// two-window sharded run, plus one fault-injected row that drives the
// fault-RNG draw inside memAccess. It returns case name → digest in a
// stable order.
func digestCases(t *testing.T) ([]string, map[string]string) {
	t.Helper()
	var order []string
	got := map[string]string{}
	add := func(name string, r *Result) {
		order = append(order, name)
		got[name] = resultDigest(r)
	}
	traces := map[int]*workload.Trace{}
	for _, size := range digestSizes {
		p := workload.DefaultProfile()
		p.Packets = 256
		p.Flows = 64
		p.PayloadBytes = size
		p.Seed = 7
		tr, err := workload.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		traces[size] = tr
	}
	wl := mapper.FromProfile(workload.DefaultProfile())
	profiles := lnic.Profiles()
	for _, nfName := range nf.Names() {
		spec := nf.All()[nfName]
		prog := spec.MustCompile()
		for _, target := range lnic.ProfileNames() {
			nic := profiles[target]()
			g, err := cir.BuildGraph(prog)
			if err != nil {
				t.Fatal(err)
			}
			m, err := mapper.Map(g, nic, wl, mapper.Hints{})
			if err != nil {
				continue // infeasible on this target
			}
			cfg := Config{
				NIC: nic, Prog: prog,
				Place: Placement{
					StateMem: m.StateMem, UseFlowCache: m.UseFlowCache,
					ChecksumOnAccel: m.ChecksumOnAccel, CryptoOnAccel: m.CryptoOnAccel,
					ParseOnEngine: m.ParseOnEngine,
				},
				Preload: spec.PreloadEntries, Seed: 3,
			}
			for _, size := range digestSizes {
				tr := traces[size]
				name := fmt.Sprintf("%s/%s/%d", nfName, target, size)
				sim, err := New(cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				solo, err := sim.Run(tr)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				add(name+"/solo", solo)
				sharded, err := RunSharded(cfg, tr, ShardOpts{Workers: 2, Window: len(tr.Packets) / 2})
				if err != nil {
					t.Fatalf("%s/sharded: %v", name, err)
				}
				add(name+"/sharded", sharded)
			}
		}
	}

	// The synthetic spill NIC: a non-power-of-two packet line and an
	// unreachable, cached spill region, which no built-in profile has.
	for _, size := range digestSizes {
		spec := nf.All()["dpi"]
		prog := spec.MustCompile()
		nic := spillTestNIC()
		sim, err := New(Config{NIC: nic, Prog: prog, Place: DefaultPlacement(nic, prog),
			Preload: spec.PreloadEntries, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(traces[size])
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("dpi/spill-test/%d/solo", size), res)
	}

	// The fault row: memory soft faults on every Netronome region a DPI
	// scan touches (packet CTM, spilled tails in EMEM, the automaton's
	// region) plus frame corruption, all from the fault RNG.
	spec := nf.All()["dpi"]
	prog := spec.MustCompile()
	nic := lnic.Netronome()
	cfg := Config{
		NIC: nic, Prog: prog, Place: DefaultPlacement(nic, prog),
		Preload: spec.PreloadEntries, Seed: 3,
		Faults: &Faults{
			Corrupt:  0.05,
			MemFault: map[string]float64{"ctm": 0.03, "imem": 0.03, "emem": 0.03},
			Seed:     11,
		},
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(traces[1400])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Faults.MemFaults) == 0 {
		t.Fatal("fault row injected no memory faults")
	}
	add("dpi/netronome/1400/faults", res)
	return order, got
}

// TestResultDigests pins the simulator's output bit for bit over the NF
// corpus × feasible targets × payload sizes, solo and sharded, plus a
// fault-injected row. Pricing refactors (precomputed tables, restructured
// address arithmetic) must keep every digest; a deliberate model change
// re-records with -update and says why in CHANGES.md.
func TestResultDigests(t *testing.T) {
	order, got := digestCases(t)
	path := filepath.Join("testdata", digestFile)
	if *updateDigests {
		var b strings.Builder
		for _, name := range order {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed digest line %q", sc.Text())
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, name := range order {
		w, ok := want[name]
		switch {
		case !ok:
			t.Errorf("%s: no recorded digest", name)
		case w != got[name]:
			t.Errorf("%s: digest %s, recorded %s", name, got[name], w)
		}
	}
	if len(want) != len(order) {
		t.Errorf("%d recorded digests, %d cases ran", len(want), len(order))
	}
}

// spillTestNIC is a minimal LNIC built to stress what the built-in profiles
// never exercise: packet memory with a 48-byte (non-power-of-two) line, and
// a cached spill region the cores have no edge to, so its misses price at
// the raw-latency fallback.
func spillTestNIC() *lnic.LNIC {
	return &lnic.LNIC{
		Name:     "spill-test",
		ClockGHz: 1,
		Units: []lnic.ComputeUnit{{
			ID: 0, Name: "core", Kind: lnic.UnitNPU, Threads: 4, HasFPU: true, LocalMem: -1,
			ClassCycles: map[cir.Class]float64{
				cir.ClassALU: 1, cir.ClassMul: 3, cir.ClassDiv: 20, cir.ClassFloat: 2, cir.ClassMem: 40,
			},
		}},
		Mems: []lnic.MemRegion{
			{ID: 0, Name: "pkt", Bytes: 64 << 10, Level: 0, LoadCycles: 40, StoreCycles: 45, LineBytes: 48},
			{ID: 1, Name: "far", Bytes: 1 << 20, Level: 1, LoadCycles: 300, StoreCycles: 350,
				CacheBytes: 16 << 10, CacheHitCycles: 90, LineBytes: 64},
		},
		Hubs:           []lnic.Hub{{ID: 0, Name: "tm", ServiceCycles: 10, QueueCap: 64}},
		CompMem:        []lnic.CompMemEdge{{Unit: 0, Mem: 0, ExtraCycles: 3}},
		PktMem:         0,
		PktSpillMem:    1,
		PktMemResident: 512,
		ParseCycles:    100,
		MetadataCycles: 3,
		HashCycles:     20,
	}
}
