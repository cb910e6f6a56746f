package nicsim

import (
	"testing"

	"clara/internal/lnic"
	"clara/internal/nf"
	"clara/internal/workload"
)

// refMissCycles is the miss price memAccess charges, derived straight from
// the LNIC: AccessCycles with its NUMA edge, or the raw latency when no edge
// reaches the region.
func refMissCycles(nic *lnic.LNIC, unit, region int, store bool) float64 {
	c, ok := nic.AccessCycles(unit, region, store)
	if !ok {
		c = nic.Mems[region].LoadCycles
		if store {
			c = nic.Mems[region].StoreCycles
		}
	}
	return c
}

// refPayloadRead is payloadRead with every topology value re-read from the
// LNIC on every byte: the base-address rotation, the resident/spill split,
// the spill wrap, the line division and the miss price. It must charge
// exactly what payloadRead charges.
func refPayloadRead(e *exec, i int) {
	nic := e.s.nic
	off := len(e.wire) - len(e.pkt.Payload) + i
	region := nic.PktMem
	span := uint64(nic.Mems[nic.PktMem].Bytes)
	if span < 4096 {
		span = 4096
	}
	addr := (uint64(e.pktIndex)*2048)%(span-2048) + uint64(off)
	if off >= nic.PktMemResident {
		region = nic.PktSpillMem
		addr = (uint64(e.pktIndex)*4096 + uint64(off)) % uint64(nic.Mems[region].Bytes)
	}
	lineBytes := nic.Mems[region].LineBytes
	if lineBytes <= 0 {
		lineBytes = 64
	}
	line := int64(region)<<56 | int64(addr)/int64(lineBytes)
	if line == e.lastLine {
		e.now++
		e.bd.Compute++
		return
	}
	e.lastLine = line
	var c float64
	if ca := e.s.caches[region]; ca != nil && ca.access(addr) {
		c = nic.Mems[region].CacheHitCycles
	} else {
		c = refMissCycles(nic, e.s.npuUnit, region, false)
	}
	e.bd.Mem += c
	e.now += c
}

// TestMissCyclesMatchAccessCycles checks the miss-price table NewContext
// builds against AccessCycles (or its unreachable-region fallback), region
// by region, for loads and stores, on every built-in target and on the
// synthetic spill NIC.
func TestMissCyclesMatchAccessCycles(t *testing.T) {
	nics := map[string]*lnic.LNIC{"spill-test": spillTestNIC()}
	for name, build := range lnic.Profiles() {
		nics[name] = build()
	}
	prog := nf.All()["dpi"].MustCompile()
	fallbacks := 0
	for name, nic := range nics {
		s, err := New(Config{NIC: nic, Prog: prog, Place: DefaultPlacement(nic, prog)})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(s.missCycles) != len(nic.Mems) {
			t.Fatalf("%s: %d table rows for %d regions", name, len(s.missCycles), len(nic.Mems))
		}
		for r := range nic.Mems {
			if _, ok := nic.AccessCycles(s.npuUnit, r, false); !ok {
				fallbacks++
			}
			for st, store := range []bool{false, true} {
				if got, want := s.missCycles[r][st], refMissCycles(nic, s.npuUnit, r, store); got != want {
					t.Errorf("%s region %s store=%v: table %v, AccessCycles %v",
						name, nic.Mems[r].Name, store, got, want)
				}
			}
		}
	}
	if fallbacks == 0 {
		t.Fatal("no unreachable region exercised the fallback price")
	}
}

// TestPayloadReadAcrossSpillBoundary replays packets whose payload crosses
// the resident/spill boundary of the synthetic spill NIC byte by byte, once
// through payloadRead and once through refPayloadRead on an identically
// built Sim, and requires the packet's clock, breakdown and streaming line
// to agree after every byte. Base addresses rotate with the packet index,
// so the packets run at scattered indices. Whole runs on the same NIC are
// pinned by the spill-test rows of TestResultDigests.
func TestPayloadReadAcrossSpillBoundary(t *testing.T) {
	nic := spillTestNIC()
	if newLineSize(nic.Mems[nic.PktMem].LineBytes).shift >= 0 {
		t.Fatal("packet-memory line must not be a power of two")
	}
	prog := nf.All()["dpi"].MustCompile()
	cfg := Config{NIC: nic, Prog: prog, Place: DefaultPlacement(nic, prog), Seed: 5}
	got, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := workload.DefaultProfile()
	p.Packets = 24
	p.Flows = 8
	p.PayloadBytes = 900
	p.PayloadJitter = 300
	tr, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	decoded, bad := tr.Decoded()
	spilled := 0
	for i := range tr.Packets {
		if bad[i] {
			continue
		}
		g := (i % 6) * 977 // repeat indices so spilled lines also hit in cache
		wire := tr.Packets[i].Data
		eg, ew := &exec{s: got}, &exec{s: want}
		eg.reset(wire, g)
		ew.reset(wire, g)
		eg.pkt, ew.pkt = &decoded[i], &decoded[i]
		hdr := len(wire) - len(eg.pkt.Payload)
		for j := range eg.pkt.Payload {
			if hdr+j >= nic.PktMemResident {
				spilled++
			}
			eg.payloadRead(j)
			refPayloadRead(ew, j)
			if eg.now != ew.now || eg.bd != ew.bd || eg.lastLine != ew.lastLine {
				t.Fatalf("packet %d byte %d: now %v bd %+v line %d, want now %v bd %+v line %d",
					i, j, eg.now, eg.bd, eg.lastLine, ew.now, ew.bd, ew.lastLine)
			}
		}
	}
	if spilled == 0 {
		t.Fatal("no payload byte crossed into the spill region")
	}
	c := want.caches[nic.PktSpillMem]
	if c.hits == 0 || c.misses == 0 {
		t.Fatalf("spill cache saw %d hits, %d misses; want both", c.hits, c.misses)
	}
}
