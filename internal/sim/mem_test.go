package sim

import (
	"encoding/binary"
	"runtime"
	"testing"

	"waferscale/internal/arch"
	"waferscale/internal/fault"
	"waferscale/internal/geom"
)

// materialised counts the allocated pages across every memory of m.
func materialised(m *Machine) int {
	n := 0
	count := func(mem *pagedMem) {
		for _, p := range mem.pages {
			if p != nil {
				n++
			}
		}
	}
	for _, t := range m.tiles {
		if t == nil {
			continue
		}
		for _, c := range t.Cores {
			count(&c.priv)
		}
		for b := range t.banks {
			count(&t.banks[b])
		}
	}
	for _, s := range m.shadow {
		count(s)
	}
	return n
}

// TestUntouchedMemoryReadsZero reads never-written private, local-bank
// and global words, through the host backdoors and through WS-ISA
// loads, and requires 0 without any page being materialised by a read.
func TestUntouchedMemoryReadsZero(t *testing.T) {
	cfg := smallConfig()
	m := newMachine(t, cfg, nil)
	at := geom.C(1, 1)
	remote := globalWindowAddr(cfg, geom.C(3, 2)) + 0x1_0000
	own := globalWindowAddr(cfg, at) + uint32(cfg.SharedMemPerTile()) - 4

	for _, addr := range []uint32{0x400, uint32(cfg.PrivateMemPerCore) - 4} {
		if v, err := m.ReadPrivate32(at, 2, addr); err != nil || v != 0 {
			t.Errorf("private %#x = %d, %v; want 0", addr, v, err)
		}
	}
	for _, addr := range []uint32{remote, own} {
		if v, err := m.ReadGlobal32(addr); err != nil || v != 0 {
			t.Errorf("global %#x = %d, %v; want 0", addr, v, err)
		}
	}
	if n := materialised(m); n != 0 {
		t.Fatalf("host reads materialised %d pages", n)
	}

	// Each load overwrites a register preset to 7.
	prog := mustAssemble(t, `
	    li   r2, 7
	    li   r4, 7
	    li   r6, 7
	    li   r8, 7
	    la   r1, `+hex(arch.LocalBankBase+0x2000)+`
	    lw   r2, 0(r1)
	    la   r3, `+hex(remote)+`
	    lw   r4, 0(r3)
	    la   r5, `+hex(own)+`
	    lw   r6, 0(r5)
	    la   r7, 0x3000
	    lw   r8, 0(r7)
	    halt
	`)
	if err := m.LoadProgram(at, 0, prog); err != nil {
		t.Fatal(err)
	}
	before := materialised(m) // the program's own page
	if err := m.Run(100_000); err != nil {
		t.Fatal(err)
	}
	c := m.Tile(at).Cores[0]
	if c.Err != nil {
		t.Fatal(c.Err)
	}
	for _, r := range []int{2, 4, 6, 8} {
		if c.Regs[r] != 0 {
			t.Errorf("r%d = %d after loading an untouched word, want 0", r, c.Regs[r])
		}
	}
	if after := materialised(m); after != before {
		t.Errorf("loads materialised %d pages", after-before)
	}
}

// TestForkMemoryIsolation writes to a fork and to its parent, into
// pages materialised before the fork and pages first touched after it,
// and requires neither write to show on the other side.
func TestForkMemoryIsolation(t *testing.T) {
	cfg := smallConfig()
	m := newMachine(t, cfg, nil)
	at := geom.C(2, 1)
	shared := globalWindowAddr(cfg, geom.C(0, 3)) + 0x40 // written before the fork
	fresh := globalWindowAddr(cfg, geom.C(1, 2)) + 0x8000
	if err := m.WriteGlobal32(shared, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.WritePrivate32(at, 1, 0x100, 1); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	f := m.Fork()

	mustWriteG := func(mm *Machine, addr, v uint32) {
		t.Helper()
		if err := mm.WriteGlobal32(addr, v); err != nil {
			t.Fatal(err)
		}
	}
	wantG := func(what string, mm *Machine, addr, want uint32) {
		t.Helper()
		if v, err := mm.ReadGlobal32(addr); err != nil || v != want {
			t.Errorf("%s: global %#x = %d, %v; want %d", what, addr, v, err, want)
		}
	}
	wantP := func(what string, mm *Machine, addr, want uint32) {
		t.Helper()
		if v, err := mm.ReadPrivate32(at, 1, addr); err != nil || v != want {
			t.Errorf("%s: private %#x = %d, %v; want %d", what, addr, v, err, want)
		}
	}

	mustWriteG(f, shared, 2)
	mustWriteG(f, fresh, 3)
	if err := f.WritePrivate32(at, 1, 0x100, 2); err != nil {
		t.Fatal(err)
	}
	if err := f.WritePrivate32(at, 1, 0x9000, 3); err != nil {
		t.Fatal(err)
	}
	wantG("parent after fork write", m, shared, 1)
	wantG("parent after fork write", m, fresh, 0)
	wantP("parent after fork write", m, 0x100, 1)
	wantP("parent after fork write", m, 0x9000, 0)

	mustWriteG(m, shared, 5)
	mustWriteG(m, fresh+4, 6)
	if err := m.WritePrivate32(at, 1, 0x100, 5); err != nil {
		t.Fatal(err)
	}
	wantG("fork after parent write", f, shared, 2)
	wantG("fork after parent write", f, fresh+4, 0)
	wantP("fork after parent write", f, 0x100, 2)

	// A snapshot is frozen at its capture point for every fork.
	g := snap.Fork()
	wantG("snapshot fork", g, shared, 1)
	wantG("snapshot fork", g, fresh, 0)
	wantP("snapshot fork", g, 0x100, 1)
}

// TestFullWaferMachineAllocation builds the full 32×32 default machine
// (14336 cores, 1.5 GiB of architectural SRAM) and bounds the host
// bytes allocated: untouched memory must cost no pages.
func TestFullWaferMachineAllocation(t *testing.T) {
	cfg := arch.DefaultConfig()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, err := NewMachine(cfg, fault.NewMap(cfg.Grid()))
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const limit = 64 << 20
	d := after.TotalAlloc - before.TotalAlloc
	t.Logf("NewMachine(%dx%d) allocated %.1f MiB", cfg.TilesX, cfg.TilesY, float64(d)/(1<<20))
	if d >= limit {
		t.Errorf("NewMachine(%dx%d) allocated %d MiB, want < %d MiB", cfg.TilesX, cfg.TilesY, d>>20, limit>>20)
	}
	runtime.KeepAlive(m)
}

// TestPagedMemFetchUnaligned pins instruction fetch at any byte offset
// to little-endian byte-array semantics, across a page boundary too.
func TestPagedMemFetchUnaligned(t *testing.T) {
	mem := newPagedMem(2 * pageBytes)
	ref := make([]byte, 2*pageBytes)
	for i, off := range []uint32{0, 4, pageBytes - 4, pageBytes, pageBytes + 8} {
		v := 0x01020304 * uint32(i+1)
		mem.store32(off, v)
		binary.LittleEndian.PutUint32(ref[off:], v)
	}
	for off := uint32(0); off+4 <= 2*pageBytes; off++ {
		if got, want := mem.fetch32(off), binary.LittleEndian.Uint32(ref[off:]); got != want {
			t.Fatalf("fetch32(%#x) = %#x, want %#x", off, got, want)
		}
	}
}
