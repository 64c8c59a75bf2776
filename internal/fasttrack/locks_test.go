package fasttrack

import (
	"fmt"
	"testing"

	"oha/internal/interp"
	"oha/internal/ir"
	"oha/internal/lang"
	"oha/internal/sched"
	"oha/internal/vc"
)

// mapLocks is the reference the lock rows must equal: the detector
// with its lock clocks kept in one map keyed by address.
type mapLocks struct {
	*Detector
	locks map[interp.Addr]*vc.VC
}

func (m *mapLocks) Lock(t vc.TID, _ *ir.Instr, addr interp.Addr) {
	if lm := m.locks[addr]; lm != nil {
		m.clock(t).JoinWith(lm)
		m.refresh(t)
	}
}

func (m *mapLocks) Unlock(t vc.TID, _ *ir.Instr, addr interp.Addr) {
	ct := m.clock(t)
	lm := m.locks[addr]
	if lm == nil {
		lm = vc.New()
		m.locks[addr] = lm
	}
	lm.Assign(ct)
	ct.Tick(t)
	m.refresh(t)
}

// pinned is a globals offset the first lock clock's budget cannot
// reach, so its clock goes to the overflow map; the row grows past it
// once 18 more clocks exist.
const pinned = lockSlack + 36

// fabricatedLocksSrc locks pointers no allocation backs: the pinned
// offset, then offsets 3..19 and pinned+10 (which grow the globals'
// row past pinned), then objects and offsets rising geometrically up to
// an object index of about 2^31 and the last offset an object has. x
// is only ever written under the pinned lock, so a detector that lost
// its clock would report a race on x; y is written under two different
// locks and z under none.
var fabricatedLocksSrc = fmt.Sprintf(`
	global x = 0;
	global y = 0;
	global z = 0;
	func w(base) {
		lock(base + %[1]d); x = x + 1; unlock(base + %[1]d);
		var i = 3;
		while (i < 20) {
			lock(base + i); unlock(base + i);
			i = i + 1;
		}
		lock(base + %[1]d + 10); unlock(base + %[1]d + 10);
		var k = 1000;
		var j = 1;
		i = 0;
		while (i < 20) {
			k = 2 * k + 1000;
			j = 2 * j + 1;
			lock(base + k * 1048576); unlock(base + k * 1048576);
			lock(base + j); unlock(base + j);
			i = i + 1;
		}
		lock(base + %[1]d); x = x + 2; unlock(base + %[1]d);
		lock(base + k * 1048576); y = y + 1; unlock(base + k * 1048576);
		lock(base + 1); y = y + 1; unlock(base + 1);
		z = z + 1;
	}
	func main() {
		var t1 = spawn w(&x);
		var t2 = spawn w(&x);
		w(&x);
		join(t1);
		join(t2);
		print(x + y + z);
	}
`, pinned)

// TestFabricatedLockAddresses checks that locks on out-of-heap pointers
// neither size the lock rows after them nor change the analysis: races
// equal the map-based detector's under every schedule, the rows hold
// at most lockSlack + 4 slots per distinct locked address, the far
// addresses' clocks are in the overflow map, and the pinned one stays
// there once the row covers it.
func TestFabricatedLockAddresses(t *testing.T) {
	prog, err := lang.Compile(fabricatedLocksSrc)
	if err != nil {
		t.Fatal(err)
	}
	xAddr := interp.MakeAddr(interp.GlobalObj, 0)
	distinct := map[interp.Addr]bool{xAddr + pinned: true, xAddr + pinned + 10: true, xAddr + 1: true}
	for i := int64(3); i < 20; i++ {
		distinct[xAddr+interp.Addr(i)] = true
	}
	var far []interp.Addr
	for i, k, j := 0, int64(1000), int64(1); i < 20; i++ {
		k, j = 2*k+1000, 2*j+1
		distinct[xAddr+interp.Addr(k*interp.OffSpan)] = true
		distinct[xAddr+interp.Addr(j)] = true
		far = append(far, xAddr+interp.Addr(k*interp.OffSpan))
	}
	far = append(far, xAddr+pinned, xAddr+interp.OffSpan-1)

	raced := false
	for seed := uint64(1); seed <= 12; seed++ {
		run := func(tr interp.Tracer) {
			t.Helper()
			if _, err := interp.Run(interp.Config{
				Prog:    prog,
				Tracer:  tr,
				Choose:  sched.NewSeeded(seed),
				Quantum: 2,
				Masks:   interp.Masks{Block: make([]bool, len(prog.Blocks))},
			}); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		d := New()
		run(d)
		ref := &mapLocks{Detector: newDetector(), locks: map[interp.Addr]*vc.VC{}}
		run(ref)

		if got, want := fmt.Sprint(d.Races()), fmt.Sprint(ref.Races()); got != want {
			t.Fatalf("seed %d: races diverge from the map-based detector:\n rows: %s\n map:  %s", seed, got, want)
		}
		if got, want := fmt.Sprint(d.RacyAddrs()), fmt.Sprint(ref.RacyAddrs()); got != want {
			t.Fatalf("seed %d: racy addresses diverge: rows %s, map %s", seed, got, want)
		}
		for _, a := range d.RacyAddrs() {
			if a == xAddr {
				t.Fatalf("seed %d: race reported on x, which one lock guards throughout", seed)
			}
		}
		raced = raced || d.HasRaces()

		slots := len(d.locks)
		for _, row := range d.locks {
			slots += len(row)
		}
		if slots != d.lockSlots || d.lockClocks != len(distinct) {
			t.Fatalf("seed %d: lockSlots %d, lockClocks %d; rows hold %d slots for %d addresses", seed, d.lockSlots, d.lockClocks, slots, len(distinct))
		}
		if slots > lockSlack+4*len(distinct) {
			t.Fatalf("seed %d: lock rows hold %d slots for %d addresses", seed, slots, len(distinct))
		}
		if len(d.locks[0]) <= pinned {
			t.Fatalf("seed %d: the globals' row (%d slots) never grew past the pinned offset", seed, len(d.locks[0]))
		}
		for _, a := range far {
			if d.lockOv[a] == nil {
				t.Fatalf("seed %d: lock clock of %s is not in the overflow map", seed, interp.FormatValue(a))
			}
		}
		d.Release()
	}
	if !raced {
		t.Fatal("no schedule raced: the comparison proves nothing")
	}
}
