package verify

import (
	"math/rand"
	"testing"
)

// TestEntryOutcomeSet drives an entry's outcome set through all three of
// its index forms — linear scan, per-(kind, retDst) cursor bitsets, and a
// map over more than smallSet groups (evidence controls a monitored
// return's destination, so hostile streams can make many) — and checks
// membership against a plain map after every insertion.
func TestEntryOutcomeSet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var a arena
	defer a.release()
	e := &entry{cursor: 40}
	ref := make(map[[3]uint64]bool)
	key := func(o *outcome) [3]uint64 {
		return [3]uint64{uint64(o.kind), uint64(o.retDst), uint64(o.cursor)}
	}
	for i := 0; i < 3000; i++ {
		o := outcome{
			kind:   exitKind(rng.Intn(3)),
			cursor: int32(e.cursor + rng.Intn(300)),
			callee: noOutcome,
			cont:   noOutcome,
		}
		if o.kind == exitRet {
			o.retDst = 0x200000 + 4*uint32(rng.Intn(24))
		}
		if got, want := e.has(&a, &o), ref[key(&o)]; got != want {
			t.Fatalf("insert %d (%d outcomes, %d groups): has(%+v) = %v, want %v", i, len(e.outs), len(e.groups), o, got, want)
		}
		if !ref[key(&o)] {
			ref[key(&o)] = true
			e.push(&a, a.alloc(o), &o)
		}
	}
	if len(e.outs) != len(ref) {
		t.Errorf("set holds %d outcomes, want %d", len(e.outs), len(ref))
	}
	if e.groupIdx == nil {
		t.Errorf("%d groups never built the group index", len(e.groups))
	}
}
