package verify

import "sync"

// outcome is one way a frame can complete from some state, plus the
// derivation links needed to materialize the witness path. Outcomes live
// in a summarizer's arena and link to each other by arena index (-1:
// none), so the arena holds no pointers for the GC to scan and its chunks
// can be recycled whole. 20 bytes.
type outcome struct {
	kind   exitKind
	branch uint8 // local branch taken at the producing node
	cursor int32 // evidence cursor after completion
	retDst uint32
	callee int32 // callee outcome (call nodes)
	cont   int32 // continuation outcome (-1: the node itself exits the frame)
}

// noOutcome is the null outcome link.
const noOutcome = -1

// arenaChunk is the number of outcomes per arena chunk (80 KiB).
const arenaChunk = 4096

type outcomeChunk [arenaChunk]outcome

// maxFreeChunks bounds the package-level free list of arena chunks. One
// ambiguous reconstruction (crc32's per-bit conditionals) fills about a
// thousand chunks; handing them back to the GC after every search made it
// absorb up to 80 MB of arena per reject and cost the gateway CPU and
// latency, while keeping them lets the next search reuse them. Kept
// chunks are resident memory, so the list is bounded: 1024 chunks pin at
// most 80 MiB of idle arena. (A sync.Pool would release them within two
// GC cycles.)
const maxFreeChunks = 1024

var freeChunks struct {
	sync.Mutex
	list []*outcomeChunk
}

// arena allocates outcomes in fixed chunks.
type arena struct {
	chunks []*outcomeChunk
	n      int32
}

func (a *arena) at(i int32) *outcome {
	return &a.chunks[i/arenaChunk][i%arenaChunk]
}

func (a *arena) alloc(o outcome) int32 {
	if int(a.n) == len(a.chunks)*arenaChunk {
		a.chunks = append(a.chunks, getChunk())
	}
	i := a.n
	*a.at(i) = o
	a.n++
	return i
}

// release returns the arena's chunks to the free list (up to its bound)
// and empties the arena. Outcomes must not be read afterwards.
func (a *arena) release() {
	freeChunks.Lock()
	for _, c := range a.chunks {
		if len(freeChunks.list) >= maxFreeChunks {
			break
		}
		freeChunks.list = append(freeChunks.list, c)
	}
	freeChunks.Unlock()
	a.chunks, a.n = nil, 0
}

// getChunk takes a recycled chunk, or allocates one. Recycled chunks are
// not cleared: alloc overwrites every outcome before it is read.
func getChunk() *outcomeChunk {
	freeChunks.Lock()
	defer freeChunks.Unlock()
	if n := len(freeChunks.list); n > 0 {
		c := freeChunks.list[n-1]
		freeChunks.list = freeChunks.list[:n-1]
		return c
	}
	return new(outcomeChunk)
}

// smallSet is the size up to which an entry's outcome and dependent sets
// are searched linearly instead of indexed.
const smallSet = 8

// outGroup indexes an entry's outcomes sharing (kind, retDst) by cursor.
// Bit i stands for cursor base+i, where base is the entry's own cursor: a
// frame's completions never precede the state it starts from.
type outGroup struct {
	kind   exitKind
	retDst uint32
	bits   []uint64
}

func (g *outGroup) has(i int) bool {
	return i/64 < len(g.bits) && g.bits[i/64]&(1<<(i%64)) != 0
}

func (g *outGroup) add(i int) {
	for len(g.bits) <= i/64 {
		g.bits = append(g.bits, 0)
	}
	g.bits[i/64] |= 1 << (i % 64)
}

// entryChunk is the allocation unit of memo entries; chunking keeps entry
// pointers stable while the memo grows under a live evaluation.
const entryChunk = 256

// entry is the memo cell for one nodeKey: the node's evaluation context,
// its outcome set (monotonically growing, in discovery order), and the
// reverse-dependency edges driving the worklist iteration.
type entry struct {
	outs []int32

	// groups index outs by (kind, retDst) once outs outgrows smallSet;
	// groupIdx indexes groups once they outgrow smallSet in turn.
	groups   []outGroup
	groupIdx map[uint64]int32

	// Evaluation context (all producers of the key share it).
	pc      uint32
	cursor  int
	loopCtx loopMap

	// deps are the entries whose outcomes were computed using this
	// entry's (possibly partial) set: they are re-evaluated when it grows.
	// Registration order matters: dirty marks must propagate
	// deterministically, or the evaluation order — and with it which
	// contradiction is reported as "first" — would vary run to run (the
	// differential conformance fuzzer catches this). depSet indexes deps
	// past smallSet entries.
	deps   []int32
	depSet map[int32]struct{}

	visiting bool
	queued   bool // in the dirty queue
}

// addDep registers d as a dependent, once.
func (e *entry) addDep(d int32) {
	if e.depSet != nil {
		if _, seen := e.depSet[d]; seen {
			return
		}
		e.depSet[d] = struct{}{}
		e.deps = append(e.deps, d)
		return
	}
	for _, x := range e.deps {
		if x == d {
			return
		}
	}
	e.deps = append(e.deps, d)
	if len(e.deps) > smallSet {
		e.depSet = make(map[int32]struct{}, 2*len(e.deps))
		for _, x := range e.deps {
			e.depSet[x] = struct{}{}
		}
	}
}

// group returns the index group for (kind, retDst), creating it when add
// is set (nil otherwise).
func (e *entry) group(kind exitKind, retDst uint32, add bool) *outGroup {
	gk := uint64(kind)<<32 | uint64(retDst)
	if e.groupIdx != nil {
		if i, ok := e.groupIdx[gk]; ok {
			return &e.groups[i]
		}
	} else {
		for i := range e.groups {
			if g := &e.groups[i]; g.kind == kind && g.retDst == retDst {
				return g
			}
		}
	}
	if !add {
		return nil
	}
	e.groups = append(e.groups, outGroup{kind: kind, retDst: retDst})
	if n := len(e.groups); e.groupIdx != nil {
		e.groupIdx[gk] = int32(n - 1)
	} else if n > smallSet {
		e.groupIdx = make(map[uint64]int32, 2*n)
		for i, g := range e.groups {
			e.groupIdx[uint64(g.kind)<<32|uint64(g.retDst)] = int32(i)
		}
	}
	return &e.groups[len(e.groups)-1]
}

// has reports whether an outcome equal to o in (kind, retDst, cursor) is
// already in the entry's set.
func (e *entry) has(a *arena, o *outcome) bool {
	if len(e.outs) <= smallSet {
		for _, x := range e.outs {
			if y := a.at(x); y.kind == o.kind && y.retDst == o.retDst && y.cursor == o.cursor {
				return true
			}
		}
		return false
	}
	g := e.group(o.kind, o.retDst, false)
	return g != nil && g.has(int(o.cursor)-e.cursor)
}

// push appends outcome id (value o) to the set, indexing the set once it
// outgrows the linear scan.
func (e *entry) push(a *arena, id int32, o *outcome) {
	e.outs = append(e.outs, id)
	switch n := len(e.outs); {
	case n == smallSet+1:
		for _, x := range e.outs {
			y := a.at(x)
			e.group(y.kind, y.retDst, true).add(int(y.cursor) - e.cursor)
		}
	case n > smallSet+1:
		e.group(o.kind, o.retDst, true).add(int(o.cursor) - e.cursor)
	}
}
