package verify

import (
	"fmt"

	"raptrack/internal/cfg"
	"raptrack/internal/isa"
	"raptrack/internal/trace"
)

// exitKind classifies how a frame walk terminates.
type exitKind uint8

const (
	exitLeaf exitKind = iota // deterministic BX LR: returns to the caller's site
	exitRet                  // monitored return: consumed a packet carrying retDst
	exitHalt                 // HLT reached (program over)
)

// Branch identifiers.
const (
	brExit     = 0 // cond not-taken / guard exit-taken / frame exit
	brConsume  = 1 // cond taken / guard continue
	brCall     = 2
	brCallHalt = 3
)

// loopMap is the frame-local optimized-loop state: controlling-branch
// address -> remaining continue count. Copied on write, so a snapshot is
// never mutated after it escapes — cached segment summaries may share
// their maps across sessions.
type loopMap map[uint32]uint64

func (l loopMap) clone() loopMap {
	c := make(loopMap, len(l)+1)
	for k, v := range l {
		c[k] = v
	}
	return c
}

func (l loopMap) hash() uint64 {
	var h uint64
	for k, v := range l {
		h += (uint64(k)*1099511628211 ^ v) * 1099511628211
	}
	return h
}

// nodeKey identifies a memoized decision state.
type nodeKey struct {
	pc     uint32
	cursor int
	lhash  uint64
}

// summarizer runs the fixed-point search as a worklist-driven chaotic
// iteration: nodes are evaluated once on discovery; when an entry's
// outcome set grows, the nodes that read it are marked dirty and
// re-evaluated. Outcome sets only grow, so the iteration converges.
type summarizer struct {
	v       *Verifier
	packets []trace.Packet

	outs      arena                // every outcome of the search
	entries   []*[entryChunk]entry // memo cells, by entry id
	nEntries  int32
	memo      map[nodeKey]int32 // node -> entry id
	advMemo   map[nodeKey]advMemo
	exits     []int32 // frame-exit outcome ids, handed out as one-element views
	evalStack []int32 // entry ids under evaluation
	dirty     []int32 // FIFO of entry ids awaiting re-evaluation
	dirtyHead int
	evals     uint64

	work    uint64
	aborted bool

	firstCode   ReasonCode
	firstReason string
	firstPC     uint32
	attackNoted bool

	cache *Cache     // shared cross-session segment cache (nil = off)
	rec   *segRecord // active segment recording (nil outside cache misses)

	segCap    uint64 // max instructions per deterministic segment
	emitLoops uint64 // loop trip counts applied during witness emission
	debug     bool   // verbose search diagnostics (WithDebug)
}

// segRecord tracks the evidence extent one recorded advance peeked, so
// the resulting summary can be keyed on exactly that window.
type segRecord struct {
	start int // entry cursor
	end   int // one past the last peeked in-stream position
	eos   bool
	note  *noteRec
}

func (s *summarizer) note(code ReasonCode, pc uint32, format string, args ...any) {
	if s.debug {
		fmt.Printf("note(eval %d): pc=%#x: %s\n", s.evals, pc, fmt.Sprintf(format, args...))
	}
	if r := s.rec; r != nil && r.note == nil {
		r.note = &noteRec{pc: pc, code: code, msg: fmt.Sprintf(format, args...)}
	}
	if s.firstReason == "" {
		s.firstCode = code
		s.firstReason = fmt.Sprintf(format, args...)
		s.firstPC = pc
	}
}

// noteAttack records a policy violation (ROP/JOP/escape). These are the
// actionable diagnostics, so they take precedence over generic
// missing-evidence notes from abandoned search branches.
func (s *summarizer) noteAttack(code ReasonCode, pc uint32, format string, args ...any) {
	if s.debug {
		fmt.Printf("ATTACK(eval %d): pc=%#x: %s\n", s.evals, pc, fmt.Sprintf(format, args...))
	}
	if r := s.rec; r != nil && r.note == nil {
		r.note = &noteRec{pc: pc, code: code, msg: fmt.Sprintf(format, args...), attack: true}
	}
	if s.firstReason == "" || !s.attackNoted {
		s.firstCode = code
		s.firstReason = fmt.Sprintf(format, args...)
		s.firstPC = pc
		s.attackNoted = true
	}
}

func (s *summarizer) budget(n uint64) bool {
	s.work += n
	if s.work > s.v.opts.maxInstrs {
		s.aborted = true
		return false
	}
	return true
}

// advKind classifies where a deterministic segment ended.
type advKind uint8

const (
	advNode  advKind = iota // a branching/calling node: pc holds it
	advExit                 // the frame completed (exit filled in)
	advPrune                // contradiction: no outcomes through here
)

// advState is the result of advancing a deterministic segment.
type advState struct {
	kind    advKind
	pc      uint32
	cursor  int
	loopCtx loopMap
	exit    struct {
		kind   exitKind
		cursor int
		retDst uint32
		pc     uint32 // address of the exiting instruction
	}
}

// advMemo is one memoized deterministic advance. An advExit segment's
// frame-exit outcome is allocated once, with the memo entry: it carries
// no derivation, so every walk reaching the segment shares it.
type advMemo struct {
	st   advState
	exit int32 // index into summarizer.exits (advExit only)
}

// advance walks deterministic steps (plain instructions, direct branches,
// optimized-loop conditionals and loop-condition SECALLs, indirect jumps
// and monitored returns — all evidence-forced) until a branching node, a
// frame exit, or a contradiction. When emit is non-nil the traversed
// transfers are reported (witness materialization).
func (s *summarizer) advance(pc uint32, cursor int, loopCtx loopMap, emit func(Edge)) advState {
	v := s.v
	img := v.link.Image
	var steps uint64
	for {
		steps++
		if steps > s.segCap || !s.budget(1) {
			if steps > s.segCap {
				s.note(ReasonMalformedEvidence, pc, "deterministic segment does not terminate (infinite loop at %#x)", pc)
			}
			return advState{kind: advPrune}
		}
		ins, ok := img.Code[pc]
		if !ok {
			s.note(ReasonMalformedEvidence, pc, "reconstructed path leaves program code at %#x", pc)
			return advState{kind: advPrune}
		}
		next := pc + ins.Size()

		// Branching nodes and calls are handled by walkNode.
		if site, isSite := v.link.Sites[pc]; isSite {
			switch site.Class {
			case cfg.ClassCondNonLoop, cfg.ClassCondLoopBack, cfg.ClassCondLoopFwd, cfg.ClassIndirectCall:
				return advState{kind: advNode, pc: pc, cursor: cursor, loopCtx: loopCtx}
			case cfg.ClassReturn:
				p, have := s.peek(cursor)
				if !have || p.Src != site.RecordAddr {
					s.note(ReasonMissingEvidence, pc, "missing return evidence for site %#x", pc)
					return advState{kind: advPrune}
				}
				if emit != nil {
					emit(Edge{Src: pc, Dst: p.Dst, Kind: isa.KindReturn})
				}
				st := advState{kind: advExit}
				st.exit.kind = exitRet
				st.exit.cursor = cursor + 1
				st.exit.retDst = p.Dst
				st.exit.pc = pc
				return st
			case cfg.ClassIndirectJump:
				p, have := s.peek(cursor)
				if !have || p.Src != site.RecordAddr {
					s.note(ReasonMissingEvidence, pc, "missing indirect-jump evidence for site %#x", pc)
					return advState{kind: advPrune}
				}
				fr, okr := img.FuncRanges[site.Func]
				if !okr || !inRange(fr, p.Dst) {
					s.noteAttack(ReasonEscape, pc, "indirect jump to %#x escapes function %q", p.Dst, site.Func)
					return advState{kind: advPrune}
				}
				if _, isInstr := img.Code[p.Dst]; !isInstr {
					s.noteAttack(ReasonEscape, pc, "indirect jump to %#x, which is not an instruction", p.Dst)
					return advState{kind: advPrune}
				}
				if emit != nil {
					emit(Edge{Src: pc, Dst: p.Dst, Kind: isa.KindIndirectJump})
				}
				pc = p.Dst
				cursor++
				steps = 0 // evidence consumed: the segment is productive
				continue
			}
		}
		if _, isGuard := v.link.Guards[pc]; isGuard {
			return advState{kind: advNode, pc: pc, cursor: cursor, loopCtx: loopCtx}
		}
		if ls, isLoopCond := v.link.LoopConds[pc]; isLoopCond {
			rem, have := loopCtx[pc]
			if !have {
				if !ls.Loop.Static {
					s.note(ReasonMissingEvidence, pc, "optimized loop branch at %#x reached without a logged loop condition", pc)
					return advState{kind: advPrune}
				}
				// Static loop: the trip count is derived from the
				// compile-time entry value; reaching the branch without a
				// context means a fresh loop entry.
				trips, err := ls.Loop.TripCount(uint32(ls.Loop.EntryValue))
				if err != nil {
					s.note(ReasonMalformedEvidence, pc, "static loop trip count: %v", err)
					return advState{kind: advPrune}
				}
				rem = trips
				loopCtx = loopCtx.clone()
				loopCtx[pc] = rem
				if emit != nil {
					s.emitLoops++
				}
			}
			taken := false
			loopCtx = loopCtx.clone()
			if ls.Loop.Forward {
				if rem == 0 {
					taken = true
					delete(loopCtx, pc)
				} else {
					loopCtx[pc] = rem - 1
				}
			} else {
				if rem > 0 {
					taken = true
					loopCtx[pc] = rem - 1
				} else {
					delete(loopCtx, pc)
				}
			}
			if taken {
				if emit != nil {
					emit(Edge{Src: pc, Dst: ins.Target, Kind: isa.KindCond})
				}
				pc = ins.Target
			} else {
				pc = next
			}
			steps = 0 // loop state advanced: the segment is productive
			continue
		}
		if ls, isLoop := v.link.Loops[pc]; isLoop {
			p, have := s.peek(cursor)
			if !have || p.Src != pc {
				s.note(ReasonMissingEvidence, pc, "missing loop-condition evidence for optimized loop at %#x", pc)
				return advState{kind: advPrune}
			}
			trips, err := ls.Loop.TripCount(p.Dst)
			if err != nil {
				s.note(ReasonMalformedEvidence, pc, "loop-condition evidence invalid: %v", err)
				return advState{kind: advPrune}
			}
			loopCtx = loopCtx.clone()
			loopCtx[ls.CondAddr] = trips
			if emit != nil {
				s.emitLoops++
			}
			cursor++
			steps = 0 // evidence consumed: the segment is productive
			pc = next
			continue
		}

		switch ins.Kind() {
		case isa.KindNone:
			pc = next
		case isa.KindDirect:
			if emit != nil {
				emit(Edge{Src: pc, Dst: ins.Target, Kind: isa.KindDirect})
			}
			pc = ins.Target
		case isa.KindCall:
			return advState{kind: advNode, pc: pc, cursor: cursor, loopCtx: loopCtx}
		case isa.KindReturn:
			// Deterministic leaf return. The destination is only known to
			// the caller, which emits the edge (witness materialization).
			st := advState{kind: advExit}
			st.exit.kind = exitLeaf
			st.exit.cursor = cursor
			st.exit.pc = pc
			return st
		case isa.KindHalt:
			st := advState{kind: advExit}
			st.exit.kind = exitHalt
			st.exit.cursor = cursor
			st.exit.pc = pc
			return st
		case isa.KindSecureCall:
			s.note(ReasonMalformedEvidence, pc, "unexpected secure call in attested code at %#x", pc)
			return advState{kind: advPrune}
		default:
			s.note(ReasonBadImage, pc, "unlinked non-deterministic branch (%s) in golden image at %#x", ins.Kind(), pc)
			return advState{kind: advPrune}
		}
	}
}

func (s *summarizer) peek(cursor int) (trace.Packet, bool) {
	if r := s.rec; r != nil {
		if cursor < len(s.packets) {
			if cursor+1 > r.end {
				r.end = cursor + 1
			}
		} else {
			// The walk observed end-of-stream: the summary only applies
			// where the stream ends at the same relative position.
			r.eos = true
		}
	}
	if cursor < len(s.packets) {
		return s.packets[cursor], true
	}
	return trace.Packet{}, false
}

// walkState advances from (pc, cursor, loopCtx) and returns the frame
// outcomes from there. Deterministic advances are memoized per session
// (worklist re-evaluations would otherwise re-walk the same segments) and,
// when a shared cache is attached, across sessions as relocatable segment
// summaries. The returned list is read-only and may be a live entry's
// growing set: callers range over the snapshot they were handed.
func (s *summarizer) walkState(pc uint32, cursor int, loopCtx loopMap) []int32 {
	k := nodeKey{pc: pc, cursor: cursor, lhash: loopCtx.hash()}
	m, ok := s.advMemo[k]
	if !ok {
		st, hit := s.cachedAdvance(pc, cursor, loopCtx)
		if !hit {
			st = s.recordedAdvance(pc, cursor, loopCtx)
		}
		m = advMemo{st: st}
		if st.kind == advExit {
			m.exit = int32(len(s.exits))
			s.exits = append(s.exits, s.outs.alloc(outcome{
				kind: st.exit.kind, cursor: int32(st.exit.cursor), retDst: st.exit.retDst,
				callee: noOutcome, cont: noOutcome,
			}))
		}
		s.advMemo[k] = m
	}
	switch m.st.kind {
	case advPrune:
		return nil
	case advExit:
		return s.exits[m.exit : m.exit+1 : m.exit+1]
	}
	return s.walkNode(m.st.pc, m.st.cursor, m.st.loopCtx)
}

// cachedAdvance consults the shared cross-session segment cache. On a hit
// the stored note (if any) is replayed through the normal diagnostic
// precedence, and the summary's relative cursors are rebased to cursor.
func (s *summarizer) cachedAdvance(pc uint32, cursor int, loopCtx loopMap) (advState, bool) {
	if s.cache == nil {
		return advState{}, false
	}
	sg, ok := s.cache.lookupSegment(s.v.hmem, pc, loopCtx, s.packets, cursor)
	if !ok {
		return advState{}, false
	}
	if n := sg.note; n != nil {
		if n.attack {
			s.noteAttack(n.code, n.pc, "%s", n.msg)
		} else {
			s.note(n.code, n.pc, "%s", n.msg)
		}
	}
	st := sg.res
	switch st.kind {
	case advNode:
		st.cursor += cursor
	case advExit:
		st.exit.cursor += cursor
	}
	return st, true
}

// recordedAdvance runs advance with window recording and publishes the
// resulting summary to the shared cache (unless the walk was cut short by
// the work budget, which is a Verifier-local limit, not a property of the
// evidence).
func (s *summarizer) recordedAdvance(pc uint32, cursor int, loopCtx loopMap) advState {
	if s.cache == nil {
		return s.advance(pc, cursor, loopCtx, nil)
	}
	rec := &segRecord{start: cursor, end: cursor}
	s.rec = rec
	st := s.advance(pc, cursor, loopCtx, nil)
	s.rec = nil
	if s.aborted {
		return st
	}
	sg := &segSummary{
		pc:      pc,
		loopCtx: loopCtx,
		win:     append([]trace.Packet(nil), s.packets[rec.start:rec.end]...),
		eos:     rec.eos,
		res:     st,
		note:    rec.note,
	}
	switch st.kind {
	case advNode:
		sg.res.cursor -= cursor
	case advExit:
		sg.res.exit.cursor -= cursor
	}
	s.cache.storeSegment(s.v.hmem, sg)
	return st
}

// walkNode returns the memoized outcomes of a branching/calling node,
// evaluating it on first discovery and recording a reverse-dependency
// edge from the node currently being evaluated.
func (s *summarizer) walkNode(pc uint32, cursor int, loopCtx loopMap) []int32 {
	key := nodeKey{pc: pc, cursor: cursor, lhash: loopCtx.hash()}
	id, ok := s.memo[key]
	if !ok {
		id = s.newEntry(pc, cursor, loopCtx)
		s.memo[key] = id
		s.evaluate(id)
	}
	e := s.entry(id)
	if n := len(s.evalStack); n > 0 {
		e.addDep(s.evalStack[n-1])
	}
	return e.outs
}

// entry returns the memo cell for an entry id.
func (s *summarizer) entry(id int32) *entry {
	return &s.entries[id/entryChunk][id%entryChunk]
}

// newEntry allocates a memo cell for the node (pc, cursor, loopCtx).
func (s *summarizer) newEntry(pc uint32, cursor int, loopCtx loopMap) int32 {
	if int(s.nEntries) == len(s.entries)*entryChunk {
		s.entries = append(s.entries, new([entryChunk]entry))
	}
	id := s.nEntries
	s.nEntries++
	*s.entry(id) = entry{pc: pc, cursor: cursor, loopCtx: loopCtx}
	return id
}

// markDirty queues an entry for re-evaluation.
func (s *summarizer) markDirty(id int32) {
	if e := s.entry(id); !e.queued {
		e.queued = true
		s.dirty = append(s.dirty, id)
	}
}

// extend wraps continuation outcomes with entry id's derivation (the local
// branch taken and, at call nodes, the callee outcome), adding only
// outcomes not already in its set. Growth marks the entry's dependents
// dirty.
func (s *summarizer) extend(id int32, branch uint8, callee int32, conts []int32) {
	e := s.entry(id)
	for _, c := range conts {
		co := s.outs.at(c)
		if e.has(&s.outs, co) {
			continue
		}
		o := outcome{kind: co.kind, branch: branch, cursor: co.cursor, retDst: co.retDst, callee: callee, cont: c}
		e.push(&s.outs, s.outs.alloc(o), &o)
		for _, d := range e.deps {
			s.markDirty(d)
		}
	}
}

// evaluate (re)computes one node's outcomes from its stored context.
// Growth propagates to dependents through the dirty queue.
func (s *summarizer) evaluate(id int32) {
	e := s.entry(id)
	if e.visiting || s.aborted {
		return
	}
	e.visiting = true
	s.evalStack = append(s.evalStack, id)
	s.evals++
	pc, cursor, loopCtx := e.pc, e.cursor, e.loopCtx

	v := s.v
	img := v.link.Image
	ins := img.Code[pc]
	next := pc + ins.Size()

	if site, isSite := v.link.Sites[pc]; isSite {
		switch site.Class {
		case cfg.ClassCondNonLoop, cfg.ClassCondLoopBack:
			// Not-taken: always structurally possible.
			s.extend(id, brExit, noOutcome, s.walkState(next, cursor, loopCtx))
			// Taken: gated on matching evidence.
			if p, have := s.peek(cursor); have && p.Src == site.RecordAddr {
				if p.Dst == site.StaticTarget {
					s.extend(id, brConsume, noOutcome, s.walkState(site.StaticTarget, cursor+1, loopCtx))
				} else {
					s.note(ReasonMalformedEvidence, pc, "conditional evidence destination %#x != static target %#x", p.Dst, site.StaticTarget)
				}
			}
		case cfg.ClassCondLoopFwd:
			// pc is the inserted continue-logging B: must consume.
			p, have := s.peek(cursor)
			if !have || p.Src != site.RecordAddr {
				s.note(ReasonMissingEvidence, pc, "missing loop-continue evidence for site %#x", pc)
			} else if p.Dst != site.StaticTarget {
				s.note(ReasonMalformedEvidence, pc, "loop-continue evidence destination %#x != static target %#x", p.Dst, site.StaticTarget)
			} else {
				s.extend(id, brConsume, noOutcome, s.walkState(site.StaticTarget, cursor+1, loopCtx))
			}
		case cfg.ClassIndirectCall:
			p, have := s.peek(cursor)
			if !have || p.Src != site.RecordAddr {
				s.note(ReasonMissingEvidence, pc, "missing indirect-call evidence for site %#x", pc)
			} else if !v.entries[p.Dst] {
				s.noteAttack(ReasonJOP, pc, "indirect call to %#x, which is not a function entry (JOP)", p.Dst)
			} else {
				s.call(id, pc, next, p.Dst, cursor+1, loopCtx)
			}
		}
	} else if _, isGuard := v.link.Guards[pc]; isGuard {
		stub := v.link.Guards[pc]
		// Exit taken: no evidence consumed.
		s.extend(id, brExit, noOutcome, s.walkState(ins.Target, cursor, loopCtx))
		// Continue: falls into the logging B (which consumes); gated.
		if p, have := s.peek(cursor); have && p.Src == stub.RecordAddr {
			s.extend(id, brConsume, noOutcome, s.walkState(next, cursor, loopCtx))
		}
	} else if ins.Kind() == isa.KindCall {
		s.call(id, pc, next, ins.Target, cursor, loopCtx)
	} else {
		s.note(ReasonUnexplained, pc, "internal: evaluate at non-node %#x", pc)
	}

	s.evalStack = s.evalStack[:len(s.evalStack)-1]
	e.visiting = false
}

// call evaluates a call node: callee outcomes compose with continuations.
func (s *summarizer) call(id int32, pc, retSite, callee uint32, cursor int, loopCtx loopMap) {
	couts := s.walkState(callee, cursor, nil)
	for _, c := range couts {
		co := *s.outs.at(c)
		switch co.kind {
		case exitHalt:
			// The program ended inside the callee. The halt outcome is its
			// own continuation: it carries exactly the value (halt, cursor)
			// the frame completes with, and emitFrame stops at brCallHalt.
			s.extend(id, brCallHalt, c, []int32{c})
		case exitLeaf:
			s.extend(id, brCall, c, s.walkState(retSite, int(co.cursor), loopCtx))
		case exitRet:
			if co.retDst == retSite {
				s.extend(id, brCall, c, s.walkState(retSite, int(co.cursor), loopCtx))
			} else {
				s.noteAttack(ReasonROP, pc, "return destination %#x != call-site successor %#x (ROP)", co.retDst, retSite)
			}
		}
	}
}

// newSummarizer prepares the search state for one reconstruction; release
// it when done.
func (v *Verifier) newSummarizer(packets []trace.Packet, cache *Cache) *summarizer {
	return &summarizer{
		v:       v,
		packets: packets,
		memo:    make(map[nodeKey]int32),
		advMemo: make(map[nodeKey]advMemo),
		cache:   cache,
		segCap:  uint64(len(v.link.Image.Code)) + 16,
		debug:   v.opts.debug,
	}
}

// release hands the outcome arena back for reuse by later searches.
func (s *summarizer) release() { s.outs.release() }

// solve seeds the graph at the entry point and drains the dirty queue to
// the fixed point (or the work budget).
func (s *summarizer) solve(entryPC uint32) {
	s.walkState(entryPC, 0, nil)
	for s.dirtyHead < len(s.dirty) && !s.aborted {
		id := s.dirty[s.dirtyHead]
		s.dirtyHead++
		if s.dirtyHead == len(s.dirty) {
			s.dirty, s.dirtyHead = s.dirty[:0], 0
		}
		s.entry(id).queued = false
		s.evaluate(id)
	}
}

// reconstruct runs the worklist fixed-point search over packets and, on
// acceptance, materializes the witness path.
func (v *Verifier) reconstruct(packets []trace.Packet) *Verdict {
	img := v.link.Image
	entryPC, err := img.EntryAddr()
	if err != nil {
		return &Verdict{OK: false, Code: ReasonBadImage, Detail: fmt.Sprintf("golden image has no entry: %v", err), Packets: len(packets)}
	}
	s := v.newSummarizer(packets, v.opts.cache)
	defer s.release()

	fail := func(code ReasonCode, detail string, pc uint32) *Verdict {
		return &Verdict{
			OK: false, Code: code, Detail: detail, FailPC: pc,
			Packets: len(packets), Instrs: s.work, Passes: int(s.evals),
		}
	}

	s.solve(entryPC)
	if s.aborted {
		return fail(ReasonWorkBudget, fmt.Sprintf("verification exceeded the %d-instruction work budget", v.opts.maxInstrs), 0)
	}

	for _, id := range s.walkState(entryPC, 0, nil) {
		o := s.outs.at(id)
		if int(o.cursor) != len(packets) {
			continue
		}
		switch o.kind {
		case exitHalt, exitLeaf:
			return s.materialize(entryPC, id)
		case exitRet:
			if o.retDst == retToHaltSentinel {
				return s.materialize(entryPC, id)
			}
		}
	}
	code, detail := ReasonUnexplained, "no benign path explains the evidence"
	if s.firstReason != "" {
		code = s.firstCode
		detail = "no benign path explains the evidence; first contradiction: " + s.firstReason
	}
	return fail(code, detail, s.firstPC)
}
