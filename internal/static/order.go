package static

// Static event-order engine: a whole-program must-happens-before
// relation between the use/free sites EnumeratePairs emits, computed
// from the event topology the call graph already exposes — handler
// posts (send/send-front), thread fork/join, blocking RPC, listener
// registration, and program order within a handler.
//
// The engine reasons about *static events*: methods the runtime enters
// asynchronously (thread bodies, injected events, posted handlers).
// Nodes of the order graph are begin(E)/end(E) per event method plus
// the intrinsic call sites inside event methods; an edge means "every
// dynamic occurrence of the source precedes every dynamic occurrence
// of the target". That all-pairs reading is what makes the relation a
// *must*-order, and it is why almost every rule
// requires the participating events to run **exactly once**: a method
// entered twice has interleaving instances and nothing all-pairs can
// be said about its sites.
//
// Multiplicity is decidable only in a closed world. Roots supplies the
// entry-point inventory (how many times the harness enters each method
// directly); a method's activation count is then roots plus the
// statically visible posting edges. With Roots == nil the world is
// open, every multiplicity is unbounded, and the engine computes
// nothing — the conservative bottom the closed-world caveat requires:
// the pass can refine answers but never invent ordering where entry
// points are unknown.
//
// The relation uses every rule and feeds cafa-lint's static-ordered
// verdict — a claim about real executions. Each order also records its
// strength: DynSound when the derivation avoids the rules the dynamic
// HB model does not mirror on every recorded trace — listener edges
// (uninstrumented listener ids emit no register/perform trace entries)
// and FIFO edges (adversarial replay may inflate send delays past the
// static constants). An order derivable from the remaining rules —
// post, fork/join, rpc, program order — is HB-ordered in every trace
// of the program; the analysis tests check exactly that against the
// dynamic model. The detector itself takes ordering from hb alone.

import (
	"fmt"

	"cafa/internal/cfg"
	"cafa/internal/detect"
	"cafa/internal/dvm"
	"cafa/internal/trace"
)

// Options configures the static layer's optional inputs.
type Options struct {
	// Roots counts direct runtime entries per method (thread bodies,
	// injected events) — the closed-world inventory the event-order
	// pass needs. nil leaves the world open: no orders are computed.
	Roots map[trace.MethodID]int
}

// RootsFromNames converts a name-keyed entry inventory (sim.System's
// Roots) to the method-ID keying the static layer uses. Names the
// program does not define are dropped.
func RootsFromNames(p *dvm.Program, names map[string]int) map[trace.MethodID]int {
	out := make(map[trace.MethodID]int, len(names))
	for name, n := range names {
		if i, ok := p.MethodIndex(name); ok {
			out[p.Methods[i].ID] += n
		}
	}
	return out
}

// OrderInfo is one derived must-order between a pair's sites.
type OrderInfo struct {
	// UseBeforeFree is the direction: true means every use occurrence
	// precedes every free occurrence.
	UseBeforeFree bool
	// DynSound: the derivation used only rules mirrored by dynamic HB
	// on every recorded trace, so every trace of the program orders the
	// pair the same way.
	DynSound bool
	// Witness is the human-readable derivation chain.
	Witness []string
}

// Orders is the event-order pass output: per-pair must-orders.
type Orders struct {
	// ByKey holds every derived order, keyed like the pair it orders.
	ByKey map[detect.SiteKey]OrderInfo
}

// Lookup returns the derived order for a site pair, if any.
func (o *Orders) Lookup(k detect.SiteKey) (OrderInfo, bool) {
	if o == nil {
		return OrderInfo{}, false
	}
	info, ok := o.ByKey[k]
	return info, ok
}

// Ordered is the number of distinct site pairs with a derived order.
func (o *Orders) Ordered() int {
	if o == nil {
		return 0
	}
	return len(o.ByKey)
}

// ComputeOrders runs the event-order engine over the call graph and
// queries it for every enumerated pair. With roots == nil (open
// world) the result is empty.
func ComputeOrders(cg *CallGraph, pairs []Pair, roots map[trace.MethodID]int) *Orders {
	o := &Orders{ByKey: make(map[detect.SiteKey]OrderInfo)}
	if cg == nil || roots == nil {
		return o
	}
	e := newOrderEngine(cg, roots)
	e.build()
	for _, p := range pairs {
		if _, done := o.ByKey[p.Key]; done {
			continue // duplicate keys from multiple load sites
		}
		info, ok := e.queryPair(p.Key)
		if !ok {
			continue
		}
		o.ByKey[p.Key] = info
	}
	return o
}

// --- engine -----------------------------------------------------------

type multState uint8

const (
	multUnknown multState = iota
	multInProgress
	// multOnce: the event method is entered exactly once per run.
	multOnce
	// multMany: zero entries, two or more, or unbounded — in every
	// case "exactly once" cannot be claimed.
	multMany
)

type nodeKind uint8

const (
	nBegin nodeKind = iota
	nEnd
	nSite
)

type nodeRef struct {
	kind   nodeKind
	method trace.MethodID // event method (begin/end) or the site's method
	pc     int            // sites only
}

type orderEdge struct {
	to   int
	rule string
	// lintOnly marks rules without a dynamic-HB mirror on arbitrary
	// recorded traces (listener registration, const-delay FIFO); a
	// DynSound derivation avoids them.
	lintOnly bool
}

// anchor places a site into the event whose instances execute it —
// either directly (the site's method is an event method) or through a
// chain of unique synchronous calls.
type anchor struct {
	ok    bool
	event trace.MethodID
	pc    int // position in the event method for intra-order tests
	// once: the site executes at most once per event instance (no
	// link of the call chain and not the site itself sits in a CFG
	// cycle).
	once bool
}

type postInfo struct {
	site   nodeRef
	target trace.MethodID
	qfield trace.FieldID
	front  bool
	delay  int64
}

type orderEngine struct {
	cg    *CallGraph
	roots map[trace.MethodID]int

	entries map[trace.MethodID][]Edge // async entry edges (post/fork/rpc/listener)
	callIn  map[trace.MethodID][]Edge // plain synchronous call edges

	reach    map[trace.MethodID][][]bool // strict pc reachability, try edges included
	dom      map[trace.MethodID][][]bool // dom[b][a]: a dominates b (reflexive)
	mult     map[trace.MethodID]multState
	anchors  map[nodeRef]anchor
	visiting map[trace.MethodID]bool

	nodes map[nodeRef]int
	refs  []nodeRef
	out   [][]orderEdge

	// regSites maps a callback to its register sites (nil until
	// registerSites first runs).
	regSites map[trace.MethodID][]nodeRef
}

func newOrderEngine(cg *CallGraph, roots map[trace.MethodID]int) *orderEngine {
	e := &orderEngine{
		cg:       cg,
		roots:    roots,
		entries:  make(map[trace.MethodID][]Edge),
		callIn:   make(map[trace.MethodID][]Edge),
		reach:    make(map[trace.MethodID][][]bool),
		dom:      make(map[trace.MethodID][][]bool),
		mult:     make(map[trace.MethodID]multState),
		anchors:  make(map[nodeRef]anchor),
		visiting: make(map[trace.MethodID]bool),
		nodes:    make(map[nodeRef]int),
	}
	for callee, es := range cg.Callers {
		for _, ed := range es {
			if ed.Kind == KindCall {
				e.callIn[callee] = append(e.callIn[callee], ed)
			} else {
				e.entries[callee] = append(e.entries[callee], ed)
			}
		}
	}
	return e
}

// isEvent: the method is an asynchronous entry point (rooted or
// posted/forked/fired) and never called synchronously — its
// activations are exactly the dynamic tasks the trace would show.
func (e *orderEngine) isEvent(mid trace.MethodID) bool {
	return (e.roots[mid] > 0 || len(e.entries[mid]) > 0) && len(e.callIn[mid]) == 0
}

func (e *orderEngine) methodName(mid trace.MethodID) string {
	if m := e.cg.methods[mid]; m != nil {
		return m.Name
	}
	return fmt.Sprintf("m%d", mid)
}

// succOf returns normal plus exceptional successors.
func succOf(m *dvm.Method) [][]int {
	try := cfg.TryHandlerEdges(m)
	succ := make([][]int, len(m.Code))
	for pc := range m.Code {
		succ[pc] = append(succ[pc], cfg.Successors(m, pc)...)
		succ[pc] = append(succ[pc], try[pc]...)
	}
	return succ
}

// reachOf computes strict (>= 1 edge) pc-to-pc reachability.
func (e *orderEngine) reachOf(mid trace.MethodID) [][]bool {
	if r, ok := e.reach[mid]; ok {
		return r
	}
	m := e.cg.methods[mid]
	succ := succOf(m)
	n := len(m.Code)
	r := make([][]bool, n)
	for pc := 0; pc < n; pc++ {
		row := make([]bool, n)
		stack := append([]int(nil), succ[pc]...)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if row[x] {
				continue
			}
			row[x] = true
			stack = append(stack, succ[x]...)
		}
		r[pc] = row
	}
	e.reach[mid] = r
	return r
}

// domOf computes reflexive dominators over the method entry (pc 0),
// restricted to entry-reachable pcs.
func (e *orderEngine) domOf(mid trace.MethodID) [][]bool {
	if d, ok := e.dom[mid]; ok {
		return d
	}
	m := e.cg.methods[mid]
	succ := succOf(m)
	n := len(m.Code)
	reachable := make([]bool, n)
	if n > 0 {
		reachable[0] = true
		for pc, ok := range e.reachOf(mid)[0] {
			if ok {
				reachable[pc] = true
			}
		}
	}
	preds := make([][]int, n)
	for pc := 0; pc < n; pc++ {
		if !reachable[pc] {
			continue
		}
		for _, s := range succ[pc] {
			preds[s] = append(preds[s], pc)
		}
	}
	d := make([][]bool, n)
	for pc := 0; pc < n; pc++ {
		d[pc] = make([]bool, n)
		if pc == 0 {
			d[pc][0] = true
			continue
		}
		for a := 0; a < n; a++ {
			d[pc][a] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for pc := 1; pc < n; pc++ {
			if !reachable[pc] || len(preds[pc]) == 0 {
				continue
			}
			for a := 0; a < n; a++ {
				if a == pc || !d[pc][a] {
					continue
				}
				keep := true
				for _, p := range preds[pc] {
					if !d[p][a] {
						keep = false
						break
					}
				}
				if !keep {
					d[pc][a] = false
					changed = true
				}
			}
		}
	}
	e.dom[mid] = d
	return d
}

// intraBefore: within one instance of the event method, every
// occurrence of p1 precedes every occurrence of p2 — true iff they
// are distinct and no CFG path (exceptional edges included) leads
// from p2 back to p1.
func (e *orderEngine) intraBefore(mid trace.MethodID, p1, p2 int) bool {
	return p1 != p2 && !e.reachOf(mid)[p2][p1]
}

// anchorSite resolves the event instance that executes (mid, pc).
func (e *orderEngine) anchorSite(mid trace.MethodID, pc int) anchor {
	key := nodeRef{kind: nSite, method: mid, pc: pc}
	if a, ok := e.anchors[key]; ok {
		return a
	}
	a := e.computeAnchor(mid, pc)
	e.anchors[key] = a
	return a
}

func (e *orderEngine) computeAnchor(mid trace.MethodID, pc int) anchor {
	m := e.cg.methods[mid]
	if m == nil || pc < 0 || pc >= len(m.Code) {
		return anchor{}
	}
	siteOnce := !e.reachOf(mid)[pc][pc]
	if e.isEvent(mid) {
		return anchor{ok: true, event: mid, pc: pc, once: siteOnce}
	}
	// Synchronous collapse: a method entered by exactly one plain call
	// site (no roots, no async entries, trusted caller set) executes
	// inside its caller's activation — anchor at the call site.
	if e.visiting[mid] || e.cg.Unresolved[mid] || e.roots[mid] > 0 || len(e.entries[mid]) > 0 {
		return anchor{}
	}
	calls := e.callIn[mid]
	if len(calls) != 1 {
		return anchor{}
	}
	e.visiting[mid] = true
	up := e.computeAnchor(calls[0].Caller, int(calls[0].PC))
	delete(e.visiting, mid)
	if !up.ok {
		return anchor{}
	}
	return anchor{ok: true, event: up.event, pc: up.pc, once: up.once && siteOnce}
}

// multOf bounds how many times an event method is entered per run.
func (e *orderEngine) multOf(mid trace.MethodID) multState {
	switch e.mult[mid] {
	case multInProgress:
		return multMany // posting cycle: unbounded
	case multOnce, multMany:
		return e.mult[mid]
	}
	e.mult[mid] = multInProgress
	s := e.computeMult(mid)
	e.mult[mid] = s
	return s
}

func (e *orderEngine) computeMult(mid trace.MethodID) multState {
	if !e.isEvent(mid) || e.cg.Unresolved[mid] {
		return multMany
	}
	n := e.roots[mid]
	for _, ed := range e.entries[mid] {
		if n >= 2 {
			break
		}
		// One entry edge contributes one activation iff its site runs
		// exactly once: anchored in a once-event, outside any cycle.
		a := e.anchorSite(ed.Caller, int(ed.PC))
		if !a.ok || !a.once || e.multOf(a.event) != multOnce {
			n += 2
			break
		}
		// A fire invokes the callback once per registration, so a
		// listener entry is one activation only when the callback has
		// a single register site and that site runs once.
		if ed.Kind == KindListener {
			regs := e.registerSites()[mid]
			if len(regs) != 1 || !e.siteRunsOnce(regs[0].method, regs[0].pc) {
				n += 2
				break
			}
		}
		n++
	}
	if n == 1 {
		return multOnce
	}
	return multMany
}

// node interns a graph node.
func (e *orderEngine) node(ref nodeRef) int {
	if id, ok := e.nodes[ref]; ok {
		return id
	}
	id := len(e.refs)
	e.nodes[ref] = id
	e.refs = append(e.refs, ref)
	e.out = append(e.out, nil)
	return id
}

func (e *orderEngine) addEdge(from, to int, rule string, lintOnly bool) {
	for _, ed := range e.out[from] {
		if ed.to == to && ed.rule == rule {
			return
		}
	}
	e.out[from] = append(e.out[from], orderEdge{to: to, rule: rule, lintOnly: lintOnly})
}

// orderedIntrinsic reports whether an instruction is a site the order
// graph models.
func orderedIntrinsic(in *dvm.Instr) bool {
	if in.Code != dvm.CIntrinsic {
		return false
	}
	switch in.Intr {
	case dvm.IntrSend, dvm.IntrSendFront, dvm.IntrFork, dvm.IntrJoin,
		dvm.IntrRPC, dvm.IntrRegister:
		return true
	}
	return false
}

// uniqueEntry returns the single async entry edge of an event method,
// requiring a closed caller set and no direct roots.
func (e *orderEngine) uniqueEntry(mid trace.MethodID) (Edge, bool) {
	if e.cg.Unresolved[mid] || e.roots[mid] > 0 || len(e.entries[mid]) != 1 {
		return Edge{}, false
	}
	return e.entries[mid][0], true
}

// siteRunsOnce: the site node executes exactly once per run — inside
// a once-event and outside any CFG cycle. Precondition for every edge
// whose all-pairs claim quantifies over the site's occurrences.
func (e *orderEngine) siteRunsOnce(mid trace.MethodID, pc int) bool {
	a := e.anchorSite(mid, pc)
	return a.ok && a.once && e.multOf(a.event) == multOnce
}

// onEveryReturnPath: pc dominates every return of the method, so an
// instance that ends has executed it. A join site must pass this
// before its edge is chained through the site's po edge to end(E).
func (e *orderEngine) onEveryReturnPath(mid trace.MethodID, pc int) bool {
	m := e.cg.methods[mid]
	dom := e.domOf(mid)
	for r := range m.Code {
		if c := m.Code[r].Code; (c == dvm.CReturn || c == dvm.CReturnVoid) && !dom[r][pc] {
			return false
		}
	}
	return true
}

func (e *orderEngine) build() {
	prog := e.cg.Prog

	// Nodes: begin/end per event method, plus its modeled intrinsic
	// sites with containment edges (per-instance program order).
	for _, m := range prog.Methods {
		if !e.isEvent(m.ID) {
			continue
		}
		begin := e.node(nodeRef{kind: nBegin, method: m.ID})
		end := e.node(nodeRef{kind: nEnd, method: m.ID})
		e.addEdge(begin, end, "po", false)
		r := e.cg.Reach[m.ID]
		for pc := range m.Code {
			if !r.Reachable(pc) || !orderedIntrinsic(&m.Code[pc]) {
				continue
			}
			s := e.node(nodeRef{kind: nSite, method: m.ID, pc: pc})
			e.addEdge(begin, s, "po", false)
			e.addEdge(s, end, "po", false)
		}
	}

	// Async entry edges: a uniquely-posted event begins after its one
	// posting site; blocking constructs add the return direction.
	for _, m := range prog.Methods {
		if !e.isEvent(m.ID) {
			continue
		}
		ed, ok := e.uniqueEntry(m.ID)
		if !ok || ed.Kind == KindListener {
			continue
		}
		sref := nodeRef{kind: nSite, method: ed.Caller, pc: int(ed.PC)}
		if _, exists := e.nodes[sref]; !exists {
			continue // posting site not in an event method: unmodeled
		}
		if !e.siteRunsOnce(ed.Caller, int(ed.PC)) {
			continue
		}
		s := e.node(sref)
		begin := e.node(nodeRef{kind: nBegin, method: m.ID})
		e.addEdge(s, begin, ed.Kind.String(), false)
		if ed.Kind == KindRPC {
			// rpc blocks: the handler's end precedes the call's return.
			end := e.node(nodeRef{kind: nEnd, method: m.ID})
			e.addEdge(end, s, "rpc-return", false)
		}
	}

	// Join edges: end(thread) precedes a join whose handle chases to
	// the thread's unique fork site.
	for _, m := range prog.Methods {
		if !e.isEvent(m.ID) {
			continue
		}
		r := e.cg.Reach[m.ID]
		for pc := range m.Code {
			in := &m.Code[pc]
			if in.Code != dvm.CIntrinsic || in.Intr != dvm.IntrJoin || !r.Reachable(pc) {
				continue
			}
			fsite, ok := chaseUnique(m, r, pc, argReg(in, 0))
			if !ok || fsite < 0 || m.Code[fsite].Code != dvm.CIntrinsic ||
				m.Code[fsite].Intr != dvm.IntrFork {
				continue
			}
			var callee trace.MethodID
			found := false
			for _, ed := range e.cg.Callees[m.ID] {
				if ed.PC == trace.PC(fsite) && ed.Kind == KindFork {
					callee, found = ed.Callee, true
					break
				}
			}
			if !found {
				continue
			}
			ue, ok := e.uniqueEntry(callee)
			if !ok || ue.Caller != m.ID || ue.PC != trace.PC(fsite) || ue.Kind != KindFork {
				continue
			}
			if !e.siteRunsOnce(m.ID, int(fsite)) || !e.onEveryReturnPath(m.ID, pc) {
				continue
			}
			end := e.node(nodeRef{kind: nEnd, method: callee})
			j := e.node(nodeRef{kind: nSite, method: m.ID, pc: pc})
			e.addEdge(end, j, "join", false)
		}
	}

	e.buildListenerEdges()
	e.buildFIFOEdges()
}

// registerSites returns the reachable register sites of every
// callback, computed once.
func (e *orderEngine) registerSites() map[trace.MethodID][]nodeRef {
	if e.regSites != nil {
		return e.regSites
	}
	e.regSites = make(map[trace.MethodID][]nodeRef)
	for _, m := range e.cg.Prog.Methods {
		r := e.cg.Reach[m.ID]
		for pc := range m.Code {
			in := &m.Code[pc]
			if in.Code != dvm.CIntrinsic || in.Intr != dvm.IntrRegister || !r.Reachable(pc) {
				continue
			}
			callee, ok := e.cg.methodHandle(m, r, pc, argReg(in, 1))
			if !ok {
				continue // poisons every handle-taken method via Unresolved
			}
			e.regSites[callee.ID] = append(e.regSites[callee.ID],
				nodeRef{kind: nSite, method: m.ID, pc: pc})
		}
	}
	return e.regSites
}

// buildListenerEdges adds register-before-callback edges: every
// callback activation follows a fire that found it registered, hence
// follows its one registration site. Lint-only — uninstrumented
// listener ids leave no register/perform entries in recorded traces,
// so the dynamic model cannot confirm the order.
func (e *orderEngine) buildListenerEdges() {
	regSites := e.registerSites()
	for _, m := range e.cg.Prog.Methods {
		cb := m.ID
		if !e.isEvent(cb) || e.cg.Unresolved[cb] || e.roots[cb] > 0 || len(e.entries[cb]) == 0 {
			continue
		}
		allFires := true
		for _, ed := range e.entries[cb] {
			if ed.Kind != KindListener {
				allFires = false
				break
			}
		}
		if !allFires || len(regSites[cb]) != 1 {
			continue
		}
		rref := regSites[cb][0]
		if _, exists := e.nodes[rref]; !exists {
			continue
		}
		if !e.siteRunsOnce(rref.method, rref.pc) {
			continue
		}
		e.addEdge(e.node(rref), e.node(nodeRef{kind: nBegin, method: cb}), "listener", true)
	}
}

// buildFIFOEdges mirrors the dynamic queue rules 1 and 3 for sends
// whose queue operand chases to a never-stored static field (a fixed
// queue for the whole run): if both posts target the same queue, the
// earlier post is at the back with a delay no larger than the later
// one's (or at the front against a back post), and the posts
// themselves are ordered, then the first event ends before the second
// begins. New edges can order more send pairs, so iterate to a
// fixpoint. Lint-only: adversarial replay may inflate delays past the
// static constants, so DynSound derivations keep clear of it.
func (e *orderEngine) buildFIFOEdges() {
	stored := make(map[trace.FieldID]bool)
	for _, m := range e.cg.Prog.Methods {
		for pc := range m.Code {
			if c := m.Code[pc].Code; c == dvm.CSput || c == dvm.CSputInt {
				stored[m.Code[pc].Field] = true
			}
		}
	}
	var posts []postInfo
	for _, m := range e.cg.Prog.Methods {
		if !e.isEvent(m.ID) {
			continue
		}
		r := e.cg.Reach[m.ID]
		for pc := range m.Code {
			in := &m.Code[pc]
			if in.Code != dvm.CIntrinsic || (in.Intr != dvm.IntrSend && in.Intr != dvm.IntrSendFront) ||
				!r.Reachable(pc) {
				continue
			}
			sref := nodeRef{kind: nSite, method: m.ID, pc: pc}
			// The target must begin at this site alone (its begin edge
			// exists), or end(target) cannot be attributed to the post.
			var target trace.MethodID
			found := false
			for _, ed := range e.cg.Callees[m.ID] {
				if ed.PC == trace.PC(pc) && ed.Kind == KindPost {
					target, found = ed.Callee, true
					break
				}
			}
			if !found {
				continue
			}
			if ue, ok := e.uniqueEntry(target); !ok || ue.Caller != m.ID || ue.PC != trace.PC(pc) {
				continue
			}
			if !e.siteRunsOnce(m.ID, pc) {
				continue
			}
			qsite, ok := chaseUnique(m, r, pc, argReg(in, 0))
			if !ok || qsite < 0 {
				continue
			}
			qin := &m.Code[qsite]
			if (qin.Code != dvm.CSget && qin.Code != dvm.CSgetInt) || stored[qin.Field] {
				continue
			}
			p := postInfo{site: sref, target: target, qfield: qin.Field, front: in.Intr == dvm.IntrSendFront}
			if !p.front {
				dsite, ok := chaseUnique(m, r, pc, argReg(in, 2))
				if !ok || dsite < 0 || m.Code[dsite].Code != dvm.CConstInt {
					continue
				}
				p.delay = m.Code[dsite].Imm
			}
			posts = append(posts, p)
		}
	}
	for changed := true; changed; {
		changed = false
		for i := range posts {
			for j := range posts {
				a, b := &posts[i], &posts[j]
				if i == j || a.qfield != b.qfield {
					continue
				}
				fifo := (!a.front && !b.front && a.delay <= b.delay) || (a.front && !b.front)
				if !fifo || !e.siteBefore(a.site, b.site) {
					continue
				}
				end := e.node(nodeRef{kind: nEnd, method: a.target})
				begin := e.node(nodeRef{kind: nBegin, method: b.target})
				if !e.hasEdge(end, begin) {
					e.addEdge(end, begin, "fifo", true)
					changed = true
				}
			}
		}
	}
}

func (e *orderEngine) hasEdge(from, to int) bool {
	for _, ed := range e.out[from] {
		if ed.to == to {
			return true
		}
	}
	return false
}

// siteBefore: every occurrence of site a precedes every occurrence of
// site b (both are once-per-run sites in event methods).
func (e *orderEngine) siteBefore(a, b nodeRef) bool {
	if a.method == b.method {
		return e.multOf(a.method) == multOnce && e.intraBefore(a.method, a.pc, b.pc)
	}
	ai, aok := e.nodes[a]
	bi, bok := e.nodes[b]
	if !aok || !bok {
		return false
	}
	_, found := e.bfs([]int{ai}, map[int]bool{bi: true}, false)
	return found
}

// bfs searches forward from the sources to any target, returning the
// node path. dynOnly restricts to the DynSound rules' edges.
func (e *orderEngine) bfs(sources []int, targets map[int]bool, dynOnly bool) ([]int, bool) {
	parent := make(map[int]int)
	seen := make(map[int]bool)
	queue := append([]int(nil), sources...)
	for _, s := range sources {
		seen[s] = true
	}
	finish := func(n int) []int {
		var rev []int
		for x := n; ; {
			rev = append(rev, x)
			p, ok := parent[x]
			if !ok {
				break
			}
			x = p
		}
		path := make([]int, 0, len(rev))
		for i := len(rev) - 1; i >= 0; i-- {
			path = append(path, rev[i])
		}
		return path
	}
	for _, s := range sources {
		if targets[s] {
			return finish(s), true
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, ed := range e.out[n] {
			if seen[ed.to] || (dynOnly && ed.lintOnly) {
				continue
			}
			seen[ed.to] = true
			parent[ed.to] = n
			if targets[ed.to] {
				return finish(ed.to), true
			}
			queue = append(queue, ed.to)
		}
	}
	return nil, false
}

func (e *orderEngine) nodeLabel(id int) string {
	ref := e.refs[id]
	switch ref.kind {
	case nBegin:
		return "begin(" + e.methodName(ref.method) + ")"
	case nEnd:
		return "end(" + e.methodName(ref.method) + ")"
	default:
		return fmt.Sprintf("%s@%d", e.methodName(ref.method), ref.pc)
	}
}

func (e *orderEngine) edgeRule(from, to int, dynOnly bool) string {
	for _, ed := range e.out[from] {
		if ed.to == to && (!dynOnly || !ed.lintOnly) {
			return ed.rule
		}
	}
	return "?"
}

// queryPair derives a must-order between a pair's use and free sites,
// preferring the dyn-sound relation and the use-before-free direction.
func (e *orderEngine) queryPair(k detect.SiteKey) (OrderInfo, bool) {
	aU := e.anchorSite(k.UseMethod, int(k.UsePC))
	aF := e.anchorSite(k.FreeMethod, int(k.FreePC))
	if !aU.ok || !aF.ok {
		return OrderInfo{}, false
	}
	useName := e.methodName(k.UseMethod)
	freeName := e.methodName(k.FreeMethod)
	if aU.event == aF.event {
		if e.multOf(aU.event) != multOnce {
			return OrderInfo{}, false
		}
		ev := e.methodName(aU.event)
		if e.intraBefore(aU.event, aU.pc, aF.pc) {
			return OrderInfo{UseBeforeFree: true, DynSound: true, Witness: []string{fmt.Sprintf(
				"use %s@%d precedes free %s@%d: program order in single-run event %s (no CFG path free->use)",
				useName, k.UsePC, freeName, k.FreePC, ev)}}, true
		}
		if e.intraBefore(aU.event, aF.pc, aU.pc) {
			return OrderInfo{UseBeforeFree: false, DynSound: true, Witness: []string{fmt.Sprintf(
				"free %s@%d precedes use %s@%d: program order in single-run event %s (no CFG path use->free)",
				freeName, k.FreePC, useName, k.UsePC, ev)}}, true
		}
		return OrderInfo{}, false
	}
	for _, dynOnly := range []bool{true, false} {
		for _, useFirst := range []bool{true, false} {
			a1, a2 := aU, aF
			if !useFirst {
				a1, a2 = aF, aU
			}
			path, ok := e.crossQuery(a1, a2, dynOnly)
			if !ok {
				continue
			}
			w := e.renderWitness(k, useFirst, dynOnly, a1, a2, path)
			return OrderInfo{UseBeforeFree: useFirst, DynSound: dynOnly, Witness: w}, true
		}
	}
	return OrderInfo{}, false
}

// crossQuery searches for a path proving every occurrence anchored at
// a1 precedes every occurrence anchored at a2 (distinct events).
// Sources: a1's event end, plus modeled sites that a1's position
// precedes in every instance — valid only when a1's event runs once.
// Targets: a2's event begin (every occurrence of a2 follows its own
// instance's begin), plus modeled sites dominating a2's position
// (such a site ran before a2 in a2's instance).
func (e *orderEngine) crossQuery(a1, a2 anchor, dynOnly bool) ([]int, bool) {
	if e.multOf(a1.event) != multOnce {
		return nil, false
	}
	var sources []int
	if end, ok := e.nodes[nodeRef{kind: nEnd, method: a1.event}]; ok {
		sources = append(sources, end)
	}
	targets := make(map[int]bool)
	if begin, ok := e.nodes[nodeRef{kind: nBegin, method: a2.event}]; ok {
		targets[begin] = true
	}
	dom := e.domOf(a2.event)
	for id, ref := range e.refs {
		if ref.kind != nSite {
			continue
		}
		if ref.method == a1.event && e.intraBefore(a1.event, a1.pc, ref.pc) {
			sources = append(sources, id)
		}
		if ref.method == a2.event && ref.pc != a2.pc && dom[a2.pc][ref.pc] {
			targets[id] = true
		}
	}
	if len(sources) == 0 || len(targets) == 0 {
		return nil, false
	}
	return e.bfs(sources, targets, dynOnly)
}

func (e *orderEngine) renderWitness(k detect.SiteKey, useFirst, dynOnly bool, a1, a2 anchor, path []int) []string {
	fromName, fromPC := e.methodName(k.UseMethod), int(k.UsePC)
	toName, toPC := e.methodName(k.FreeMethod), int(k.FreePC)
	fromKind, toKind := "use", "free"
	if !useFirst {
		fromName, fromPC, toName, toPC = toName, toPC, fromName, fromPC
		fromKind, toKind = toKind, fromKind
	}
	w := []string{fmt.Sprintf("%s %s@%d [event %s, runs once]", fromKind, fromName, fromPC,
		e.methodName(a1.event))}
	w = append(w, fmt.Sprintf("-> %s [po]", e.nodeLabel(path[0])))
	for i := 1; i < len(path); i++ {
		w = append(w, fmt.Sprintf("-> %s [%s]", e.nodeLabel(path[i]),
			e.edgeRule(path[i-1], path[i], dynOnly)))
	}
	last := e.refs[path[len(path)-1]]
	rel := "po"
	if last.kind == nSite {
		rel = "dominates"
	}
	w = append(w, fmt.Sprintf("-> %s %s@%d [%s]", toKind, toName, toPC, rel))
	return w
}
