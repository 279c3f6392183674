package static

import (
	"strings"
	"testing"

	"cafa/internal/detect"
	"cafa/internal/dvm"
	"cafa/internal/trace"
)

// pcsOf returns every pc in a method holding the given opcode.
func pcsOf(t *testing.T, p *dvm.Program, name string, code dvm.Code) []trace.PC {
	t.Helper()
	m := p.Methods[p.MustMethod(name)]
	var out []trace.PC
	for pc := range m.Code {
		if m.Code[pc].Code == code {
			out = append(out, trace.PC(pc))
		}
	}
	if len(out) == 0 {
		t.Fatalf("no opcode %d in %s", code, name)
	}
	return out
}

func pcOf(t *testing.T, p *dvm.Program, name string, code dvm.Code) trace.PC {
	t.Helper()
	return pcsOf(t, p, name, code)[0]
}

// ordersFor builds the call graph and runs the order engine with the
// named methods as the closed-world root inventory (once each).
func ordersFor(t *testing.T, p *dvm.Program, keys []detect.SiteKey, rootNames ...string) *Orders {
	t.Helper()
	roots := make(map[trace.MethodID]int)
	for _, n := range rootNames {
		roots[methodID(t, p, n)]++
	}
	pairs := make([]Pair, len(keys))
	for i, k := range keys {
		pairs[i] = Pair{Key: k}
	}
	return ComputeOrders(BuildCallGraph(p), pairs, roots)
}

func witnessText(info OrderInfo) string { return strings.Join(info.Witness, "\n") }

// dynSoundOrders counts the derived orders whose derivation uses only
// rules the dynamic HB model mirrors.
func dynSoundOrders(o *Orders) int {
	n := 0
	for _, info := range o.ByKey {
		if info.DynSound {
			n++
		}
	}
	return n
}

// TestOrderPostChain: the use runs in a rooted event that afterwards
// posts the freeing handler — the post rule orders use before free,
// dyn-soundly (the dynamic model has the same post edge).
func TestOrderPostChain(t *testing.T) {
	p := assemble(t, `
.method evB(h) regs=2
    const-null v1
    iput v1, h, ptr
    return-void
.end

.method root(h) regs=5
    iget v4, h, ptr
    sget-int v1, mainQ
    const-method v2, evB
    const-int v3, #0
    send v1, v2, v3, h
    return-void
.end
`)
	k := detect.SiteKey{
		UseMethod: methodID(t, p, "root"), UsePC: pcOf(t, p, "root", dvm.CIget),
		FreeMethod: methodID(t, p, "evB"), FreePC: pcOf(t, p, "evB", dvm.CIput),
	}
	o := ordersFor(t, p, []detect.SiteKey{k}, "root")
	info, ok := o.Lookup(k)
	if !ok || !info.UseBeforeFree || !info.DynSound {
		t.Fatalf("post-chain order = %+v, %v; want use-before-free, dyn-sound", info, ok)
	}
	if w := witnessText(info); !strings.Contains(w, "post") {
		t.Errorf("witness does not cite the post rule:\n%s", w)
	}
	if n := dynSoundOrders(o); n != 1 {
		t.Errorf("%d dyn-sound orders, want 1", n)
	}
}

// TestOrderForkJoin: the free runs on a forked thread that the rooted
// event joins before the use — end(thread) precedes the join site,
// which dominates the use, so free-before-use holds dyn-soundly.
func TestOrderForkJoin(t *testing.T) {
	p := assemble(t, `
.method tbody(h) regs=2
    const-null v1
    iput v1, h, ptr
    return-void
.end

.method root(h) regs=4
    const-method v1, tbody
    fork v1, h -> v2
    join v2
    iget v3, h, ptr
    return-void
.end
`)
	k := detect.SiteKey{
		UseMethod: methodID(t, p, "root"), UsePC: pcOf(t, p, "root", dvm.CIget),
		FreeMethod: methodID(t, p, "tbody"), FreePC: pcOf(t, p, "tbody", dvm.CIput),
	}
	o := ordersFor(t, p, []detect.SiteKey{k}, "root")
	info, ok := o.Lookup(k)
	if !ok || info.UseBeforeFree || !info.DynSound {
		t.Fatalf("fork/join order = %+v, %v; want free-before-use, dyn-sound", info, ok)
	}
	if w := witnessText(info); !strings.Contains(w, "join") {
		t.Errorf("witness does not cite the join rule:\n%s", w)
	}
}

// TestOrderRPCBlocks: rpc is synchronous — the handler's end precedes
// the call's return, so a free inside the handler precedes a use
// after the rpc site.
func TestOrderRPCBlocks(t *testing.T) {
	p := assemble(t, `
.method handler(h) regs=2
    const-null v1
    iput v1, h, ptr
    return-void
.end

.method root(h) regs=5
    sget-int v1, svc
    const-method v2, handler
    rpc v1, v2, h -> v3
    iget v4, h, ptr
    return-void
.end
`)
	k := detect.SiteKey{
		UseMethod: methodID(t, p, "root"), UsePC: pcOf(t, p, "root", dvm.CIget),
		FreeMethod: methodID(t, p, "handler"), FreePC: pcOf(t, p, "handler", dvm.CIput),
	}
	o := ordersFor(t, p, []detect.SiteKey{k}, "root")
	info, ok := o.Lookup(k)
	if !ok || info.UseBeforeFree || !info.DynSound {
		t.Fatalf("rpc order = %+v, %v; want free-before-use, dyn-sound", info, ok)
	}
	if w := witnessText(info); !strings.Contains(w, "rpc-return") {
		t.Errorf("witness does not cite the rpc-return rule:\n%s", w)
	}
}

// TestOrderTryEdgeBreaksDominance: with the rpc site inside a try,
// the exceptional edge lets control reach the handler-block use
// without passing the rpc — the site no longer dominates the use, so
// the rpc-return ordering of TestOrderRPCBlocks must NOT be derived.
func TestOrderTryEdgeBreaksDominance(t *testing.T) {
	p := assemble(t, `
.method handler(h) regs=2
    const-null v1
    iput v1, h, ptr
    return-void
.end

.method root(h) regs=5
    try catch
    sget-int v1, svc
    const-method v2, handler
    rpc v1, v2, h -> v3
    end-try
catch:
    iget v4, h, ptr
    return-void
.end
`)
	k := detect.SiteKey{
		UseMethod: methodID(t, p, "root"), UsePC: pcOf(t, p, "root", dvm.CIget),
		FreeMethod: methodID(t, p, "handler"), FreePC: pcOf(t, p, "handler", dvm.CIput),
	}
	o := ordersFor(t, p, []detect.SiteKey{k}, "root")
	if info, ok := o.Lookup(k); ok {
		t.Errorf("rpc site inside try yielded order %+v; the exceptional edge bypasses it", info)
	}
}

// TestOrderListenerLintOnly: register-before-callback orders the use
// ahead of the free, but uninstrumented listener ids leave no dynamic
// register/perform entries — the rule is lint-only, so the order is
// reported (ByKey) yet excluded from the prune projection.
func TestOrderListenerLintOnly(t *testing.T) {
	p := assemble(t, `
.method cb(h) regs=2
    const-null v1
    iput v1, h, ptr
    return-void
.end

.method rootA(h) regs=4
    iget v3, h, ptr
    const-int v1, #7
    const-method v2, cb
    register v1, v2
    return-void
.end

.method rootB(h) regs=2
    const-int v1, #7
    fire v1, h
    return-void
.end
`)
	k := detect.SiteKey{
		UseMethod: methodID(t, p, "rootA"), UsePC: pcOf(t, p, "rootA", dvm.CIget),
		FreeMethod: methodID(t, p, "cb"), FreePC: pcOf(t, p, "cb", dvm.CIput),
	}
	o := ordersFor(t, p, []detect.SiteKey{k}, "rootA", "rootB")
	info, ok := o.Lookup(k)
	if !ok || !info.UseBeforeFree || info.DynSound {
		t.Fatalf("listener order = %+v, %v; want use-before-free, NOT dyn-sound", info, ok)
	}
	if w := witnessText(info); !strings.Contains(w, "listener") {
		t.Errorf("witness does not cite the listener rule:\n%s", w)
	}
	if n := dynSoundOrders(o); n != 0 {
		t.Errorf("lint-only listener rule yielded %d dyn-sound orders: %+v", n, o.ByKey)
	}
}

// TestOrderTwicePostedNoOrder: an event posted from two sites runs
// more than once, so no all-occurrences claim survives — the engine
// must derive nothing.
func TestOrderTwicePostedNoOrder(t *testing.T) {
	p := assemble(t, `
.method evM(h) regs=2
    const-null v1
    iput v1, h, ptr
    return-void
.end

.method root(h) regs=5
    iget v4, h, ptr
    sget-int v1, mainQ
    const-method v2, evM
    const-int v3, #0
    send v1, v2, v3, h
    send v1, v2, v3, h
    return-void
.end
`)
	k := detect.SiteKey{
		UseMethod: methodID(t, p, "root"), UsePC: pcOf(t, p, "root", dvm.CIget),
		FreeMethod: methodID(t, p, "evM"), FreePC: pcOf(t, p, "evM", dvm.CIput),
	}
	o := ordersFor(t, p, []detect.SiteKey{k}, "root")
	if o.Ordered() != 0 {
		t.Errorf("twice-posted event yielded %d orders, want 0", o.Ordered())
	}
}

// TestOrderPostInCycleConservative: the posting site sits in a CFG
// cycle, so it may run many times — the entry edge (and any order
// through it) must be dropped.
func TestOrderPostInCycleConservative(t *testing.T) {
	p := assemble(t, `
.method evB(h) regs=2
    const-null v1
    iput v1, h, ptr
    return-void
.end

.method root(h) regs=6
    iget v5, h, ptr
loop:
    sget-int v1, mainQ
    const-method v2, evB
    const-int v3, #0
    send v1, v2, v3, h
    iget v4, h, ptr
    if-eqz v4, loop
    return-void
.end
`)
	k := detect.SiteKey{
		UseMethod: methodID(t, p, "root"), UsePC: pcsOf(t, p, "root", dvm.CIget)[0],
		FreeMethod: methodID(t, p, "evB"), FreePC: pcOf(t, p, "evB", dvm.CIput),
	}
	o := ordersFor(t, p, []detect.SiteKey{k}, "root")
	if o.Ordered() != 0 {
		t.Errorf("cyclic posting site yielded %d orders, want 0", o.Ordered())
	}
}

// TestOrderFIFOLintOnly: two zero-delay posts to the same never-stored
// static queue run FIFO — the earlier event ends before the later one
// begins. Lint-only (adversarial replay may inflate delays), so the
// order stays out of the prune projection. Posting the larger delay
// first breaks the rule's premise and no order is derived.
func TestOrderFIFOLintOnly(t *testing.T) {
	const body = `
.method evUse(h) regs=2
    iget v1, h, ptr
    return-void
.end

.method evFree(h) regs=2
    const-null v1
    iput v1, h, ptr
    return-void
.end

.method root(h) regs=8
    sget-int v1, q0
    const-method v2, evUse
    const-int v3, #%s
    send v1, v2, v3, h
    sget-int v4, q0
    const-method v5, evFree
    const-int v6, #0
    send v4, v5, v6, h
    return-void
.end
`
	keyOf := func(p *dvm.Program) detect.SiteKey {
		return detect.SiteKey{
			UseMethod: methodID(t, p, "evUse"), UsePC: pcOf(t, p, "evUse", dvm.CIget),
			FreeMethod: methodID(t, p, "evFree"), FreePC: pcOf(t, p, "evFree", dvm.CIput),
		}
	}

	p := assemble(t, strings.Replace(body, "%s", "0", 1))
	k := keyOf(p)
	o := ordersFor(t, p, []detect.SiteKey{k}, "root")
	info, ok := o.Lookup(k)
	if !ok || !info.UseBeforeFree || info.DynSound {
		t.Fatalf("fifo order = %+v, %v; want use-before-free, NOT dyn-sound", info, ok)
	}
	if w := witnessText(info); !strings.Contains(w, "fifo") {
		t.Errorf("witness does not cite the fifo rule:\n%s", w)
	}
	if n := dynSoundOrders(o); n != 0 {
		t.Errorf("lint-only fifo rule yielded %d dyn-sound orders: %+v", n, o.ByKey)
	}

	// Larger delay posted first: rule premise fails, nothing derived.
	p2 := assemble(t, strings.Replace(body, "%s", "5", 1))
	o2 := ordersFor(t, p2, []detect.SiteKey{keyOf(p2)}, "root")
	if o2.Ordered() != 0 {
		t.Errorf("delay-inverted fifo yielded %d orders, want 0", o2.Ordered())
	}
}

// TestOrderSameEventProgramOrder: use and free anchored in the same
// once-run event order by CFG position, in either direction; inside a
// cycle neither direction holds.
func TestOrderSameEventProgramOrder(t *testing.T) {
	p := assemble(t, `
.method ev(h) regs=4
    iget v1, h, ptr
    const-null v2
    iput v2, h, ptr
    iget v3, h, ptr
    return-void
.end

.method evloop(h) regs=4
    iget v1, h, ptr
loop:
    const-null v2
    iput v2, h, ptr
    iget v3, h, ptr
    if-eqz v3, loop
    return-void
.end
`)
	ev := methodID(t, p, "ev")
	igets := pcsOf(t, p, "ev", dvm.CIget)
	free := pcOf(t, p, "ev", dvm.CIput)
	kBefore := detect.SiteKey{UseMethod: ev, UsePC: igets[0], FreeMethod: ev, FreePC: free}
	kAfter := detect.SiteKey{UseMethod: ev, UsePC: igets[1], FreeMethod: ev, FreePC: free}

	lp := methodID(t, p, "evloop")
	kLoop := detect.SiteKey{
		UseMethod: lp, UsePC: pcsOf(t, p, "evloop", dvm.CIget)[1],
		FreeMethod: lp, FreePC: pcOf(t, p, "evloop", dvm.CIput),
	}

	o := ordersFor(t, p, []detect.SiteKey{kBefore, kAfter, kLoop}, "ev", "evloop")
	if o.Ordered() != 2 {
		t.Fatalf("derived %d orders, want 2 (the loop pair must stay unordered)", o.Ordered())
	}
	if info, ok := o.Lookup(kBefore); !ok || !info.UseBeforeFree || !info.DynSound {
		t.Errorf("use-first intra order = %+v, %v; want use-before-free, dyn-sound", info, ok)
	} else if w := witnessText(info); !strings.Contains(w, "program order") {
		t.Errorf("witness does not cite program order:\n%s", w)
	}
	if info, ok := o.Lookup(kAfter); !ok || info.UseBeforeFree || !info.DynSound {
		t.Errorf("free-first intra order = %+v, %v; want free-before-use, dyn-sound", info, ok)
	}
	if _, ok := o.Lookup(kLoop); ok {
		t.Error("pair inside a CFG cycle must not be ordered")
	}
	if n := dynSoundOrders(o); n != 2 {
		t.Errorf("%d dyn-sound orders, want 2", n)
	}
}

// TestOrderOpenWorldBottom: with no root inventory the world is open
// and the engine answers bottom — no orders at all.
func TestOrderOpenWorldBottom(t *testing.T) {
	p := assemble(t, `
.method evB(h) regs=2
    const-null v1
    iput v1, h, ptr
    return-void
.end

.method root(h) regs=5
    iget v4, h, ptr
    sget-int v1, mainQ
    const-method v2, evB
    const-int v3, #0
    send v1, v2, v3, h
    return-void
.end
`)
	k := detect.SiteKey{
		UseMethod: methodID(t, p, "root"), UsePC: pcOf(t, p, "root", dvm.CIget),
		FreeMethod: methodID(t, p, "evB"), FreePC: pcOf(t, p, "evB", dvm.CIput),
	}
	o := ComputeOrders(BuildCallGraph(p), []Pair{{Key: k}}, nil)
	if o.Ordered() != 0 {
		t.Errorf("open world derived %d orders, want 0", o.Ordered())
	}
}

// TestRootsFromNames: name-keyed root counts translate to method IDs,
// dropping names the program does not define.
func TestRootsFromNames(t *testing.T) {
	p := assemble(t, runSink)
	roots := RootsFromNames(p, map[string]int{"run": 2, "ghost": 1})
	if len(roots) != 1 || roots[methodID(t, p, "run")] != 2 {
		t.Errorf("RootsFromNames = %+v, want {run: 2}", roots)
	}
}
