package detect

import (
	"testing"

	"cafa/internal/asm"
	"cafa/internal/dataflow"
	"cafa/internal/dvm"
	"cafa/internal/hb"
	"cafa/internal/lockset"
	"cafa/internal/sim"
	"cafa/internal/trace"
)

// pipeline assembles src, wires the system via build, runs it, and
// runs the full analysis with the given detector options.
func pipeline(t *testing.T, src string, opts Options, build func(s *sim.System, p *dvm.Program)) (*Result, *hb.Graph) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	col := trace.NewCollector()
	s := sim.NewSystem(p, sim.Config{Tracer: col, Seed: 1})
	build(s, p)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := col.T.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	g, err := hb.Build(col.T, hb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	conv, err := hb.Build(col.T, hb.Options{Conventional: true})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := lockset.Compute(col.T)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Detect(Input{Trace: col.T, Graph: g, Conventional: conv, Locks: ls}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, g
}

// mytracksSrc reproduces Figure 1: onResume binds to a remote service
// over RPC; the service posts onServiceConnected back to the main
// looper; onDestroy nulls providerUtils. The use in
// onServiceConnected races with the free in onDestroy.
const mytracksSrc = `
.method updateTrack(this) regs=1
    return-void
.end

.method onServiceConnected(act) regs=3
    iget v1, act, providerUtils
    invoke-virtual updateTrack, v1
    return-void
.end

.method onBind(act) regs=5
    sget-int v1, mainQ
    const-method v2, onServiceConnected
    const-int v3, #0
    send v1, v2, v3, act
    const-int v4, #0
    return v4
.end

.method onResume(act) regs=5
    new v1, ProviderUtils
    iput v1, act, providerUtils
    sget-int v2, svc
    const-method v3, onBind
    rpc v2, v3, act -> v4
    return-void
.end

.method onDestroy(act) regs=2
    const-null v1
    iput v1, act, providerUtils
    return-void
.end
`

func buildMyTracks(t *testing.T) func(s *sim.System, p *dvm.Program) {
	return func(s *sim.System, p *dvm.Program) {
		main := s.AddLooper("main", 0)
		svc := s.AddService("TrackRecordingService", 1)
		s.Heap().SetStatic(p.FieldID("mainQ"), dvm.Int64(main.Handle()))
		s.Heap().SetStatic(p.FieldID("svc"), dvm.Int64(svc))
		act := s.Heap().New("MyTracksActivity")
		if err := s.Inject(0, main, "onResume", dvm.Obj(act.ID), 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Inject(100, main, "onDestroy", dvm.Obj(act.ID), 0); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFigure1MyTracksUseFreeRace(t *testing.T) {
	res, _ := pipeline(t, mytracksSrc, Options{}, buildMyTracks(t))
	if len(res.Races) != 1 {
		t.Fatalf("races = %d (%+v), want 1", len(res.Races), res.Stats)
	}
	r := res.Races[0]
	if r.Class != ClassIntraThread {
		t.Errorf("class = %v, want intra-thread", r.Class)
	}
	if got := r.Use.Var.Field(); got == 0 {
		t.Error("race has no field")
	}
}

// figure2Src reproduces Figure 2: a benign read-write conflict on a
// scalar between two concurrent events of one looper. The naive
// detector flags it; the use-free detector must not.
const figure2Src = `
.method onPause(term) regs=2
    const-int v1, #0
    iput-int v1, term, resizeAllowed
    return-void
.end

.method onLayout(term) regs=4
    iget-int v1, term, resizeAllowed
    const-int v2, #0
    if-int-eq v1, v2, out
    const-int v3, #80
    iput-int v3, term, columns
    iput-int v3, term, rows
out:
    return-void
.end

.method sysThread(arg) regs=4
    sget-int v1, mainQ
    const-method v2, onLayout
    const-int v3, #0
    sget v0, termObj
    send v1, v2, v3, v0
    return-void
.end
`

func buildFigure2(t *testing.T) func(s *sim.System, p *dvm.Program) {
	return func(s *sim.System, p *dvm.Program) {
		main := s.AddLooper("main", 0)
		s.Heap().SetStatic(p.FieldID("mainQ"), dvm.Int64(main.Handle()))
		term := s.Heap().New("TerminalView")
		term.Set(p.FieldID("resizeAllowed"), dvm.Int64(1))
		s.Heap().SetStatic(p.FieldID("termObj"), dvm.Obj(term.ID))
		if _, err := s.StartThread("sys", "sysThread", dvm.Null()); err != nil {
			t.Fatal(err)
		}
		if err := s.Inject(0, main, "onPause", dvm.Obj(term.ID), 0); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFigure2CommutativeEventsNotReported(t *testing.T) {
	res, g := pipeline(t, figure2Src, Options{}, buildFigure2(t))
	if len(res.Races) != 0 {
		t.Fatalf("use-free detector reported %d races on a scalar conflict", len(res.Races))
	}
	naive := Naive(g)
	if len(naive) == 0 {
		t.Fatal("naive detector must flag the read-write conflict")
	}
	foundResize := false
	for _, nr := range naive {
		f := nr.Var.Field()
		name := g.Trace().FieldName(f)
		if name == "resizeAllowed" {
			foundResize = true
			if nr.AWrite && nr.BWrite {
				t.Error("resizeAllowed conflict should be read-write")
			}
		}
	}
	if !foundResize {
		t.Error("naive detector missed the resizeAllowed conflict")
	}
}

// figure5Src reproduces Figure 5: onPause frees handler; onFocus uses
// it behind an if-eqz guard; onResume allocates before using. Both
// uses are commutative with the free and must be filtered.
const figure5Src = `
.method run(this) regs=1
    return-void
.end

.method onPause(act) regs=2
    const-null v1
    iput v1, act, handler
    return-void
.end

.method onFocus(act) regs=3
    iget v1, act, handler
    if-eqz v1, skip
    invoke-virtual run, v1
skip:
    return-void
.end

.method onResume(act) regs=3
    new v1, Handler
    iput v1, act, handler
    iget v2, act, handler
    invoke-virtual run, v2
    return-void
.end

.method sysThread(arg) regs=5
    sget-int v1, mainQ
    const-method v2, onFocus
    const-int v3, #0
    sget v0, actObj
    send v1, v2, v3, v0
    const-method v2, onResume
    send v1, v2, v3, v0
    return-void
.end
`

func buildFigure5(t *testing.T) func(s *sim.System, p *dvm.Program) {
	return func(s *sim.System, p *dvm.Program) {
		main := s.AddLooper("main", 0)
		s.Heap().SetStatic(p.FieldID("mainQ"), dvm.Int64(main.Handle()))
		act := s.Heap().New("Activity")
		h := s.Heap().New("Handler")
		act.Set(p.FieldID("handler"), dvm.Obj(h.ID))
		s.Heap().SetStatic(p.FieldID("actObj"), dvm.Obj(act.ID))
		if _, err := s.StartThread("sys", "sysThread", dvm.Null()); err != nil {
			t.Fatal(err)
		}
		// onPause arrives after onFocus/onResume so the uses actually
		// execute; the race is detected predictively either way, but
		// the guard branch is only logged when the pointer is non-null.
		if err := s.Inject(50, main, "onPause", dvm.Obj(act.ID), 0); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFigure5HeuristicsFilterCommutativeEvents(t *testing.T) {
	res, _ := pipeline(t, figure5Src, Options{}, buildFigure5(t))
	if len(res.Races) != 0 {
		for _, r := range res.Races {
			t.Logf("unexpected: %+v", r)
		}
		t.Fatalf("races = %d, want 0 (stats %+v)", len(res.Races), res.Stats)
	}
	if res.Stats.FilteredIfGuard == 0 {
		t.Error("if-guard filter never fired")
	}
	if res.Stats.FilteredIntraAlloc == 0 {
		t.Error("intra-event-allocation filter never fired")
	}
}

func TestFigure5AblationWithoutHeuristics(t *testing.T) {
	res, _ := pipeline(t, figure5Src, Options{DisableIfGuard: true, DisableIntraEventAlloc: true}, buildFigure5(t))
	if len(res.Races) < 2 {
		t.Fatalf("with heuristics off, races = %d, want >= 2", len(res.Races))
	}
}

// locksetSrc: a use and a free in two threads, both under the same
// lock — mutual exclusion, not a race.
const locksetSrc = `
.method run(this) regs=1
    return-void
.end

.method user(arg) regs=4
    sget v0, lockObj
    lock v0
    sget v1, sharedHolder
    iget v2, v1, ptr
    invoke-virtual run, v2
    unlock v0
    return-void
.end

.method freer(d) regs=4
    sleep d
    sget v0, lockObj
    lock v0
    sget v1, sharedHolder
    const-null v2
    iput v2, v1, ptr
    unlock v0
    return-void
.end
`

func buildLockset(t *testing.T, delayFree int64) func(s *sim.System, p *dvm.Program) {
	return func(s *sim.System, p *dvm.Program) {
		lk := s.Heap().New("Lock")
		holder := s.Heap().New("Holder")
		pay := s.Heap().New("Payload")
		holder.Set(p.FieldID("ptr"), dvm.Obj(pay.ID))
		s.Heap().SetStatic(p.FieldID("lockObj"), dvm.Obj(lk.ID))
		s.Heap().SetStatic(p.FieldID("sharedHolder"), dvm.Obj(holder.ID))
		if _, err := s.StartThread("user", "user", dvm.Null()); err != nil {
			t.Fatal(err)
		}
		if _, err := s.StartThread("freer", "freer", dvm.Int64(delayFree)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLocksetFiltersMutualExclusion(t *testing.T) {
	res, _ := pipeline(t, locksetSrc, Options{}, buildLockset(t, 20))
	if len(res.Races) != 0 {
		t.Fatalf("races = %d, want 0 (lock-protected)", len(res.Races))
	}
	if res.Stats.FilteredLockset == 0 {
		t.Error("lockset filter never fired")
	}
	// Ablation: without the lockset filter the pair is reported as a
	// conventional-class race (threads, unordered).
	res2, _ := pipeline(t, locksetSrc, Options{DisableLockset: true}, buildLockset(t, 20))
	if len(res2.Races) != 1 {
		t.Fatalf("without lockset filter: races = %d, want 1", len(res2.Races))
	}
	if res2.Races[0].Class != ClassConventional {
		t.Errorf("class = %v, want conventional", res2.Races[0].Class)
	}
}

// interThreadSrc plants a class (b) race: event useEv uses ptr; a
// later event spawnEv forks a thread that frees it. A conventional
// detector orders useEv ≺ spawnEv ≺ thread and misses it.
const interThreadSrc = `
.method run(this) regs=1
    return-void
.end

.method useEv(holder) regs=3
    iget v1, holder, ptr
    invoke-virtual run, v1
    return-void
.end

.method freeBody(holder) regs=2
    const-null v1
    iput v1, holder, ptr
    return-void
.end

.method spawnEv(holder) regs=4
    const-method v1, freeBody
    fork v1, holder -> v2
    join v2
    return-void
.end

.method sender(arg) regs=5
    sget-int v1, mainQ
    sget v0, holderObj
    const-method v2, useEv
    const-int v3, #0
    send v1, v2, v3, v0
    return-void
.end

.method sender2(arg) regs=5
    const-int v3, #20
    sleep v3                 ; keep the sends unordered but the free late
    sget-int v1, mainQ
    sget v0, holderObj
    const-method v2, spawnEv
    const-int v3, #0
    send v1, v2, v3, v0
    return-void
.end
`

func TestClassBInterThreadRace(t *testing.T) {
	res, _ := pipeline(t, interThreadSrc, Options{}, func(s *sim.System, p *dvm.Program) {
		main := s.AddLooper("main", 0)
		s.Heap().SetStatic(p.FieldID("mainQ"), dvm.Int64(main.Handle()))
		holder := s.Heap().New("Holder")
		pay := s.Heap().New("Payload")
		holder.Set(p.FieldID("ptr"), dvm.Obj(pay.ID))
		s.Heap().SetStatic(p.FieldID("holderObj"), dvm.Obj(holder.ID))
		if _, err := s.StartThread("s1", "sender", dvm.Null()); err != nil {
			t.Fatal(err)
		}
		if _, err := s.StartThread("s2", "sender2", dvm.Null()); err != nil {
			t.Fatal(err)
		}
	})
	if len(res.Races) != 1 {
		t.Fatalf("races = %d, want 1 (stats %+v)", len(res.Races), res.Stats)
	}
	if res.Races[0].Class != ClassInterThread {
		t.Errorf("class = %v, want inter-thread (missed by conventional detector)", res.Races[0].Class)
	}
}

func TestSameTaskUseFreeNotARace(t *testing.T) {
	src := `
.method run(this) regs=1
    return-void
.end

.method ev(holder) regs=3
    iget v1, holder, ptr
    invoke-virtual run, v1
    const-null v2
    iput v2, holder, ptr
    return-void
.end
`
	res, _ := pipeline(t, src, Options{}, func(s *sim.System, p *dvm.Program) {
		main := s.AddLooper("main", 0)
		holder := s.Heap().New("Holder")
		pay := s.Heap().New("Payload")
		holder.Set(p.FieldID("ptr"), dvm.Obj(pay.ID))
		if err := s.Inject(0, main, "ev", dvm.Obj(holder.ID), 0); err != nil {
			t.Fatal(err)
		}
	})
	if len(res.Races) != 0 {
		t.Fatalf("races = %d, want 0", len(res.Races))
	}
	if res.Stats.Uses != 1 || res.Stats.Frees != 1 {
		t.Errorf("uses=%d frees=%d, want 1/1", res.Stats.Uses, res.Stats.Frees)
	}
}

func TestDeduplicationBySite(t *testing.T) {
	// The same racy site pair, instantiated on three different holder
	// objects, must be reported once (three times with KeepDuplicates).
	src := `
.method run(this) regs=1
    return-void
.end

.method useEv(holder) regs=3
    iget v1, holder, ptr
    invoke-virtual run, v1
    return-void
.end

.method freeEv(holder) regs=2
    const-null v1
    iput v1, holder, ptr
    return-void
.end

.method sender(holder) regs=6
    sget-int v1, mainQ
    const-method v2, useEv
    const-method v3, freeEv
    const-int v4, #0
    send v1, v2, v4, holder
    return-void
.end

.method sender2(holder) regs=6
    const-int v4, #20
    sleep v4
    sget-int v1, mainQ
    const-method v3, freeEv
    const-int v4, #0
    send v1, v3, v4, holder
    return-void
.end
`
	build := func(s *sim.System, p *dvm.Program) {
		main := s.AddLooper("main", 0)
		s.Heap().SetStatic(p.FieldID("mainQ"), dvm.Int64(main.Handle()))
		for i := 0; i < 3; i++ {
			holder := s.Heap().New("Holder")
			pay := s.Heap().New("Payload")
			holder.Set(p.FieldID("ptr"), dvm.Obj(pay.ID))
			if _, err := s.StartThread("sa", "sender", dvm.Obj(holder.ID)); err != nil {
				t.Fatal(err)
			}
			if _, err := s.StartThread("sb", "sender2", dvm.Obj(holder.ID)); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, _ := pipeline(t, src, Options{}, build)
	if len(res.Races) != 1 {
		t.Fatalf("deduped races = %d, want 1", len(res.Races))
	}
	if res.Stats.Duplicates < 2 {
		t.Errorf("duplicates = %d, want >= 2", res.Stats.Duplicates)
	}
	res2, _ := pipeline(t, src, Options{KeepDuplicates: true}, build)
	if len(res2.Races) != 3 {
		t.Fatalf("KeepDuplicates races = %d, want 3", len(res2.Races))
	}
}

func TestGuardRegions(t *testing.T) {
	cases := []struct {
		kind       trace.BranchKind
		pc, target trace.PC
		in, out    trace.PC
	}{
		// if-eqz forward: safe strictly between branch and target.
		{trace.BranchIfEqz, 10, 20, 15, 25},
		// if-eqz backward: safe after the branch to the end.
		{trace.BranchIfEqz, 10, 2, 11, 9},
		// if-nez forward: safe from target onward.
		{trace.BranchIfNez, 10, 20, 30, 15},
		// if-nez backward: safe between target and branch.
		{trace.BranchIfNez, 10, 2, 5, 15},
		// if-eq behaves like if-nez.
		{trace.BranchIfEq, 10, 20, 22, 11},
	}
	for _, c := range cases {
		lo, hi := GuardRegion(c.kind, c.pc, c.target)
		if !(c.in >= lo && c.in < hi) {
			t.Errorf("%v pc=%d target=%d: pc %d should be in [%d,%d)", c.kind, c.pc, c.target, c.in, lo, hi)
		}
		if c.out >= lo && c.out < hi {
			t.Errorf("%v pc=%d target=%d: pc %d should be outside [%d,%d)", c.kind, c.pc, c.target, c.out, lo, hi)
		}
	}
}

func TestClassStrings(t *testing.T) {
	if ClassIntraThread.String() != "intra-thread" ||
		ClassInterThread.String() != "inter-thread" ||
		ClassConventional.String() != "conventional" {
		t.Error("class strings wrong")
	}
}

func TestDetectRequiresInputs(t *testing.T) {
	if _, err := Detect(Input{}, Options{}); err == nil {
		t.Error("Detect must reject nil inputs")
	}
}

func TestCountByClass(t *testing.T) {
	r := &Result{Races: []Race{
		{Class: ClassIntraThread}, {Class: ClassInterThread},
		{Class: ClassInterThread}, {Class: ClassConventional},
	}}
	a, b, c := r.CountByClass()
	if a != 1 || b != 2 || c != 1 {
		t.Errorf("counts = %d/%d/%d", a, b, c)
	}
}

// aliasEvictSrc hides a guard from the dynamic heuristic: the tested
// pointer's last read is evicted by an aliased read of the same
// object between the branch and the dereference, so the dynamic
// window matching binds the use to aliasQ but the guard to ptrQ and
// fails to prune. Statically the deref register chains to the ptrQ
// load the branch tests.
const aliasEvictSrc = `
.method sink(o) regs=1
    return-void
.end

.method setup(act) regs=2
    new v1, Obj
    iput v1, act, ptrQ
    iput v1, act, aliasQ
    return-void
.end

.method doUse(act) regs=3
    iget v1, act, ptrQ
    if-eqz v1, out
    iget v2, act, aliasQ
    invoke-virtual sink, v1
out:
    return-void
.end

.method onBind(act) regs=5
    sget-int v1, mainQ
    const-method v2, doUse
    const-int v3, #0
    send v1, v2, v3, act
    const-int v4, #0
    return v4
.end

.method onStart(act) regs=4
    sget-int v1, svc
    const-method v2, onBind
    rpc v1, v2, act -> v3
    return-void
.end

.method onFree(act) regs=2
    const-null v1
    iput v1, act, aliasQ
    return-void
.end
`

func buildAliasEvict(t *testing.T) func(s *sim.System, p *dvm.Program) {
	return func(s *sim.System, p *dvm.Program) {
		main := s.AddLooper("main", 0)
		svc := s.AddService("Svc", 1)
		s.Heap().SetStatic(p.FieldID("mainQ"), dvm.Int64(main.Handle()))
		s.Heap().SetStatic(p.FieldID("svc"), dvm.Int64(svc))
		act := s.Heap().New("Activity")
		for i, m := range []string{"setup", "onStart", "onFree"} {
			if err := s.Inject(int64(100*i), main, m, dvm.Obj(act.ID), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestStaticGuardPruning checks what covers the alias-eviction guard:
// plain dynamic matching reports the use as a race (the if-guard
// heuristic never sees its guard), and precise use matching, which
// binds the deref to the ptrQ load the branch tests, drops it before
// it becomes a candidate — ptrQ itself is never freed.
func TestStaticGuardPruning(t *testing.T) {
	res, _ := pipeline(t, aliasEvictSrc, Options{}, buildAliasEvict(t))
	if len(res.Races) != 1 {
		t.Fatalf("plain: races = %d (%+v), want 1 (dynamic matching must miss this guard)", len(res.Races), res.Stats)
	}
	if res.Stats.FilteredIfGuard != 0 {
		t.Fatalf("FilteredIfGuard = %d, want 0: the dynamic heuristic should not see this guard", res.Stats.FilteredIfGuard)
	}

	p, err := asm.Assemble(aliasEvictSrc)
	if err != nil {
		t.Fatal(err)
	}
	col := trace.NewCollector()
	s := sim.NewSystem(p, sim.Config{Tracer: col, Seed: 1})
	buildAliasEvict(t)(s, p)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	g, err := hb.Build(col.T, hb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Detect(Input{Trace: col.T, Graph: g, DerefSources: dataflow.DerefSources(p)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Candidates != 0 || len(got.Races) != 0 {
		t.Errorf("with DerefSources: candidates = %d, races = %d; want 0, 0", got.Stats.Candidates, len(got.Races))
	}
}
