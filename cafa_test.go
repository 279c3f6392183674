package cafa

import (
	"bytes"
	"strings"
	"testing"
)

// The quick-start flow from the package documentation, end to end.
func TestQuickstartFlow(t *testing.T) {
	prog := MustAssemble(`
.method run(this) regs=1
    return-void
.end

.method onUse(h) regs=3
    iget v1, h, session
    invoke-virtual run, v1
    return-void
.end

.method onFree(h) regs=2
    const-null v1
    iput v1, h, session
    return-void
.end

.method sender(h) regs=5
    sget-int v1, mainQ
    const-method v2, onUse
    const-int v3, #0
    send v1, v2, v3, h
    return-void
.end

.method sender2(h) regs=5
    const-int v3, #20
    sleep v3
    sget-int v1, mainQ
    const-method v2, onFree
    const-int v3, #0
    send v1, v2, v3, h
    return-void
.end
`)
	col := NewCollector()
	sys := NewSystem(prog, SystemConfig{Tracer: col, Seed: 1})
	main := sys.AddLooper("main", 0)
	sys.Heap().SetStatic(prog.FieldID("mainQ"), Int(main.Handle()))
	holder := sys.Heap().New("Activity")
	session := sys.Heap().New("Session")
	holder.Set(prog.FieldID("session"), Obj(session))
	if _, err := sys.StartThread("s1", "sender", Obj(holder)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.StartThread("s2", "sender2", Obj(holder)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(col.T, AnalyzeOptions{Naive: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Races) != 1 {
		t.Fatalf("races = %d, want 1 (stats %+v)", len(rep.Races), rep.Stats)
	}
	if rep.Races[0].Class != ClassIntraThread {
		t.Errorf("class = %v", rep.Races[0].Class)
	}
	desc := rep.Describe(rep.Races[0])
	if !strings.Contains(desc, "session") || !strings.Contains(desc, "onUse") {
		t.Errorf("Describe = %q", desc)
	}
	if rep.GraphStats.Nodes == 0 {
		t.Error("graph stats empty")
	}
}

func TestDeviceSinkThroughFacade(t *testing.T) {
	prog := MustAssemble(`
.method main(arg) regs=2
    const-int v1, #1
    sput-int v1, ran
    return-void
.end
`)
	sink := NewDeviceSink()
	sys := NewSystem(prog, SystemConfig{Tracer: sink})
	if _, err := sys.StartThread("main", "main", Null()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if sink.Entries() == 0 || sink.Bytes() == 0 {
		t.Error("device sink recorded nothing")
	}
}

func TestConventionalGraphThroughFacade(t *testing.T) {
	prog := MustAssemble(`
.method onA(arg) regs=1
    return-void
.end

.method onB(arg) regs=1
    return-void
.end

.method sendA(q) regs=4
    const-method v1, onA
    const-int v2, #0
    const-null v3
    send q, v1, v2, v3
    return-void
.end

.method sendB(q) regs=4
    const-method v1, onB
    const-int v2, #0
    const-null v3
    send q, v1, v2, v3
    return-void
.end
`)
	col := NewCollector()
	sys := NewSystem(prog, SystemConfig{Tracer: col, Seed: 1})
	looper := sys.AddLooper("main", 0)
	if _, err := sys.StartThread("sa", "sendA", Int(looper.Handle())); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.StartThread("sb", "sendB", Int(looper.Handle())); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	var a, b TaskID
	for _, ti := range col.T.Tasks {
		switch ti.Name {
		case "onA":
			a = ti.ID
		case "onB":
			b = ti.ID
		}
	}
	g, err := BuildGraph(col.T, GraphOptions{})
	if err != nil {
		t.Fatal(err)
	}
	conv, err := BuildGraph(col.T, GraphOptions{Conventional: true})
	if err != nil {
		t.Fatal(err)
	}
	if !g.TasksConcurrent(a, b) {
		t.Error("independently sent events must be concurrent in the event-driven model")
	}
	if conv.TasksConcurrent(a, b) {
		t.Error("conventional model must totally order looper events")
	}
}

func TestTraceRoundTripThroughFacade(t *testing.T) {
	prog := MustAssemble(`
.method main(arg) regs=2
    const-int v1, #1
    sput-int v1, ran
    return-void
.end
`)
	col := NewCollector()
	sys := NewSystem(prog, SystemConfig{Tracer: col})
	if _, err := sys.StartThread("main", "main", Null()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := col.T.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != col.T.Len() {
		t.Errorf("round trip lost entries: %d vs %d", back.Len(), col.T.Len())
	}
	if _, err := BuildGraph(back, GraphOptions{}); err != nil {
		t.Fatal(err)
	}
}
