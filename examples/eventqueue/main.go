// Eventqueue walks through the event-queue causality rules of §3.3
// (Figure 4): which pairs of events the model orders, and why. Each
// scenario runs on the simulated runtime, is traced, and the derived
// happens-before relations are queried from the graph.
package main

import (
	"fmt"
	"log"

	"cafa"
)

const src = `
.method onA(arg) regs=1
    return-void
.end

.method onB(arg) regs=1
    return-void
.end

; Figure 4b: two sends, same delay -> FIFO orders A before B.
.method fifoSender(q) regs=5
    const-method v1, onA
    const-method v2, onB
    const-null v3
    const-int v4, #1
    send q, v1, v4, v3
    send q, v2, v4, v3
    return-void
.end

; Figure 4c: A delayed 5ms, B sent 2ms later with no delay -> B may
; run first, no order derivable.
.method delaySender(q) regs=6
    const-method v1, onA
    const-method v2, onB
    const-null v3
    const-int v4, #5
    send q, v1, v4, v3
    const-int v5, #2
    sleep v5
    const-int v4, #0
    send q, v2, v4, v3
    return-void
.end

; Figure 4d: an event on the same looper sends A then sendAtFront B;
; looper atomicity guarantees B is enqueued before A can run -> B
; always precedes A.
.method onC(q) regs=5
    const-method v1, onA
    const-method v2, onB
    const-null v3
    const-int v4, #0
    send q, v1, v4, v3
    send-front q, v2, v3
    return-void
.end

; Figure 4e: the same two sends from a regular thread -> no guarantee.
.method threadSender(q) regs=5
    const-method v1, onA
    const-method v2, onB
    const-null v3
    const-int v4, #0
    send q, v1, v4, v3
    send-front q, v2, v3
    return-void
.end
`

type scenario struct {
	name   string
	figure string
	wire   func(sys *cafa.System, main *cafa.Looper, prog *cafa.Program) error
	expect string
}

func main() {
	scenarios := []scenario{
		{
			name: "FIFO, equal delays", figure: "4b",
			wire: func(sys *cafa.System, main *cafa.Looper, prog *cafa.Program) error {
				_, err := sys.StartThread("T", "fifoSender", cafa.Int(main.Handle()))
				return err
			},
			expect: "A happens-before B (queue rule 1)",
		},
		{
			name: "earlier send, larger delay", figure: "4c",
			wire: func(sys *cafa.System, main *cafa.Looper, prog *cafa.Program) error {
				_, err := sys.StartThread("T", "delaySender", cafa.Int(main.Handle()))
				return err
			},
			expect: "no order derivable",
		},
		{
			name: "sendAtFront from a looper event", figure: "4d",
			wire: func(sys *cafa.System, main *cafa.Looper, prog *cafa.Program) error {
				return sys.Inject(0, main, "onC", cafa.Int(main.Handle()), 0)
			},
			expect: "B happens-before A (queue rule 2 via atomicity)",
		},
		{
			name: "sendAtFront from a thread", figure: "4e",
			wire: func(sys *cafa.System, main *cafa.Looper, prog *cafa.Program) error {
				_, err := sys.StartThread("T", "threadSender", cafa.Int(main.Handle()))
				return err
			},
			expect: "no order derivable",
		},
	}

	for _, sc := range scenarios {
		prog := cafa.MustAssemble(src)
		col := cafa.NewCollector()
		sys := cafa.NewSystem(prog, cafa.SystemConfig{Tracer: col, Seed: 1})
		main := sys.AddLooper("main", 0)
		if err := sc.wire(sys, main, prog); err != nil {
			log.Fatal(err)
		}
		if err := sys.Run(); err != nil {
			log.Fatal(err)
		}
		g, err := cafa.BuildGraph(col.T, cafa.GraphOptions{})
		if err != nil {
			log.Fatal(err)
		}
		// Find the event tasks named onA / onB.
		var a, b cafa.TaskID
		for _, ti := range col.T.Tasks {
			switch ti.Name {
			case "onA":
				a = ti.ID
			case "onB":
				b = ti.ID
			}
		}
		var verdict string
		switch {
		case g.TaskOrdered(a, b):
			verdict = "A happens-before B"
		case g.TaskOrdered(b, a):
			verdict = "B happens-before A"
		default:
			verdict = "A and B are concurrent"
		}
		fmt.Printf("Figure %s — %s\n", sc.figure, sc.name)
		fmt.Printf("  model says: %-24s (paper: %s)\n", verdict, sc.expect)
		fmt.Printf("  graph: %d nodes, %d derived rule edges, %d fixpoint rounds\n\n",
			g.Stats().Nodes, g.Stats().RuleEdges, g.Stats().Rounds)
	}
}
