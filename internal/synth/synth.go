// Package synth generates synthetic event-driven traces with
// controllable send/event fan-out. The shape stresses exactly the
// analyzer paths the app models keep small: long chained-looper
// fixpoints (each level's queue order becomes derivable only after
// the previous level's round lands) and wide per-queue send sets
// (quadratic queue-rule pair scans), plus concurrent use/free traffic
// for the detector. Benchmarks and tests size it well past the app
// models to measure scaling.
package synth

import (
	"fmt"

	"cafa/internal/obs"
	"cafa/internal/trace"
)

// Generator observability (internal/obs): volume counters for
// synthetic workload production, accumulated once per generated
// trace.
var (
	cSynthTraces  = obs.NewCounter("synth_traces_total")
	cSynthEntries = obs.NewCounter("synth_entries_emitted_total")
)

// Config sizes a synthetic trace.
type Config struct {
	// Chain is the number of chained loopers. Events on looper i send
	// events to looper i+1, so the hb fixpoint needs about Chain
	// rounds — the incremental-closure stress axis.
	Chain int
	// EventsPer is the events sent to each looper (the per-queue send
	// fan-out; queue-rule work grows quadratically in it).
	EventsPer int
	// FreeThreads is the number of concurrent freeing threads; each
	// frees one pointer that events on every looper use, producing
	// Chain×FreeThreads use/free race candidates.
	FreeThreads int
	// Burst adds this many independent loopers whose queues receive
	// BurstEvents events directly from the driver. Their orderings all
	// resolve in the first fixpoint round — the bulk volume real app
	// traces are dominated by, against the Chain's multi-round tail.
	Burst int
	// BurstEvents is the events sent to each burst looper.
	BurstEvents int
	// AccessesPer pads every event body with this many benign scalar
	// reads of an event-private variable. They add no reduced nodes, no
	// detection candidates, and no lock traffic — pure trace length.
	// The knob scales entry volume independently of analysis work,
	// which is exactly what separates O(trace) batch memory from
	// O(window) streaming memory in the RSS benchmark.
	AccessesPer int
}

// Trace builds the synthetic trace. The result passes
// trace.Validate() and every derived ordering is consistent with the
// emitted execution order, matching a trace a real run would produce.
func Trace(cfg Config) *trace.Trace {
	col := trace.NewCollector()
	emit(cfg, col)
	cSynthTraces.Inc()
	cSynthEntries.Add(int64(len(col.T.Entries)))
	return col.T
}

// emit writes the synthetic trace to out, as the simulator writes a
// run: tasks are declared as they are numbered, in ascending ID order.
func emit(cfg Config, out trace.Tracer) {
	if cfg.Chain < 1 {
		cfg.Chain = 1
	}
	if cfg.EventsPer < 1 {
		cfg.EventsPer = 1
	}
	var now int64
	add := func(e trace.Entry) {
		e.Time = now
		now++
		out.Emit(e)
	}

	next := trace.TaskID(1)
	newTask := func(kind trace.TaskKind, name string, looper trace.TaskID, q trace.QueueID) trace.TaskID {
		id := next
		next++
		out.DeclareTask(trace.TaskInfo{ID: id, Kind: kind, Name: name, Looper: looper, Queue: q})
		return id
	}

	driver := newTask(trace.KindThread, "driver", 0, 0)
	loopers := make([]trace.TaskID, cfg.Chain)
	queues := make([]trace.QueueID, cfg.Chain)
	for i := range loopers {
		loopers[i] = newTask(trace.KindThread, fmt.Sprintf("L%d", i), 0, 0)
		queues[i] = trace.QueueID(i + 1)
	}
	events := make([][]trace.TaskID, cfg.Chain)
	for i := range events {
		events[i] = make([]trace.TaskID, cfg.EventsPer)
		for j := range events[i] {
			events[i][j] = newTask(trace.KindEvent, fmt.Sprintf("ev%d_%d", i, j), loopers[i], queues[i])
		}
	}
	bloopers := make([]trace.TaskID, cfg.Burst)
	bqueues := make([]trace.QueueID, cfg.Burst)
	bevents := make([][]trace.TaskID, cfg.Burst)
	for l := range bloopers {
		bloopers[l] = newTask(trace.KindThread, fmt.Sprintf("B%d", l), 0, 0)
		bqueues[l] = trace.QueueID(cfg.Chain + l + 1)
		bevents[l] = make([]trace.TaskID, cfg.BurstEvents)
		for j := range bevents[l] {
			bevents[l][j] = newTask(trace.KindEvent, fmt.Sprintf("bv%d_%d", l, j), bloopers[l], bqueues[l])
		}
	}
	// A front-sent event on the first looper, executed before the
	// normal sends (queue rule 3 traffic).
	front := newTask(trace.KindEvent, "front", loopers[0], queues[0])
	freers := make([]trace.TaskID, cfg.FreeThreads)
	for j := range freers {
		freers[j] = newTask(trace.KindThread, fmt.Sprintf("freer%d", j), 0, 0)
	}

	// Shared pointers: freer j races with the ptr_j uses on every
	// looper. Field j, owner object j+1, value object j+1.
	varOf := func(j int) trace.VarID { return trace.MakeVar(trace.ObjID(j+1), trace.FieldID(j+1)) }
	// Method ids: one per (level, event) use site so sites stay
	// distinct after dedup, plus one per freer.
	useMethod := func(i, j int) trace.MethodID { return trace.MethodID(1 + i*cfg.EventsPer + j) }
	freeMethod := func(j int) trace.MethodID {
		return trace.MethodID(1 + cfg.Chain*cfg.EventsPer + j)
	}
	burstMethod := func(l, j int) trace.MethodID {
		return trace.MethodID(1 + cfg.Chain*cfg.EventsPer + cfg.FreeThreads + l*cfg.BurstEvents + j)
	}

	add(trace.Entry{Task: driver, Op: trace.OpBegin})
	for i := range loopers {
		add(trace.Entry{Task: loopers[i], Op: trace.OpBegin})
	}
	for l := range bloopers {
		add(trace.Entry{Task: bloopers[l], Op: trace.OpBegin})
	}
	for _, f := range freers {
		add(trace.Entry{Task: driver, Op: trace.OpFork, Target: f})
	}
	// The driver seeds level 0: one sendAtFront, then ordered sends
	// with ascending delays (rule 1 applies to every ordered pair).
	add(trace.Entry{Task: driver, Op: trace.OpSendAtFront, Target: front, Queue: queues[0]})
	for j, ev := range events[0] {
		add(trace.Entry{Task: driver, Op: trace.OpSend, Target: ev, Queue: queues[0], Delay: int64(j)})
	}
	// Burst traffic: every send from the driver, ascending delays, so
	// queue rule 1 orders each burst queue completely in round one.
	for l := range bloopers {
		for j, ev := range bevents[l] {
			add(trace.Entry{Task: driver, Op: trace.OpSend, Target: ev, Queue: bqueues[l], Delay: int64(j)})
		}
	}
	add(trace.Entry{Task: driver, Op: trace.OpEnd})

	// Freeing threads run concurrently with everything below.
	for j, f := range freers {
		add(trace.Entry{Task: f, Op: trace.OpBegin})
		add(trace.Entry{Task: f, Op: trace.OpPtrWrite, Var: varOf(j), Value: trace.NullObj,
			PC: 1, Method: freeMethod(j)})
		add(trace.Entry{Task: f, Op: trace.OpEnd})
	}

	// The front event runs first on looper 0.
	add(trace.Entry{Task: front, Op: trace.OpBegin, Queue: queues[0]})
	add(trace.Entry{Task: front, Op: trace.OpEnd})

	// Benign filler: scalar reads of an event-private variable, a
	// no-op for every pass (see Config.AccessesPer).
	filler := func(ev trace.TaskID) {
		v := trace.MakeVar(trace.ObjID(1<<20+uint64(ev)), trace.FieldID(1<<20))
		for a := 0; a < cfg.AccessesPer; a++ {
			add(trace.Entry{Task: ev, Op: trace.OpRead, Var: v})
		}
	}

	// Each level's events run in send order; each uses its chain's
	// shared pointer and seeds the next level.
	for i := 0; i < cfg.Chain; i++ {
		for j, ev := range events[i] {
			add(trace.Entry{Task: ev, Op: trace.OpBegin, Queue: queues[i]})
			filler(ev)
			if j < cfg.FreeThreads {
				m := useMethod(i, j)
				add(trace.Entry{Task: ev, Op: trace.OpPtrRead, Var: varOf(j),
					Value: trace.ObjID(j + 1), PC: 1, Method: m})
				add(trace.Entry{Task: ev, Op: trace.OpDeref,
					Value: trace.ObjID(j + 1), PC: 2, Method: m})
			}
			if i+1 < cfg.Chain {
				add(trace.Entry{Task: ev, Op: trace.OpSend, Target: events[i+1][j],
					Queue: queues[i+1], Delay: int64(j)})
			}
			add(trace.Entry{Task: ev, Op: trace.OpEnd})
		}
	}

	// Burst events run last, in send order; each uses a shared pointer
	// so the detector sees candidate pairs against the freers.
	for l := range bloopers {
		for j, ev := range bevents[l] {
			add(trace.Entry{Task: ev, Op: trace.OpBegin, Queue: bqueues[l]})
			filler(ev)
			if cfg.FreeThreads > 0 {
				v := j % cfg.FreeThreads
				m := burstMethod(l, j)
				add(trace.Entry{Task: ev, Op: trace.OpPtrRead, Var: varOf(v),
					Value: trace.ObjID(v + 1), PC: 1, Method: m})
				add(trace.Entry{Task: ev, Op: trace.OpDeref,
					Value: trace.ObjID(v + 1), PC: 2, Method: m})
			}
			add(trace.Entry{Task: ev, Op: trace.OpEnd})
		}
	}
}
