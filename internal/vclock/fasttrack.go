package vclock

import (
	"cafa/internal/trace"
)

// Report is a low-level race found by the thread-based detector.
type Report struct {
	Var  trace.VarID
	AIdx int // earlier access
	BIdx int // later access
}

// Clocks holds the per-entry vector clocks of the thread-based model.
// It materializes one clock copy per entry, so it is meant for the
// ordering oracle on small traces (tests); the FastTrack detector
// itself streams and never builds it.
type Clocks struct {
	At    []VC // clock of the performing task at each entry
	Slots map[trace.TaskID]int
}

// slotOf folds events into their looper thread: the naive application
// of a thread-based tool to an event-driven trace.
func slotOf(tr *trace.Trace, slots map[trace.TaskID]int, next *int, t trace.TaskID) int {
	id := taskKey(tr, t)
	if s, ok := slots[id]; ok {
		return s
	}
	s := *next
	*next = s + 1
	slots[id] = s
	return s
}

func taskKey(tr *trace.Trace, t trace.TaskID) trace.TaskID {
	if tr.IsEventTask(t) {
		return tr.LooperOf(t)
	}
	return t
}

// engine is the streaming state of the conventional happens-before
// model: total program order per thread (events folded in),
// fork/join, notify/wait, unlock→lock, send→begin, and IPC edges.
type engine struct {
	tr        *trace.Trace
	slots     map[trace.TaskID]int
	clocks    []VC
	lockRel   map[trace.LockID]VC
	monRel    map[trace.MonitorID]VC
	sendClock map[trace.TaskID]VC
	txnClock  map[trace.TxnID]VC
	endClock  map[trace.TaskID]VC
}

func newEngine(tr *trace.Trace) *engine {
	slots := make(map[trace.TaskID]int)
	next := 0
	// Pre-assign slots in first-appearance order for determinism. Fork
	// and send targets get slots too, even if they never begin within
	// the trace window.
	for i := range tr.Entries {
		e := &tr.Entries[i]
		slotOf(tr, slots, &next, e.Task)
		switch e.Op {
		case trace.OpFork, trace.OpJoin, trace.OpSend, trace.OpSendAtFront:
			slotOf(tr, slots, &next, e.Target)
		}
	}
	clocks := make([]VC, next)
	for i := range clocks {
		clocks[i] = New(next)
		clocks[i].Tick(i)
	}
	return &engine{
		tr:        tr,
		slots:     slots,
		clocks:    clocks,
		lockRel:   make(map[trace.LockID]VC),
		monRel:    make(map[trace.MonitorID]VC),
		sendClock: make(map[trace.TaskID]VC),
		txnClock:  make(map[trace.TxnID]VC),
		endClock:  make(map[trace.TaskID]VC),
	}
}

// step applies entry i and returns the performing slot and its
// current clock (a live reference — copy before storing).
func (en *engine) step(i int) (int, VC) {
	e := &en.tr.Entries[i]
	s := en.slots[taskKey(en.tr, e.Task)]
	c := en.clocks[s]
	switch e.Op {
	case trace.OpBegin:
		if sc, ok := en.sendClock[e.Task]; ok {
			c.Join(sc)
		}
	case trace.OpEnd:
		en.endClock[e.Task] = c.Copy()
	case trace.OpFork:
		ts := en.slots[taskKey(en.tr, e.Target)]
		en.clocks[ts].Join(c)
		c.Tick(s)
	case trace.OpJoin:
		if ec, ok := en.endClock[e.Target]; ok {
			c.Join(ec)
		}
	case trace.OpLock:
		if rc, ok := en.lockRel[e.Lock]; ok {
			c.Join(rc)
		}
	case trace.OpUnlock:
		en.lockRel[e.Lock] = c.Copy()
		c.Tick(s)
	case trace.OpNotify:
		// Accumulate across notifiers: a wait is ordered after every
		// earlier notify on the monitor, matching the graph model.
		acc := en.monRel[e.Monitor]
		if acc == nil {
			acc = New(len(en.clocks))
			en.monRel[e.Monitor] = acc
		}
		acc.Join(c)
		c.Tick(s)
	case trace.OpWait:
		if rc, ok := en.monRel[e.Monitor]; ok {
			c.Join(rc)
		}
	case trace.OpSend, trace.OpSendAtFront:
		en.sendClock[e.Target] = c.Copy()
		c.Tick(s)
	case trace.OpRPCCall, trace.OpRPCReply, trace.OpMsgSend:
		en.txnClock[e.Txn] = c.Copy()
		c.Tick(s)
	case trace.OpRPCHandle, trace.OpRPCRet, trace.OpMsgRecv:
		if tc, ok := en.txnClock[e.Txn]; ok {
			c.Join(tc)
		}
	}
	return s, c
}

// Compute walks the trace once, materializing the per-entry clocks of
// the conventional model (for the ordering oracle; O(entries × slots)
// memory — use on small traces).
func Compute(tr *trace.Trace) (*Clocks, error) {
	en := newEngine(tr)
	out := &Clocks{At: make([]VC, len(tr.Entries)), Slots: en.slots}
	for i := range tr.Entries {
		_, c := en.step(i)
		out.At[i] = c.Copy()
	}
	return out, nil
}

// Ordered reports entry i happens-before entry j under the
// conventional model.
func (c *Clocks) Ordered(tr *trace.Trace, i, j int) bool {
	if i >= j {
		return false
	}
	si := c.Slots[taskKey(tr, tr.Entries[i].Task)]
	// i ≺ j iff i's clock component is included in j's view.
	return c.At[i].Get(si) <= c.At[j].Get(si)
}

// varState is FastTrack's per-location metadata. The read set is kept
// sparse (slot → clock), bounding memory by the number of distinct
// reading threads rather than the total thread count.
type varState struct {
	write    Epoch
	lastWIdx int
	read     map[int]uint64 // slot -> last read clock
	readIdx  map[int]int    // slot -> entry index of that read
}

// FastTrack runs the epoch-based detector over the trace's memory
// accesses (both scalar and pointer) in one streaming pass. Folding
// events into loopers makes this exactly the "conventional data-race
// detector" the paper contrasts with: it cannot see intra-looper
// races.
func FastTrack(tr *trace.Trace) ([]Report, error) {
	en := newEngine(tr)
	vars := make(map[trace.VarID]*varState)
	var reports []Report
	for i := range tr.Entries {
		s, c := en.step(i)
		e := &tr.Entries[i]
		var isWrite bool
		switch e.Op {
		case trace.OpRead, trace.OpPtrRead:
			isWrite = false
		case trace.OpWrite, trace.OpPtrWrite:
			isWrite = true
		default:
			continue
		}
		vs := vars[e.Var]
		if vs == nil {
			vs = &varState{write: Epoch{Slot: -1}, lastWIdx: -1,
				read: make(map[int]uint64), readIdx: make(map[int]int)}
			vars[e.Var] = vs
		}
		// Write-X race: previous write not ordered before this access.
		if vs.write.Slot >= 0 && vs.write.Slot != s && !vs.write.LEQVC(c) {
			reports = append(reports, Report{Var: e.Var, AIdx: vs.lastWIdx, BIdx: i})
		}
		if isWrite {
			// Read-write races against the read set.
			for slot, clk := range vs.read {
				if slot != s && clk > c.Get(slot) {
					reports = append(reports, Report{Var: e.Var, AIdx: vs.readIdx[slot], BIdx: i})
				}
			}
			vs.write = Epoch{Slot: s, Clock: c.Get(s)}
			vs.lastWIdx = i
			vs.read = make(map[int]uint64)
			vs.readIdx = make(map[int]int)
		} else {
			vs.read[s] = c.Get(s)
			vs.readIdx[s] = i
		}
	}
	return reports, nil
}
