package hb

import (
	"fmt"
	"slices"
	"sort"

	"cafa/internal/trace"
)

// edge is one directed graph edge between reduced nodes.
type edge struct {
	u, v int32
}

// redOp is the compact record retained per reduced node so the
// base-edge pass can run after a streaming scan without the entries.
// arg holds the one cross-edge operand the node's op uses (target
// task, monitor, listener, or transaction id).
type redOp struct {
	arg uint64
	op  trace.Op
	ext bool // OpBegin only: external event
}

// Prescan holds the trace-scan products shared by every graph variant
// built over one trace: the reduced node set, the per-task/per-queue
// indexes, and the base edges common to the event-driven and
// conventional models. A Prescan is immutable after Scan (or
// Scanner.Finish) returns, so concurrent BuildFromScan calls may
// share one. Its memory is O(reduced nodes + tasks), never O(trace):
// a streaming scan retains only the redOp records, not the entries.
// Per-task state lives in slices indexed by the trace's task slots.
type Prescan struct {
	tr     *trace.Trace
	nodes  []node
	redOps []redOp
	// taskNodes holds node ids task by task, each task's ascending by
	// seq: slot s's are taskNodes[taskOff[s]:taskOff[s+1]].
	taskOff   []int32
	taskNodes []int32

	begins []int32 // by slot: node id of begin(t), or -1
	ends   []int32 // by slot: node id of end(t), or -1
	// queueSends lists sends per queue in trace order.
	queueSends map[trace.QueueID][]sendInfo
	// looperEvents holds event slots looper by looper, each looper's
	// in begin order: looper slot l's are
	// looperEvents[looperOff[l]:looperOff[l+1]].
	looperOff    []int32
	looperEvents []int32

	// baseSucc lists the model-independent base edges (every rule
	// group except the conventional looper total order, which only the
	// baseline model adds) by source, in derivation order: node u's
	// successors are baseSucc[baseOff[u]:baseOff[u+1]]. baseList
	// collects them during Finish and is released after.
	baseOff  []int32
	baseSucc []int32
	baseList []edge
	// ix is the exit and entry index both models' closures share.
	ix *anchorIndex
}

// Scan performs the shared single pass over the trace: reduced-node
// collection plus the model-independent base edges. Both causality
// model variants build from the same Prescan without rescanning the
// trace. The trace need not have been validated, but every task an
// entry names must be declared: Scan fails on the first that is not.
func Scan(tr *trace.Trace) (*Prescan, error) {
	sc := NewScanner(tr)
	if err := tr.Sweep(func(_ int, e *trace.Entry, s int32) error { return sc.Consume(e, s) }); err != nil {
		return nil, err
	}
	return sc.Finish(), nil
}

// Trace returns the scanned trace.
func (ps *Prescan) Trace() *trace.Trace { return ps.tr }

// nodesOf returns task t's node ids, ascending by seq.
func (ps *Prescan) nodesOf(t trace.TaskID) []int32 {
	return ps.slotNodes(ps.tr.Slot(t))
}

// slotNodes returns the node ids of the task in slot s (none for -1),
// ascending by seq.
func (ps *Prescan) slotNodes(s int32) []int32 {
	if s < 0 {
		return nil
	}
	return ps.taskNodes[ps.taskOff[s]:ps.taskOff[s+1]]
}

// eventsOf returns the event slots of the looper in slot l, in begin
// order.
func (ps *Prescan) eventsOf(l int32) []int32 {
	return ps.looperEvents[ps.looperOff[l]:ps.looperOff[l+1]]
}

// nodeOf returns the entry of a by-slot node table for task t, or -1.
func (ps *Prescan) nodeOf(bySlot []int32, t trace.TaskID) int32 {
	if s := ps.tr.Slot(t); s >= 0 {
		return bySlot[s]
	}
	return -1
}

// Scanner is the streaming form of Scan: entries are consumed one at
// a time and may be discarded by the caller immediately after each
// Consume. Finish derives the base edges from the retained redOp
// records and seals the Prescan. The header trace only supplies the
// task table; it need not hold entries.
type Scanner struct {
	ps *Prescan
	i  int
}

// NewScanner returns a Scanner over a header trace (task and name
// tables; Entries may be empty). The node tables are sized from the
// header: most tasks have a begin, an end and the fork or send that
// created them.
func NewScanner(header *trace.Trace) *Scanner {
	n := len(header.Tasks)
	ps := &Prescan{
		tr:         header,
		nodes:      make([]node, 0, min(3*n, header.Len())),
		begins:     make([]int32, n),
		ends:       make([]int32, n),
		queueSends: make(map[trace.QueueID][]sendInfo, len(header.Queues)),
	}
	ps.redOps = make([]redOp, 0, cap(ps.nodes))
	for s := range ps.begins {
		ps.begins[s], ps.ends[s] = -1, -1
	}
	return &Scanner{ps: ps}
}

// Consume advances the scan by one entry whose task has slot slot (see
// trace.Trace.Slot). The entry is not retained.
func (s *Scanner) Consume(e *trace.Entry, slot int32) error {
	i := s.i
	s.i++
	ps := s.ps
	if !isReducedOp(e.Op) {
		return nil
	}
	id := int32(len(ps.nodes))
	ps.nodes = append(ps.nodes, node{seq: i, slot: slot})
	ro := redOp{op: e.Op}
	switch e.Op {
	case trace.OpBegin:
		if ps.begins[slot] >= 0 {
			return fmt.Errorf("hb: duplicate begin for t%d", e.Task)
		}
		ps.begins[slot] = id
		ro.ext = e.External
	case trace.OpEnd:
		ps.ends[slot] = id
	case trace.OpSend, trace.OpSendAtFront:
		ps.queueSends[e.Queue] = append(ps.queueSends[e.Queue], sendInfo{
			node: id, event: e.Target, delay: e.Delay, front: e.Op == trace.OpSendAtFront,
		})
		ro.arg = uint64(e.Target)
	case trace.OpFork, trace.OpJoin:
		ro.arg = uint64(e.Target)
	case trace.OpNotify, trace.OpWait:
		ro.arg = uint64(e.Monitor)
	case trace.OpRegister, trace.OpPerform:
		ro.arg = uint64(e.Listener)
	case trace.OpRPCCall, trace.OpRPCHandle, trace.OpRPCReply, trace.OpRPCRet,
		trace.OpMsgSend, trace.OpMsgRecv:
		ro.arg = uint64(e.Txn)
	}
	ps.redOps = append(ps.redOps, ro)
	return nil
}

// Finish groups the nodes by task and the events by looper, derives
// the base edges and the anchor index, and returns the sealed Prescan.
func (s *Scanner) Finish() *Prescan {
	ps := s.ps
	ps.taskOff, ps.taskNodes = ps.groupByTask()
	ps.looperOff, ps.looperEvents = ps.groupByLooper()
	ps.collectBaseEdges()
	ps.redOps = nil // only the base-edge pass reads them
	ps.baseOff = make([]int32, len(ps.nodes)+1)
	for _, e := range ps.baseList {
		ps.baseOff[e.u+1]++
	}
	for u := range ps.nodes {
		ps.baseOff[u+1] += ps.baseOff[u]
	}
	ps.baseSucc = make([]int32, len(ps.baseList))
	fill := slices.Clone(ps.baseOff[:len(ps.nodes)])
	for _, e := range ps.baseList {
		ps.baseSucc[fill[e.u]] = e.v
		fill[e.u]++
	}
	ps.baseList = nil
	ps.ix = ps.buildAnchorIndex()
	return ps
}

// groupBy lays n items out by key, each key's in item order: key k's
// items are out[off[k]:off[k+1]]. keyOf returns -1 to leave an item
// out.
func groupBy(keys, n int, keyOf func(i int) int32) (off, out []int32) {
	off = make([]int32, keys+1)
	for i := range n {
		if k := keyOf(i); k >= 0 {
			off[k+1]++
		}
	}
	for k := range keys {
		off[k+1] += off[k]
	}
	out = make([]int32, off[keys])
	fill := slices.Clone(off[:keys])
	for i := range n {
		if k := keyOf(i); k >= 0 {
			out[fill[k]] = int32(i)
			fill[k]++
		}
	}
	return off, out
}

// groupByTask lists the node ids by task slot.
func (ps *Prescan) groupByTask() (off, nodes []int32) {
	return groupBy(len(ps.tr.Tasks), len(ps.nodes), func(i int) int32 { return ps.nodes[i].slot })
}

// groupByLooper lists each looper's events, as slots, in begin order:
// begin nodes of events, grouped by their looper's slot. An event
// whose looper is not declared is in no group.
func (ps *Prescan) groupByLooper() (off, events []int32) {
	off, events = groupBy(len(ps.tr.Tasks), len(ps.nodes), func(i int) int32 {
		ti := &ps.tr.Tasks[ps.nodes[i].slot]
		if ps.redOps[i].op != trace.OpBegin || ti.Kind != trace.KindEvent {
			return -1
		}
		return ps.tr.Slot(ti.Looper)
	})
	for k, id := range events {
		events[k] = ps.nodes[id].slot
	}
	return off, events
}

// baseSuccOf returns node u's base-edge successors. The slice is
// capped at its length, so a graph that appends to it gets a copy and
// the shared Prescan is never written.
func (ps *Prescan) baseSuccOf(u int) []int32 {
	lo, hi := ps.baseOff[u], ps.baseOff[u+1]
	return ps.baseSucc[lo:hi:hi]
}

// addBase records u → v in the shared base-edge list. Edges always
// point forward in trace order; violations indicate a malformed trace
// and are dropped (same policy as Graph.addEdge).
func (ps *Prescan) addBase(u, v int32) bool {
	if u < 0 || v < 0 || u == v {
		return false
	}
	if ps.nodes[u].seq >= ps.nodes[v].seq {
		return false
	}
	ps.baseList = append(ps.baseList, edge{u, v})
	return true
}

// collectBaseEdges runs over the retained redOp records (node id
// order is entry order restricted to reduced ops, so this visits the
// same operations in the same order as a full second pass over the
// trace would).
func (ps *Prescan) collectBaseEdges() {
	// Program-order chains within each task.
	for s := range int32(len(ps.tr.Tasks)) {
		ns := ps.slotNodes(s)
		for i := 1; i < len(ns); i++ {
			ps.addBase(ns[i-1], ns[i])
		}
	}

	type monPair struct {
		notifies []int32
		waits    []int32
	}
	monitors := make(map[trace.MonitorID]*monPair)
	listeners := make(map[trace.ListenerID]*monPair) // registers / performs
	type txnNodes struct {
		call, handle, reply, ret int32
	}
	txns := make(map[trace.TxnID]*txnNodes)
	msgs := make(map[trace.TxnID]*txnNodes) // call=send, handle=recv
	var externals []int32                   // begin nodes of external events, in order

	getTxn := func(m map[trace.TxnID]*txnNodes, id trace.TxnID) *txnNodes {
		tn := m[id]
		if tn == nil {
			tn = &txnNodes{call: -1, handle: -1, reply: -1, ret: -1}
			m[id] = tn
		}
		return tn
	}

	for id32 := range ps.redOps {
		id := int32(id32)
		ro := &ps.redOps[id32]
		switch ro.op {
		case trace.OpFork, trace.OpSend, trace.OpSendAtFront:
			ps.addBase(id, ps.nodeOf(ps.begins, trace.TaskID(ro.arg)))
		case trace.OpJoin:
			ps.addBase(ps.nodeOf(ps.ends, trace.TaskID(ro.arg)), id)
		case trace.OpNotify:
			mp := monitors[trace.MonitorID(ro.arg)]
			if mp == nil {
				mp = &monPair{}
				monitors[trace.MonitorID(ro.arg)] = mp
			}
			mp.notifies = append(mp.notifies, id)
		case trace.OpWait:
			mp := monitors[trace.MonitorID(ro.arg)]
			if mp == nil {
				mp = &monPair{}
				monitors[trace.MonitorID(ro.arg)] = mp
			}
			mp.waits = append(mp.waits, id)
		case trace.OpRegister:
			lp := listeners[trace.ListenerID(ro.arg)]
			if lp == nil {
				lp = &monPair{}
				listeners[trace.ListenerID(ro.arg)] = lp
			}
			lp.notifies = append(lp.notifies, id)
		case trace.OpPerform:
			lp := listeners[trace.ListenerID(ro.arg)]
			if lp == nil {
				lp = &monPair{}
				listeners[trace.ListenerID(ro.arg)] = lp
			}
			lp.waits = append(lp.waits, id)
		case trace.OpRPCCall:
			getTxn(txns, trace.TxnID(ro.arg)).call = id
		case trace.OpRPCHandle:
			getTxn(txns, trace.TxnID(ro.arg)).handle = id
		case trace.OpRPCReply:
			getTxn(txns, trace.TxnID(ro.arg)).reply = id
		case trace.OpRPCRet:
			getTxn(txns, trace.TxnID(ro.arg)).ret = id
		case trace.OpMsgSend:
			getTxn(msgs, trace.TxnID(ro.arg)).call = id
		case trace.OpMsgRecv:
			getTxn(msgs, trace.TxnID(ro.arg)).handle = id
		case trace.OpBegin:
			if ro.ext {
				externals = append(externals, id)
			}
		}
	}

	// Signal-and-wait: notify(m) ≺ every later wait(m).
	for _, mp := range monitors {
		for _, n := range mp.notifies {
			for _, w := range mp.waits {
				if ps.nodes[n].seq < ps.nodes[w].seq {
					ps.addBase(n, w)
				}
			}
		}
	}
	// Event listener: register(l) ≺ every later perform(l).
	for _, lp := range listeners {
		for _, r := range lp.notifies {
			for _, pf := range lp.waits {
				if ps.nodes[r].seq < ps.nodes[pf].seq {
					ps.addBase(r, pf)
				}
			}
		}
	}
	// IPC transactions.
	for _, tn := range txns {
		if tn.call >= 0 && tn.handle >= 0 {
			ps.addBase(tn.call, tn.handle)
		}
		if tn.reply >= 0 && tn.ret >= 0 {
			ps.addBase(tn.reply, tn.ret)
		}
	}
	for _, tn := range msgs {
		if tn.call >= 0 && tn.handle >= 0 {
			ps.addBase(tn.call, tn.handle)
		}
	}
	// External input rule: end(e_i) ≺ begin(e_{i+1}) over external
	// events in begin order (transitivity chains the rest).
	sort.Slice(externals, func(i, j int) bool {
		return ps.nodes[externals[i]].seq < ps.nodes[externals[j]].seq
	})
	for i := 1; i < len(externals); i++ {
		ps.addBase(ps.ends[ps.nodes[externals[i-1]].slot], externals[i])
	}
}
