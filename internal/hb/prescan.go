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
// share one. Its memory is O(reduced nodes), never O(trace): a
// streaming scan retains only the redOp records, not the entries.
type Prescan struct {
	tr     *trace.Trace
	nodes  []node
	redOps []redOp
	// taskNodes holds node ids per task, ascending by seq.
	taskNodes map[trace.TaskID][]int32

	begins map[trace.TaskID]int32 // node id of begin(t)
	ends   map[trace.TaskID]int32 // node id of end(t)
	// queueSends lists sends per queue in trace order.
	queueSends map[trace.QueueID][]sendInfo
	// looperEvents lists events per looper in begin order.
	looperEvents map[trace.TaskID][]trace.TaskID

	// baseSucc lists the model-independent base edges (every rule
	// group except the conventional looper total order, which only the
	// baseline model adds) by source, in derivation order: node u's
	// successors are baseSucc[baseOff[u]:baseOff[u+1]]. baseEdges
	// collects them during Finish and is released after.
	baseOff   []int32
	baseSucc  []int32
	baseEdges []edge
	// ix is the exit and entry index both models' closures share.
	ix *anchorIndex
}

// Scan performs the shared single pass over the trace: reduced-node
// collection plus the model-independent base edges. Both causality
// model variants build from the same Prescan without rescanning the
// trace.
func Scan(tr *trace.Trace) (*Prescan, error) {
	sc := NewScanner(tr)
	reduced := 0
	for i := range tr.Entries {
		if isReducedOp(tr.Entries[i].Op) {
			reduced++
		}
	}
	sc.ps.nodes = make([]node, 0, reduced)
	sc.ps.redOps = make([]redOp, 0, reduced)
	for i := range tr.Entries {
		if err := sc.Consume(&tr.Entries[i]); err != nil {
			return nil, err
		}
	}
	return sc.Finish(), nil
}

// Trace returns the scanned trace.
func (ps *Prescan) Trace() *trace.Trace { return ps.tr }

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
// tables; Entries may be empty).
func NewScanner(header *trace.Trace) *Scanner {
	return &Scanner{ps: &Prescan{
		tr:           header,
		taskNodes:    make(map[trace.TaskID][]int32),
		begins:       make(map[trace.TaskID]int32),
		ends:         make(map[trace.TaskID]int32),
		queueSends:   make(map[trace.QueueID][]sendInfo),
		looperEvents: make(map[trace.TaskID][]trace.TaskID),
	}}
}

// Consume advances the scan by one entry. The entry is not retained.
func (s *Scanner) Consume(e *trace.Entry) error {
	i := s.i
	s.i++
	ps := s.ps
	if !isReducedOp(e.Op) {
		return nil
	}
	id := int32(len(ps.nodes))
	ps.nodes = append(ps.nodes, node{seq: i, task: e.Task})
	ps.taskNodes[e.Task] = append(ps.taskNodes[e.Task], id)
	ro := redOp{op: e.Op}
	switch e.Op {
	case trace.OpBegin:
		if _, dup := ps.begins[e.Task]; dup {
			return fmt.Errorf("hb: duplicate begin for t%d", e.Task)
		}
		ps.begins[e.Task] = id
		if ps.tr.IsEventTask(e.Task) {
			lo := ps.tr.LooperOf(e.Task)
			ps.looperEvents[lo] = append(ps.looperEvents[lo], e.Task)
		}
		ro.ext = e.External
	case trace.OpEnd:
		ps.ends[e.Task] = id
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

// Finish derives the base edges and the anchor index and returns the
// sealed Prescan.
func (s *Scanner) Finish() *Prescan {
	ps := s.ps
	ps.collectBaseEdges()
	ps.redOps = nil // only the base-edge pass reads them
	ps.baseOff = make([]int32, len(ps.nodes)+1)
	for _, e := range ps.baseEdges {
		ps.baseOff[e.u+1]++
	}
	for u := range ps.nodes {
		ps.baseOff[u+1] += ps.baseOff[u]
	}
	ps.baseSucc = make([]int32, len(ps.baseEdges))
	fill := slices.Clone(ps.baseOff[:len(ps.nodes)])
	for _, e := range ps.baseEdges {
		ps.baseSucc[fill[e.u]] = e.v
		fill[e.u]++
	}
	ps.baseEdges = nil
	ps.ix = ps.buildAnchorIndex()
	return ps
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
	ps.baseEdges = append(ps.baseEdges, edge{u, v})
	return true
}

// collectBaseEdges runs over the retained redOp records (node id
// order is entry order restricted to reduced ops, so this visits the
// same operations in the same order as a full second pass over the
// trace would).
func (ps *Prescan) collectBaseEdges() {
	// Program-order chains within each task.
	for _, ns := range ps.taskNodes {
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
		case trace.OpFork:
			if b, ok := ps.begins[trace.TaskID(ro.arg)]; ok {
				ps.addBase(id, b)
			}
		case trace.OpJoin:
			if en, ok := ps.ends[trace.TaskID(ro.arg)]; ok {
				ps.addBase(en, id)
			}
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
		case trace.OpSend, trace.OpSendAtFront:
			if b, ok := ps.begins[trace.TaskID(ro.arg)]; ok {
				ps.addBase(id, b)
			}
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
		prevTask := ps.nodes[externals[i-1]].task
		if en, ok := ps.ends[prevTask]; ok {
			ps.addBase(en, externals[i])
		}
	}
}
