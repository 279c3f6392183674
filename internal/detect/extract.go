// Package detect implements CAFA's use-free race detection (§4): it
// extracts uses (pointer reads that are later dereferenced) and frees
// (null stores) from a trace, enumerates concurrent use/free pairs
// under the event-driven causality model, and prunes false positives
// with the if-guard and intra-event-allocation heuristics plus the
// lockset mutual-exclusion check. It also provides the naive
// low-level conflicting-access detector used as the paper's
// motivation baseline (§4.1).
package detect

import (
	"cafa/internal/dataflow"
	"cafa/internal/obs"
	"cafa/internal/trace"
)

// Use is a pointer read whose value is later dereferenced (§4.1). The
// read is the racy operation; the deref records where it would blow
// up.
type Use struct {
	ReadIdx  int // trace index of the OpPtrRead
	DerefIdx int // trace index of the matched OpDeref
	Var      trace.VarID
	Obj      trace.ObjID // object the read obtained
	Task     trace.TaskID
	Method   trace.MethodID // method containing the deref
	ReadPC   trace.PC
	DerefPC  trace.PC
}

// Free is a null store to an object pointer.
type Free struct {
	Idx    int
	Var    trace.VarID
	Task   trace.TaskID
	Method trace.MethodID
	PC     trace.PC
}

// Alloc is a non-null store to an object pointer.
type Alloc struct {
	Idx  int
	Var  trace.VarID
	Task trace.TaskID
}

// guard is a logged branch matched to the pointer it tests.
type guard struct {
	idx    int
	kind   trace.BranchKind
	pc     trace.PC
	target trace.PC
	method trace.MethodID
	vr     trace.VarID // matched pointer location
	ok     bool        // matching succeeded
}

// extraction is the per-trace scan result.
type extraction struct {
	uses   []Use
	frees  []Free
	allocs []Alloc
	// tr is the header trace, which slots the tasks; guards holds each
	// slot's guards in trace order.
	tr     *trace.Trace
	guards [][]guard
	// allocSeqs maps (task, var) to ascending trace indexes of allocs.
	allocSeqs map[taskVar][]int
}

type taskVar struct {
	task trace.TaskID
	vr   trace.VarID
}

// lastRead tracks the most recent pointer read per object per task —
// the paper's "nearest previous pointer read that gets the same
// object ID" matching heuristic (§5.3). The heuristic is neither
// sound nor complete (Type III false positives come from exactly
// this), and we reproduce it faithfully.
type lastRead struct {
	idx    int
	vr     trace.VarID
	pc     trace.PC
	method trace.MethodID
}

// siteKey identifies a static instruction site.
type siteKey struct {
	method trace.MethodID
	pc     trace.PC
}

// Streaming-path observability (internal/obs): reads retire from the
// extractor's frontier either by eviction (a later read of the same
// object supersedes them) or by promotion to a Use; the stall
// histogram observes how many entries each read stayed pinned — the
// retirement lag that bounds the streaming window.
var (
	cStreamRetired = obs.NewCounter("stream_retired_reads_total")
	hStreamStall   = obs.NewHistogram("stream_read_stall_entries")
)

// Extractor is the extraction scan as a per-entry consumer: entries
// are consumed one at a time and may be discarded; only the compact
// use / free / alloc / guard records and the per-task read frontier
// are retained. It also captures the call stack live at each use and
// free (a streamed trace cannot be swept again later) and emits
// frontier-retirement metrics.
type Extractor struct {
	ex      *extraction
	sources map[dataflow.Key]dataflow.Source
	// reads and readsBySite are the read frontier by task slot.
	reads       []map[trace.ObjID]lastRead
	readsBySite []map[siteKey]lastRead
	usedReads   map[int]bool // read idx already promoted to a Use

	calls  liveStacks
	stacks map[int][]trace.MethodID
	live   int // unpromoted pinned reads (the frontier window)
}

// NewExtractor returns an Extractor over the task slots of a header
// trace (Entries may be empty). When sources is non-nil (the static
// data-flow extension of §6.3), dereferences resolve to the exact
// pointer-load site instead of the nearest same-object read.
func NewExtractor(header *trace.Trace, sources map[dataflow.Key]dataflow.Source) *Extractor {
	n := len(header.Tasks)
	x := &Extractor{
		ex: &extraction{
			tr:        header,
			guards:    make([][]guard, n),
			allocSeqs: make(map[taskVar][]int),
		},
		sources:   sources,
		reads:     make([]map[trace.ObjID]lastRead, n),
		usedReads: make(map[int]bool),
		calls:     liveStacks{},
		stacks:    make(map[int][]trace.MethodID),
	}
	if sources != nil {
		x.readsBySite = make([]map[siteKey]lastRead, n)
	}
	return x
}

// retire records one read leaving the frontier at entry i.
func (x *Extractor) retire(i, readIdx int) {
	cStreamRetired.Inc()
	hStreamStall.Observe(int64(i - readIdx))
}

// Live returns the number of unpromoted reads currently pinned — the
// frontier window size.
func (x *Extractor) Live() int { return x.live }

// Stacks returns the captured per-use/per-free call stacks keyed by
// trace index.
func (x *Extractor) Stacks() map[int][]trace.MethodID { return x.stacks }

// Consume processes entry i, whose task has slot slot (see
// trace.Trace.Slot). Entries must arrive in trace order.
func (x *Extractor) Consume(i int, e *trace.Entry, slot int32) {
	ex := x.ex
	switch e.Op {
	case trace.OpPtrRead:
		m := x.reads[slot]
		if m == nil {
			m = make(map[trace.ObjID]lastRead)
			x.reads[slot] = m
		}
		if old, had := m[e.Value]; had && !x.usedReads[old.idx] {
			x.retire(i, old.idx) // evicted by a newer read of the same object
		} else {
			x.live++
		}
		m[e.Value] = lastRead{idx: i, vr: e.Var, pc: e.PC, method: e.Method}
		if x.sources != nil {
			sm := x.readsBySite[slot]
			if sm == nil {
				sm = make(map[siteKey]lastRead)
				x.readsBySite[slot] = sm
			}
			sm[siteKey{e.Method, e.PC}] = lastRead{idx: i, vr: e.Var, pc: e.PC, method: e.Method}
		}

	case trace.OpPtrWrite:
		if e.Value == trace.NullObj {
			ex.frees = append(ex.frees, Free{
				Idx: i, Var: e.Var, Task: e.Task, Method: e.Method, PC: e.PC,
			})
			x.stacks[i] = x.calls.at(e.Task, e.Method)
		} else {
			ex.allocs = append(ex.allocs, Alloc{Idx: i, Var: e.Var, Task: e.Task})
			tv := taskVar{e.Task, e.Var}
			ex.allocSeqs[tv] = append(ex.allocSeqs[tv], i)
		}

	case trace.OpDeref:
		var lr lastRead
		var ok bool
		if x.sources != nil {
			src, known := x.sources[dataflow.Key{Method: e.Method, PC: e.PC}]
			switch {
			case known && src.Kind == dataflow.SrcFresh:
				// Freshly allocated object: never a use.
				return
			case known && src.Kind == dataflow.SrcLoad:
				// LoadMethod 0 means the load is in the deref's own
				// method; otherwise the interprocedural resolution
				// placed it in a caller (same task, earlier frame).
				lm := src.LoadMethod
				if lm == 0 {
					lm = e.Method
				}
				lr, ok = x.readsBySite[slot][siteKey{lm, src.LoadPC}]
			default:
				lr, ok = x.reads[slot][e.Value]
			}
		} else {
			lr, ok = x.reads[slot][e.Value]
		}
		if !ok || x.usedReads[lr.idx] {
			return
		}
		x.usedReads[lr.idx] = true
		ex.uses = append(ex.uses, Use{
			ReadIdx: lr.idx, DerefIdx: i, Var: lr.vr, Obj: e.Value,
			Task: e.Task, Method: e.Method, ReadPC: lr.pc, DerefPC: e.PC,
		})
		x.live--
		x.retire(i, lr.idx) // promoted to a Use
		x.stacks[i] = x.calls.at(e.Task, e.Method)

	case trace.OpBranch:
		g := guard{
			idx: i, kind: e.Branch, pc: e.PC, target: e.TargetPC, method: e.Method,
		}
		if lr, ok := x.reads[slot][e.Value]; ok {
			g.vr = lr.vr
			g.ok = true
		}
		ex.guards[slot] = append(ex.guards[slot], g)

	case trace.OpInvoke, trace.OpReturn:
		x.calls.step(e)
	}
}

// allocAfterIdx returns the first allocation to vr in task after
// trace index i (the free side of intra-event-allocation), or -1.
func (ex *extraction) allocAfterIdx(task trace.TaskID, vr trace.VarID, i int) int {
	seqs := ex.allocSeqs[taskVar{task, vr}]
	// seqs ascending; first > i?
	lo, hi := 0, len(seqs)
	for lo < hi {
		mid := (lo + hi) / 2
		if seqs[mid] <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(seqs) {
		return seqs[lo]
	}
	return -1
}

// allocBeforeIdx returns the first allocation to vr in task before
// trace index i (the use side of intra-event-allocation), or -1.
func (ex *extraction) allocBeforeIdx(task trace.TaskID, vr trace.VarID, i int) int {
	seqs := ex.allocSeqs[taskVar{task, vr}]
	if len(seqs) > 0 && seqs[0] < i {
		return seqs[0]
	}
	return -1
}
