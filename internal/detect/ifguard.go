package detect

import "cafa/internal/trace"

// maxPC stands in for the end of the function (∞ in Figure 6).
const maxPC = trace.PC(1<<32 - 1)

// GuardRegion returns the half-open PC interval [lo, hi) within the
// guard's method in which a dereference of the tested pointer is
// assumed safe (Figure 6). It is exported so the static if-guard pass
// in internal/static evaluates exactly the same region on the CFG
// that the dynamic heuristic evaluates on the trace window.
func GuardRegion(kind trace.BranchKind, pc, target trace.PC) (lo, hi trace.PC) {
	switch kind {
	case trace.BranchIfEqz:
		// Logged when NOT taken: the fallthrough path has a non-null
		// pointer. Forward jump: safe between the branch and the
		// target. Backward jump: safe from the branch to the end.
		if target > pc {
			return pc + 1, target
		}
		return pc + 1, maxPC
	case trace.BranchIfNez, trace.BranchIfEq:
		// Logged when taken: the target path has a non-null pointer.
		// Forward jump: safe from the target to the end. Backward
		// jump: safe between the target and the branch.
		if target > pc {
			return target, maxPC
		}
		return target, pc
	default:
		return 0, 0
	}
}

// guardWitness finds the first if-guard covering a use's dereference:
// a logged branch in the same task and method, matched to the same
// pointer location, executed before the dereference, whose safe
// region contains the dereference PC (§4.3). The returned guard is
// the provenance witness for the prune.
func (ex *extraction) guardWitness(u Use) (guard, bool) {
	for _, g := range ex.guards[ex.tr.Slot(u.Task)] {
		if !g.ok || g.idx >= u.DerefIdx {
			continue
		}
		if g.vr != u.Var || g.method != u.Method {
			continue
		}
		lo, hi := GuardRegion(g.kind, g.pc, g.target)
		if u.DerefPC >= lo && u.DerefPC < hi {
			return g, true
		}
	}
	return guard{}, false
}
