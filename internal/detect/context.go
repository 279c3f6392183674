package detect

import (
	"fmt"
	"slices"
	"strings"

	"cafa/internal/trace"
)

// liveStacks tracks each task's open method invocations from the
// invoke/return entries logged by the instrumented interpreter
// (§5.3). CallStacks and the streaming Extractor share it, so batch
// and streamed stacks come from the same step.
type liveStacks map[trace.TaskID][]trace.MethodID

// step applies entry e: an invoke pushes a frame on its task's stack,
// a return pops one (a stray return on an empty stack is ignored).
func (ls liveStacks) step(e *trace.Entry) {
	switch e.Op {
	case trace.OpInvoke:
		ls[e.Task] = append(ls[e.Task], e.Method)
	case trace.OpReturn:
		if s := ls[e.Task]; len(s) > 0 {
			ls[e.Task] = s[:len(s)-1]
		}
	}
}

// at snapshots the calling context of an entry of task in method m,
// before the entry's own step: the open invocations, outermost first,
// ending with m. The innermost frame is m itself when the invoke log
// does not already name it (the entry task's root handler is invoked
// by the runtime, not by bytecode).
func (ls liveStacks) at(task trace.TaskID, m trace.MethodID) []trace.MethodID {
	live := ls[task]
	stack := make([]trace.MethodID, len(live), len(live)+1)
	copy(stack, live)
	if m != 0 && (len(stack) == 0 || stack[len(stack)-1] != m) {
		stack = append(stack, m)
	}
	return stack
}

// CallStacks reconstructs the calling-context stack active at each of
// the trace indexes idxs in one forward sweep, keyed by index.
// Duplicate indexes share one entry; indexes outside the trace are
// skipped, so looking them up yields nil.
func CallStacks(tr *trace.Trace, idxs []int) map[int][]trace.MethodID {
	want := make([]int, 0, len(idxs))
	for _, i := range idxs {
		if i >= 0 && i < len(tr.Entries) {
			want = append(want, i)
		}
	}
	slices.Sort(want)
	want = slices.Compact(want)
	out := make(map[int][]trace.MethodID, len(want))
	ls := liveStacks{}
	for i := 0; len(want) > 0; i++ {
		e := &tr.Entries[i]
		if i == want[0] {
			out[i] = ls.at(e.Task, e.Method)
			want = want[1:]
		}
		ls.step(e)
	}
	return out
}

// RaceStacks returns the call stacks at every race's use deref and
// free: the stacks a report renders.
func RaceStacks(tr *trace.Trace, races []Race) map[int][]trace.MethodID {
	idxs := make([]int, 0, 2*len(races))
	for _, r := range races {
		idxs = append(idxs, r.Use.DerefIdx, r.Free.Idx)
	}
	return CallStacks(tr, idxs)
}

// MaxStackFrames caps FormatStack's rendering: stacks deeper than
// this elide their outermost frames, so one pathological (or
// recursive) calling context cannot flood a report line.
const MaxStackFrames = 12

// FormatStack renders a call stack as "outer > inner". Stacks deeper
// than MaxStackFrames keep the innermost frames and summarize the
// elided outer ones as "(+N outer)".
func FormatStack(tr *trace.Trace, stack []trace.MethodID) string {
	if len(stack) == 0 {
		return "(no context)"
	}
	elided := 0
	if len(stack) > MaxStackFrames {
		elided = len(stack) - MaxStackFrames
		stack = stack[elided:]
	}
	parts := make([]string, len(stack))
	for i, m := range stack {
		parts[i] = tr.MethodName(m)
	}
	joined := strings.Join(parts, " > ")
	if elided > 0 {
		return fmt.Sprintf("(+%d outer) > %s", elided, joined)
	}
	return joined
}

// DescribeWithContext renders a race with the calling contexts of
// both racy operations.
func (r Race) DescribeWithContext(tr *trace.Trace) string {
	stacks := RaceStacks(tr, []Race{r})
	return r.Describe(tr) +
		"\n    use context:  " + FormatStack(tr, stacks[r.Use.DerefIdx]) +
		"\n    free context: " + FormatStack(tr, stacks[r.Free.Idx])
}
