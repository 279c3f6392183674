// Package trace defines the execution-trace vocabulary of CAFA: the
// operations of an event-driven Android-like program (Figure 3 of the
// paper) extended with the low-level entries the instrumented Dalvik VM
// emits for use-free race detection (§5.3) and the IPC entries emitted
// by the Binder framework (§5.2).
//
// A Trace is an ordered list of Entry values produced by one execution.
// Traces can be serialized to a compact binary form (the "logger
// device" format) and to a human-readable text form, and are the only
// interface between the online tracing side (internal/sim, internal/dvm,
// internal/ipc) and the offline analysis side (internal/hb,
// internal/detect).
package trace

import "fmt"

// TaskID identifies a logically concurrent task: either a regular
// thread or a single event executed by a looper thread. Task 0 is
// reserved and never used by a real task.
type TaskID uint32

// NoTask is the zero TaskID; it marks "no task" in entry operands.
const NoTask TaskID = 0

// QueueID identifies an event queue. Each looper thread owns exactly
// one queue (the model of §2.1 assumes a 1:1 association).
type QueueID uint32

// NoQueue is the zero QueueID.
const NoQueue QueueID = 0

// ObjID identifies a heap object. ObjID 0 is the null reference, so a
// pointer write with Value==NullObj is a "free" in the paper's sense
// and any other value is an "allocation".
type ObjID uint32

// NullObj is the null reference.
const NullObj ObjID = 0

// VarID identifies a memory location (a "variable" x in Figure 3):
// an instance field of a particular object, a static field, or an
// array slot. The runtime packs the owner object and field into one
// identifier via MakeVar.
type VarID uint64

// MakeVar packs an owner object and a field into a VarID. Static
// fields use owner NullObj.
func MakeVar(owner ObjID, field FieldID) VarID {
	return VarID(owner)<<32 | VarID(field)
}

// Owner returns the object that owns the location (NullObj for
// statics).
func (v VarID) Owner() ObjID { return ObjID(v >> 32) }

// Field returns the field component of the location.
func (v VarID) Field() FieldID { return FieldID(v & 0xffffffff) }

// FieldID identifies a field symbol (interned name).
type FieldID uint32

// MonitorID identifies a monitor used by wait/notify.
type MonitorID uint32

// LockID identifies a mutual-exclusion lock.
type LockID uint32

// ListenerID identifies an event-listener registration site.
type ListenerID uint32

// TxnID identifies a Binder RPC transaction or a one-way IPC message.
type TxnID uint32

// MethodID identifies a method symbol (interned name).
type MethodID uint32

// PC is a program counter inside a method's code array.
type PC uint32

// TaskKind distinguishes the kinds of tasks in a trace.
type TaskKind uint8

// Task kinds.
const (
	KindThread TaskKind = iota // a regular (or looper) thread
	KindEvent                  // an event processed by a looper thread
)

func (k TaskKind) String() string {
	switch k {
	case KindThread:
		return "thread"
	case KindEvent:
		return "event"
	default:
		return fmt.Sprintf("TaskKind(%d)", uint8(k))
	}
}

// TaskInfo is per-task metadata recorded in the trace header. The
// offline analyzer needs it to know which tasks are events, which
// looper processed each event, and which queue the event was drawn
// from.
type TaskInfo struct {
	ID     TaskID
	Kind   TaskKind
	Name   string  // diagnostic name ("onDestroy", "binder-1", ...)
	Looper TaskID  // for events: the looper thread that executed it
	Queue  QueueID // for events: the queue it was drawn from
	Proc   int32   // process index (IPC spans processes)
}
