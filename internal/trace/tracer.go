package trace

import (
	"fmt"
	"io"
)

// Tracer is the sink the runtime writes entries into. The production
// sink is a Collector (the in-memory analogue of the paper's kernel
// logger device); the Fig. 8 uninstrumented baseline uses Discard.
type Tracer interface {
	// Emit records one operation.
	Emit(Entry)
	// DeclareTask records task metadata for the trace header.
	DeclareTask(TaskInfo)
	// InternField, InternMethod, InternQueue record names for ids.
	InternField(FieldID, string)
	InternMethod(MethodID, string)
	InternQueue(QueueID, string)
}

// Collector accumulates entries into a Trace.
type Collector struct {
	T *Trace
}

// NewCollector returns a collector over a fresh trace.
func NewCollector() *Collector { return &Collector{T: New()} }

// Emit implements Tracer.
func (c *Collector) Emit(e Entry) { c.T.Append(e) }

// DeclareTask implements Tracer.
func (c *Collector) DeclareTask(ti TaskInfo) { c.T.DeclareTask(ti) }

// InternField implements Tracer.
func (c *Collector) InternField(id FieldID, name string) { c.T.Fields[id] = name }

// InternMethod implements Tracer.
func (c *Collector) InternMethod(id MethodID, name string) { c.T.Methods[id] = name }

// InternQueue implements Tracer.
func (c *Collector) InternQueue(id QueueID, name string) { c.T.Queues[id] = name }

// Discard is a Tracer that drops everything. It models the
// uninstrumented execution of Fig. 8.
type Discard struct{}

// Emit implements Tracer.
func (Discard) Emit(Entry) {}

// DeclareTask implements Tracer.
func (Discard) DeclareTask(TaskInfo) {}

// InternField implements Tracer.
func (Discard) InternField(FieldID, string) {}

// InternMethod implements Tracer.
func (Discard) InternMethod(MethodID, string) {}

// InternQueue implements Tracer.
func (Discard) InternQueue(QueueID, string) {}

var (
	_ Tracer = (*Collector)(nil)
	_ Tracer = Discard{}
)

// WriteText writes the trace in a line-oriented human-readable form:
// one entry per line, prefixed with its sequence number and the task
// name.
func (tr *Trace) WriteText(w io.Writer) error {
	for i := range tr.Entries {
		e := &tr.Entries[i]
		if _, err := fmt.Fprintf(w, "%6d  %-24s %s\n", i, tr.TaskName(e.Task), e.String()); err != nil {
			return err
		}
	}
	return nil
}
