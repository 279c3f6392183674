package trace

import (
	"bufio"
	"bytes"
)

// DeviceSink is a Tracer that pushes every entry through the binary
// codec into an in-memory buffer — the moral equivalent of CAFA's
// kernel logger device (§5.1). Fig. 8 measures the execution-time
// dilation of exactly this path, so the sink does the real
// serialization work per entry rather than just buffering structs.
//
// The header tables are not kept: Bytes counts only the entries.
type DeviceSink struct {
	buf bytes.Buffer
	w   *bufio.Writer
	n   int
}

// NewDeviceSink returns an empty sink.
func NewDeviceSink() *DeviceSink {
	d := &DeviceSink{}
	d.w = bufio.NewWriter(&d.buf)
	return d
}

// Emit implements Tracer by serializing the entry immediately.
func (d *DeviceSink) Emit(e Entry) {
	// encodeEntry only fails on invalid ops, which the runtime never
	// emits; the write error path of the underlying buffer is nil.
	_ = encodeEntry(d.w, &e)
	d.n++
}

// DeclareTask implements Tracer.
func (d *DeviceSink) DeclareTask(TaskInfo) {}

// InternField implements Tracer.
func (d *DeviceSink) InternField(FieldID, string) {}

// InternMethod implements Tracer.
func (d *DeviceSink) InternMethod(MethodID, string) {}

// InternQueue implements Tracer.
func (d *DeviceSink) InternQueue(QueueID, string) {}

// Entries returns the number of entries written.
func (d *DeviceSink) Entries() int { return d.n }

// Bytes flushes and returns the serialized size.
func (d *DeviceSink) Bytes() int {
	_ = d.w.Flush()
	return d.buf.Len()
}

var _ Tracer = (*DeviceSink)(nil)
