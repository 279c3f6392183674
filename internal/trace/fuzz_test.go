package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// fuzzSeedTrace builds a small trace exercising every operand kind
// the codec encodes.
func fuzzSeedTrace() *Trace {
	tr := New()
	tr.DeclareTask(TaskInfo{ID: 1, Kind: KindThread, Name: "main", Proc: 0})
	tr.DeclareTask(TaskInfo{ID: 2, Kind: KindThread, Name: "worker", Proc: 1})
	tr.DeclareTask(TaskInfo{ID: 3, Kind: KindEvent, Name: "onClick", Looper: 1, Queue: 1})
	tr.Fields[7] = "session"
	tr.Methods[9] = "onDestroy"
	tr.Queues[1] = "mainQ"
	tr.Append(Entry{Task: 1, Op: OpBegin})
	tr.Append(Entry{Task: 1, Op: OpFork, Target: 2, Time: 1})
	tr.Append(Entry{Task: 2, Op: OpBegin, Time: 2})
	tr.Append(Entry{Task: 1, Op: OpSend, Target: 3, Queue: 1, Delay: 25, External: true, Time: 3})
	tr.Append(Entry{Task: 2, Op: OpLock, Lock: 4, Time: 4})
	tr.Append(Entry{Task: 2, Op: OpPtrWrite, Var: MakeVar(5, 7), Value: 0, PC: 12, Method: 9, Time: 5})
	tr.Append(Entry{Task: 2, Op: OpUnlock, Lock: 4, Time: 6})
	tr.Append(Entry{Task: 3, Op: OpBegin, Queue: 1, Time: 7})
	tr.Append(Entry{Task: 3, Op: OpPtrRead, Var: MakeVar(5, 7), Value: 5, PC: 3, Method: 9, Time: 8})
	tr.Append(Entry{Task: 3, Op: OpBranch, Value: 5, PC: 4, TargetPC: 9, Branch: 1, Method: 9, Time: 9})
	tr.Append(Entry{Task: 3, Op: OpDeref, Value: 5, PC: 5, Method: 9, Time: 10})
	tr.Append(Entry{Task: 3, Op: OpRPCCall, Txn: 11, Time: 11})
	tr.Append(Entry{Task: 3, Op: OpEnd, Time: 12})
	return tr
}

// FuzzTraceRoundTrip locks the binary codec: any bytes that decode
// must re-encode and decode to the identical trace, and the re-encoded
// bytes must be canonical (encode∘decode is idempotent on bytes).
// Batch mode reads many files from disk, so the codec is load-bearing.
func FuzzTraceRoundTrip(f *testing.F) {
	var seed bytes.Buffer
	if err := fuzzSeedTrace().Encode(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("CAFA"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // malformed input must only error, never panic
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatalf("decoded trace failed to encode: %v", err)
		}
		tr2, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded trace failed to decode: %v", err)
		}
		if !reflect.DeepEqual(tr, tr2) {
			t.Fatalf("round trip changed the trace:\n first: %+v\nsecond: %+v", tr, tr2)
		}
		var buf2 bytes.Buffer
		if err := tr2.Encode(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("encoding is not canonical: same trace produced different bytes")
		}
	})
}

// TestFuzzSeedRoundTrip runs the fuzz property on the seed corpus
// explicitly, so plain `go test` covers it without -fuzz.
func TestFuzzSeedRoundTrip(t *testing.T) {
	tr := fuzzSeedTrace()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatalf("round trip changed the trace:\nwant %+v\ngot  %+v", tr, got)
	}
}
