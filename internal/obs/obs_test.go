package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// withObs runs fn with instrumentation enabled and a clean slate,
// restoring the disabled default afterwards.
func withObs(t *testing.T, fn func()) {
	t.Helper()
	Enable()
	Reset()
	defer func() {
		Disable()
		Reset()
	}()
	fn()
}

func TestDisabledIsNoop(t *testing.T) {
	Disable()
	Reset()
	sp := Start("root")
	if sp != nil {
		t.Fatalf("Start while disabled: got %v, want nil", sp)
	}
	// The whole span API must be nil-safe.
	child := sp.Child("c")
	child.SetAttr(String("k", "v"))
	child.End()
	sp.Fork("f").End()
	sp.End()
	c := NewCounter("test_disabled_total")
	c.Add(5)
	h := NewHistogram("test_disabled_hist")
	h.Observe(3)
	g := NewGauge("test_disabled_gauge")
	g.Set(7)
	if c.Value() != 0 || h.Count() != 0 || g.Value() != 0 {
		t.Errorf("disabled metrics mutated: counter=%d hist=%d gauge=%d", c.Value(), h.Count(), g.Value())
	}
	if n := len(Spans()); n != 0 {
		t.Errorf("disabled run recorded %d spans", n)
	}
}

func TestSpanHierarchyAndTracks(t *testing.T) {
	withObs(t, func() {
		root := Start("root", String("file", "a.trace"))
		child := root.Child("child")
		fork := root.Fork("fork")
		fork.End()
		child.SetAttr(Int("races", 3))
		child.End()
		root.End()
		root.End() // duplicate End is ignored

		spans := Spans()
		if len(spans) != 3 {
			t.Fatalf("got %d spans, want 3", len(spans))
		}
		byName := map[string]SpanData{}
		for _, s := range spans {
			byName[s.Name] = s
		}
		if byName["child"].Track != byName["root"].Track {
			t.Errorf("Child changed track: child=%d root=%d", byName["child"].Track, byName["root"].Track)
		}
		if byName["fork"].Track == byName["root"].Track {
			t.Errorf("Fork kept parent track %d", byName["root"].Track)
		}
		if got := byName["root"].Attr("file"); got != "a.trace" {
			t.Errorf("root file attr = %q", got)
		}
		if got := byName["child"].Attr("races"); got != "3" {
			t.Errorf("child races attr = %q", got)
		}
		// Child's window is contained in root's.
		r, c := byName["root"], byName["child"]
		if c.Start < r.Start || c.Start+c.Dur > r.Start+r.Dur {
			t.Errorf("child [%v+%v] not contained in root [%v+%v]", c.Start, c.Dur, r.Start, r.Dur)
		}
	})
}

func TestSubscribe(t *testing.T) {
	withObs(t, func() {
		var mu sync.Mutex
		var seen []string
		cancel := Subscribe(func(d SpanData) {
			mu.Lock()
			seen = append(seen, d.Name)
			mu.Unlock()
		})
		Start("a").End()
		Start("b").End()
		cancel()
		Start("c").End()
		mu.Lock()
		defer mu.Unlock()
		if strings.Join(seen, ",") != "a,b" {
			t.Errorf("subscriber saw %v, want [a b]", seen)
		}
	})
}

func TestRegistryIdempotent(t *testing.T) {
	withObs(t, func() {
		a := NewCounter("test_idem_total")
		b := NewCounter("test_idem_total")
		if a != b {
			t.Error("NewCounter not idempotent")
		}
		a.Inc()
		b.Add(2)
		if a.Value() != 3 {
			t.Errorf("counter = %d, want 3", a.Value())
		}
	})
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1 << 40, histBuckets - 1}}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	withObs(t, func() {
		h := NewHistogram("test_hist")
		for _, v := range []int64{1, 2, 4, 100} {
			h.Observe(v)
		}
		if h.Count() != 4 || h.Sum() != 107 || h.Max() != 100 {
			t.Errorf("count=%d sum=%d max=%d", h.Count(), h.Sum(), h.Max())
		}
	})
}

func TestPrometheusExposition(t *testing.T) {
	withObs(t, func() {
		NewCounter("test_prom_total").Add(42)
		NewGauge("test_prom_gauge").Set(-7)
		h := NewHistogram("test_prom_hist")
		h.Observe(1)
		h.Observe(3)
		h.Observe(300)
		var buf bytes.Buffer
		if err := WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		for _, want := range []string{
			"# TYPE test_prom_total counter\ntest_prom_total 42\n",
			"# TYPE test_prom_gauge gauge\ntest_prom_gauge -7\n",
			"# TYPE test_prom_hist histogram\n",
			`test_prom_hist_bucket{le="1"} 1`,
			`test_prom_hist_bucket{le="4"} 2`,
			`test_prom_hist_bucket{le="+Inf"} 3`,
			"test_prom_hist_sum 304",
			"test_prom_hist_count 3",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("exposition missing %q:\n%s", want, out)
			}
		}
		// Cumulative bucket counts must be monotone.
		last := int64(-1)
		for _, line := range strings.Split(out, "\n") {
			if !strings.HasPrefix(line, "test_prom_hist_bucket") {
				continue
			}
			var n int64
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &n); err != nil {
				t.Fatalf("bad bucket line %q", line)
			}
			if n < last {
				t.Errorf("non-monotone buckets: %q after %d", line, last)
			}
			last = n
		}
	})
}

func TestSummaryTable(t *testing.T) {
	withObs(t, func() {
		NewCounter("test_sum_total").Add(9)
		NewCounter("test_zero_total") // zero-valued: omitted
		var buf bytes.Buffer
		if err := WriteSummary(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "test_sum_total") {
			t.Errorf("summary missing nonzero counter:\n%s", buf.String())
		}
		if strings.Contains(buf.String(), "test_zero_total") {
			t.Errorf("summary includes zero counter:\n%s", buf.String())
		}
	})
}

func TestTraceEventExport(t *testing.T) {
	withObs(t, func() {
		root := Start("root")
		root.Child("child").End()
		root.End()
		var buf bytes.Buffer
		if err := WriteTraceEvents(&buf); err != nil {
			t.Fatal(err)
		}
		var out struct {
			TraceEvents []struct {
				Name string            `json:"name"`
				Ph   string            `json:"ph"`
				Ts   float64           `json:"ts"`
				Dur  float64           `json:"dur"`
				Pid  int               `json:"pid"`
				Tid  int               `json:"tid"`
				Args map[string]string `json:"args"`
			} `json:"traceEvents"`
			DisplayTimeUnit string `json:"displayTimeUnit"`
		}
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatalf("invalid trace-event JSON: %v", err)
		}
		if len(out.TraceEvents) != 2 {
			t.Fatalf("got %d events, want 2", len(out.TraceEvents))
		}
		// Sorted by start: root precedes child; both complete events.
		if out.TraceEvents[0].Name != "root" || out.TraceEvents[1].Name != "child" {
			t.Errorf("order: %q, %q", out.TraceEvents[0].Name, out.TraceEvents[1].Name)
		}
		for _, ev := range out.TraceEvents {
			if ev.Ph != "X" || ev.Ts < 0 || ev.Dur < 0 || ev.Pid != 1 {
				t.Errorf("malformed event %+v", ev)
			}
		}
	})
}

func TestDebugServer(t *testing.T) {
	withObs(t, func() {
		NewCounter("test_debug_total").Add(3)
		ds, err := ServeDebug("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		get := func(path string) string {
			resp, err := http.Get("http://" + ds.Addr() + path)
			if err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: status %d", path, resp.StatusCode)
			}
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return string(b)
		}
		if body := get("/metrics"); !strings.Contains(body, "test_debug_total 3") {
			t.Errorf("/metrics missing counter:\n%s", body)
		}
		if body := get("/debug/pprof/cmdline"); body == "" {
			t.Error("/debug/pprof/cmdline empty")
		}
	})
}

// TestDebugServerReleasesPortAtOnce: Shutdown and Close free the port
// before they return, even when the serving goroutine has not started
// yet, as after a run shorter than its scheduling delay.
func TestDebugServerReleasesPortAtOnce(t *testing.T) {
	for _, stop := range []func(*DebugServer){
		func(ds *DebugServer) { _ = ds.Shutdown(context.Background()) },
		func(ds *DebugServer) { _ = ds.Close() },
	} {
		for k := 0; k < 20; k++ {
			ds, err := ServeDebug("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			stop(ds)
			ln, err := net.Listen("tcp", ds.Addr())
			if err != nil {
				t.Fatalf("port still held after the debug server stopped: %v", err)
			}
			_ = ln.Close()
		}
	}
}

func TestResetClearsValuesKeepsHandles(t *testing.T) {
	withObs(t, func() {
		c := NewCounter("test_reset_total")
		c.Add(5)
		Start("s").End()
		Reset()
		if c.Value() != 0 {
			t.Errorf("counter survived Reset: %d", c.Value())
		}
		if len(Spans()) != 0 {
			t.Error("spans survived Reset")
		}
		c.Inc() // handle still registered and live
		if c.Value() != 1 {
			t.Errorf("handle dead after Reset: %d", c.Value())
		}
	})
}

func TestSpanTimesAreMonotone(t *testing.T) {
	withObs(t, func() {
		sp := Start("timed")
		time.Sleep(time.Millisecond)
		sp.End()
		d := Spans()[0]
		if d.Dur < time.Millisecond/2 {
			t.Errorf("span dur %v, want >= ~1ms", d.Dur)
		}
	})
}
