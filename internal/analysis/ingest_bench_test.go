package analysis

import (
	"bytes"
	"io"
	"testing"

	"cafa/internal/apps"
	"cafa/internal/sim"
	"cafa/internal/trace"
)

// encodedApps simulates the ten app models at scale 1 (the paper's
// event counts) under seed 1 and returns each trace's binary encoding
// with the total entry count.
func encodedApps(b *testing.B) ([][]byte, int) {
	b.Helper()
	var raws [][]byte
	entries := 0
	for _, spec := range apps.Registry {
		col := trace.NewCollector()
		out, err := apps.Build(spec, sim.Config{Tracer: col, Seed: 1}, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := out.Sys.Run(); err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := col.T.Encode(&buf); err != nil {
			b.Fatal(err)
		}
		raws = append(raws, buf.Bytes())
		entries += col.T.Len()
	}
	return raws, entries
}

// BenchmarkIngest measures the per-entry sweep over the ten apps'
// encoded traces. "decode" only decodes every entry; "ingest" runs
// Pipeline.Ingest over the same bytes: decode plus the validator and
// every per-entry pass. Their difference is what the passes cost on
// top of decoding. One op is all ten traces.
func BenchmarkIngest(b *testing.B) {
	raws, entries := encodedApps(b)
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, raw := range raws {
				dec, err := trace.NewStreamDecoder(bytes.NewReader(raw))
				if err != nil {
					b.Fatal(err)
				}
				for {
					var e trace.Entry
					if err := dec.Next(&e); err == io.EOF {
						break
					} else if err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		b.ReportMetric(float64(entries)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mentries/s")
	})
	b.Run("ingest", func(b *testing.B) {
		b.ReportAllocs()
		p := New(Options{})
		for i := 0; i < b.N; i++ {
			for _, raw := range raws {
				dec, err := trace.NewStreamDecoder(bytes.NewReader(raw))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := p.Ingest(p.Decoded(dec), nil); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(entries)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mentries/s")
	})
}
