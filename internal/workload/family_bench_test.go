package workload

import (
	"context"
	"testing"
)

// tinyMixedSpecs is one spec per family at the sizes the tiny-mixed
// benchmark workload submits.
var tinyMixedSpecs = []Spec{
	{Kind: KindBroadcast, N: 5, Source: 7},
	{Kind: KindEmbedRect, N: 5, D: 2},
	{Kind: KindDiagnostics, N: 5, Holes: 3, Trials: 2, Seed: 1},
	{Kind: KindFaultRoute, N: 5, Faults: 3, Pairs: 4, Seed: 1},
	{Kind: KindPermRoute, N: 4, Pattern: "random", Seed: 1},
	{Kind: KindShear, Rows: 8, Cols: 8, Dist: "uniform", Seed: 1},
	{Kind: KindSort, N: 4, Dist: "uniform", Seed: 1},
	{Kind: KindSweep, N: 5},
	{Kind: KindVirtual, N: 3, Dist: "uniform", Seed: 1},
	{Kind: KindPipeline, N: 4, D: 2, Dist: "uniform", Seed: 1, Source: 3},
}

// BenchmarkFamilyRun times one job of each family on a warmed pooled
// resource: the resource is built and run once before the timer
// starts, and every timed run follows a Reset, as a pool checkout
// does. Each run is checked against the warm-up result.
func BenchmarkFamilyRun(b *testing.B) {
	ctx := context.Background()
	for _, spec := range tinyMixedSpecs {
		norm, err := spec.Normalized()
		if err != nil {
			b.Fatal(err)
		}
		f, _ := Builtin.Lookup(norm.Kind)
		b.Run(norm.Kind, func(b *testing.B) {
			r := f.Build(norm)
			defer r.Close()
			want, err := f.Run(ctx, norm, r)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				r.Reset()
				got, err := f.Run(ctx, norm, r)
				if err != nil || got != want {
					b.Fatalf("%s: pooled run gave %+v, %v; want %+v", norm.Name(), got, err, want)
				}
			}
		})
	}
}
