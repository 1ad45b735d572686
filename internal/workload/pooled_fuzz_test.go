package workload

import (
	"context"
	"testing"

	"starmesh/internal/simd"
)

// maxPooledSeq bounds the specs one fuzz input runs back to back.
const maxPooledSeq = 8

// fuzzBytes hands out the bytes of a fuzz input, then zeros.
type fuzzBytes struct{ data []byte }

func (b *fuzzBytes) more() bool { return len(b.data) > 0 }

func (b *fuzzBytes) next() int {
	if len(b.data) == 0 {
		return 0
	}
	v := b.data[0]
	b.data = b.data[1:]
	return int(v)
}

func (b *fuzzBytes) dist() string { return Dists[b.next()%len(Dists)].Name }

// decodePooledSeq decodes a fuzz input into specs that share one pool
// shape: the first byte picks star:N, stargraph:N, virtual:N or
// mesh:RxC (the next byte or two pick the size), and each later
// group of bytes one spec of a family of that shape.
func decodePooledSeq(data []byte) []Spec {
	b := &fuzzBytes{data: data}
	if !b.more() {
		return nil
	}
	var specs []Spec
	add := func(s Spec) bool {
		specs = append(specs, s)
		return len(specs) < maxPooledSeq && b.more()
	}
	switch b.next() % 4 {
	case 0:
		n := 3 + b.next()%3
		for ok := b.more(); ok; {
			op, seed := b.next()%5, int64(b.next())
			switch op {
			case 0:
				ok = add(Spec{Kind: KindSort, N: n, Dist: b.dist(), Seed: seed})
			case 1:
				ok = add(Spec{Kind: KindBroadcast, N: n, Source: b.next() % int(factorial(n))})
			case 2:
				ok = add(Spec{Kind: KindSweep, N: n, Trials: 1 + b.next()%2})
			case 3:
				ok = add(Spec{Kind: KindEmbedRect, N: n, D: 1 + b.next()%(n-1)})
			case 4:
				ok = add(Spec{Kind: KindPipeline, N: n, D: 1 + b.next()%(n-1), Dist: b.dist(), Seed: seed,
					Source: b.next() % int(factorial(n))})
			}
		}
	case 1:
		n := 4 + b.next()%2
		for ok := b.more(); ok; {
			op, seed := b.next()%2, int64(b.next())
			if op == 0 {
				ok = add(Spec{Kind: KindDiagnostics, N: n, Holes: b.next() % (n - 1), Trials: 1 + b.next()%3, Seed: seed})
			} else {
				ok = add(Spec{Kind: KindFaultRoute, N: n, Faults: b.next() % (n - 1), Pairs: 1 + b.next()%4, Seed: seed})
			}
		}
	case 2:
		n := 2 + b.next()%2
		for ok := b.more(); ok; {
			ok = add(Spec{Kind: KindVirtual, N: n, Dist: b.dist(), Seed: int64(b.next())})
		}
	case 3:
		rows, cols := 1+b.next()%8, 2+b.next()%7
		for ok := b.more(); ok; {
			ok = add(Spec{Kind: KindShear, Rows: rows, Cols: cols, Dist: b.dist(), Seed: int64(b.next())})
		}
	}
	return specs
}

// FuzzPooledRunsAgree runs generated sequences of jobs that share one
// pool shape back to back on one resource, with Reset between runs as
// the pool does, and requires every result to equal a standalone run
// of the same spec on a fresh resource. A second resource built with
// plans off runs the same sequence through the closure path. A table
// or plan a pooled machine keeps under a key that misses something it
// depends on (n, d, the key register, the vertex map) replays the
// wrong routes for a later job, and the results part.
func FuzzPooledRunsAgree(f *testing.F) {
	// star:4 — every embedrect d, then the pipeline and sort that
	// share the embedrect and sort tables.
	f.Add([]byte{0, 1, 3, 0, 0, 3, 0, 1, 3, 0, 2, 4, 5, 1, 2, 7, 0, 9, 3, 1, 0, 4, 0})
	// star:5 and star:3 — sweeps and broadcasts dirtying the machine.
	f.Add([]byte{0, 2, 2, 0, 1, 3, 0, 1, 1, 0, 40, 0, 2, 1, 4, 3, 0, 0, 4, 2, 3, 3})
	f.Add([]byte{0, 0, 4, 1, 1, 1, 0, 4, 2, 1, 3, 0, 0, 3, 1, 5, 0, 3, 2})
	// stargraph:5 and stargraph:4.
	f.Add([]byte{1, 1, 0, 1, 3, 1, 1, 2, 3, 3, 0, 9, 0, 0, 1, 4, 1, 2})
	f.Add([]byte{1, 0, 1, 5, 2, 3, 0, 6, 2, 2})
	// virtual:3 and virtual:2.
	f.Add([]byte{2, 1, 0, 1, 1, 2, 4, 3})
	f.Add([]byte{2, 0, 3, 7, 0, 8})
	// mesh:8x8 and mesh:3x5.
	f.Add([]byte{3, 7, 6, 0, 1, 1, 2, 3, 4})
	f.Add([]byte{3, 2, 3, 4, 1, 2, 2})
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, data []byte) {
		specs := decodePooledSeq(data)
		if len(specs) == 0 {
			return
		}
		want := make([]ScenarioResult, len(specs))
		for i, s := range specs {
			norm, err := s.Normalized()
			if err != nil {
				t.Fatalf("decoded an invalid spec %+v: %v", s, err)
			}
			specs[i] = norm
			sc, err := ScenarioFor(norm)
			if err != nil {
				t.Fatal(err)
			}
			if want[i], err = sc.Run(ctx); err != nil {
				t.Fatalf("%s standalone: %v", norm.Name(), err)
			}
		}
		first, _ := Builtin.Lookup(specs[0].Kind)
		shape := first.Shape(specs[0])
		for _, opts := range [][]simd.Option{nil, {simd.WithPlans(false)}} {
			r := first.Build(specs[0], opts...)
			for i, s := range specs {
				fam, _ := Builtin.Lookup(s.Kind)
				if got := fam.Shape(s); got != shape {
					t.Fatalf("decoded spec %s has shape %s, want %s", s.Name(), got, shape)
				}
				if i > 0 {
					r.Reset()
				}
				got, err := fam.Run(ctx, s, r)
				if err != nil {
					t.Fatalf("%s pooled (job %d of %d on %s, %d options): %v", s.Name(), i+1, len(specs), shape, len(opts), err)
				}
				if got != want[i] {
					t.Fatalf("%s pooled (job %d of %d on %s, %d options) = %+v, standalone %+v",
						s.Name(), i+1, len(specs), shape, len(opts), got, want[i])
				}
			}
			r.Close()
		}
	})
}
