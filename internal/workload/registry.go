// The scenario registry: the single source of truth mapping a
// scenario kind to everything the rest of the system needs to run
// it — spec validation and defaults, the machine-shape pool key, a
// resource constructor, a machine-accepting runner and the naming
// scheme. The job service (internal/serve), the experiments, both
// commands and the facade all dispatch through it, so adding a
// scenario is one Register call, not a set of parallel switches.
package workload

import (
	"context"
	"fmt"
	"strings"

	"starmesh/internal/simd"
)

// Resource is anything a scenario runs on and a machine pool can
// manage: reset between runs, closed when the pool drains. The SIMD
// machines satisfy it through simd.Machine (the star families wrap
// theirs with the shape tables they keep); the graph families use the
// neighbour table of S_n, and permroute a null resource.
type Resource interface {
	Reset()
	Close()
}

// Family describes one scenario kind end to end. Every field is
// required except Demo-independent metadata; Run receives a Resource
// produced by Build for a spec of the same Shape, in
// post-construction state (fresh or Reset — the runners' contract).
type Family struct {
	// Kind is the registry key, the spec's JSON "kind" value.
	Kind string
	// Summary is a one-line description for catalogs and usage text.
	Summary string
	// Package names the backing implementation package(s).
	Package string
	// PaperRef cites the paper section/theorem the family exercises.
	PaperRef string
	// Params lists the spec fields the family reads, for catalogs.
	Params string
	// Normalize validates the spec and fills defaults, returning the
	// canonical form. Errors name the field and the accepted range.
	Normalize func(Spec) (Spec, error)
	// Shape is the machine-pool key: specs with equal shapes run on
	// interchangeable resources.
	Shape func(Spec) string
	// Build constructs a fresh resource of the spec's shape with the
	// process's engine options applied.
	Build func(Spec, ...simd.Option) Resource
	// Run executes the spec on a resource of the matching shape. The
	// context is checked at cooperative cancellation checkpoints
	// inside the long sweep/sort loops: on cancellation Run returns
	// promptly with ctx's error and the partial result accumulated so
	// far (the resource stays Reset-safe for pooled reuse).
	Run func(context.Context, Spec, Resource) (ScenarioResult, error)
	// Name renders the spec in the scenario naming scheme.
	Name func(Spec) string
	// Demo returns a small representative spec for smoke runs.
	Demo func() Spec
}

// Registry is an ordered kind → Family table.
type Registry struct {
	order    []string
	families map[string]*Family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*Family)}
}

// Register adds a family; registering a duplicate or incomplete kind
// panics (registration is program wiring, not input handling).
func (r *Registry) Register(f Family) {
	if f.Kind == "" {
		panic("workload: Register needs a Kind")
	}
	if _, dup := r.families[f.Kind]; dup {
		panic(fmt.Sprintf("workload: scenario kind %q registered twice", f.Kind))
	}
	if f.Normalize == nil || f.Shape == nil || f.Build == nil || f.Run == nil || f.Name == nil || f.Demo == nil {
		panic(fmt.Sprintf("workload: scenario kind %q is missing a registry hook", f.Kind))
	}
	cp := f
	r.families[f.Kind] = &cp
	r.order = append(r.order, f.Kind)
}

// Lookup returns the family of a kind.
func (r *Registry) Lookup(kind string) (*Family, bool) {
	f, ok := r.families[kind]
	return f, ok
}

// Kinds returns every registered kind in registration order.
func (r *Registry) Kinds() []string {
	return append([]string(nil), r.order...)
}

// Families returns every family in registration order.
func (r *Registry) Families() []*Family {
	out := make([]*Family, 0, len(r.order))
	for _, k := range r.order {
		out = append(out, r.families[k])
	}
	return out
}

// Builtin is the process-wide registry holding every built-in
// scenario family; see families.go.
var Builtin = builtinRegistry()

// FamilyOf resolves a kind against the builtin registry with an
// actionable error naming every accepted kind.
func FamilyOf(kind string) (*Family, error) {
	if kind == "" {
		return nil, fmt.Errorf("workload: spec needs a kind (one of %s)", kindList())
	}
	f, ok := Builtin.Lookup(kind)
	if !ok {
		return nil, fmt.Errorf("workload: unknown scenario kind %q (one of %s)", kind, kindList())
	}
	return f, nil
}

// Kinds returns the builtin kinds in registration order.
func Kinds() []string { return Builtin.Kinds() }

func kindList() string { return strings.Join(Builtin.Kinds(), ", ") }

// ScenarioFor returns the standalone scenario of a spec: a fresh
// resource built per run and closed after — the reference pooled
// execution is checked against, and the path the batch runner and
// CLI use.
func ScenarioFor(s Spec, opts ...simd.Option) (Scenario, error) {
	norm, err := s.Normalized()
	if err != nil {
		return Scenario{}, err
	}
	f, _ := Builtin.Lookup(norm.Kind)
	return Scenario{Name: norm.Name(), Run: func(ctx context.Context) (ScenarioResult, error) {
		r := f.Build(norm, opts...)
		defer r.Close()
		return f.Run(ctx, norm, r)
	}}, nil
}

// DemoSpecs returns one small representative (already normalized)
// spec per registered kind, in registration order — the registry's
// smoke workload.
func DemoSpecs() []Spec {
	var out []Spec
	for _, f := range Builtin.Families() {
		norm, err := f.Demo().Normalized()
		if err != nil {
			panic(fmt.Sprintf("workload: demo spec of %q does not validate: %v", f.Kind, err))
		}
		out = append(out, norm)
	}
	return out
}

// CatalogRow is one scenario kind's catalog entry.
type CatalogRow struct {
	Kind     string
	Params   string
	Package  string
	PaperRef string
	Summary  string
}

// Catalog returns the registry's catalog rows in registration order.
func Catalog() []CatalogRow {
	var out []CatalogRow
	for _, f := range Builtin.Families() {
		out = append(out, CatalogRow{
			Kind:     f.Kind,
			Params:   f.Params,
			Package:  f.Package,
			PaperRef: f.PaperRef,
			Summary:  f.Summary,
		})
	}
	return out
}

// CatalogMarkdown renders the catalog as the README's scenario
// table; a facade test asserts the README copy matches, so the doc
// can never drift from the registry.
func CatalogMarkdown() string {
	out := "| kind | params | backing package | paper | workload |\n"
	out += "|------|--------|-----------------|-------|----------|\n"
	for _, row := range Catalog() {
		out += fmt.Sprintf("| `%s` | %s | `%s` | %s | %s |\n",
			row.Kind, row.Params, row.Package, row.PaperRef, row.Summary)
	}
	return out
}

// nullResource backs families that keep no per-run machine state
// (permutation routing builds its message table per run).
type nullResource struct{}

func (nullResource) Reset() {}
func (nullResource) Close() {}
