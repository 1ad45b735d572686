// Prometheus text exposition (format version 0.0.4) and the
// structured Snapshot API. Both walk the same collected state, so a
// snapshot and a scrape taken back to back describe the same world.
package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the Content-Type of the text exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// FamilySnapshot is one metric family's collected state.
type FamilySnapshot struct {
	Name   string
	Help   string
	Type   string
	Labels []string
	Series []SeriesSnapshot
}

// SeriesSnapshot is one labeled series' collected state. Counters
// and gauges use Value; histograms use Buckets/Sum/Count (Buckets are
// per-bucket counts aligned with Uppers, the last entry being +Inf).
// Count is the sum of the loaded Buckets, so it always matches the
// +Inf bucket; Sum may trail observations still in flight.
type SeriesSnapshot struct {
	LabelValues []string
	Value       float64
	Uppers      []float64
	Buckets     []uint64
	Sum         float64
	Count       uint64
}

// Snapshot collects every family, sorted by name (series in first-use
// order), sampling CollectFunc families as it goes.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.families[name])
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{
			Name:   f.name,
			Help:   f.help,
			Type:   f.typ,
			Labels: append([]string(nil), f.labels...),
		}
		if f.collect != nil {
			for _, s := range f.collect() {
				if len(s.LabelValues) != len(f.labels) {
					panic(fmt.Sprintf("obs: CollectFunc %s produced %d label values, want %d",
						f.name, len(s.LabelValues), len(f.labels)))
				}
				fs.Series = append(fs.Series, SeriesSnapshot{
					LabelValues: s.LabelValues,
					Value:       s.Value,
				})
			}
			out = append(out, fs)
			continue
		}
		f.mu.RLock()
		keys := append([]string(nil), f.sorder...)
		series := make([]*series, 0, len(keys))
		for _, k := range keys {
			series = append(series, f.series[k])
		}
		f.mu.RUnlock()
		for _, s := range series {
			ss := SeriesSnapshot{LabelValues: s.labelValues}
			if f.typ == TypeHistogram {
				ss.Uppers = append([]float64(nil), f.buckets...)
				ss.Buckets = make([]uint64, len(s.counts))
				for i := range s.counts {
					ss.Buckets[i] = s.counts[i].Load()
					ss.Count += ss.Buckets[i]
				}
				ss.Sum = math.Float64frombits(s.sum.Load())
			} else {
				ss.Value = float64(s.val.Load())
			}
			fs.Series = append(fs.Series, ss)
		}
		out = append(out, fs)
	}
	return out
}

// WriteText renders the registry in the Prometheus text exposition
// format: families sorted by name, each with # HELP and # TYPE
// headers, histogram series as cumulative _bucket{le=…} samples plus
// _sum and _count. Deterministic for a fixed registry state, so the
// exposition can be golden-tested.
func (r *Registry) WriteText(w io.Writer) error {
	for _, fs := range r.Snapshot() {
		if err := writeFamily(w, &fs); err != nil {
			return err
		}
	}
	return nil
}

func writeFamily(w io.Writer, fs *FamilySnapshot) error {
	if fs.Help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fs.Name, escapeHelp(fs.Help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fs.Name, fs.Type); err != nil {
		return err
	}
	// Sort series by label values for a stable exposition (Snapshot
	// yields first-use order, which depends on scheduling).
	series := append([]SeriesSnapshot(nil), fs.Series...)
	sort.Slice(series, func(i, j int) bool {
		return bytes.Compare(appendSeriesKey(nil, series[i].LabelValues), appendSeriesKey(nil, series[j].LabelValues)) < 0
	})
	for _, s := range series {
		if fs.Type != TypeHistogram {
			if _, err := fmt.Fprintf(w, "%s%s %s\n",
				fs.Name, labelString(fs.Labels, s.LabelValues), formatValue(s.Value)); err != nil {
				return err
			}
			continue
		}
		var cum uint64
		for i, c := range s.Buckets {
			cum += c
			le := "+Inf"
			if i < len(s.Uppers) {
				le = formatValue(s.Uppers[i])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				fs.Name, labelStringLE(fs.Labels, s.LabelValues, le), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
			fs.Name, labelString(fs.Labels, s.LabelValues), formatValue(s.Sum)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n",
			fs.Name, labelString(fs.Labels, s.LabelValues), s.Count); err != nil {
			return err
		}
	}
	return nil
}

// labelString renders {k="v",…} ("" with no labels).
func labelString(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// labelStringLE renders the label set with the histogram le label
// appended last.
func labelStringLE(names, values []string, le string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteString(`",`)
	}
	b.WriteString(`le="`)
	b.WriteString(le)
	b.WriteString(`"}`)
	return b.String()
}

// formatValue renders a float the way Prometheus expects: integral
// values without an exponent or trailing zeros, +Inf spelled out.
func formatValue(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}
