// Parsing and validation of the text exposition format — the
// consumer half of the package. The serve bench validates every
// instrumented run's /v1/metrics scrape with Validate (CI's
// exposition smoke); tests read samples back with Scrape.Value.
package obs

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Metric is one parsed sample line.
type Metric struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Scrape is a parsed exposition: samples in document order plus the
// declared family types.
type Scrape struct {
	Samples []Metric
	Types   map[string]string // family name -> counter|gauge|histogram
	Help    map[string]string
}

// ParseText parses a Prometheus text exposition. It accepts the
// subset WriteText emits (which is the subset the scraper needs):
// comment lines, # HELP / # TYPE headers, and samples with optional
// {k="v",…} label sets. Malformed lines are errors, making ParseText
// double as a format validator.
func ParseText(text string) (*Scrape, error) {
	sc := &Scrape{Types: make(map[string]string), Help: make(map[string]string)}
	scanner := bufio.NewScanner(strings.NewReader(text))
	scanner.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := scanner.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := sc.parseComment(line); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		m, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		sc.Samples = append(sc.Samples, m)
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	return sc, nil
}

func (sc *Scrape) parseComment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		name, typ := fields[2], strings.TrimSpace(fields[3])
		switch typ {
		case TypeCounter, TypeGauge, TypeHistogram:
		default:
			return fmt.Errorf("unknown metric type %q for %s", typ, name)
		}
		if prev, dup := sc.Types[name]; dup {
			return fmt.Errorf("family %s declared twice (%s, %s)", name, prev, typ)
		}
		sc.Types[name] = typ
	case "HELP":
		if len(fields) < 3 {
			return fmt.Errorf("malformed HELP line %q", line)
		}
		help := ""
		if len(fields) == 4 {
			help = fields[3]
		}
		sc.Help[fields[2]] = help
	}
	return nil
}

func parseSample(line string) (Metric, error) {
	m := Metric{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return m, fmt.Errorf("malformed sample %q", line)
	} else {
		m.Name = rest[:i]
		rest = rest[i:]
	}
	if !nameRe.MatchString(m.Name) {
		return m, fmt.Errorf("invalid metric name %q", m.Name)
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.LastIndex(rest, "}")
		if end < 0 {
			return m, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := parseLabels(rest[1:end])
		if err != nil {
			return m, fmt.Errorf("%w in %q", err, line)
		}
		m.Labels = labels
		rest = rest[end+1:]
	}
	valStr := strings.TrimSpace(rest)
	if valStr == "" {
		return m, fmt.Errorf("missing value in %q", line)
	}
	// Timestamps (a second field) are not emitted by WriteText; reject
	// extra fields rather than silently mis-parse.
	if strings.ContainsAny(valStr, " \t") {
		return m, fmt.Errorf("unexpected extra field in %q", line)
	}
	v, err := parseFloat(valStr)
	if err != nil {
		return m, fmt.Errorf("bad value %q in %q", valStr, line)
	}
	m.Value = v
	return m, nil
}

func parseLabels(s string) (map[string]string, error) {
	labels := map[string]string{}
	for len(s) > 0 {
		eq := strings.Index(s, "=")
		if eq < 0 {
			return nil, fmt.Errorf("malformed label pair %q", s)
		}
		name := s[:eq]
		if !labelRe.MatchString(name) && name != "le" {
			return nil, fmt.Errorf("invalid label name %q", name)
		}
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return nil, fmt.Errorf("label %s value not quoted", name)
		}
		s = s[1:]
		var b strings.Builder
		closed := false
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(s[i])
				}
				continue
			}
			if c == '"' {
				s = s[i+1:]
				closed = true
				break
			}
			b.WriteByte(c)
		}
		if !closed {
			return nil, fmt.Errorf("unterminated value for label %s", name)
		}
		labels[name] = b.String()
		s = strings.TrimPrefix(s, ",")
	}
	return labels, nil
}

func parseFloat(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(+1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// Validate checks a text exposition for structural correctness: it
// must parse, every sample must belong to a declared # TYPE family
// (histogram samples via their _bucket/_sum/_count suffixes), every
// histogram bucket series must be cumulative and end with le="+Inf",
// and _count must match the +Inf bucket. The CI serve smoke runs this
// against a live /v1/metrics scrape.
func Validate(text string) error {
	sc, err := ParseText(text)
	if err != nil {
		return err
	}
	if len(sc.Samples) == 0 {
		return fmt.Errorf("exposition has no samples")
	}
	type histSeries struct {
		uppers  []float64
		cum     []float64
		sum     float64
		count   float64
		hasSum  bool
		hasCnt  bool
		hasInfB bool
	}
	hists := map[string]*histSeries{} // family \xff labelkey
	histKey := func(fam string, labels map[string]string) string {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			if k != "le" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys)+1)
		parts = append(parts, fam)
		for _, k := range keys {
			parts = append(parts, k+"="+labels[k])
		}
		return strings.Join(parts, "\xff")
	}
	for _, m := range sc.Samples {
		if typ, ok := sc.Types[m.Name]; ok {
			if typ == TypeHistogram {
				return fmt.Errorf("histogram family %s has a bare sample (want _bucket/_sum/_count)", m.Name)
			}
			continue
		}
		fam, suffix := histFamily(m.Name, sc.Types)
		if fam == "" {
			return fmt.Errorf("sample %s has no # TYPE declaration", m.Name)
		}
		key := histKey(fam, m.Labels)
		h := hists[key]
		if h == nil {
			h = &histSeries{}
			hists[key] = h
		}
		switch suffix {
		case "_bucket":
			le, ok := m.Labels["le"]
			if !ok {
				return fmt.Errorf("%s sample missing le label", m.Name)
			}
			upper, err := parseFloat(le)
			if err != nil {
				return fmt.Errorf("%s has bad le %q", m.Name, le)
			}
			h.uppers = append(h.uppers, upper)
			h.cum = append(h.cum, m.Value)
			if math.IsInf(upper, +1) {
				h.hasInfB = true
			}
		case "_sum":
			h.sum, h.hasSum = m.Value, true
		case "_count":
			h.count, h.hasCnt = m.Value, true
		}
	}
	for key, h := range hists {
		fam := strings.SplitN(key, "\xff", 2)[0]
		if !h.hasInfB {
			return fmt.Errorf("histogram %s missing le=\"+Inf\" bucket", fam)
		}
		if !h.hasSum || !h.hasCnt {
			return fmt.Errorf("histogram %s missing _sum or _count", fam)
		}
		for i := 1; i < len(h.uppers); i++ {
			if h.uppers[i] <= h.uppers[i-1] {
				return fmt.Errorf("histogram %s buckets not ascending", fam)
			}
			if h.cum[i] < h.cum[i-1] {
				return fmt.Errorf("histogram %s buckets not cumulative", fam)
			}
		}
		if n := len(h.cum); n > 0 && h.cum[n-1] != h.count {
			return fmt.Errorf("histogram %s _count %v != +Inf bucket %v", fam, h.count, h.cum[n-1])
		}
	}
	return nil
}

// histFamily resolves a _bucket/_sum/_count sample name to its
// declared histogram family, returning ("", "") when none matches.
func histFamily(name string, types map[string]string) (fam, suffix string) {
	for _, s := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, s); ok && types[base] == TypeHistogram {
			return base, s
		}
	}
	return "", ""
}

// Value returns the value of the first sample matching name and the
// given label subset (every given pair must match; extra labels on
// the sample are ignored). ok is false when no sample matches.
func (sc *Scrape) Value(name string, labels map[string]string) (v float64, ok bool) {
	for _, m := range sc.Samples {
		if m.Name != name {
			continue
		}
		match := true
		for k, want := range labels {
			if m.Labels[k] != want {
				match = false
				break
			}
		}
		if match {
			return m.Value, true
		}
	}
	return 0, false
}
