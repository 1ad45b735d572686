// The job-record codec: hand-written JSON for the record the service
// writes most. Every job body (Job, JobPage, BatchResponse), every
// watch-stream line, every WAL record and every snapshot is encoded
// here, and so is every spec and batch request body the typed client
// sends (AppendSpec, AppendBatchRequest). The client decodes every
// response through DecodeJob or DecodeJSON, and the submit handlers
// decode its request bodies through decodeCanonical.
//
// The encoder allocates nothing and writes exactly the bytes
// encoding/json writes for the same value: field order, omitempty and
// omitzero, HTML-safe string escaping and RFC 3339 times. So bodies,
// streams and stores it writes are interchangeable with ones
// encoding/json wrote. The decoder reads the canonical form the
// encoder writes and hands every other input to encoding/json:
// json.Unmarshal, or for a request body the json.Decoder with
// DisallowUnknownFields (decodeRequest). encoding/json stays the
// reference for both halves: the tests, FuzzJobCodec and
// FuzzSpecDecode compare them byte for byte and value for value.
package serve

import (
	"bytes"
	"encoding/json"
	"strconv"
	"time"
	"unicode/utf8"

	"starmesh/internal/workload"
)

// appendJob appends j as json.Marshal writes it.
func appendJob(b []byte, j *Job) []byte {
	b = appendStringField(b, `{"id":`, j.ID)
	b = AppendSpec(append(b, `,"spec":`...), &j.Spec)
	if j.Tenant != "" {
		b = appendStringField(b, `,"tenant":`, j.Tenant)
	}
	b = appendStringField(b, `,"shape":`, j.Shape)
	b = appendStringField(b, `,"status":`, string(j.Status))
	if r := j.Result; r != nil {
		b = appendStringField(b, `,"result":{"name":`, r.Name)
		b = appendIntField(b, `,"unit_routes":`, int64(r.UnitRoutes))
		b = appendIntField(b, `,"conflicts":`, int64(r.Conflicts))
		b = strconv.AppendBool(append(b, `,"ok":`...), r.OK)
		b = appendIntField(b, `,"elapsed_ns":`, r.ElapsedNs)
		b = append(b, '}')
	}
	if j.Error != "" {
		b = appendStringField(b, `,"error":`, j.Error)
	}
	if j.CancelRequested {
		b = append(b, `,"cancel_requested":true`...)
	}
	if j.Preemptions != 0 {
		b = appendIntField(b, `,"preemptions":`, int64(j.Preemptions))
	}
	b = appendTime(append(b, `,"created":`...), j.Created)
	if !j.Started.IsZero() {
		b = appendTime(append(b, `,"started":`...), j.Started)
	}
	if !j.Finished.IsZero() {
		b = appendTime(append(b, `,"finished":`...), j.Finished)
	}
	if j.WaitNs != 0 {
		b = appendIntField(b, `,"wait_ns":`, j.WaitNs)
	}
	if j.RunNs != 0 {
		b = appendIntField(b, `,"run_ns":`, j.RunNs)
	}
	if len(j.Trace) > 0 {
		b = append(b, `,"trace":[`...)
		for i := range j.Trace {
			ev := &j.Trace[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = appendStringField(b, `{"event":`, ev.Event)
			b = appendTime(append(b, `,"at":`...), ev.At)
			if ev.DurNs != 0 {
				b = appendIntField(b, `,"dur_ns":`, ev.DurNs)
			}
			if ev.Detail != "" {
				b = appendStringField(b, `,"detail":`, ev.Detail)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// AppendSpec appends s as json.Marshal writes it: kind, then every
// non-zero parameter. It writes the body of the typed client's
// submit.
func AppendSpec(b []byte, s *JobSpec) []byte {
	b = appendStringField(b, `{"kind":`, s.Kind)
	b = appendOmitInt(b, `,"n":`, int64(s.N))
	b = appendOmitInt(b, `,"rows":`, int64(s.Rows))
	b = appendOmitInt(b, `,"cols":`, int64(s.Cols))
	if s.Dist != "" {
		b = appendStringField(b, `,"dist":`, s.Dist)
	}
	b = appendOmitInt(b, `,"seed":`, s.Seed)
	b = appendOmitInt(b, `,"source":`, int64(s.Source))
	b = appendOmitInt(b, `,"faults":`, int64(s.Faults))
	b = appendOmitInt(b, `,"pairs":`, int64(s.Pairs))
	b = appendOmitInt(b, `,"d":`, int64(s.D))
	if s.Pattern != "" {
		b = appendStringField(b, `,"pattern":`, s.Pattern)
	}
	b = appendOmitInt(b, `,"holes":`, int64(s.Holes))
	b = appendOmitInt(b, `,"trials":`, int64(s.Trials))
	b = appendOmitInt(b, `,"priority":`, int64(s.Priority))
	return append(b, '}')
}

// AppendBatchRequest appends r as json.Marshal writes it: the body of
// the typed client's batch submit.
func AppendBatchRequest(b []byte, r *BatchRequest) []byte {
	b = append(b, `{"specs":`...)
	if r.Specs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Specs {
			if i > 0 {
				b = append(b, ',')
			}
			b = AppendSpec(b, &r.Specs[i])
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendJobs appends a job array as json.Marshal writes a []Job.
func appendJobs(b []byte, jobs []Job) []byte {
	if jobs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i := range jobs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJob(b, &jobs[i])
	}
	return append(b, ']')
}

// appendJobPage appends p as json.Marshal writes it.
func appendJobPage(b []byte, p *JobPage) []byte {
	b = appendJobs(append(b, `{"jobs":`...), p.Jobs)
	if p.NextCursor != "" {
		b = appendStringField(b, `,"next_cursor":`, p.NextCursor)
	}
	return append(b, '}')
}

// appendRecord appends one WAL record as json.Marshal writes
// walRecord{LSN: lsn, Op: op, Job: *j}, straight from the live job.
func appendRecord(b []byte, lsn uint64, op walOp, j *Job) []byte {
	b = strconv.AppendUint(append(b, `{"lsn":`...), lsn, 10)
	b = appendStringField(b, `,"op":`, string(op))
	b = appendJob(append(b, `,"job":`...), j)
	return append(b, '}')
}

// appendSnapshot appends s as json.Marshal writes it.
func appendSnapshot(b []byte, s *walSnapshot) []byte {
	b = appendTime(append(b, `{"taken_at":`...), s.TakenAt)
	b = strconv.AppendUint(append(b, `,"lsn":`...), s.LSN, 10)
	b = appendIntField(b, `,"next":`, int64(s.Next))
	b = append(b, `,"jobs":`...)
	if s.Jobs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, j := range s.Jobs {
			if i > 0 {
				b = append(b, ',')
			}
			if j == nil {
				b = append(b, "null"...)
			} else {
				b = appendJob(b, j)
			}
		}
		b = append(b, ']')
	}
	if len(s.ByKind) > 0 {
		b = append(b, `,"by_kind":[`...)
		for i := range s.ByKind {
			k := &s.ByKind[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = appendStringField(b, `{"kind":`, k.Kind)
			b = appendIntField(b, `,"done":`, k.Done)
			b = appendIntField(b, `,"failed":`, k.Failed)
			b = appendIntField(b, `,"canceled":`, k.Canceled)
			b = appendIntField(b, `,"unit_routes":`, k.UnitRoutes)
			b = appendIntField(b, `,"conflicts":`, k.Conflicts)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if s.WatchDrops != 0 {
		b = appendIntField(b, `,"watch_drops":`, s.WatchDrops)
	}
	return append(b, '}')
}

// appendStringField appends key (the literal up to and including the
// colon) and s.
func appendStringField(b []byte, key, s string) []byte {
	return appendString(append(b, key...), s)
}

// appendIntField appends key and v.
func appendIntField(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

// appendOmitInt appends key and v unless v is zero (omitempty).
func appendOmitInt(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return appendIntField(b, key, v)
}

// appendTime appends t as time.Time.MarshalJSON writes it. MarshalJSON
// fails instead for a year outside [0, 9999] or a zone offset of a day
// or more; the service's times are time.Now readings and RFC 3339
// decodings, which are never either.
func appendTime(b []byte, t time.Time) []byte {
	b = append(b, '"')
	b = t.AppendFormat(b, time.RFC3339Nano)
	return append(b, '"')
}

// jsonSafe marks the ASCII bytes encoding/json copies into a string
// unescaped when HTML escaping is on (json.Marshal and json.Encoder's
// default): everything from space up except `"`, `\`, `<`, `>` and `&`.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = true
	}
	for _, c := range `"\<>&` {
		safe[c] = false
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string escaped exactly as
// encoding/json escapes it: `"` and `\` backslashed; \b \f \n \r \t
// by name; other control bytes and `<`, `>`, `&` as \u00XX; invalid
// UTF-8 as \ufffd; U+2028 and U+2029 as \u2028 and \u2029.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// DecodeJSON decodes data into v, which must point to a zero value,
// with json.Unmarshal's result. For *Job, *JobPage and *BatchResponse
// it first reads the canonical form the service writes without
// reflection: known keys (exact case, any order), ASCII strings
// without escapes, integers without fraction or exponent, true and
// false, RFC 3339 times, and no whitespace but the newline that ends
// a response body. On any other input it discards the partial value
// and returns json.Unmarshal's result, so the fast path changes
// speed, never outcome. Every other type goes to json.Unmarshal
// directly.
func DecodeJSON(data []byte, v any) error {
	if decodeCanonical(data, v) {
		return nil
	}
	return json.Unmarshal(data, v)
}

// DecodeJob is DecodeJSON for one job, without boxing j: j does not
// escape, so a caller's Job can live on its stack. Only the
// json.Unmarshal fallback decodes into a heap copy, which it then
// copies to *j.
func DecodeJob(data []byte, j *Job) error {
	d := jobDecoder{data: data}
	if d.job(j) && d.end() {
		return nil
	}
	v := new(Job)
	err := json.Unmarshal(data, v)
	*j = *v
	return err
}

// decodeCanonical is DecodeJSON's fast path. It reports false, with
// *v reset to its zero value, when data is not in the canonical form
// or v is not a type the codec reads.
func decodeCanonical(data []byte, v any) bool {
	d := jobDecoder{data: data}
	switch v := v.(type) {
	case *Job:
		if d.job(v) && d.end() {
			return true
		}
		*v = Job{}
	case *JobPage:
		if d.object(func(key []byte) bool {
			switch string(key) {
			case "jobs":
				return d.jobs(&v.Jobs)
			case "next_cursor":
				return d.str(&v.NextCursor)
			}
			return false
		}) && d.end() {
			return true
		}
		*v = JobPage{}
	case *BatchResponse:
		if d.object(func(key []byte) bool {
			return string(key) == "jobs" && d.jobs(&v.Jobs)
		}) && d.end() {
			return true
		}
		*v = BatchResponse{}
	case *JobSpec:
		if d.spec(v) && d.end() {
			return true
		}
		*v = JobSpec{}
	case *BatchRequest:
		if d.object(func(key []byte) bool {
			return string(key) == "specs" && d.specs(&v.Specs)
		}) && d.end() {
			return true
		}
		*v = BatchRequest{}
	}
	return false
}

// jobDecoder reads the canonical job encoding from data[i:]. Each
// method consumes one value and reports whether it was canonical;
// false abandons the fast path.
type jobDecoder struct {
	data []byte
	i    int
}

// end reports whether the value read is all of data, but for the
// newline that ends a response body.
func (d *jobDecoder) end() bool {
	rest := d.data[d.i:]
	return len(rest) == 0 || (len(rest) == 1 && rest[0] == '\n')
}

// char consumes the byte c.
func (d *jobDecoder) char(c byte) bool {
	if d.i < len(d.data) && d.data[d.i] == c {
		d.i++
		return true
	}
	return false
}

// object reads {"key":value,...}, calling field to read each value.
func (d *jobDecoder) object(field func(key []byte) bool) bool {
	if !d.char('{') {
		return false
	}
	if d.char('}') {
		return true
	}
	for {
		key, ok := d.plain()
		if !ok || !d.char(':') || !field(key) {
			return false
		}
		if !d.char(',') {
			return d.char('}')
		}
	}
}

// array reads [elem,...], calling elem to read each element.
func (d *jobDecoder) array(elem func() bool) bool {
	if !d.char('[') {
		return false
	}
	if d.char(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !d.char(',') {
			return d.char(']')
		}
	}
}

// plainSafe marks the bytes a canonical string holds unescaped: ASCII
// from space up, except `"` and `\`.
var plainSafe = func() (safe [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\'
	}
	return safe
}()

// plain reads a string of ASCII without escapes and returns its
// contents, which alias data.
func (d *jobDecoder) plain() ([]byte, bool) {
	if !d.char('"') {
		return nil, false
	}
	i := d.i
	for i < len(d.data) && plainSafe[d.data[i]] {
		i++
	}
	if i == len(d.data) || d.data[i] != '"' {
		return nil, false
	}
	s := d.data[d.i:i]
	d.i = i + 1
	return s, true
}

func (d *jobDecoder) str(p *string) bool {
	s, ok := d.plain()
	if ok {
		*p = string(s)
	}
	return ok
}

// sym is str for a field whose values come from a closed set: a value
// in the set shares the set's string instead of allocating a copy.
func (d *jobDecoder) sym(p *string) bool {
	s, ok := d.plain()
	if ok {
		if v, known := symbols[string(s)]; known {
			*p = v
		} else {
			*p = string(s)
		}
	}
	return ok
}

// symbols holds the closed sets a job's strings come from: statuses,
// trace events, kinds, key distributions, permutation patterns and
// the default tenant.
var symbols = func() map[string]string {
	m := map[string]string{DefaultTenant: DefaultTenant}
	for _, s := range []string{
		string(StatusQueued), string(StatusRunning), string(StatusDone), string(StatusFailed), string(StatusCanceled),
		TraceSubmitted, TraceClaimed, TraceMachineReady, TraceCancelRequested, TraceRecovered, TraceMigrated, TracePreempted,
	} {
		m[s] = s
	}
	for _, s := range workload.Kinds() {
		m[s] = s
	}
	for _, d := range workload.Dists {
		m[d.Name] = d.Name
	}
	for _, s := range workload.PermPatterns {
		m[s] = s
	}
	return m
}()

// integer reads a JSON integer that fits in bits signed bits.
func (d *jobDecoder) integer(bits int) (int64, bool) {
	i := d.i
	if i < len(d.data) && d.data[i] == '-' {
		i++
	}
	digits := i
	for i < len(d.data) && '0' <= d.data[i] && d.data[i] <= '9' {
		i++
	}
	// JSON forbids leading zeros; a fraction or exponent ends the
	// object early and fails there.
	if i == digits || (d.data[digits] == '0' && i > digits+1) {
		return 0, false
	}
	v, err := strconv.ParseInt(string(d.data[d.i:i]), 10, bits)
	if err != nil {
		return 0, false
	}
	d.i = i
	return v, true
}

func (d *jobDecoder) int(p *int) bool {
	v, ok := d.integer(strconv.IntSize)
	*p = int(v)
	return ok
}

func (d *jobDecoder) int64(p *int64) bool {
	v, ok := d.integer(64)
	*p = v
	return ok
}

func (d *jobDecoder) bool(p *bool) bool {
	switch rest := d.data[d.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		*p, d.i = true, d.i+len("true")
	case bytes.HasPrefix(rest, []byte("false")):
		*p, d.i = false, d.i+len("false")
	default:
		return false
	}
	return true
}

// time reads a quoted time through time.Time.UnmarshalJSON, the call
// encoding/json makes with the same bytes.
func (d *jobDecoder) time(p *time.Time) bool {
	start := d.i
	if _, ok := d.plain(); !ok {
		return false
	}
	return p.UnmarshalJSON(d.data[start:d.i]) == nil
}

// jobs reads a job array. encoding/json decodes a repeated key into
// the first array's elements, merging the two, so a repeat is not
// canonical; an empty array is an empty, non-nil slice.
func (d *jobDecoder) jobs(p *[]Job) bool {
	if *p != nil {
		return false
	}
	*p = []Job{}
	return d.array(func() bool {
		*p = append(*p, Job{})
		return d.job(&(*p)[len(*p)-1])
	})
}

// specs reads a spec array, as jobs reads a job array.
func (d *jobDecoder) specs(p *[]JobSpec) bool {
	if *p != nil {
		return false
	}
	*p = []JobSpec{}
	return d.array(func() bool {
		*p = append(*p, JobSpec{})
		return d.spec(&(*p)[len(*p)-1])
	})
}

func (d *jobDecoder) job(j *Job) bool {
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "id":
			return d.str(&j.ID)
		case "spec":
			return d.spec(&j.Spec)
		case "tenant":
			return d.sym(&j.Tenant)
		case "shape":
			return d.str(&j.Shape)
		case "status":
			return d.sym((*string)(&j.Status))
		case "result":
			// A repeated result merges into the first, as jobs above.
			if j.Result != nil {
				return false
			}
			j.Result = new(ScenarioResult)
			return d.result(j.Result)
		case "error":
			return d.str(&j.Error)
		case "cancel_requested":
			return d.bool(&j.CancelRequested)
		case "preemptions":
			return d.int(&j.Preemptions)
		case "created":
			return d.time(&j.Created)
		case "started":
			return d.time(&j.Started)
		case "finished":
			return d.time(&j.Finished)
		case "wait_ns":
			return d.int64(&j.WaitNs)
		case "run_ns":
			return d.int64(&j.RunNs)
		case "trace":
			// A repeated trace merges into the first, as jobs above.
			if j.Trace != nil {
				return false
			}
			// Room for the usual submitted, claimed, machine_ready and
			// terminal events.
			j.Trace = make([]TraceEvent, 0, 4)
			return d.array(func() bool {
				j.Trace = append(j.Trace, TraceEvent{})
				return d.event(&j.Trace[len(j.Trace)-1])
			})
		}
		return false
	})
}

func (d *jobDecoder) spec(s *JobSpec) bool {
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "kind":
			return d.sym(&s.Kind)
		case "n":
			return d.int(&s.N)
		case "rows":
			return d.int(&s.Rows)
		case "cols":
			return d.int(&s.Cols)
		case "dist":
			return d.sym(&s.Dist)
		case "seed":
			return d.int64(&s.Seed)
		case "source":
			return d.int(&s.Source)
		case "faults":
			return d.int(&s.Faults)
		case "pairs":
			return d.int(&s.Pairs)
		case "d":
			return d.int(&s.D)
		case "pattern":
			return d.sym(&s.Pattern)
		case "holes":
			return d.int(&s.Holes)
		case "trials":
			return d.int(&s.Trials)
		case "priority":
			return d.int(&s.Priority)
		}
		return false
	})
}

func (d *jobDecoder) result(r *ScenarioResult) bool {
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "name":
			return d.str(&r.Name)
		case "unit_routes":
			return d.int(&r.UnitRoutes)
		case "conflicts":
			return d.int(&r.Conflicts)
		case "ok":
			return d.bool(&r.OK)
		case "elapsed_ns":
			return d.int64(&r.ElapsedNs)
		}
		return false
	})
}

func (d *jobDecoder) event(ev *TraceEvent) bool {
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "event":
			return d.sym(&ev.Event)
		case "at":
			return d.time(&ev.At)
		case "dur_ns":
			return d.int64(&ev.DurNs)
		case "detail":
			return d.str(&ev.Detail)
		}
		return false
	})
}
