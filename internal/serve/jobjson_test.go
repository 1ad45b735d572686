// Tests of the job-record codec (jobjson.go) against its reference,
// encoding/json: every encoding must be json.Marshal's (or
// json.Encoder's) bytes exactly, and every decode must give
// json.Unmarshal's value and error.
package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// fill sets every exported field reachable from v to a distinct
// non-zero value, so a field the codec does not know about shows up
// as a difference from encoding/json.
func fill(t *testing.T, v reflect.Value, seq *int) {
	t.Helper()
	*seq++
	n := *seq
	switch v.Kind() {
	case reflect.Struct:
		if v.Type() == reflect.TypeFor[time.Time]() {
			zone := time.FixedZone("", (n%24-12)*3600+1800)
			v.Set(reflect.ValueOf(time.Date(2000+n, time.Month(n%12+1), n%28+1, n%24, n%60, n%60, n*1_000_001, zone)))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(t, v.Field(i), seq)
			}
		}
	case reflect.String:
		v.SetString(fmt.Sprintf("v%d", n))
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(n) * -1_000_003)
	case reflect.Uint64:
		v.SetUint(uint64(n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), seq)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fill(t, v.Index(0), seq)
		fill(t, v.Index(1), seq)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for range 2 {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(t, k, seq)
			fill(t, e, seq)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	default:
		t.Fatalf("fill: no rule for %s", v.Type())
	}
}

// requireSameBytes fails unless the codec wrote encoding/json's bytes.
func requireSameBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from encoding/json:\ncodec %s\njson  %s", what, got, want)
	}
}

// TestJobCodecCoversEveryField sets every field of Job, its spec,
// result and trace events, and of walSnapshot, non-zero: a field added
// later without codec support fails here.
func TestJobCodecCoversEveryField(t *testing.T) {
	var j Job
	seq := 0
	fill(t, reflect.ValueOf(&j).Elem(), &seq)
	want, err := json.Marshal(&j)
	if err != nil {
		t.Fatal(err)
	}
	got := appendJob(nil, &j)
	requireSameBytes(t, "job", got, want)
	if !decodeCanonical(got, &Job{}) {
		t.Fatalf("fast path rejects the canonical job %s", got)
	}
	checkDecode(t, got)

	var snap walSnapshot
	fill(t, reflect.ValueOf(&snap).Elem(), &seq)
	if want, err = json.Marshal(&snap); err != nil {
		t.Fatal(err)
	}
	requireSameBytes(t, "snapshot", appendSnapshot(nil, &snap), want)
}

func TestAppendStringEscapesLikeEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"",
		"plain ascii ~ DEL\x7f",
		`quote " backslash \ slash /`,
		"<script>a && b</script>",
		"\b\f\n\r\t \x00\x01\x1f",
		"caf\u00e9 \u2027\u2028\u2029\u202a \U0001F600",
		"bad \xff\xfe utf8 \xe2\x80 cut",
		"\xed\xa0\x80 surrogate, \xc0\xaf overlong",
		"\xe2\x80\xa8\xe2\x80\xa9",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBytes(t, fmt.Sprintf("string %q", s), appendString(nil, s), want)
	}
}

// sampleJobs returns a job in each status a store produces — queued,
// running with a cancel requested, done, failed with an escaped error,
// canceled, and requeued after a preemption — with times in zone.
func sampleJobs(t testing.TB, zone *time.Location) []Job {
	t.Helper()
	st, err := openStore("", nil)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Date(2026, 10, 17, 10, 47, 1, 123456789, zone)
	tick := func() time.Time { now = now.Add(1234567 * time.Nanosecond); return now }
	spec := JobSpec{Kind: KindSweep, N: 4, Seed: -7, Trials: 3, Priority: 2}
	ids := make([]string, 6)
	for i := range ids {
		ids[i] = st.add(spec, fmt.Sprintf("tenant-%d", i), tick()).ID
	}
	for _, id := range ids[1:5] {
		if _, ok := st.claim(id, tick(), func() {}); !ok {
			t.Fatal("claim failed")
		}
		st.trace(id, tick(), TraceMachineReady, "shape=star:4 built")
	}
	if _, err := st.cancel(ids[1], tick()); err != nil {
		t.Fatal(err)
	}
	st.finish(ids[2], ScenarioResult{UnitRoutes: 42, Conflicts: 3, OK: true}, nil, tick())
	st.finish(ids[3], ScenarioResult{}, errors.New("bad <input> & \u2028 \"quoted\"\n"), tick())
	if victim, ok := st.requestPreempt(9, 1); !ok || victim != ids[4] {
		t.Fatalf("preempt picked %q, %v", victim, ok)
	}
	st.finish(ids[4], ScenarioResult{UnitRoutes: 5}, context.Canceled, tick())
	if _, err := st.cancel(ids[5], tick()); err != nil {
		t.Fatal(err)
	}
	var jobs []Job
	for _, id := range ids {
		j, _ := st.get(id)
		jobs = append(jobs, j)
	}
	return jobs
}

// TestJobRecordsMatchEncodingJSON compares the codec with
// encoding/json on jobs in every status, pages and batches, and
// requires the fast decoder to read each back.
// indiaZone is a zone with a non-whole-hour offset.
var indiaZone = time.FixedZone("", 5*3600+30*60)

func TestJobRecordsMatchEncodingJSON(t *testing.T) {
	jobs := sampleJobs(t, indiaZone)
	statuses := map[Status]bool{}
	for i := range jobs {
		j := &jobs[i]
		statuses[j.Status] = true
		want, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		got := appendJob(nil, j)
		requireSameBytes(t, "job "+j.ID, got, want)
		// Escaped strings (the failed job's error) leave the fast path.
		if fast := decodeCanonical(got, &Job{}); fast == bytes.ContainsRune(got, '\\') {
			t.Fatalf("fast path taken = %v for %s", fast, got)
		}
		checkDecode(t, got)
	}
	if len(statuses) != 5 {
		t.Fatalf("sample jobs cover statuses %v, want all five", statuses)
	}
	for _, page := range []JobPage{{Jobs: jobs, NextCursor: "17"}, {Jobs: []Job{}}, {}} {
		want, _ := json.Marshal(&page)
		got := appendJobPage(nil, &page)
		requireSameBytes(t, "page", got, want)
		checkDecode(t, got)
	}
}

// TestWALRecordsMatchEncodingJSON drives a durable store through every
// op the WAL logs and compares each record on disk with json.Marshal
// of walRecord{lsn, op, job} for the job as it stood after the
// transition.
func TestWALRecordsMatchEncodingJSON(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir, nil)
	defer ds.close()
	now := time.Now()
	var want []walRecord
	logged := func(op walOp, id string) {
		j, _ := ds.get(id)
		want = append(want, walRecord{LSN: uint64(len(want) + 1), Op: op, Job: j})
	}
	spec := JobSpec{Kind: KindSweep, N: 4, Trials: 2}
	a := ds.add(spec, "lab <&>", now)
	logged(opSubmit, a.ID)
	ds.claim(a.ID, now, func() {})
	logged(opClaim, a.ID)
	ds.trace(a.ID, now, TraceMachineReady, "shape=star:4 reused") // no record of its own
	ds.requestPreempt(5, 1)
	ds.finish(a.ID, ScenarioResult{UnitRoutes: 3}, context.Canceled, now)
	logged(opPreempt, a.ID)
	ds.claim(a.ID, now, func() {})
	logged(opClaim, a.ID)
	ds.cancel(a.ID, now)
	logged(opCancelReq, a.ID)
	ds.finish(a.ID, ScenarioResult{UnitRoutes: 4}, context.Canceled, now)
	logged(opFinish, a.ID)
	b := ds.add(spec, DefaultTenant, now)
	logged(opSubmit, b.ID)
	ds.cancel(b.ID, now)
	logged(opCancel, b.ID)
	c := ds.add(spec, DefaultTenant, now)
	logged(opSubmit, c.ID)
	ds.remove(c.ID)
	want = append(want, walRecord{LSN: uint64(len(want) + 1), Op: opRemove, Job: want[len(want)-1].Job})

	data, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for i, rec := range want {
		payload, next, ok := frameAt(data, off)
		if !ok {
			t.Fatalf("record %d (%s): bad frame", i+1, rec.Op)
		}
		wantBytes, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBytes(t, fmt.Sprintf("record %d (%s)", i+1, rec.Op), payload, wantBytes)
		off = next
	}
	if off != len(data) {
		t.Fatalf("%d bytes of log beyond the %d expected records", len(data)-off, len(want))
	}
}

// TestSnapshotMatchesEncodingJSON compares appendSnapshot with
// json.Marshal on a store holding jobs in every status, per-kind
// stats and watch drops.
func TestSnapshotMatchesEncodingJSON(t *testing.T) {
	old := watchBuffer
	watchBuffer = 0
	defer func() { watchBuffer = old }()
	ds := openDurable(t, t.TempDir(), nil)
	defer ds.close()
	now := time.Now()
	var ids []string
	for _, spec := range []JobSpec{{Kind: KindSweep, N: 3}, {Kind: KindSort, N: 4}, {Kind: KindShear, Rows: 4, Cols: 4}, {Kind: KindSweep, N: 4}, {Kind: KindSort, N: 3}} {
		ids = append(ids, ds.add(spec, DefaultTenant, now).ID)
	}
	_, _, stop, err := ds.watch(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	for _, id := range ids[1:4] {
		ds.claim(id, now.Add(time.Millisecond), nil)
	}
	ds.finish(ids[1], ScenarioResult{UnitRoutes: 7, OK: true}, nil, now.Add(2*time.Millisecond))
	ds.finish(ids[2], ScenarioResult{}, errors.New("boom"), now.Add(3*time.Millisecond))
	ds.cancel(ids[4], now)

	ds.mu.Lock()
	snap := ds.buildSnapshot(now)
	ds.mu.Unlock()
	if len(snap.ByKind) < 2 || snap.WatchDrops == 0 {
		t.Fatalf("snapshot misses a section: %+v", snap)
	}
	want, err := json.Marshal(&snap)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBytes(t, "snapshot", appendSnapshot(nil, &snap), want)
}

// TestJobBodiesMatchEncoder compares the job, page and batch bodies
// and the watch lines the handlers write with what json.Encoder writes
// for the same values.
func TestJobBodiesMatchEncoder(t *testing.T) {
	svc, err := newService(Config{Workers: 1, Queue: 16}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	encoded := func(v any) []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	job := func(id string) Job {
		j, ok := svc.Job(id)
		if !ok {
			t.Fatalf("job %s missing", id)
		}
		return j
	}

	_, body := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"kind":"sort","n":4,"dist":"reversed","seed":5}`)
	// The client decodes whole bodies, newline and all, on the fast
	// path.
	if !decodeCanonical(body, &Job{}) {
		t.Fatalf("fast path rejects the submit body %q", body)
	}
	checkDecode(t, body)
	var first Job
	if err := DecodeJSON(body, &first); err != nil {
		t.Fatal(err)
	}
	requireSameBytes(t, "submit body", body, encoded(job(first.ID)))

	_, body = doJSON(t, "POST", ts.URL+"/v1/jobs:batch", `{"specs":[{"kind":"sweep","n":3},{"kind":"sweep","n":4}]}`)
	if !decodeCanonical(body, &BatchResponse{}) {
		t.Fatalf("fast path rejects the batch body %q", body)
	}
	checkDecode(t, body)
	var batch BatchResponse
	if err := DecodeJSON(body, &batch); err != nil || len(batch.Jobs) != 2 {
		t.Fatalf("batch body %s: %v", body, err)
	}
	requireSameBytes(t, "batch body", body, encoded(BatchResponse{Jobs: []Job{job(batch.Jobs[0].ID), job(batch.Jobs[1].ID)}}))

	_, body = doJSON(t, "GET", ts.URL+"/v1/jobs?limit=2", "")
	page, err := svc.ListJobs(ListQuery{Limit: 2})
	if err != nil || page.NextCursor == "" {
		t.Fatalf("page %+v: %v", page, err)
	}
	requireSameBytes(t, "list body", body, encoded(page))
	if !decodeCanonical(body, &JobPage{}) {
		t.Fatalf("fast path rejects the list body %q", body)
	}
	checkDecode(t, body)

	// A failed job whose error needs escaping.
	failed := batch.Jobs[0].ID
	svc.store.claim(failed, time.Now(), nil)
	svc.store.finish(failed, ScenarioResult{}, errors.New("bad <input> & \u2028 \"x\""), time.Now())
	_, body = doJSON(t, "GET", ts.URL+"/v1/jobs/"+failed, "")
	requireSameBytes(t, "get body", body, encoded(job(failed)))

	// Watch a queued job, then cancel it: two lines, queued then
	// canceled. Cancel's own body is the canceled job.
	watched := batch.Jobs[1].ID
	queued := job(watched)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + watched + "/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)
	line, err := rd.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	requireSameBytes(t, "queued watch line", line, encoded(queued))
	_, body = doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+watched, "")
	requireSameBytes(t, "cancel body", body, encoded(job(watched)))
	if line, err = rd.ReadBytes('\n'); err != nil {
		t.Fatal(err)
	}
	requireSameBytes(t, "canceled watch line", line, encoded(job(watched)))
}

// checkDecode requires DecodeJSON, for every target its fast path
// serves, and DecodeJob to give json.Unmarshal's value and error.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	checkDecodeAs[Job](t, data)
	checkDecodeAs[JobPage](t, data)
	checkDecodeAs[BatchResponse](t, data)
	checkDecodeAs[JobSpec](t, data)
	checkDecodeAs[BatchRequest](t, data)
	checkDecoder(t, "DecodeJob", data, DecodeJob)
}

func checkDecodeAs[T any](t *testing.T, data []byte) {
	t.Helper()
	checkDecoder(t, "DecodeJSON", data, func(data []byte, v *T) error { return DecodeJSON(data, v) })
}

// checkDecoder requires decode to give json.Unmarshal's value and
// error.
func checkDecoder[T any](t *testing.T, name string, data []byte, decode func([]byte, *T) error) {
	t.Helper()
	var got, want T
	gerr := decode(data, &got)
	werr := json.Unmarshal(data, &want)
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("%s(%q) into %T: error %v, json.Unmarshal: %v", name, data, &got, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s(%q) into %T:\ngot  %+v\njson %+v", name, data, &got, got, want)
	}
}

// fuzzReader builds values from fuzz bytes; it reads zeros once the
// bytes run out.
type fuzzReader []byte

func (r *fuzzReader) byte() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

func (r *fuzzReader) int64() int64 {
	switch r.byte() % 4 {
	case 0:
		return 0
	case 1:
		return int64(int8(r.byte()))
	}
	var b [8]byte
	for i := range b {
		b[i] = r.byte()
	}
	return int64(binary.LittleEndian.Uint64(b[:]))
}

func (r *fuzzReader) int() int { return int(r.int64()) }

// str takes a run of raw bytes, valid UTF-8 or not.
func (r *fuzzReader) str() string {
	n := min(int(r.byte()%32), len(*r))
	s := string((*r)[:n])
	*r = (*r)[n:]
	return s
}

// fuzzZones are the zones fuzzed times use; time.Time.MarshalJSON
// accepts offsets below a day.
var fuzzZones = []*time.Location{
	time.UTC, time.FixedZone("", 5*3600+30*60), time.FixedZone("", -8*3600),
	time.FixedZone("", 23*3600+59*60), time.FixedZone("", -(23*3600 + 59*60)), time.FixedZone("", 45),
}

// time returns the zero time or one in years 0–9999.
func (r *fuzzReader) time() time.Time {
	sel := r.byte()
	if sel%5 == 0 {
		return time.Time{}
	}
	year := int(r.byte())<<8 | int(r.byte())
	return time.Date(year%10000, time.Month(r.byte()%12+1), int(r.byte()%28+1),
		int(r.byte()%24), int(r.byte()%60), int(r.byte()%60), int(r.int64()%1e9),
		fuzzZones[int(sel)%len(fuzzZones)])
}

func (r *fuzzReader) spec() JobSpec {
	return JobSpec{Kind: r.str(), N: r.int(), Rows: r.int(), Cols: r.int(), Dist: r.str(),
		Seed: r.int64(), Source: r.int(), Faults: r.int(), Pairs: r.int(), D: r.int(),
		Pattern: r.str(), Holes: r.int(), Trials: r.int(), Priority: r.int()}
}

// batch returns a batch request with nil, empty or up to two specs.
func (r *fuzzReader) batch() BatchRequest {
	var req BatchRequest
	if n := r.byte() % 4; n > 0 {
		req.Specs = []JobSpec{}
		for range n - 1 {
			req.Specs = append(req.Specs, r.spec())
		}
	}
	return req
}

func (r *fuzzReader) job() Job {
	j := Job{
		ID:     r.str(),
		Spec:   r.spec(),
		Tenant: r.str(), Shape: r.str(), Status: Status(r.str()), Error: r.str(),
		CancelRequested: r.byte()%2 == 1, Preemptions: r.int(),
		Created: r.time(), Started: r.time(), Finished: r.time(),
		WaitNs: r.int64(), RunNs: r.int64(),
	}
	if r.byte()%2 == 1 {
		j.Result = &ScenarioResult{Name: r.str(), UnitRoutes: r.int(), Conflicts: r.int(), OK: r.byte()%2 == 1, ElapsedNs: r.int64()}
	}
	for range r.byte() % 4 {
		j.Trace = append(j.Trace, TraceEvent{Event: r.str(), At: r.time(), DurNs: r.int64(), Detail: r.str()})
	}
	return j
}

// FuzzJobCodec checks both halves of the codec against encoding/json.
// The fuzz bytes are decoded as they are by DecodeJSON into every type
// it reads and by DecodeJob; then they build a Job, whose encoding
// must be json.Marshal's and must decode back like json.Unmarshal, and
// a spec and a batch request, whose bodies (the ones the typed client
// sends) must be json.Marshal's too.
func FuzzJobCodec(f *testing.F) {
	jobs := sampleJobs(f, indiaZone)
	for i := range jobs {
		f.Add(appendJob(nil, &jobs[i]))
	}
	f.Add(appendJobPage(nil, &JobPage{Jobs: jobs[:2], NextCursor: "3"}))
	f.Add(append(appendJobs([]byte(`{"jobs":`), jobs[2:4]), '}'))
	// Inputs off the canonical form, which must reach json.Unmarshal
	// or match it anyway.
	canon := string(appendJob(nil, &jobs[2]))
	for _, s := range []string{
		strings.Replace(canon, `,"shape":`, ` , "shape" : `, 1), // whitespace
		canon + "\n",
		canon + " ",
		canon + "\n\n",
		canon + "\r\n",
		canon + "x", // trailing bytes
		canon[:len(canon)/2],
		strings.Replace(canon, `"shape":"star:4"`, `"shape":"\u0073tar:4"`, 1), // escape
		strings.Replace(canon, `"shape":"star:4"`, `"shape":"stär"`, 1),
		"{\"id\":\"a\x01\"}", // control byte
		strings.Replace(canon, `"result":{`, `"result":null,"r":{`, 1),
		`{"id":"a","trace":null}`,
		strings.Replace(canon, `"shape":`, `"shap":`, 1), // unknown key
		strings.Replace(canon, `"shape":`, `"SHAPE":`, 1),
		strings.Replace(canon, `"unit_routes":42`, `"unit_routes":1e2`, 1), // exponent
		strings.Replace(canon, `"unit_routes":42`, `"unit_routes":42.0`, 1),
		strings.Replace(canon, `"unit_routes":42`, `"unit_routes":042`, 1),
		strings.Replace(canon, `"unit_routes":42`, `"unit_routes":9223372036854775808`, 1),
		strings.Replace(canon, `"unit_routes":42`, `"unit_routes":"42"`, 1),
		strings.Replace(canon, `"ok":true`, `"ok":1`, 1),
		strings.Replace(canon, `"created":"2026`, `"created":"1026x`, 1),
		`{"preemptions":-0}`,
		strings.Replace(canon, `"result":{`, `"result":{"ok":false},"result":{`, 1), // duplicate keys
		canon[:len(canon)-1] + `,"trace":[{"event":"x","at":"2026-01-01T00:00:00Z"}]}`,
		strings.Replace(canon, `"shape":`, `"shape":"x","shape":`, 1),
		strings.Replace(canon, `"spec":{`, `"spec":{"n":9,"seed":4},"spec":{`, 1),
		`{"jobs":[` + canon + `],"jobs":[]}`,
		`{"id":"a","trace":[]}`,
		`{"jobs":[]}`,
		`{}`,
		`[1,2]`,
		`{"kind":"sort","n":4,"dist":"reversed","seed":5}`,
		`{"specs":[{"kind":"sweep","n":3},{"kind":"sweep","n":4}]}`,
		`{"specs":null}`,
		`{"specs":[]}`,
		`{"specs":[{"kind":"sweep"}],"specs":[{"n":4}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		r := fuzzReader(data)
		j := r.job()
		want, err := json.Marshal(&j)
		if err != nil {
			t.Fatal(err)
		}
		got := appendJob(nil, &j)
		requireSameBytes(t, "job", got, want)
		checkDecode(t, got)
		spec, batch := r.spec(), r.batch()
		for _, body := range []struct {
			v   any
			got []byte
		}{{&spec, AppendSpec(nil, &spec)}, {&batch, AppendBatchRequest(nil, &batch)}} {
			want, err := json.Marshal(body.v)
			if err != nil {
				t.Fatal(err)
			}
			requireSameBytes(t, "request body", body.got, want)
			checkDecode(t, body.got)
		}
	})
}

// BenchmarkJobCodec times one done job through the codec and through
// encoding/json, each way. Its times are UTC, as on a host whose local
// zone is UTC; other zones cost a time.Location per decoded time.
func BenchmarkJobCodec(b *testing.B) {
	job := sampleJobs(b, time.UTC)[2]
	data := appendJob(nil, &job)
	buf := make([]byte, 0, 2*len(data))
	b.Run("encode/codec", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			buf = appendJob(buf[:0], &job)
		}
	})
	b.Run("encode/json", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			buf, _ = json.Marshal(&job)
		}
	})
	b.Run("decode/codec", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var j Job
			if err := DecodeJSON(data, &j); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/json", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var j Job
			if err := json.Unmarshal(data, &j); err != nil {
				b.Fatal(err)
			}
		}
	})
}
