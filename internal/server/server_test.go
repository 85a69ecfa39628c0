package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tooleval"
	"tooleval/internal/store"
)

// --- test plumbing ----------------------------------------------------

// newTestServer builds a Server and an httptest frontend over its
// handler. The server is closed with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func specsBody(t *testing.T, specs []tooleval.ExperimentSpec) *bytes.Reader {
	t.Helper()
	req := jobRequest{Specs: make([]specWire, len(specs))}
	for i, s := range specs {
		req.Specs[i] = toSpecWire(s)
	}
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(blob)
}

// postJob submits a batch on the blocking JSON path.
func postJob(t *testing.T, base, tenant string, specs []tooleval.ExperimentSpec) *http.Response {
	t.Helper()
	req, err := http.NewRequest("POST", base+"/v1/jobs", specsBody(t, specs))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// streamJob submits a batch on the SSE path and returns the live
// response; the caller owns resp.Body.
func streamJob(t *testing.T, base, tenant string, specs []tooleval.ExperimentSpec) *http.Response {
	t.Helper()
	req, err := http.NewRequest("POST", base+"/v1/jobs", specsBody(t, specs))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("stream submit: status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream submit: Content-Type %q", ct)
	}
	return resp
}

type sseEvent struct {
	name string
	data []byte
}

// readEvents parses SSE frames from r, calling fn per event until fn
// returns false or the stream ends.
func readEvents(r io.Reader, fn func(sseEvent) bool) error {
	sc := bufio.NewScanner(r)
	var ev sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if ev.name != "" && !fn(ev) {
				return nil
			}
			ev = sseEvent{}
		case strings.HasPrefix(line, "event: "):
			ev.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = []byte(strings.TrimPrefix(line, "data: "))
		}
	}
	return sc.Err()
}

// collectEvents drains a whole SSE stream.
func collectEvents(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var evs []sseEvent
	if err := readEvents(r, func(ev sseEvent) bool { evs = append(evs, ev); return true }); err != nil {
		t.Fatalf("reading SSE: %v", err)
	}
	return evs
}

// localReport runs specs through a plain local Session and renders them
// with MarshalBatchReport — the bytes the server must reproduce.
func localReport(t *testing.T, specs []tooleval.ExperimentSpec) []byte {
	t.Helper()
	sess := tooleval.NewSession()
	defer sess.Close()
	results, errs := sess.SubmitAll(t.Context(), specs)
	blob, err := MarshalBatchReport(results, errs)
	if err != nil {
		t.Fatalf("MarshalBatchReport: %v", err)
	}
	return blob
}

func fetchReport(t *testing.T, base, tenant, jobID string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest("GET", base+"/v1/jobs/"+jobID+"/report", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func fetchStatus(t *testing.T, base, tenant, jobID string) (int, jobStatusWire) {
	t.Helper()
	req, err := http.NewRequest("GET", base+"/v1/jobs/"+jobID, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatusWire
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st
}

var quickBatch = []tooleval.ExperimentSpec{
	{Kind: tooleval.KindPingPong, Platform: "sun-ethernet", Tool: "p4", Sizes: []int{0, 64, 1024}},
	{Kind: tooleval.KindRing, Platform: "sun-atm-lan", Tool: "pvm", Procs: 4, Sizes: []int{64}},
	{Kind: tooleval.KindApp, Platform: "sun-ethernet", Tool: "p4", App: "fft2d", ProcsList: []int{1, 2, 4}, Scale: 1},
}

// --- the API surface --------------------------------------------------

// TestSubmitJSONMatchesLocal pins the server's core promise: the report
// a remote tenant gets over HTTP is byte-identical to running the same
// batch through a local Session.
func TestSubmitJSONMatchesLocal(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	want := localReport(t, quickBatch)

	resp := postJob(t, ts.URL, "alice", quickBatch)
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("server report differs from local run:\nserver: %s\nlocal:  %s", body, want)
	}

	// The job remains fetchable: same bytes from the report endpoint,
	// settled counters from the status endpoint.
	code, rep := fetchReport(t, ts.URL, "alice", "j-000001")
	if code != http.StatusOK || !bytes.Equal(rep, want) {
		t.Fatalf("report endpoint: status %d, bytes equal %v", code, bytes.Equal(rep, want))
	}
	code, st := fetchStatus(t, ts.URL, "alice", "j-000001")
	if code != http.StatusOK {
		t.Fatalf("status endpoint: %d", code)
	}
	if st.State != jobDone || st.SpecStarts != len(quickBatch) || st.SpecDones != len(quickBatch) || st.Failed != 0 {
		t.Fatalf("status = %+v, want done with %d start/done pairs", st, len(quickBatch))
	}
	if st.Cells == 0 {
		t.Fatal("status reports zero cells for a completed sweep")
	}
}

// TestCacheCapacityIsExact: -cache-cap n bounds the shared cache to n
// completed cells, not n per lock segment, and evictions never change
// a report's bytes — a rerun of the same batch re-simulates what was
// evicted and answers identically.
func TestCacheCapacityIsExact(t *testing.T) {
	const capacity = 3
	srv, ts := newTestServer(t, Config{CacheCapacity: capacity})
	want := localReport(t, quickBatch)
	for run := 0; run < 2; run++ {
		resp := postJob(t, ts.URL, "alice", quickBatch)
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d: %s", run, resp.StatusCode, body)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("run %d: report under a bounded cache differs from local run:\nserver: %s\nlocal:  %s", run, body, want)
		}
		if got := srv.Cache().Len(); got > capacity {
			t.Fatalf("run %d: shared cache holds %d cells, want <= -cache-cap %d", run, got, capacity)
		}
	}
	if misses := srv.Cache().Stats().Misses; misses <= capacity {
		t.Fatalf("simulated %d cells, want more than the capacity %d (the batch must overflow the bound)", misses, capacity)
	}
}

// TestSubmitSSELifecycle checks the streaming path end to end: event
// ordering and pairing, then report parity with a local run.
func TestSubmitSSELifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	want := localReport(t, quickBatch)

	resp := streamJob(t, ts.URL, "bob", quickBatch)
	evs := collectEvents(t, resp.Body)
	resp.Body.Close()

	if len(evs) < 2 || evs[0].name != "job" || evs[len(evs)-1].name != "job_done" {
		t.Fatalf("stream must open with job and close with job_done; got %d events, first %q last %q",
			len(evs), evs[0].name, evs[len(evs)-1].name)
	}
	var opened jobStatusWire
	if err := json.Unmarshal(evs[0].data, &opened); err != nil {
		t.Fatal(err)
	}
	if opened.State != jobRunning || opened.Specs != len(quickBatch) {
		t.Fatalf("job event = %+v", opened)
	}
	starts, dones, cells := map[int]int{}, map[int]int{}, 0
	for _, ev := range evs {
		switch ev.name {
		case "spec_start":
			var w specStartWire
			if err := json.Unmarshal(ev.data, &w); err != nil {
				t.Fatal(err)
			}
			starts[w.Index]++
		case "spec_done":
			var w specDoneWire
			if err := json.Unmarshal(ev.data, &w); err != nil {
				t.Fatal(err)
			}
			if w.Error != "" {
				t.Fatalf("spec %d failed: %s", w.Index, w.Error)
			}
			dones[w.Index]++
		case "cell":
			cells++
		}
	}
	for i := range quickBatch {
		if starts[i] != 1 || dones[i] != 1 {
			t.Fatalf("spec %d: %d spec_start, %d spec_done; want exactly one pair", i, starts[i], dones[i])
		}
	}
	if cells == 0 {
		t.Fatal("no cell events streamed")
	}
	var closed jobStatusWire
	if err := json.Unmarshal(evs[len(evs)-1].data, &closed); err != nil {
		t.Fatal(err)
	}
	if closed.State != jobDone || closed.Failed != 0 {
		t.Fatalf("job_done = %+v", closed)
	}

	code, rep := fetchReport(t, ts.URL, "bob", closed.Job)
	if code != http.StatusOK {
		t.Fatalf("report: status %d", code)
	}
	if !bytes.Equal(rep, want) {
		t.Fatal("streamed job's report differs from local run")
	}
}

// TestSSEPhaseEvents runs a full evaluation and checks the harness
// phase lifecycle reaches the stream, and that the embedded evaluation
// document matches core.MarshalReport from a local run.
func TestSSEPhaseEvents(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	batch := []tooleval.ExperimentSpec{{Kind: tooleval.KindEvaluate, Scale: 0.1}}
	want := localReport(t, batch)

	resp := streamJob(t, ts.URL, "carol", batch)
	evs := collectEvents(t, resp.Body)
	resp.Body.Close()

	phaseStarts, phaseDones := map[string]int{}, map[string]int{}
	for _, ev := range evs {
		if ev.name != "phase_start" && ev.name != "phase_done" {
			continue
		}
		var w phaseWire
		if err := json.Unmarshal(ev.data, &w); err != nil {
			t.Fatal(err)
		}
		if w.Error != "" {
			t.Fatalf("phase %s failed: %s", w.Phase, w.Error)
		}
		if ev.name == "phase_start" {
			phaseStarts[w.Phase]++
		} else {
			phaseDones[w.Phase]++
		}
	}
	if len(phaseStarts) == 0 {
		t.Fatal("evaluation streamed no phase events")
	}
	for id, n := range phaseStarts {
		if phaseDones[id] != n {
			t.Fatalf("phase %s: %d starts, %d dones", id, n, phaseDones[id])
		}
	}

	var closed jobStatusWire
	if err := json.Unmarshal(evs[len(evs)-1].data, &closed); err != nil {
		t.Fatal(err)
	}
	code, rep := fetchReport(t, ts.URL, "carol", closed.Job)
	if code != http.StatusOK || !bytes.Equal(rep, want) {
		t.Fatalf("evaluation report: status %d, parity %v", code, bytes.Equal(rep, want))
	}

	// ?spec=N narrows to one entry with the evaluation embedded.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+closed.Job+"/report?spec=0", nil)
	req.Header.Set("X-Tenant", "carol")
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	var one specReportWire
	if err := json.NewDecoder(r2.Body).Decode(&one); err != nil {
		t.Fatal(err)
	}
	if r2.StatusCode != http.StatusOK || one.Index != 0 || len(one.Evaluation) == 0 {
		t.Fatalf("?spec=0: status %d, entry %+v", r2.StatusCode, one)
	}
}

// TestClientDisconnectCancelsJob is the disconnect drill: an SSE
// consumer drops mid-sweep and nobody reattaches within the resume
// window, so the job's context dies, in-flight specs abort with
// exactly one SpecStart/SpecDone pair each, nothing from the cancelled
// run poisons the shared cache, and an identical resubmission succeeds
// byte-identical to a local run.
func TestClientDisconnectCancelsJob(t *testing.T) {
	_, ts := newTestServer(t, Config{ResumeWindow: 50 * time.Millisecond})
	batch := []tooleval.ExperimentSpec{
		{Kind: tooleval.KindEvaluate, Scale: 0.1},
		{Kind: tooleval.KindApp, Platform: "sun-ethernet", Tool: "p4", App: "psrs", ProcsList: []int{1, 2, 4, 8}, Scale: 1},
	}
	want := localReport(t, batch)

	resp := streamJob(t, ts.URL, "dave", batch)
	var jobID string
	err := readEvents(resp.Body, func(ev sseEvent) bool {
		switch ev.name {
		case "job":
			var w jobStatusWire
			if err := json.Unmarshal(ev.data, &w); err != nil {
				t.Error(err)
				return false
			}
			jobID = w.Job
			return true
		case "cell":
			// The sweep is demonstrably in flight: hang up.
			return false
		}
		return true
	})
	if err != nil {
		t.Fatalf("reading SSE: %v", err)
	}
	resp.Body.Close() // the disconnect

	// The server notices the dead connection and cancels the job.
	deadline := time.Now().Add(15 * time.Second)
	var st jobStatusWire
	for {
		var code int
		code, st = fetchStatus(t, ts.URL, "dave", jobID)
		if code != http.StatusOK {
			t.Fatalf("status: %d", code)
		}
		if st.State != jobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still running %v after disconnect: %+v", 15*time.Second, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State != jobCancelled {
		t.Fatalf("state = %q, want %q", st.State, jobCancelled)
	}
	if st.SpecStarts != len(batch) || st.SpecDones != len(batch) {
		t.Fatalf("cancelled job pairs = %d/%d, want %d/%d (one SpecStart/SpecDone per spec)",
			st.SpecStarts, st.SpecDones, len(batch), len(batch))
	}

	// Nothing half-done was cached: the identical batch re-runs clean
	// and lands on the same bytes as an untouched local session.
	resp2 := postJob(t, ts.URL, "dave", batch)
	defer resp2.Body.Close()
	body, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: status %d: %s", resp2.StatusCode, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("resubmitted batch differs from local run — cancelled cells leaked into the cache")
	}
}

// TestConcurrentJobLimit429 checks the per-tenant job gate: the refusal
// is a typed 429 carrying the same QuotaError shape as budget refusals,
// and the slot frees when the running job ends.
func TestConcurrentJobLimit429(t *testing.T) {
	cfg := Config{
		Tiers:       map[string]QuotaTier{"solo": {Name: "solo", MaxConcurrentJobs: 1}},
		DefaultTier: "solo",
	}
	_, ts := newTestServer(t, cfg)

	slow := []tooleval.ExperimentSpec{{Kind: tooleval.KindEvaluate, Scale: 0.1}}
	resp := streamJob(t, ts.URL, "erin", slow)
	// The job event confirms the slot is held before we contend.
	readEvents(resp.Body, func(ev sseEvent) bool { return ev.name != "job" })

	resp2 := postJob(t, ts.URL, "erin", quickBatch)
	var ew errorWire
	if err := json.NewDecoder(resp2.Body).Decode(&ew); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second job: status %d, want 429", resp2.StatusCode)
	}
	if ew.Quota == nil || ew.Quota.Resource != "concurrent jobs" || ew.Quota.Limit != 1 {
		t.Fatalf("429 body lacks typed quota: %+v", ew)
	}

	// Another tenant is not affected by erin's slot.
	resp3 := postJob(t, ts.URL, "frank", quickBatch)
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("other tenant refused: %d", resp3.StatusCode)
	}

	// Draining erin's stream releases the slot.
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	resp4 := postJob(t, ts.URL, "erin", quickBatch)
	io.Copy(io.Discard, resp4.Body)
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusOK {
		t.Fatalf("job after slot release: status %d, want 200", resp4.StatusCode)
	}
}

// TestCellBudget429 checks that an exhausted session budget surfaces as
// a 429 on the blocking path, with the quota detail in the spec error.
func TestCellBudget429(t *testing.T) {
	cfg := Config{
		Tiers:       map[string]QuotaTier{"tiny": {Name: "tiny", MaxCells: 2}},
		DefaultTier: "tiny",
	}
	_, ts := newTestServer(t, cfg)

	resp := postJob(t, ts.URL, "grace", quickBatch)
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body: %s", resp.StatusCode, body)
	}
	var rep reportWire
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("429 body is not the batch report: %v", err)
	}
	failed := 0
	for _, sr := range rep.Specs {
		if strings.Contains(sr.Error, "quota") {
			failed++
		}
	}
	if failed == 0 {
		t.Fatalf("no spec carries a quota error: %s", body)
	}
}

// TestTenantNamespacing checks jobs are invisible across tenants and
// /statsz reports both tenants under their tiers.
func TestTenantNamespacing(t *testing.T) {
	cfg := Config{
		Tiers:       map[string]QuotaTier{"free": {Name: "free", MaxConcurrentJobs: 4}},
		TenantTiers: map[string]string{"heidi": "free"},
	}
	_, ts := newTestServer(t, cfg)

	resp := postJob(t, ts.URL, "heidi", quickBatch[:1])
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d", resp.StatusCode)
	}

	if code, _ := fetchStatus(t, ts.URL, "heidi", "j-000001"); code != http.StatusOK {
		t.Fatalf("owner sees job: %d", code)
	}
	if code, _ := fetchStatus(t, ts.URL, "ivan", "j-000001"); code != http.StatusNotFound {
		t.Fatalf("foreign tenant must get 404, got %d", code)
	}
	if code, _ := fetchReport(t, ts.URL, "ivan", "j-000001"); code != http.StatusNotFound {
		t.Fatalf("foreign tenant report must be 404, got %d", code)
	}

	r2, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	var stats statszWire
	if err := json.NewDecoder(r2.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	h, ok := stats.Tenants["heidi"]
	if !ok {
		t.Fatalf("statsz lacks tenant heidi: %+v", stats.Tenants)
	}
	if h.Tier != "free" || h.JobsDone != 1 || h.SpecsDone != 1 || h.Cells == 0 {
		t.Fatalf("heidi stats = %+v", h)
	}
}

// TestInvalidRequests covers the admission edges: bad tenant ids, bad
// bodies, oversized batches, unknown jobs.
func TestInvalidRequests(t *testing.T) {
	cfg := Config{MaxSpecsPerJob: 2}
	_, ts := newTestServer(t, cfg)

	post := func(tenant, body string) int {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(body))
		if tenant != "" {
			req.Header.Set("X-Tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := post("bad tenant!", `{"specs":[{"kind":"pingpong"}]}`); code != http.StatusBadRequest {
		t.Fatalf("invalid tenant: %d", code)
	}
	if code := post("", `{not json`); code != http.StatusBadRequest {
		t.Fatalf("bad body: %d", code)
	}
	if code := post("", `{"specs":[]}`); code != http.StatusBadRequest {
		t.Fatalf("empty batch: %d", code)
	}
	if code := post("", `{"specs":[{"kind":"pingpong"},{"kind":"pingpong"},{"kind":"pingpong"}]}`); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: %d", code)
	}
	if code, _ := fetchStatus(t, ts.URL, "alice", "j-999999"); code != http.StatusNotFound {
		t.Fatalf("unknown job: %d", code)
	}

	// Invalid specs inside a valid batch are per-spec errors, not a
	// request error.
	resp := postJob(t, ts.URL, "", []tooleval.ExperimentSpec{{Kind: "frobnicate"}})
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invalid spec: status %d", resp.StatusCode)
	}
	var rep reportWire
	if err := json.Unmarshal(body, &rep); err != nil || len(rep.Specs) != 1 || rep.Specs[0].Error == "" {
		t.Fatalf("invalid spec must surface per-spec: %s", body)
	}
}

// TestHealthz covers the liveness states: ok, draining (503), and the
// degraded-store rendering.
func TestHealthz(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthWire
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, h)
	}

	s.draining.Store(true)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("draining healthz = %d %+v", resp.StatusCode, h)
	}
}

// TestHealthFor pins the status mapping, including the degraded-store
// case a live handler only hits when segment writes start failing
// mid-run and the circuit opens.
func TestHealthFor(t *testing.T) {
	if code, h := healthFor(false, nil); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthy: %d %+v", code, h)
	}
	if code, h := healthFor(true, nil); code != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("draining: %d %+v", code, h)
	}
	closed := &store.Health{State: store.CircuitClosed}
	if code, h := healthFor(false, closed); code != http.StatusOK || h.Status != "ok" || h.StoreCircuit != "closed" {
		t.Fatalf("healthy store: %d %+v", code, h)
	}
	open := &store.Health{State: store.CircuitOpen, Err: fmt.Errorf("store: write failed: disk full")}
	code, h := healthFor(false, open)
	if code != http.StatusOK || h.Status != "degraded" || h.StoreCircuit != "open" ||
		!strings.Contains(h.StoreError, "disk full") {
		t.Fatalf("degraded: %d %+v", code, h)
	}
	if _, h := healthFor(false, &store.Health{State: store.CircuitHalfOpen}); h.Status != "degraded" || h.StoreCircuit != "half-open" {
		t.Fatalf("half-open: %+v", h)
	}
	// Draining wins over degraded: a draining instance must leave the
	// rotation whatever the store's state.
	if code, h := healthFor(true, open); code != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("draining+degraded: %d %+v", code, h)
	}
}

// TestStoreDurability restarts the server over the same store
// directory: the second instance serves the whole batch from disk and
// still produces byte-identical reports.
func TestStoreDurability(t *testing.T) {
	dir := t.TempDir()
	want := localReport(t, quickBatch)

	s1, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	resp := postJob(t, ts1.URL, "alice", quickBatch)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("first instance: status %d, parity %v", resp.StatusCode, bytes.Equal(body, want))
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatalf("closing first instance: %v", err)
	}

	s2, ts2 := newTestServer(t, Config{StoreDir: dir})
	if s2.Store().Len() == 0 {
		t.Fatal("restarted store recovered no cells")
	}
	resp = postJob(t, ts2.URL, "bob", quickBatch)
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("second instance: status %d, parity %v", resp.StatusCode, bytes.Equal(body, want))
	}
	// Every cell of the restarted run came from the durable tier, not
	// fresh simulation.
	cs := s2.Cache().Stats()
	if cs.Misses != 0 || cs.Hits == 0 {
		t.Fatalf("restarted run simulated fresh cells: hits=%d misses=%d", cs.Hits, cs.Misses)
	}
}

// TestConfigParsing covers the tier flag grammar and Normalize's
// validation.
func TestConfigParsing(t *testing.T) {
	tier, err := ParseTier("free=cells:500,vt:10m,jobs:2")
	if err != nil {
		t.Fatal(err)
	}
	if tier.Name != "free" || tier.MaxCells != 500 || tier.MaxVirtualTime != 10*time.Minute || tier.MaxConcurrentJobs != 2 {
		t.Fatalf("tier = %+v", tier)
	}
	if tier, err := ParseTier("batch=vt:1h"); err != nil || tier.MaxCells != 0 || tier.MaxVirtualTime != time.Hour {
		t.Fatalf("partial tier = %+v, %v", tier, err)
	}
	for _, bad := range []string{"", "=cells:1", "x=cells:-1", "x=vt:wat", "x=widgets:3", "x=cells"} {
		if _, err := ParseTier(bad); err == nil {
			t.Fatalf("ParseTier(%q) accepted", bad)
		}
	}

	if tenant, tname, err := ParseTenantTier("alice=free"); err != nil || tenant != "alice" || tname != "free" {
		t.Fatalf("tenant-tier = %q %q %v", tenant, tname, err)
	}
	for _, bad := range []string{"", "alice", "=free", "alice=", "bad tenant!=free"} {
		if _, _, err := ParseTenantTier(bad); err == nil {
			t.Fatalf("ParseTenantTier(%q) accepted", bad)
		}
	}

	if _, err := New(Config{DefaultTier: "ghost"}); err == nil {
		t.Fatal("unknown default tier accepted")
	}
	if _, err := New(Config{TenantTiers: map[string]string{"a": "ghost"}}); err == nil {
		t.Fatal("unknown tenant tier accepted")
	}

	cfg := Config{Tiers: map[string]QuotaTier{"free": {Name: "free"}}, TenantTiers: map[string]string{"a": "free"}}
	if got := cfg.tierFor("a"); got.Name != "free" {
		t.Fatalf("tierFor(a) = %+v", got)
	}
	if got := cfg.tierFor("other"); got.Name != "unlimited" {
		t.Fatalf("tierFor(other) = %+v", got)
	}
}
