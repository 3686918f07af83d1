package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"uvmsim/internal/cell"
)

// testServer returns a served instance plus its underlying *Server for
// white-box assertions.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// postJSON issues one request and returns status, headers, body.
func postJSON(t *testing.T, url string, payload interface{}) (int, http.Header, []byte) {
	t.Helper()
	b, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// smallSim is a cheap single cell (16 MiB framebuffer, quarter
// footprint) used throughout.
func smallSim(seed uint64) SimRequest {
	return SimRequest{Workload: "regular", GPUMemMiB: 16, Seed: seed, Footprint: 0.25}
}

func TestSimMissThenHitByteIdentical(t *testing.T) {
	_, ts := testServer(t, Config{})
	status, hdr, miss := postJSON(t, ts.URL+"/v1/sim", smallSim(1))
	if status != http.StatusOK {
		t.Fatalf("miss status = %d, body %s", status, miss)
	}
	if got := hdr.Get("X-Uvmsim-Cache"); got != string(SourceMiss) {
		t.Fatalf("first request cache header = %q, want miss", got)
	}
	hash := hdr.Get("X-Uvmsim-Hash")
	if len(hash) != 16 {
		t.Fatalf("hash header = %q, want 16 hex chars", hash)
	}

	status, hdr, hit := postJSON(t, ts.URL+"/v1/sim", smallSim(1))
	if status != http.StatusOK {
		t.Fatalf("hit status = %d", status)
	}
	if got := hdr.Get("X-Uvmsim-Cache"); got != string(SourceHit) {
		t.Fatalf("second request cache header = %q, want hit", got)
	}
	if hdr.Get("X-Uvmsim-Hash") != hash {
		t.Fatal("hash changed between identical requests")
	}
	if !bytes.Equal(miss, hit) {
		t.Fatalf("cache hit body differs from miss:\n%s\nvs\n%s", miss, hit)
	}

	var resp SimResponse
	if err := json.Unmarshal(hit, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "completed" || len(resp.Row) == 0 || resp.Hash != hash {
		t.Fatalf("response = %+v", resp)
	}
}

func TestDefaultSpellingsShareOneCacheEntry(t *testing.T) {
	s, ts := testServer(t, Config{})
	// Empty body, explicit defaults, and zero-valued knobs are the same
	// configuration and must hash identically.
	_, hdrA, _ := postJSON(t, ts.URL+"/v1/sim", SimRequest{})
	d := cell.Default()
	_, hdrB, _ := postJSON(t, ts.URL+"/v1/sim", SimRequest{
		Workload: d.Workload, GPUMemMiB: d.GPUMemoryBytes >> 20, Footprint: d.Footprint,
		Prefetch: d.Prefetch, Replay: d.Replay.String(), Evict: d.Evict,
		Batch: d.Batch, VABlockKiB: d.VABlock >> 10,
	})
	if hdrA.Get("X-Uvmsim-Hash") != hdrB.Get("X-Uvmsim-Hash") {
		t.Fatal("default spellings hash differently — fingerprint is not canonical")
	}
	if got := hdrB.Get("X-Uvmsim-Cache"); got != string(SourceHit) {
		t.Fatalf("explicit-defaults request = %q, want hit on the defaults entry", got)
	}
	if s.cache.Len() != 1 {
		t.Fatalf("cache entries = %d, want 1", s.cache.Len())
	}
}

func TestSweepResponseAndJobResultAgree(t *testing.T) {
	_, ts := testServer(t, Config{SweepJobs: 2})
	req := SweepRequest{
		Workload: "regular", GPUMemMiB: 16,
		Footprints: []float64{0.25, 0.5},
		Prefetch:   []string{"none", "density"},
	}
	status, _, syncBody := postJSON(t, ts.URL+"/v1/sweep", req)
	if status != http.StatusOK {
		t.Fatalf("sweep status = %d, body %s", status, syncBody)
	}
	var sr SweepResponse
	if err := json.Unmarshal(syncBody, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Cells != 4 || len(sr.Rows) != 4 || sr.Status != "completed" || sr.States["completed"] != 4 {
		t.Fatalf("sweep response = %+v", sr)
	}

	// The async path must produce byte-identical output for the same
	// request (here, served from cache — same content address).
	status, _, jobBody := postJSON(t, ts.URL+"/v1/jobs", req)
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d, body %s", status, jobBody)
	}
	var info JobInfo
	if err := json.Unmarshal(jobBody, &info); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + info.ID)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(b, &info); err != nil {
			t.Fatal(err)
		}
		if info.State == JobDone || info.State == JobFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", info.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if info.State != JobDone || info.Done != 4 || info.Total != 4 {
		t.Fatalf("job info = %+v", info)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + info.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resultBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job result status = %d", resp.StatusCode)
	}
	if !bytes.Equal(resultBody, syncBody) {
		t.Fatalf("async job result differs from sync sweep body:\n%s\nvs\n%s", resultBody, syncBody)
	}
}

func TestBudgetTripReturns422AndIsCached(t *testing.T) {
	s, ts := testServer(t, Config{})
	req := smallSim(1)
	req.Budget = BudgetRequest{MaxEvents: 10} // trips almost immediately, deterministically
	status, hdr, first := postJSON(t, ts.URL+"/v1/sim", req)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("budget-tripped status = %d, body %s", status, first)
	}
	var resp SimResponse
	if err := json.Unmarshal(first, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "deadline" || resp.Error == "" {
		t.Fatalf("response = %+v, want deadline state with error", resp)
	}
	if hdr.Get("X-Uvmsim-Cache") != string(SourceMiss) {
		t.Fatalf("cache header = %q", hdr.Get("X-Uvmsim-Cache"))
	}
	// A deterministic budget trip is a replayable verdict: cached.
	status, hdr, second := postJSON(t, ts.URL+"/v1/sim", req)
	if status != http.StatusUnprocessableEntity || hdr.Get("X-Uvmsim-Cache") != string(SourceHit) {
		t.Fatalf("second trip = %d %q, want cached 422", status, hdr.Get("X-Uvmsim-Cache"))
	}
	if !bytes.Equal(first, second) {
		t.Fatal("cached 422 body differs from the original")
	}
	if s.cache.Len() != 1 {
		t.Fatalf("cache entries = %d, want 1", s.cache.Len())
	}
	// A different budget is a different configuration (it can trip
	// differently), so it must not share the entry.
	req.Budget = BudgetRequest{MaxEvents: 20}
	_, hdr2, _ := postJSON(t, ts.URL+"/v1/sim", req)
	if hdr2.Get("X-Uvmsim-Hash") == hdr.Get("X-Uvmsim-Hash") {
		t.Fatal("different budgets hash identically")
	}
}

func TestValidationErrorsAre400(t *testing.T) {
	_, ts := testServer(t, Config{MaxCells: 4})
	cases := []struct {
		name    string
		path    string
		payload interface{}
	}{
		{"unknown workload", "/v1/sim", SimRequest{Workload: "nope"}},
		{"unknown prefetch", "/v1/sim", SimRequest{Workload: "regular", Prefetch: "warp-drive"}},
		{"negative footprint", "/v1/sim", SimRequest{Workload: "regular", Footprint: -1}},
		{"too many cells", "/v1/sweep", SweepRequest{
			Workload:   "regular",
			Footprints: []float64{0.1, 0.2, 0.3},
			Batch:      []int{64, 128, 256},
		}},
		{"unknown field", "/v1/sim", map[string]interface{}{"workloadd": "regular"}},
	}
	for _, tc := range cases {
		status, _, body := postJSON(t, ts.URL+tc.path, tc.payload)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d (body %s), want 400", tc.name, status, body)
		}
		var e ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error envelope missing: %s", tc.name, body)
		}
	}
}

func TestAdmissionRejectsWhenQueueFull(t *testing.T) {
	s, ts := testServer(t, Config{QueueSlots: 1, RunSlots: 1, RetryAfter: 2 * time.Second})
	// Deterministically fill the admission queue from inside, then prove
	// the next new configuration is shed with 429 + Retry-After.
	if err := s.gate.Enter(); err != nil {
		t.Fatal(err)
	}
	defer s.gate.Leave()

	status, hdr, body := postJSON(t, ts.URL+"/v1/sim", smallSim(7))
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d (body %s), want 429", status, body)
	}
	if ra := hdr.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want 2", ra)
	}
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("429 body is not an error envelope: %s", body)
	}
}

func TestCacheHitsBypassAdmission(t *testing.T) {
	s, ts := testServer(t, Config{QueueSlots: 1, RunSlots: 1})
	if status, _, body := postJSON(t, ts.URL+"/v1/sim", smallSim(3)); status != http.StatusOK {
		t.Fatalf("warm-up failed: %d %s", status, body)
	}
	// Saturate admission; the cached configuration must still be served.
	if err := s.gate.Enter(); err != nil {
		t.Fatal(err)
	}
	defer s.gate.Leave()
	status, hdr, _ := postJSON(t, ts.URL+"/v1/sim", smallSim(3))
	if status != http.StatusOK || hdr.Get("X-Uvmsim-Cache") != string(SourceHit) {
		t.Fatalf("cached request under full queue = %d %q, want 200 hit", status, hdr.Get("X-Uvmsim-Cache"))
	}
}

// metricValue extracts one sample's value from Prometheus exposition.
func metricValue(t *testing.T, text, name string) int {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("metric %s not found in exposition:\n%s", name, text)
	}
	v, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestMixedLoadAccounting drives >= 200 mixed requests at concurrency 8
// against a deliberately tiny server and checks that every request is
// answered (200, 422, or 429), the queue never exceeds its bound, and
// the /metrics counters agree exactly with what clients observed.
func TestMixedLoadAccounting(t *testing.T) {
	s, ts := testServer(t, Config{QueueSlots: 2, RunSlots: 1, CacheEntries: 64})
	const total, conc = 200, 8

	reqs := make([]SimRequest, total)
	for i := range reqs {
		r := smallSim(uint64(i%6 + 1)) // 12 distinct configs: misses, hits, coalesces
		if i%2 == 0 {
			r.Footprint = 0.5
		}
		if i%5 == 0 {
			r.Budget = BudgetRequest{MaxEvents: 10} // sprinkle deterministic 422s
		}
		reqs[i] = r
	}

	var mu sync.Mutex
	counts := map[int]int{}
	var wg sync.WaitGroup
	var next int
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= total {
					return
				}
				status, _, _ := postJSON(t, ts.URL+"/v1/sim", reqs[i])
				mu.Lock()
				counts[status]++
				mu.Unlock()
				if d := s.gate.Depth(); d > 2 {
					t.Errorf("queue depth %d exceeds bound 2", d)
				}
			}
		}()
	}
	wg.Wait()

	answered := 0
	for status, n := range counts {
		switch status {
		case http.StatusOK, http.StatusUnprocessableEntity, http.StatusTooManyRequests:
			answered += n
		default:
			t.Errorf("unexpected status %d x%d", status, n)
		}
	}
	if answered != total {
		t.Fatalf("answered %d of %d", answered, total)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	exposition := string(text)
	if got := metricValue(t, exposition, mRequests); got != total {
		t.Errorf("%s = %d, want %d", mRequests, got, total)
	}
	if got := metricValue(t, exposition, mRejected); got != counts[http.StatusTooManyRequests] {
		t.Errorf("%s = %d, clients saw %d rejections", mRejected, got, counts[http.StatusTooManyRequests])
	}
	// Every validated request passes through cache.Do exactly once and
	// counts as exactly one of hit/miss/coalesced — including requests
	// that were then shed at admission (the lookup precedes the gate).
	cs := s.cache.Stats()
	if int(cs.Hits+cs.Misses+cs.Coalesced) != total {
		t.Errorf("cache accounting: hits %d + misses %d + coalesced %d != requests %d",
			cs.Hits, cs.Misses, cs.Coalesced, total)
	}
	t.Logf("mixed load: %v, cache %+v", counts, cs)
}

func TestDrainFlipsHealthzAndCancelsWithoutCaching(t *testing.T) {
	s, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy healthz = %d", resp.StatusCode)
	}
	s.BeginDrain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}

	// Force-cancel with a simulation in flight: the request must settle
	// as cancelled (503) and leave no cache entry behind.
	type result struct {
		status int
		hash   string
	}
	done := make(chan result, 1)
	go func() {
		// A serial 32-cell sweep: cancellation always lands with most of
		// the run still ahead of it.
		status, hdr, _ := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
			Workload: "regular", GPUMemMiB: 32,
			Footprints: []float64{0.4, 0.5, 0.6, 0.7},
			Batch:      []int{64, 128, 256, 512},
			Prefetch:   []string{"none", "density"},
		})
		done <- result{status, hdr.Get("X-Uvmsim-Hash")}
	}()
	for s.gate.Running() == 0 {
		runtime.Gosched()
	}
	s.Close()
	r := <-done
	if r.status != http.StatusServiceUnavailable {
		t.Fatalf("cancelled run status = %d, want 503", r.status)
	}
	if _, _, ok := s.cache.Get(r.hash); ok {
		t.Fatal("cancelled run left a cache entry — drain must not cache partial results")
	}
}

func TestExpEndpointQuick(t *testing.T) {
	_, ts := testServer(t, Config{SweepJobs: 2})
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	listBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var list struct {
		Experiments []string `json:"experiments"`
	}
	if err := json.Unmarshal(listBody, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Experiments) == 0 {
		t.Fatal("no experiments registered")
	}
	found := false
	for _, id := range list.Experiments {
		if id == "fig3" {
			found = true
		}
	}
	if !found {
		t.Fatalf("fig3 missing from %v", list.Experiments)
	}

	req := ExpRequest{GPUMemMiB: 16, Seed: 1, Quick: true}
	status, hdr, first := postJSON(t, ts.URL+"/v1/exp/fig3", req)
	if status != http.StatusOK {
		t.Fatalf("fig3 quick = %d, body %s", status, first)
	}
	var er ExpResponse
	if err := json.Unmarshal(first, &er); err != nil {
		t.Fatal(err)
	}
	if er.ID != "fig3" || er.Status != "completed" || len(er.Tables) == 0 {
		t.Fatalf("exp response = %+v", er)
	}
	status, hdr2, second := postJSON(t, ts.URL+"/v1/exp/fig3", req)
	if status != http.StatusOK || hdr2.Get("X-Uvmsim-Cache") != string(SourceHit) {
		t.Fatalf("repeat fig3 = %d %q, want cached", status, hdr2.Get("X-Uvmsim-Cache"))
	}
	if !bytes.Equal(first, second) || hdr.Get("X-Uvmsim-Hash") != hdr2.Get("X-Uvmsim-Hash") {
		t.Fatal("cached experiment body differs")
	}

	if status, _, _ := postJSON(t, ts.URL+"/v1/exp/fig99", req); status != http.StatusNotFound {
		t.Fatalf("unknown experiment = %d, want 404", status)
	}
}

func TestJobAdmissionBound(t *testing.T) {
	s, ts := testServer(t, Config{MaxJobs: 1, SweepJobs: 1})
	// Deterministically occupy the single live-job slot from inside —
	// an HTTP-submitted job could settle before the second request lands.
	if _, err := s.jobs.create("occupied"); err != nil {
		t.Fatal(err)
	}
	status, hdr, _ := postJSON(t, ts.URL+"/v1/jobs", SweepRequest{Workload: "regular", GPUMemMiB: 16})
	if status != http.StatusTooManyRequests {
		t.Fatalf("submit with full job slots = %d, want 429", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Freeing the slot re-admits submissions.
	s.jobs.settle()
	status, _, body := postJSON(t, ts.URL+"/v1/jobs", SweepRequest{Workload: "regular", GPUMemMiB: 16})
	if status != http.StatusAccepted {
		t.Fatalf("submit after settle = %d %s", status, body)
	}
}

func TestUnknownJobIs404(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestTimeoutResolution(t *testing.T) {
	s := New(Config{DefaultTimeout: 2 * time.Second, MaxTimeout: 5 * time.Second})
	defer s.Close()
	cases := []struct {
		ms   int64
		want time.Duration
	}{
		{0, 2 * time.Second},      // default applies
		{1000, time.Second},       // explicit below cap
		{60_000, 5 * time.Second}, // capped
	}
	for _, tc := range cases {
		if got := s.timeout(tc.ms); got != tc.want {
			t.Errorf("timeout(%d) = %s, want %s", tc.ms, got, tc.want)
		}
	}
	uncapped := New(Config{})
	defer uncapped.Close()
	if got := uncapped.timeout(0); got != 0 {
		t.Errorf("no policy: timeout(0) = %s, want 0 (unlimited)", got)
	}
}

// TestMetricsExposesSimCounters pins that absorbed per-run simulator
// metrics appear under the sim_ prefix after traffic.
func TestMetricsExposesSimCounters(t *testing.T) {
	_, ts := testServer(t, Config{})
	if status, _, body := postJSON(t, ts.URL+"/v1/sim", smallSim(1)); status != http.StatusOK {
		t.Fatalf("sim failed: %d %s", status, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	exposition := string(text)
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	for _, want := range []string{"sim_faults_fetched", mRequests, mCells, mDepth} {
		if !strings.Contains(exposition, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	if v := metricValue(t, exposition, mCells); v != 1 {
		t.Errorf("%s = %d, want 1", mCells, v)
	}
	// Every line's metric name must be scrape-valid.
	for _, line := range strings.Split(exposition, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:strings.IndexAny(line, " {")]
		if !ValidPromName(name) {
			t.Errorf("invalid metric name in exposition: %q", name)
		}
	}
}

func TestIndexListsEndpoints(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "/v1/sim") {
		t.Fatalf("index = %d %s", resp.StatusCode, body)
	}
}
