package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	svc := mustService(t, testConfig())
	srv := NewServer(svc)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func post(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

const jobBody = `{"workload":"bv-6","k":2,"trials":512,"seed":7,"policy":"wedm"}`

func TestServerJobJSON(t *testing.T) {
	_, ts := testServer(t)
	resp, body := post(t, ts.URL+"/v1/jobs", jobBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res JobResult
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatalf("decode: %v\n%s", err, body)
	}
	if res.Workload != "bv-6" || res.Policy != "wedm" || res.K != 2 || len(res.Merged) == 0 {
		t.Fatalf("result = %+v", res)
	}
	var total float64
	for _, o := range res.Merged {
		total += o.P
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("merged distribution sums to %v", total)
	}
}

// TestServerJobTextMatchesRunJob: the format=text bytes equal what the
// service (and therefore `edm run`, which is the same code path) emits.
func TestServerJobTextMatchesRunJob(t *testing.T) {
	srv, ts := testServer(t)
	resp, body := post(t, ts.URL+"/v1/jobs?format=text", jobBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	want, err := srv.svc.RunJob(nil, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if body != want.Text() {
		t.Fatalf("served text differs from RunJob text:\n%q\nvs\n%q", body, want.Text())
	}
}

// TestServerMalformedPayloads: every malformed request is a 4xx response,
// never a dropped connection or a dead process.
func TestServerMalformedPayloads(t *testing.T) {
	_, ts := testServer(t)
	cases := []struct {
		name string
		body string
		want int
	}{
		{"empty body", ``, http.StatusBadRequest},
		{"not json", `@#!$%`, http.StatusBadRequest},
		{"wrong type", `[1,2,3]`, http.StatusBadRequest},
		{"unknown field", `{"workload":"bv-6","trials":100,"bogus":1}`, http.StatusBadRequest},
		{"no source", `{"trials":100}`, http.StatusBadRequest},
		{"unknown workload", `{"workload":"nope","trials":100}`, http.StatusBadRequest},
		{"bad circuit", `{"circuit":"qubits banana","trials":100}`, http.StatusBadRequest},
		{"too wide", `{"circuit":"qubits 20\ncbits 1\nh 0\nmeasure 0 -> 0\n","trials":100}`, http.StatusBadRequest},
		{"zero trials", `{"workload":"bv-6"}`, http.StatusBadRequest},
		{"bad policy", `{"workload":"bv-6","trials":100,"policy":"magic"}`, http.StatusBadRequest},
	}
	for name, src := range nonFiniteCircuits {
		body, err := json.Marshal(JobSpec{Circuit: src.circuit, Format: src.format, Trials: 1024})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, struct {
			name string
			body string
			want int
		}{name, string(body), http.StatusBadRequest})
	}
	for _, tc := range cases {
		resp, body := post(t, ts.URL+"/v1/jobs", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
			continue
		}
		var e map[string]string
		if err := json.Unmarshal([]byte(body), &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error body %q not a JSON error", tc.name, body)
		}
	}
	// And the server is still alive afterwards.
	resp, _ := post(t, ts.URL+"/v1/jobs", jobBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server unhealthy after malformed payloads: %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz after malformed payloads: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after malformed payloads = %d", resp.StatusCode)
	}
}

func TestServerMethodsAndHealth(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/jobs = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(b) != "ok\n" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, b)
	}
}

func TestServerAdvanceAndMetrics(t *testing.T) {
	_, ts := testServer(t)
	if resp, body := post(t, ts.URL+"/v1/jobs", jobBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("job: %d %s", resp.StatusCode, body)
	}
	resp, body := post(t, ts.URL+"/v1/advance", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("advance: %d %s", resp.StatusCode, body)
	}
	var adv map[string]int
	if err := json.Unmarshal([]byte(body), &adv); err != nil || adv["window"] != 1 {
		t.Fatalf("advance body %q", body)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	metrics := string(mb)
	for _, want := range []string{
		"edmd_window 1",
		"edmd_admission_admitted_total 1",
		"edmd_job_cache_misses_total 1",
		"edmd_compile_pool_misses_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	cresp, err := http.Get(ts.URL + "/cachestats")
	if err != nil {
		t.Fatal(err)
	}
	cb, _ := io.ReadAll(cresp.Body)
	cresp.Body.Close()
	var m Metrics
	if err := json.Unmarshal(cb, &m); err != nil {
		t.Fatalf("cachestats decode: %v\n%s", err, cb)
	}
	if m.Window != 1 || len(m.TierShard) == 0 {
		t.Fatalf("cachestats = %+v", m)
	}
}

func TestServerQueueFull(t *testing.T) {
	cfg := testConfig()
	cfg.MaxConcurrent, cfg.MaxQueue = 1, 0
	svc := mustService(t, cfg)
	// Saturate the only slot directly, then hit the endpoint.
	if err := svc.Admission().Acquire(nil, "hog"); err != nil {
		t.Fatal(err)
	}
	defer svc.Admission().Release()
	ts := httptest.NewServer(NewServer(svc).Handler())
	defer ts.Close()
	resp, body := post(t, ts.URL+"/v1/jobs", jobBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server = %d (%s), want 429", resp.StatusCode, body)
	}
}

// TestMetricsPrometheusText: /metrics is Prometheus text. Every series
// has one HELP line, then one TYPE line (counter for a _total name,
// gauge otherwise), then its one sample, which parses as the series
// name and a non-negative integer. After a job the plan gauges read the
// window machine's plans.
func TestMetricsPrometheusText(t *testing.T) {
	_, ts := testServer(t)
	if resp, body := post(t, ts.URL+"/v1/jobs", jobBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("job: %d %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if len(lines)%3 != 0 {
		t.Fatalf("%d lines, want HELP/TYPE/sample triples:\n%s", len(lines), b)
	}
	seen := map[string]uint64{}
	for i := 0; i < len(lines); i += 3 {
		help, typ, sample := strings.Fields(lines[i]), strings.Fields(lines[i+1]), strings.Fields(lines[i+2])
		if len(help) < 4 || help[0] != "#" || help[1] != "HELP" {
			t.Fatalf("line %d: %q is not a HELP line", i+1, lines[i])
		}
		name := help[2]
		kind := "gauge"
		if strings.HasSuffix(name, "_total") {
			kind = "counter"
		}
		if len(typ) != 4 || typ[0] != "#" || typ[1] != "TYPE" || typ[2] != name || typ[3] != kind {
			t.Fatalf("line %d: %q, want # TYPE %s %s", i+2, lines[i+1], name, kind)
		}
		if len(sample) != 2 || sample[0] != name {
			t.Fatalf("line %d: %q is not a sample of %s", i+3, lines[i+2], name)
		}
		v, err := strconv.ParseUint(sample[1], 10, 64)
		if err != nil {
			t.Fatalf("line %d: %q: %v", i+3, lines[i+2], err)
		}
		if _, dup := seen[name]; dup {
			t.Fatalf("series %s appears twice", name)
		}
		seen[name] = v
	}
	if seen["edmd_job_cache_misses_total"] != 1 {
		t.Errorf("edmd_job_cache_misses_total = %d, want 1", seen["edmd_job_cache_misses_total"])
	}
	if seen["edmd_plan_bytes"] == 0 || seen["edmd_plan_leaves"] == 0 {
		t.Errorf("plan gauges read %d bytes and %d leaves after a job", seen["edmd_plan_bytes"], seen["edmd_plan_leaves"])
	}
}
