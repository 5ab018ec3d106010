package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
)

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "client", ReqID: "t1", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "gateway", ReqID: "t1", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "gateway", ReqID: "t1", Start: 30, End: 60}, // overlaps span 2
		{ID: 4, Parent: 2, Name: "service", ReqID: "t1", Start: 15, End: 20},
		{ID: 5, Parent: 4, Name: "core", ReqID: "t1", Start: 18, End: 25}, // runs past its parent
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 50, 2: 30 - 5, 3: 30, 4: 5 - 2, 5: 7}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(span %d) = %d, want %d", id, self[id], w)
		}
	}
	reqs := perRequest(spans)
	r := reqs["t1"]
	if !near(r.Self["gateway"], 55e-6) || !near(r.Dur["gateway"], 60e-6) {
		t.Errorf("gateway self %v dur %v (ms), want 55e-6 and 60e-6", r.Self["gateway"], r.Dur["gateway"])
	}
	if got := layerSamples(reqs, "core", true); len(got) != 1 || !near(got[0], 7e-6) {
		t.Errorf("core self samples = %v", got)
	}
	if got := layerSamples(reqs, "replica", true); len(got) != 0 {
		t.Errorf("a layer no request crossed has samples %v", got)
	}
}

// The planner's self time is its untraced time minus the traced path's
// layer spans for the same query; the traced path's own stgq root does
// not count, and a query with no traced spans is skipped.
func TestPlannerSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "stgq", ReqID: "q1", Start: 0, End: 4_000_000},
		{ID: 2, Parent: 1, Name: "index", ReqID: "q1", Start: 0, End: 500_000},
		{ID: 3, Parent: 1, Name: "socialgraph", ReqID: "q1", Start: 500_000, End: 1_500_000},
		{ID: 4, Parent: 1, Name: "index", ReqID: "q1", Start: 1_500_000, End: 2_000_000},
		{ID: 5, Parent: 1, Name: "core", ReqID: "q1", Start: 2_000_000, End: 3_500_000},
	}
	got := plannerSelf(map[string]float64{"q1": 5, "q2": 9}, perRequest(spans))
	if !near(got.Value, 5-3.5) || got.Samples != 1 {
		t.Errorf("planner self = %+v, want 1.5 ms over 1 query", got)
	}
}

// chain builds client → gateway → service with the benchmark's own span
// wrappers, the gateway relaying over real HTTP, and delays injected
// inside the named layer's span.
func chain(t *testing.T, tr *Tracer, delay map[string]time.Duration) (url string) {
	t.Helper()
	svc := httptest.NewServer(tracedHandler(tr, "service", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay["service"])
		w.WriteHeader(http.StatusOK)
	})))
	t.Cleanup(svc.Close)
	gw := httptest.NewServer(tracedHandler(tr, "gateway", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay["gateway"])
		req, _ := http.NewRequestWithContext(r.Context(), r.Method, svc.URL+r.URL.Path, r.Body)
		req.Header = r.Header.Clone()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		w.WriteHeader(resp.StatusCode)
	})))
	t.Cleanup(gw.Close)
	return gw.URL
}

func meanSelf(t *testing.T, delay map[string]time.Duration) map[string]float64 {
	tr := NewTracer()
	url := chain(t, tr, delay)
	for i := 0; i < 40; i++ {
		id := "t" + strconv.Itoa(i)
		root := tr.Begin("client", id, 0)
		req, _ := http.NewRequest(http.MethodPost, url+"/query/group", bytes.NewReader([]byte("{}")))
		req.Header.Set(service.RequestIDHeader, id)
		req.Header.Set(parentSpanHeader, strconv.FormatInt(root.ID(), 10))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		root.End()
	}
	reqs := perRequest(tr.Spans())
	out := map[string]float64{}
	for _, layer := range []string{"client", "gateway", "service"} {
		xs := layerSamples(reqs, layer, true)
		if len(xs) != 40 {
			t.Fatalf("%s: %d requests traced, want 40", layer, len(xs))
		}
		out[layer] = quantile(sortedCopy(xs), 0.5)
	}
	return out
}

// A delay injected into one layer moves that layer's self time by the
// delay and leaves the other layers' self times where they were.
func TestInjectedDelayMovesOnlyThatLayer(t *testing.T) {
	const d = 20 * time.Millisecond
	base := meanSelf(t, nil)
	for _, layer := range []string{"gateway", "service"} {
		got := meanSelf(t, map[string]time.Duration{layer: d})
		for l, v := range got {
			moved := v - base[l]
			if l == layer {
				if moved < 0.8*ms(d) || moved > 2*ms(d) {
					t.Errorf("delay in %s: its self time moved %.2f ms, want ≈ %.0f ms", layer, moved, ms(d))
				}
			} else if moved > 0.25*ms(d) || moved < -0.25*ms(d) {
				t.Errorf("delay in %s moved %s's self time by %.2f ms", layer, l, moved)
			}
		}
	}
}

// A backend that stalls must show up in the latency of every request
// that fell due during the stall, not only in the ones it was serving:
// the open loop times each request from its due time, so coordinated
// omission is visible.
func TestStalledBackendVisibleInDueTimeLatency(t *testing.T) {
	const stall = 300 * time.Millisecond
	var mu sync.Mutex // the backend serves one request at a time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if r.Header.Get(service.RequestIDHeader) == "u41" {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	// 200 requests/s for one second through two connections.
	reqs := make([]creq, 200)
	for i := range reqs {
		reqs[i] = creq{due: time.Duration(i) * 5 * time.Millisecond, path: "/query/group", body: []byte("{}")}
	}
	out := newOutcome()
	ls := &loopStats{out: out, writeReq: map[string]bool{}}
	i := 0
	next := func() (creq, bool) {
		if i == len(reqs) {
			return creq{}, false
		}
		i++
		return reqs[i-1], true
	}
	runLoop(t.Context(), srv.URL, next, 0, func() {}, newWindow(60), NewTracer(), nil, ls)

	if out.attempted != len(reqs) || out.failedTotal() != 0 {
		t.Fatalf("attempted %d failed %d", out.attempted, out.failedTotal())
	}
	slow := 0
	for _, l := range out.queryMs {
		if l > ms(stall)/4 {
			slow++
		}
	}
	// Timed from send, only the two requests in flight during the stall
	// would be slow; timed from due, so is every request due behind it.
	if slow < 20 {
		t.Errorf("%d requests slower than %v; the stall must delay the requests due behind it", slow, stall/4)
	}
	if late := quantile(sortedCopy(ls.lateMs), 0.99); late < ms(stall)/4 {
		t.Errorf("generator lateness p99 %.1f ms does not show the %v stall", late, stall)
	}
}
