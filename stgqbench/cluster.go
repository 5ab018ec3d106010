package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/gateway"
	"repro/internal/journal"
	"repro/internal/obsv"
	"repro/internal/replica"
	"repro/internal/service"
)

// Cluster workload sizing. The open loop offers a fixed rate through at
// most clusterConns client connections; query bodies are drawn
// Zipf-skewed from a seeded universe so the hot set fits the gateway's
// 512-entry result cache.
const (
	clusterUsers     = 2000
	clusterDays      = 2
	clusterConns     = 2
	clusterSetups    = 9
	clusterUniverse  = 4000
	clusterSessions  = 64
	convergeTimeout  = 20 * time.Second
	drainGrace       = 20 * time.Second
	parentSpanHeader = "X-Stgqbench-Parent-Span"
)

// Traffic weights within the reads and within the mutations, taken from
// loadgen.DefaultMix, the repository's production-shaped mix: SGSelect
// 20, STGSelect 15, GSGSelect 10; availability 25, friendship 15.
// DefaultMix has no location writes, so they take the weight it gives
// the geo class (GSGSelect, 10). The read/write shares themselves are
// each workload's own (clusterMix.writePct).
const (
	wSG, wSTG, wGSG            = 20, 15, 10
	wAvail, wFriend, wLocation = 25, 15, 10
)

// clusterZipfS skews floorless query bodies so that about four in five
// are answered from the gateway's result cache (1 s TTL at 450
// queries/s). The median query is then well inside the cached
// requests: near a 50% hit ratio it would sit on the gap between hit
// and miss latency, where a change of a few hits swings it.
const clusterZipfS = 1.5

// clusterMix is one cluster workload's traffic: offered rate and the
// share of mutations; reads are session-floored when sessionReads is set.
type clusterMix struct {
	rate         int // requests per second
	writePct     int
	sessionReads bool
}

// The rates keep each of the two connections roughly a third to a half
// busy. On a shared host a vCPU that idles between requests pays a
// wake-up delay on the next one, and that delay drifts with the other
// guests' load; much busier, and requests queue behind each other.
var (
	readMix  = clusterMix{rate: 500, writePct: 10}
	writeMix = clusterMix{rate: 300, writePct: 65, sessionReads: true}
)

func runClusterRead(cfg runConfig) (*outcome, error)  { return runCluster(cfg, readMix) }
func runClusterWrite(cfg runConfig) (*outcome, error) { return runCluster(cfg, writeMix) }

// cluster is a booted leader + follower + gateway, all in this process,
// each served over loopback HTTP exactly as the binaries serve them.
type cluster struct {
	leader *journal.Store
	fo     *replica.Follower
	gw     *gateway.Gateway
	gwURL  string
	stops  []func() // reverse-order shutdown
}

func serve(h http.Handler) (string, func(), error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() { _ = srv.Serve(l); close(done) }()
	return "http://" + l.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	}, nil
}

// tracedHandler records a span named layer around h for requests whose
// id marks them as traced, parented on the caller's span, and hands its
// own span id on to the next hop.
func tracedHandler(tr *Tracer, layer string, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(service.RequestIDHeader)
		if !strings.HasPrefix(id, "t") {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(parentSpanHeader), 10, 64)
		sp := tr.Begin(layer, id, parent)
		r.Header.Set(parentSpanHeader, strconv.FormatInt(sp.ID(), 10))
		h.ServeHTTP(w, r)
		sp.End()
	})
}

// bootCluster starts the topology from public constructors with default
// options and waits until the gateway routes to a caught-up follower.
func bootCluster(dir string, ds *dataset.Dataset, tr *Tracer) (c *cluster, err error) {
	c = &cluster{}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	leaderDir := filepath.Join(dir, "leader")
	if err := journal.ImportDataset(leaderDir, ds); err != nil {
		return c, err
	}
	st, err := journal.Open(leaderDir, journal.Options{})
	if err != nil {
		return c, err
	}
	c.leader = st
	c.stops = append(c.stops, func() { _ = st.Close() })
	leaderURL, stop, err := serve(tracedHandler(tr, "service", service.NewWithStore(st)))
	if err != nil {
		return c, err
	}
	c.stops = append(c.stops, stop)

	// The gateway's address must exist before the follower, which
	// replicates through it.
	gl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return c, err
	}
	c.gwURL = "http://" + gl.Addr().String()
	fo, err := replica.NewFollower(replica.Config{LeaderURL: c.gwURL, Dir: filepath.Join(dir, "follower")})
	if err != nil {
		gl.Close()
		return c, err
	}
	c.fo = fo
	fsrv := service.NewFollower(fo, c.gwURL)
	followerURL, stopF, err := serve(tracedHandler(tr, "service", fsrv))
	if err != nil {
		gl.Close()
		return c, err
	}
	fctx, fcancel := context.WithCancel(context.Background())
	fdone := make(chan struct{})
	go func() { fo.Run(fctx); close(fdone) }()
	c.stops = append(c.stops, func() {
		fcancel()
		<-fdone
		_ = fsrv.CloseState()
		stopF()
	})

	gw, err := gateway.New(gateway.Config{Backends: []string{leaderURL, followerURL}})
	if err != nil {
		gl.Close()
		return c, err
	}
	c.gw = gw
	gctx, gcancel := context.WithCancel(context.Background())
	gdone := make(chan struct{})
	go func() { gw.Run(gctx); close(gdone) }()
	gsrv := &http.Server{Handler: tracedHandler(tr, "gateway", gw)}
	sdone := make(chan struct{})
	go func() { _ = gsrv.Serve(gl); close(sdone) }()
	c.stops = append(c.stops, func() {
		gcancel()
		<-gdone
		gw.StopStreams()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = gsrv.Shutdown(ctx)
		<-sdone
	})
	return c, c.waitReady(30 * time.Second)
}

// waitReady blocks until the gateway knows the leader, sees the follower
// healthy, and the follower has applied everything the leader made
// durable.
func (c *cluster) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st := c.gw.Status()
		healthy := 0
		for _, b := range st.Backends {
			if b.Healthy {
				healthy++
			}
		}
		if st.Leader != "" && healthy == 2 && c.fo.AppliedSeq() >= c.leader.Stats().DurableSeq {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("cluster did not become ready")
}

func (c *cluster) close() {
	for i := len(c.stops) - 1; i >= 0; i-- {
		c.stops[i]()
	}
	c.stops = nil
}

// converged waits for the follower to reach the leader's durable seq,
// then compares the two planners' exported state byte for byte.
func (c *cluster) converged() error {
	deadline := time.Now().Add(convergeTimeout)
	want := c.leader.Stats().DurableSeq
	for c.fo.AppliedSeq() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower applied %d, leader durable %d after %s", c.fo.AppliedSeq(), want, convergeTimeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
	var a, b bytes.Buffer
	if err := c.leader.Planner().Export(nil).Save(&a); err != nil {
		return err
	}
	if err := c.fo.Planner().Export(nil).Save(&b); err != nil {
		return err
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return fmt.Errorf("follower export (%d bytes) differs from leader export (%d bytes)", b.Len(), a.Len())
	}
	return nil
}

// creq is one scheduled request of the open loop.
type creq struct {
	due     time.Duration // since the loop's start
	path    string
	body    []byte
	write   bool
	session int // 1..clusterSessions; 0 for floorless reads
}

// reqStream draws the open loop's requests, in order, at a fixed
// spacing from a seed. They are drawn as the loop sends them, so a long
// window holds no request list in memory.
type reqStream struct {
	r              *rand.Rand
	zipf           *rand.Zipf
	universe       []creq
	edges          [][2]int
	users, horizon int
	mix            clusterMix
	n              int // requests drawn so far
}

func newReqStream(seed int64, ds *dataset.Dataset, mix clusterMix) *reqStream {
	r := rand.New(rand.NewSource(seed))
	users := ds.Graph.NumVertices()
	horizon := ds.Cal.Horizon()
	var edges [][2]int
	for a := 0; a < users; a++ {
		ds.Graph.Neighbors(a, func(b int, _ float64) {
			if a < b {
				edges = append(edges, [2]int{a, b})
			}
		})
	}

	universe := make([]creq, clusterUniverse)
	for i := range universe {
		init := r.Intn(users)
		p, s, k, m := 3+r.Intn(3), 1+r.Intn(2), 1+r.Intn(2), 2+r.Intn(3)
		switch x := r.Intn(wSG + wSTG + wGSG); {
		case x < wSG:
			universe[i] = creq{path: "/query/group", body: jsonf(`{"initiator":%d,"p":%d,"s":%d,"k":%d}`, init, p, s, k)}
		case x < wSG+wSTG:
			universe[i] = creq{path: "/query/activity", body: jsonf(`{"initiator":%d,"p":%d,"s":%d,"k":%d,"m":%d}`, init, p, s, k, m)}
		default:
			home := ds.Locations[init]
			if r.Intn(2) == 0 {
				m = 0
			}
			universe[i] = creq{path: "/query/gsgselect", body: jsonf(`{"initiator":%d,"p":%d,"s":%d,"k":%d,"m":%d,"x":%.1f,"y":%.1f,"radius":%.1f}`,
				init, p, s, k, m, home[0]+(r.Float64()-0.5)*1000, home[1]+(r.Float64()-0.5)*1000, 1500+r.Float64()*3000)}
		}
	}
	return &reqStream{r: r, zipf: rand.NewZipf(r, clusterZipfS, 2, clusterUniverse-1),
		universe: universe, edges: edges, users: users, horizon: horizon, mix: mix}
}

// spacing is the time between two requests' due times.
func (s *reqStream) spacing() time.Duration { return time.Second / time.Duration(s.mix.rate) }

// next draws the next request.
func (s *reqStream) next() creq {
	var q creq
	session := 1 + s.r.Intn(clusterSessions)
	if s.r.Intn(100) < s.mix.writePct {
		q = genMutation(s.r, s.users, s.horizon, s.edges)
		q.session = session
	} else if s.mix.sessionReads {
		// Floored reads bypass the cache, so they are drawn uniformly:
		// under the Zipf skew the hottest body alone is about a quarter
		// of the reads, and a run's read cost would hang on what that
		// one query costs.
		q = s.universe[s.r.Intn(clusterUniverse)]
		q.session = session
	} else {
		q = s.universe[s.zipf.Uint64()]
	}
	q.due = time.Duration(s.n) * s.spacing()
	s.n++
	return q
}

// genMutation draws an availability, friendship or location write by
// the mutation weights. A friendship write re-weights an edge of the
// initial graph, so none can fail and the graph's shape stays fixed:
// adding random edges would grow its 8000 or so edges by about a fifth
// within one cluster_write run, and query cost with them.
func genMutation(r *rand.Rand, users, horizon int, edges [][2]int) creq {
	p := r.Intn(users)
	switch x := r.Intn(wAvail + wFriend + wLocation); {
	case x < wAvail:
		from := r.Intn(horizon)
		to := from + 1 + r.Intn(min(16, horizon-from))
		return creq{write: true, path: "/availability",
			body: jsonf(`{"person":%d,"from":%d,"to":%d,"available":%t}`, p, from, to, r.Intn(2) == 0)}
	case x < wAvail+wFriend:
		e := edges[r.Intn(len(edges))]
		return creq{write: true, path: "/friendships", body: jsonf(`{"a":%d,"b":%d,"distance":%.3f}`, e[0], e[1], 1+r.Float64()*9)}
	default:
		return creq{write: true, path: fmt.Sprintf("/people/%d/location", p),
			body: jsonf(`{"x":%.1f,"y":%.1f}`, r.Float64()*dataset.LocationExtentMeters, r.Float64()*dataset.LocationExtentMeters)}
	}
}

func jsonf(format string, args ...any) []byte { return []byte(fmt.Sprintf(format, args...)) }

// loopStats is what the open loop measured; guarded by mu.
type loopStats struct {
	mu                       sync.Mutex
	out                      *outcome
	lateMs                   []float64
	tracedMs                 []float64
	untracedMs               []float64
	engineMs, enqMs, fsyncMs []float64
	visibleMs                []float64
	cacheHits, floorless     int
	writeReq                 map[string]bool
	// The window slice each end-to-end sample's request was due in.
	querySlice, writeSlice     []int
	tracedSlice, untracedSlice []int
	sessionSeq                 [clusterSessions + 1]atomic.Uint64 // last acked write seq per session
	visible                    sync.WaitGroup
}

// runLoop offers the requests next draws, on schedule, through
// clusterConns workers, each request timed from its due time. Requests
// due before recordAt are warm-up: sent and checked, not recorded;
// atRecord runs once, when the first recorded request is taken. The
// window starts at recordAt, and no request is sent once it is over or
// next has none left.
func runLoop(ctx context.Context, url string, next func() (creq, bool), recordAt time.Duration, atRecord func(), w *window, tr *Tracer, fo waitApplier, ls *loopStats) {
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clusterConns,
		MaxIdleConnsPerHost: clusterConns,
	}}
	defer client.CloseIdleConnections()
	start := time.Now()
	w.begin(start.Add(recordAt))
	var over atomic.Bool
	stopWatch := make(chan struct{})
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopWatch:
				return
			case now := <-t.C:
				if now.After(w.start) && w.tick(now) {
					over.Store(true)
					return
				}
			}
		}
	}()
	var (
		mu    sync.Mutex // draws requests in order
		taken int
	)
	var once sync.Once
	var wg sync.WaitGroup
	for c := 0; c < clusterConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil || over.Load() {
					return
				}
				mu.Lock()
				q, ok := next()
				i := taken
				taken++
				mu.Unlock()
				if !ok {
					return
				}
				record := q.due >= recordAt
				if record {
					once.Do(atRecord)
				}
				due := start.Add(q.due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				doRequest(ctx, client, url, i, q, due, w.slice(due), record, tr, fo, ls)
			}
		}()
	}
	wg.Wait()
	close(stopWatch)
	<-watchDone
}

type waitApplier interface {
	WaitApplied(ctx context.Context, seq uint64) error
}

func doRequest(ctx context.Context, client *http.Client, url string, i int, q creq, due time.Time, slice int, record bool, tr *Tracer, fo waitApplier, ls *loopStats) {
	// Warm-up ids ("w") and odd ids ("u") are untraced; even ones ("t")
	// are traced by every layer's wrapper.
	traced := tr != nil && record && i%2 == 0
	reqID := fmt.Sprintf("u%d", i)
	switch {
	case !record:
		reqID = fmt.Sprintf("w%d", i)
	case traced:
		reqID = fmt.Sprintf("t%d", i)
	}
	sent := time.Now()
	floor := ls.sessionSeq[q.session].Load()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+q.path, bytes.NewReader(q.body))
	if err != nil {
		ls.mu.Lock()
		ls.out.fail("other", err)
		ls.mu.Unlock()
		return
	}
	req.Header.Set(service.RequestIDHeader, reqID)
	if q.session != 0 {
		req.Header.Set(gateway.SessionHeader, fmt.Sprintf("s%d", q.session))
	}
	var root ActiveSpan
	if traced {
		root = tr.Begin("client", reqID, 0)
		req.Header.Set(parentSpanHeader, strconv.FormatInt(root.ID(), 10))
	}
	resp, err := client.Do(req)
	var status int
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
	}
	root.End()
	done := time.Now()
	lat := ms(done.Sub(due))

	ls.mu.Lock()
	defer ls.mu.Unlock()
	o := ls.out
	if record {
		o.attempted++
	}
	if record && tr != nil {
		ls.lateMs = append(ls.lateMs, ms(sent.Sub(due)))
		ls.writeReq[reqID] = q.write
	}
	failClass := ""
	switch {
	case err != nil:
		failClass = "transport"
	case status == http.StatusOK:
	case status == http.StatusUnprocessableEntity && !q.write:
	case status == http.StatusPreconditionFailed:
		failClass = "412"
	case status >= 500:
		failClass = "5xx"
	default:
		failClass = "4xx"
	}
	if failClass != "" {
		if err == nil {
			err = fmt.Errorf("%s %s: status %d", q.path, q.body, status)
		}
		if record {
			o.fail(failClass, err)
		}
		return
	}
	if q.write {
		seq, perr := strconv.ParseUint(resp.Header.Get(service.WriteSeqHeader), 10, 64)
		if perr != nil {
			o.violate("write %s acknowledged without %s", reqID, service.WriteSeqHeader)
			return
		}
		// Stores happen under ls.mu; the atomic lets senders read the
		// floor without it.
		if seq > ls.sessionSeq[q.session].Load() {
			ls.sessionSeq[q.session].Store(seq)
		}
		if tr != nil && record {
			ls.visible.Add(1)
			go func() {
				defer ls.visible.Done()
				if fo.WaitApplied(ctx, seq) == nil {
					v := ms(time.Since(done))
					ls.mu.Lock()
					ls.visibleMs = append(ls.visibleMs, v)
					ls.mu.Unlock()
				}
			}()
		}
	} else if q.session != 0 {
		applied, perr := strconv.ParseUint(resp.Header.Get(service.AppliedSeqHeader), 10, 64)
		if perr != nil || applied < floor {
			o.violate("session s%d read %s: applied seq %q below its last write seq %d", q.session, reqID, resp.Header.Get(service.AppliedSeqHeader), floor)
		}
	}
	if !record {
		return
	}
	if q.write {
		o.writeMs = append(o.writeMs, lat)
		ls.writeSlice = append(ls.writeSlice, slice)
	} else {
		o.searches++
		if status == http.StatusUnprocessableEntity {
			o.infeasible++
		}
		o.queryMs = append(o.queryMs, lat)
		ls.querySlice = append(ls.querySlice, slice)
		if q.session == 0 {
			ls.floorless++
			if c := resp.Header.Get("X-STGQ-Cache"); c == "hit" || c == "collapsed" {
				ls.cacheHits++
			}
		}
	}
	if tr == nil {
		return
	}
	if traced {
		ls.tracedMs = append(ls.tracedMs, lat)
		ls.tracedSlice = append(ls.tracedSlice, slice)
	} else {
		ls.untracedMs = append(ls.untracedMs, lat)
		ls.untracedSlice = append(ls.untracedSlice, slice)
	}
	rows := obsv.ParseServerTiming(resp.Header.Values(obsv.ServerTimingHeader))
	if v, ok := rows["svc_engine"]; ok {
		ls.engineMs = append(ls.engineMs, v*1000)
	}
	if v, ok := rows["journal_enqueue"]; ok {
		ls.enqMs = append(ls.enqMs, v*1000)
	}
	if v, ok := rows["journal_fsync"]; ok {
		ls.fsyncMs = append(ls.fsyncMs, v*1000)
	}
}

// counterSum sums the children of the obsv counter (or counter vec)
// name whose snapshot key starts with keyPrefix.
func counterSum(name, keyPrefix string) float64 {
	s := 0.0
	for k, v := range obsv.TakeSnapshot(name) {
		if strings.HasPrefix(k, keyPrefix) {
			s += v.Value
		}
	}
	return s
}

func runCluster(cfg runConfig, mix clusterMix) (*outcome, error) {
	ds := dataset.Synthetic(clusterUsers, populationSeed, clusterDays)
	var tr *Tracer
	if cfg.trace {
		tr = NewTracer()
	}
	out := newOutcome()
	var c *cluster
	settle()
	for i := 0; i < clusterSetups; i++ {
		if c != nil {
			c.close()
		}
		runtime.GC() // every repetition starts from a collected heap
		t0 := time.Now()
		var err error
		c, err = bootCluster(filepath.Join(cfg.workDir, fmt.Sprintf("setup%d", i)), ds, tr)
		if err != nil {
			return nil, fmt.Errorf("boot cluster: %w", err)
		}
		out.setups = append(out.setups, time.Since(t0).Seconds())
	}
	defer c.close()

	stream := newReqStream(cfg.seed, ds, mix)
	ls := &loopStats{out: out, writeReq: map[string]bool{}}

	// Counters are read at the warm-up/measure boundary by a watcher so
	// the deltas cover the measured requests only.
	type counters struct {
		journal                       journal.Stats
		gw                            gateway.StatusResponse
		labelHits, labelMiss, queries float64
		prunes                        map[string]float64
	}
	read := func() counters {
		k := counters{journal: c.leader.Stats(), gw: c.gw.Status(),
			labelHits: counterSum("stgq_index_label_hits_total", "stgq_index_label_hits_total"),
			labelMiss: counterSum("stgq_index_label_misses_total", "stgq_index_label_misses_total"),
			queries:   counterSum("stgq_engine_queries_total", "stgq_engine_queries_total"),
			prunes:    map[string]float64{}}
		for _, s := range []string{"distance", "acquaintance", "availability"} {
			k.prunes[s] = counterSum("stgq_engine_prunes_total", fmt.Sprintf("stgq_engine_prunes_total{strategy=%q}", s))
		}
		return k
	}
	ctx, cancel := context.WithTimeout(context.Background(), warmup+windowCap*cfg.duration+drainGrace)
	defer cancel()
	var before counters
	w := newWindow(int(cfg.duration / time.Second))
	next := func() (creq, bool) { return stream.next(), true }
	runLoop(ctx, c.gwURL, next, warmup, func() {
		before = read()
		out.begin()
	}, w, tr, c.fo, ls)
	ls.visible.Wait()
	out.finish()
	after := read()
	if ctx.Err() != nil {
		out.fail("transport", fmt.Errorf("open loop did not drain within %s of its schedule", drainGrace))
	}
	if err := c.converged(); err != nil {
		out.violate("replication: %v", err)
	}

	ls.mu.Lock()
	defer ls.mu.Unlock()
	out.queryMs = w.filter(out.queryMs, ls.querySlice)
	out.writeMs = w.filter(out.writeMs, ls.writeSlice)
	out.tracedMs = w.filter(ls.tracedMs, ls.tracedSlice)
	out.untracedMs = w.filter(ls.untracedMs, ls.untracedSlice)
	out.cpu = w.keptCPU()
	out.slicesCalm, out.slicesClosed = w.kept, len(w.measured)
	// After the filter, so the samples held are the measured slices'
	// only, whatever the window's length.
	ls.querySlice, ls.writeSlice, ls.tracedSlice, ls.untracedSlice = nil, nil, nil, nil
	out.heapMB = liveHeapMB()
	out.spans = tr.Spans()
	out.tracer = tr
	if !cfg.trace {
		return out, nil
	}
	// Service spans split by whether the request was a write.
	reqLayers := perRequest(out.spans)
	var svcRead, svcWrite []float64
	for id, rl := range reqLayers {
		if v, ok := rl.Dur["service"]; ok {
			if ls.writeReq[id] {
				svcWrite = append(svcWrite, v)
			} else {
				svcRead = append(svcRead, v)
			}
		}
	}
	L := out.layer
	L["service.read_ms"] = pct(svcRead, 0.5, "ms")
	L["service.write_ms"] = pct(svcWrite, 0.5, "ms")
	L["service.engine_ms"] = pct(ls.engineMs, 0.5, "ms")
	L["journal.enqueue_ms"] = pct(ls.enqMs, 0.5, "ms")
	L["journal.fsync_ms"] = pct(ls.fsyncMs, 0.5, "ms")
	L["replica.visible_ms"] = pct(ls.visibleMs, 0.5, "ms")
	L["replica.visible_p99_ms"] = pct(ls.visibleMs, 0.99, "ms")
	L["client.late_p99_ms"] = pct(ls.lateMs, 0.99, "ms")
	L["gateway.cache_hit_ratio"] = metricValue{Value: ratio(float64(ls.cacheHits), float64(ls.floorless)), Unit: "ratio", Samples: ls.floorless}
	ryw := float64(after.gw.RYWReads - before.gw.RYWReads)
	L["gateway.ryw_leader_retry_ratio"] = metricValue{Value: ratio(float64(after.gw.RYWLeaderRetries-before.gw.RYWLeaderRetries), ryw), Unit: "ratio", Samples: int(ryw)}
	fsyncs := float64(after.journal.Fsyncs - before.journal.Fsyncs)
	records := float64(after.journal.Records - before.journal.Records)
	L["journal.records_per_fsync"] = metricValue{Value: ratio(records, fsyncs), Unit: "count", Samples: int(fsyncs)}
	L["journal.fsyncs_per_s"] = metricValue{Value: ratio(fsyncs, out.wall.Seconds()), Unit: "1/s", Samples: int(fsyncs)}
	L["journal.snapshots"] = metricValue{Value: float64(after.journal.Snapshots - before.journal.Snapshots), Unit: "count", Samples: 1}
	out.labelHits = int(after.labelHits - before.labelHits)
	out.labelMisses = int(after.labelMiss - before.labelMiss)
	engineQueries := after.queries - before.queries
	for s, v := range after.prunes {
		L["core.prunes_"+s] = metricValue{Value: ratio(v-before.prunes[s], engineQueries), Unit: "count", Samples: int(engineQueries)}
	}
	return out, nil
}
