package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	stgq "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/index"
	"repro/internal/schedule"
)

// populationSeed draws every workload's population. It is fixed, so a
// run's cost depends on the code and on the requests --seed draws, not
// on which people a seed happened to make popular.
const populationSeed = 1

// engine_paper sizing. The population is one fixed instance of Figure
// 1(d)'s 3200-person network with multi-day schedules, and the order
// that ranks its people by popularity is fixed with it, so every seed
// queries the same hot initiators; the seed draws the op list. The list
// is long enough that its distinct initiators overflow the index's
// 256-entry label cache while the Zipf head fits in it.
const (
	engineUsers   = 3200
	engineDays    = 3
	engineListLen = 30000
	// engineCrossEvery sends every n-th query op through the exhaustive
	// baseline as well (when its radius graph is small enough).
	engineCrossEvery = 25
	// engineCrossMaxN bounds the radius graph the baseline is run on.
	engineCrossMaxN = 40
	// engineSetups repeats the ~10 ms set-up enough times that its
	// median is steady.
	engineSetups = 25
)

type opKind int

const (
	opSG opKind = iota
	opSTG
	opGSG
	opAvail
)

func (k opKind) String() string {
	return [...]string{"sgselect", "stgselect", "gsgselect", "avail"}[k]
}

// engineOp is one entry of the seeded op list.
type engineOp struct {
	kind               opKind
	initiator, p, s, k int
	m                  int
	x, y, radius       float64 // opGSG
	from, to           int     // opAvail (person = initiator)
	free               bool    // opAvail
}

// genEngineOps draws the fixed op list from seed: SGSelect/STGSelect with
// Figure 1 parameter ranges, a GSGSelect share around the initiator's
// home, and in-process availability edits. The query kinds take the
// query weights of the shared traffic mix and the edits cluster_read's
// mutation share; edits are availability only, because friendship
// edits drop the label cache this workload exists to exercise.
// Initiators are Zipf-skewed over the population's fixed popularity
// order.
func genEngineOps(seed int64, ds *dataset.Dataset) []engineOp {
	r := rand.New(rand.NewSource(seed))
	n := ds.Graph.NumVertices()
	perm := rand.New(rand.NewSource(populationSeed)).Perm(n)
	zipf := rand.NewZipf(r, 1.1, 30, uint64(n-1))
	horizon := ds.Cal.Horizon()
	ops := make([]engineOp, engineListLen)
	for i := range ops {
		op := engineOp{
			initiator: perm[zipf.Uint64()],
			p:         3 + r.Intn(3), // 3..5
			s:         1 + r.Intn(2), // 1..2
			k:         1 + r.Intn(3), // 1..3
			m:         2 + r.Intn(3), // 2..4
		}
		if r.Intn(100) < readMix.writePct {
			op.kind = opAvail
			op.from = r.Intn(horizon)
			op.to = op.from + 1 + r.Intn(min(16, horizon-op.from))
			op.free = r.Intn(2) == 0
			ops[i] = op
			continue
		}
		switch x := r.Intn(wSG + wSTG + wGSG); {
		case x < wSG:
			op.kind = opSG
		case x < wSG+wSTG:
			op.kind = opSTG
		default:
			op.kind = opGSG
			home := ds.Locations[op.initiator]
			op.x = home[0] + (r.Float64()-0.5)*1000
			op.y = home[1] + (r.Float64()-0.5)*1000
			op.radius = 1500 + r.Float64()*3000
			if r.Intn(2) == 0 {
				op.m = 0
			}
		}
		ops[i] = op
	}
	return ops
}

// answer is a query result normalized across the three query kinds.
type answer struct {
	infeasible bool
	members    []stgq.Member
	total      float64
	window     stgq.TimeWindow
	stats      core.Stats
}

// engine holds one engine_paper run: the planner under test plus the
// benchmark's own mirror of its availability, for the output checks.
// A traced run also mirrors the planner's index and geo grid for the
// layer-by-layer path; untraced runs leave them nil, so heap_mb holds
// only what the program keeps live.
type engine struct {
	ds   *dataset.Dataset
	pl   *stgq.Planner
	cal  *schedule.Calendar
	idx  *index.Index
	grid *geo.Grid
	tr   *Tracer

	labelHits, labelMisses int
	radiusVertices         []float64
}

// newPlanner is the program-side set-up engine_paper times: the planner
// built from the dataset with the index enabled, as stgqd serves it.
func newPlanner(ds *dataset.Dataset) *stgq.Planner {
	pl := stgq.FromDataset(ds)
	pl.EnableIndex()
	return pl
}

func newEngine(ds *dataset.Dataset, pl *stgq.Planner, tr *Tracer) *engine {
	e := &engine{ds: ds, pl: pl, cal: ds.Cal.ExtendedClone(0), tr: tr}
	if tr == nil {
		return e
	}
	e.idx = index.Build(e.cal, 0)
	e.grid = geo.NewGrid(stgq.DefaultGridCellSize)
	for id, xy := range ds.Locations {
		e.grid.Insert(id, geo.Point{X: xy[0], Y: xy[1]})
	}
	return e
}

// write applies an availability edit to the planner; mirrorWrite then
// applies it to the benchmark's own calendar and, when tracing, index.
func (e *engine) write(op engineOp) error {
	if op.free {
		return e.pl.SetAvailable(stgq.PersonID(op.initiator), op.from, op.to)
	}
	return e.pl.SetBusy(stgq.PersonID(op.initiator), op.from, op.to)
}

func (e *engine) mirrorWrite(op engineOp) {
	e.cal.SetRange(op.initiator, op.from, op.to, op.free)
	if e.idx != nil {
		e.idx.SetRange(op.initiator, op.from, op.to, op.free)
	}
}

func sgQuery(op engineOp) stgq.SGQuery {
	return stgq.SGQuery{Initiator: stgq.PersonID(op.initiator), P: op.p, S: op.s, K: op.k}
}

// query runs op through the planner's public API: the untraced path.
func (e *engine) query(op engineOp, alg stgq.Algorithm) (answer, error) {
	q := sgQuery(op)
	q.Algorithm = alg
	var (
		a   answer
		err error
	)
	switch op.kind {
	case opSG:
		var res *stgq.GroupResult
		if res, err = e.pl.FindGroup(q); err == nil {
			a = answer{members: res.Members, total: res.TotalDistance, stats: res.Stats}
		}
	case opSTG:
		var res *stgq.PlanResult
		if res, err = e.pl.PlanActivity(stgq.STGQuery{SGQuery: q, M: op.m}); err == nil {
			a = answer{members: res.Members, total: res.TotalDistance, window: res.Window, stats: res.Stats}
		}
	case opGSG:
		var res *stgq.GeoPlanResult
		if res, err = e.pl.PlanGeoActivity(stgq.GSGQuery{SGQuery: q, M: op.m, X: op.x, Y: op.y, Radius: op.radius}); err == nil {
			a = answer{members: res.Members, total: res.TotalDistance, window: res.Window, stats: res.Stats}
		}
	}
	if errors.Is(err, stgq.ErrNoFeasibleGroup) {
		return answer{infeasible: true}, nil
	}
	return a, err
}

// tracedQuery answers op by calling each layer's public entry point in
// the order the planner does — index label lookup, socialgraph distance
// pass and radius-graph extraction, index pivot runs, core search — with
// a span around each call under one stgq root span. The result must
// equal the planner's (checked on a sample by the caller).
func (e *engine) tracedQuery(op engineOp, reqID string) (answer, error) {
	root := e.tr.Begin("stgq", reqID, 0)
	defer root.End()
	g := e.ds.Graph

	sp := e.tr.Begin("index", reqID, root.ID())
	dist, hit := e.idx.Label(op.initiator, op.s)
	sp.End()
	if hit {
		e.labelHits++
	} else {
		e.labelMisses++
		sp = e.tr.Begin("socialgraph", reqID, root.ID())
		d, err := g.EdgeMinDistances(op.initiator, op.s)
		sp.End()
		if err != nil {
			return answer{}, err
		}
		sp = e.tr.Begin("index", reqID, root.ID())
		e.idx.StoreLabel(op.initiator, op.s, d)
		sp.End()
		dist = d
	}
	sp = e.tr.Begin("socialgraph", reqID, root.ID())
	rg := g.ExtractRadiusGraphWithDistances(op.initiator, dist)
	sp.End()
	e.radiusVertices = append(e.radiusVertices, float64(rg.N()))

	opts := core.DefaultOptions()
	temporal := op.kind == opSTG || (op.kind == opGSG && op.m >= 1)
	var calUser []int
	if temporal {
		sp = e.tr.Begin("index", reqID, root.ID())
		opts.Runs = e.idx.AvailSnapshot()
		sp.End()
		calUser = dataset.CalUsers(rg)
	}
	var spat []float64
	if op.kind == opGSG {
		center := geo.Point{X: op.x, Y: op.y}
		spat = make([]float64, rg.N())
		for i := range spat {
			spat[i] = -1
		}
		in := make(map[int]float64)
		for _, id := range e.grid.WithinRadius(center, op.radius, nil) {
			pt, _ := e.grid.Location(id)
			in[id] = pt.DistanceTo(center)
		}
		for v := 0; v < rg.N(); v++ {
			if d, ok := in[rg.Orig[v]]; ok {
				spat[v] = d
			}
		}
	}

	sp = e.tr.Begin("core", reqID, root.ID())
	var (
		grp    *core.Group
		window stgq.TimeWindow
		stats  core.Stats
		err    error
	)
	switch op.kind {
	case opSG:
		grp, stats, err = core.SGSelect(rg, op.p, op.k, nil, opts)
	case opSTG:
		var sg *core.STGroup
		if sg, stats, err = core.STGSelect(rg, e.cal, calUser, op.p, op.k, op.m, opts); err == nil {
			grp, window = &sg.Group, stgq.TimeWindow{Start: sg.Interval.Start, End: sg.Interval.End + 1}
		}
	case opGSG:
		var sg *core.STGroup
		if sg, stats, err = core.GSGSelect(rg, spat, e.cal, calUser, op.p, op.k, op.m, opts); err == nil {
			grp = &sg.Group
			if op.m >= 1 {
				window = stgq.TimeWindow{Start: sg.Interval.Start, End: sg.Interval.End + 1}
			}
		}
	}
	sp.End()
	if errors.Is(err, core.ErrNoFeasibleGroup) {
		return answer{infeasible: true, stats: stats}, nil
	}
	if err != nil {
		return answer{}, err
	}
	members := make([]stgq.Member, len(grp.Members))
	for i, v := range grp.Members {
		members[i] = stgq.Member{ID: stgq.PersonID(rg.Orig[v]), Distance: rg.Dist[v]}
	}
	return answer{members: members, total: grp.TotalDistance, window: window, stats: stats}, nil
}

// check verifies a query answer against the query's constraints on the
// current state: size p, initiator included, every member within s edges
// at its reported distance, at most k unacquainted co-members each, a
// common free window of m slots, and (geo) every member inside the
// spatial radius.
func (e *engine) check(op engineOp, a answer) error {
	if a.infeasible {
		return nil
	}
	g := e.ds.Graph
	if len(a.members) != op.p {
		return fmt.Errorf("%d members, want p=%d", len(a.members), op.p)
	}
	dist, err := g.EdgeMinDistances(op.initiator, op.s)
	if err != nil {
		return err
	}
	seen := make(map[int]bool, op.p)
	hasInit := false
	sum := 0.0
	for _, m := range a.members {
		id := int(m.ID)
		if seen[id] {
			return fmt.Errorf("member %d twice", id)
		}
		seen[id] = true
		hasInit = hasInit || id == op.initiator
		if math.IsInf(dist[id], 1) || math.Abs(dist[id]-m.Distance) > 1e-9 {
			return fmt.Errorf("member %d at distance %v, %d-edge distance is %v", id, m.Distance, op.s, dist[id])
		}
		sum += m.Distance
		unacq := 0
		for _, o := range a.members {
			if o.ID != m.ID && !g.HasEdge(id, int(o.ID)) {
				unacq++
			}
		}
		if unacq > op.k {
			return fmt.Errorf("member %d unacquainted with %d > k=%d", id, unacq, op.k)
		}
	}
	if !hasInit {
		return fmt.Errorf("initiator %d not in group", op.initiator)
	}
	if op.kind == opGSG {
		for _, m := range a.members {
			xy, ok := e.ds.Locations[int(m.ID)]
			if !ok {
				return fmt.Errorf("member %d has no location", m.ID)
			}
			d := geo.Point{X: xy[0], Y: xy[1]}.DistanceTo(geo.Point{X: op.x, Y: op.y})
			if d > op.radius+1e-9 {
				return fmt.Errorf("member %d is %.1f m from the point, radius %.1f", m.ID, d, op.radius)
			}
			if int(m.ID) != op.initiator {
				sum += d
			}
		}
	}
	if math.Abs(sum-a.total) > 1e-6*math.Max(1, a.total) {
		return fmt.Errorf("total distance %v, members sum to %v", a.total, sum)
	}
	if op.kind == opSTG || (op.kind == opGSG && op.m >= 1) {
		if a.window.End-a.window.Start < op.m {
			return fmt.Errorf("window %v shorter than m=%d", a.window, op.m)
		}
		for _, m := range a.members {
			for t := a.window.Start; t < a.window.End; t++ {
				if !e.cal.Available(int(m.ID), t) {
					return fmt.Errorf("member %d busy at slot %d of window %v", m.ID, t, a.window)
				}
			}
		}
	}
	return nil
}

// crossCheck re-answers an SGSelect/STGSelect op with the exhaustive
// baseline when its radius graph is small, and compares optimal totals.
func (e *engine) crossCheck(op engineOp, a answer) error {
	if op.kind == opGSG {
		return nil
	}
	rg, err := e.ds.Graph.ExtractRadiusGraph(op.initiator, op.s)
	if err != nil || rg.N() > engineCrossMaxN {
		return err
	}
	b, err := e.query(op, stgq.AlgBaseline)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	if a.infeasible != b.infeasible || math.Abs(a.total-b.total) > 1e-6*math.Max(1, b.total) {
		return fmt.Errorf("answer total %v (infeasible=%v), baseline %v (infeasible=%v)", a.total, a.infeasible, b.total, b.infeasible)
	}
	return nil
}

// sameAnswer compares the traced path's answer with the planner's:
// feasibility, total, window, and every member with its distance.
func sameAnswer(a, b answer) bool {
	if a.infeasible != b.infeasible {
		return false
	}
	if a.infeasible {
		return true
	}
	if math.Abs(a.total-b.total) > 1e-9*math.Max(1, a.total) || a.window != b.window || len(a.members) != len(b.members) {
		return false
	}
	am, bm := sortedMembers(a.members), sortedMembers(b.members)
	for i := range am {
		if am[i].ID != bm[i].ID || math.Abs(am[i].Distance-bm[i].Distance) > 1e-9*math.Max(1, am[i].Distance) {
			return false
		}
	}
	return true
}

func sortedMembers(ms []stgq.Member) []stgq.Member {
	out := append([]stgq.Member(nil), ms...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// runEngine executes engine_paper: set-up, warm-up, then the measured
// window.
func runEngine(cfg runConfig) (*outcome, error) {
	ds := dataset.Synthetic(engineUsers, populationSeed, engineDays)
	setups := make([]float64, 0, engineSetups)
	var pl *stgq.Planner
	settle()
	for i := 0; i < engineSetups; i++ {
		runtime.GC() // every repetition starts from a collected heap
		t0 := time.Now()
		pl = newPlanner(ds)
		setups = append(setups, time.Since(t0).Seconds())
	}
	var tr *Tracer
	if cfg.trace {
		tr = NewTracer()
	}
	e := newEngine(ds, pl, tr)
	ops := genEngineOps(cfg.seed, ds)
	out := newOutcome()
	out.setups = setups

	// Warm-up: let the label cache and calendar materialization settle.
	i := 0
	warmEnd := time.Now().Add(warmup)
	for time.Now().Before(warmEnd) {
		op := ops[i%len(ops)]
		i++
		if op.kind == opAvail {
			if err := e.write(op); err != nil {
				return nil, fmt.Errorf("warm-up write: %w", err)
			}
			e.mirrorWrite(op)
			continue
		}
		if _, err := e.query(op, stgq.AlgDefault); err != nil {
			return nil, fmt.Errorf("warm-up query: %w", err)
		}
		if cfg.trace {
			if _, err := e.tracedQuery(op, "warm"); err != nil {
				return nil, fmt.Errorf("warm-up traced query: %w", err)
			}
		}
	}
	if tr != nil {
		tr.Reset()
	}
	e.labelHits, e.labelMisses, e.radiusVertices = 0, 0, nil

	w := newWindow(int(cfg.duration / time.Second))
	out.begin()
	w.begin(time.Now())
	queries := 0
	plannerMs := map[string]float64{} // traced runs: planner time per request id
	// The slice each sample was taken in, and the process CPU of each
	// timed op, so that only the window's measured slices count.
	var qSlice, wSlice, tSlice, cpuSlice []int
	var opCPU []float64
	timed := func(t0 time.Time, c0 time.Duration) {
		opCPU = append(opCPU, ms(processCPU()-c0))
		cpuSlice = append(cpuSlice, w.slice(t0))
	}
	for n := 0; !w.tick(time.Now()); n++ {
		op := ops[i%len(ops)]
		i++
		out.attempted++
		if op.kind == opAvail {
			c0 := processCPU()
			t0 := time.Now()
			err := e.write(op)
			d := time.Since(t0)
			timed(t0, c0)
			if err != nil {
				out.fail("other", err)
				continue
			}
			e.mirrorWrite(op)
			out.writeMs = append(out.writeMs, ms(d))
			wSlice = append(wSlice, w.slice(t0))
			continue
		}
		queries++
		reqID := fmt.Sprintf("q%d", n)
		var (
			a   answer
			err error
		)
		if !cfg.trace {
			c0 := processCPU()
			t0 := time.Now()
			a, err = e.query(op, stgq.AlgDefault)
			d := time.Since(t0)
			timed(t0, c0)
			out.queryMs = append(out.queryMs, ms(d))
			qSlice = append(qSlice, w.slice(t0))
		} else {
			// Each query runs on both paths, alternating which goes
			// first; the untraced (planner) time is the end-to-end
			// sample, the traced time feeds the overhead figure.
			var pa answer
			var perr error
			runPlanner := func() {
				c0 := processCPU()
				t0 := time.Now()
				pa, perr = e.query(op, stgq.AlgDefault)
				d := time.Since(t0)
				timed(t0, c0)
				out.queryMs = append(out.queryMs, ms(d))
				qSlice = append(qSlice, w.slice(t0))
				plannerMs[reqID] = ms(d)
			}
			runTraced := func() {
				t0 := time.Now()
				a, err = e.tracedQuery(op, reqID)
				out.tracedMs = append(out.tracedMs, ms(time.Since(t0)))
				tSlice = append(tSlice, w.slice(t0))
			}
			if n%2 == 0 {
				runPlanner()
				runTraced()
			} else {
				runTraced()
				runPlanner()
			}
			if err == nil && perr == nil && !sameAnswer(a, pa) {
				out.violate("traced path answer differs from planner for %v op %d", op.kind, n)
			}
			if perr != nil {
				err = perr
			}
			// a.stats stays the traced path's: the planner returns no
			// Stats for an infeasible query, core does.
		}
		if err != nil {
			out.fail("other", err)
			continue
		}
		out.searches++
		if a.infeasible {
			out.infeasible++
		}
		out.coreStats.Add(a.stats)
		if cerr := e.check(op, a); cerr != nil {
			out.violate("%v op %d (initiator %d p=%d s=%d k=%d m=%d): %v", op.kind, n, op.initiator, op.p, op.s, op.k, op.m, cerr)
		}
		if queries%engineCrossEvery == 0 {
			if cerr := e.crossCheck(op, a); cerr != nil {
				out.violate("%v op %d: %v", op.kind, n, cerr)
			}
		}
	}
	out.finish()
	out.queryMs = w.filter(out.queryMs, qSlice)
	out.writeMs = w.filter(out.writeMs, wSlice)
	out.tracedMs = w.filter(out.tracedMs, tSlice)
	for _, c := range w.filter(opCPU, cpuSlice) {
		out.cpu += time.Duration(c * 1e6)
	}
	out.slicesCalm, out.slicesClosed = w.kept, len(w.measured)
	// After the filter, so the samples held are the measured slices'
	// only, whatever the window's length.
	out.heapMB = liveHeapMB()
	runtime.KeepAlive(e)
	out.untracedMs = out.queryMs
	out.labelHits, out.labelMisses, out.radiusVertices = e.labelHits, e.labelMisses, e.radiusVertices
	out.spans = tr.Spans()
	out.tracer = tr
	if cfg.trace {
		out.layer["stgq.self_ms"] = plannerSelf(plannerMs, perRequest(out.spans))
	}
	return out, nil
}

// plannerSelf is the planner's own time per query: its untraced time
// minus the layer spans (every span but the stgq root) the traced path
// recorded for the same query. It holds what only the planner does —
// locking, calendar materialization, result conversion — so with the
// other layers' per-request means it adds up to the mean query time.
func plannerSelf(plannerMs map[string]float64, reqs map[string]requestLayers) metricValue {
	var self []float64
	for id, d := range plannerMs {
		rl, ok := reqs[id]
		if !ok {
			continue
		}
		for layer, v := range rl.Dur {
			if layer != "stgq" {
				d -= v
			}
		}
		self = append(self, d)
	}
	return metricValue{Value: mean(self), Unit: "ms", Samples: len(self)}
}
