package cluster

// Scatter-gather reads (DESIGN.md §12). Placement is per (db,
// measurement), so every SELECT — and every metadata statement scoped to
// one measurement — is answered whole by any single owner replica: the
// coordinator routes the statement to the healthiest owner and fails over
// to the next on error; a request's statements bound for the same owner
// share one sub-request. That routing, not result stitching, is what keeps
// clustered answers byte-identical to a single node: the two-phase Select
// engine already merges its per-run partials in a fixed order on the
// owning node (agg.go), and splitting one measurement's aggregation
// across nodes would re-order those floating-point merges. Statements
// that span measurements (SHOW MEASUREMENTS, SHOW DATABASES, unscoped
// SHOW TAG VALUES) fan out to every node and union-merge their sorted
// string rows — set union commutes, so merge order cannot show.

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/tsdb"
)

// DistributedQuerier implements tsdb.Querier over the ring. It is the
// read-side twin of SinkFor: every consumer of the Querier interface —
// the dashboard, the analysis engine, the /query handler of each node —
// works against the cluster without change.
type DistributedQuerier struct {
	c *Cluster
}

// Querier returns the cluster's scatter-gather querier.
func (c *Cluster) Querier() *DistributedQuerier {
	return &DistributedQuerier{c: c}
}

// Query implements tsdb.Querier. Statement errors ride inside the
// response exactly as with a LocalQuerier; Query itself fails only when a
// statement's entire replica set is unreachable (the caller's retry is
// then meaningful) or the context is done.
//
// The measurement-scoped statements of a request are routed together
// (execRouted): one sub-request per owner replica instead of one per
// statement. CREATE and DROP DATABASE keep their place in the sequence —
// the routed statements before one run before it, those after it after —
// so a script that changes the database set reads what a single node
// would. The other statements only read and run on their own paths.
func (q *DistributedQuerier) Query(ctx context.Context, req tsdb.Request) (tsdb.Response, error) {
	stmts := req.Statements
	if len(stmts) == 0 {
		var err error
		stmts, err = tsdb.ParseQuery(req.RawQuery)
		if err != nil {
			return tsdb.Response{}, err
		}
	}
	start := time.Now()
	defer func() { q.c.observeFanout(time.Since(start)) }()
	sp := obs.TraceFrom(ctx).Start("cluster.query").AttrInt("statements", int64(len(stmts)))
	defer sp.End()
	results := make([]tsdb.ExecResult, len(stmts))
	var routed []int
	flush := func() error {
		if len(routed) == 0 {
			return nil
		}
		batch := make([]tsdb.Statement, len(routed))
		for k, i := range routed {
			batch[k] = stmts[i]
		}
		res, err := q.execRouted(ctx, req, batch)
		if err != nil {
			return err
		}
		for k, i := range routed {
			results[i] = res[k]
		}
		routed = routed[:0]
		return nil
	}
	for i, st := range stmts {
		if routable(st) {
			routed = append(routed, i)
			continue
		}
		if err := ctx.Err(); err != nil {
			return tsdb.Response{}, err
		}
		if st.Kind == tsdb.StmtCreateDatabase || st.Kind == tsdb.StmtDropDatabase {
			if err := flush(); err != nil {
				return tsdb.Response{}, err
			}
		}
		res, err := q.execStatement(ctx, req, st)
		if err != nil {
			return tsdb.Response{}, err
		}
		results[i] = res
	}
	if err := flush(); err != nil {
		return tsdb.Response{}, err
	}
	return tsdb.Response{Results: results}, nil
}

// routable reports whether any single owner replica answers st whole: a
// SELECT, or a metadata statement scoped to one measurement.
func routable(st tsdb.Statement) bool {
	switch st.Kind {
	case tsdb.StmtSelect:
		return true
	case tsdb.StmtShowFieldKeys, tsdb.StmtShowTagKeys, tsdb.StmtShowTagValues:
		return st.Query.Measurement != ""
	}
	return false
}

// execStatement runs one statement that is not routed with its request's
// batch: EXPLAIN ANALYZE and the statements every node answers.
func (q *DistributedQuerier) execStatement(ctx context.Context, req tsdb.Request, st tsdb.Statement) (tsdb.ExecResult, error) {
	switch st.Kind {
	case tsdb.StmtExplainAnalyze:
		return q.execExplainAnalyze(ctx, req, st)
	case tsdb.StmtShowFieldKeys, tsdb.StmtShowTagKeys, tsdb.StmtShowTagValues,
		tsdb.StmtShowMeasurements, tsdb.StmtShowDatabases:
		return q.execFanAll(ctx, req, st)
	case tsdb.StmtCreateDatabase, tsdb.StmtDropDatabase:
		return q.execFanAllStrict(ctx, req, st)
	default:
		return tsdb.ExecResult{}, fmt.Errorf("cluster: unsupported statement kind %d", st.Kind)
	}
}

// queryNode runs statements on one node in one request: the local store
// for self (no HTTP hop, native result values), the peer's /query with
// local=1 otherwise.
func (q *DistributedQuerier) queryNode(ctx context.Context, id string, req tsdb.Request, stmts []tsdb.Statement) ([]tsdb.ExecResult, error) {
	sub := tsdb.Request{
		Database:   req.Database,
		Statements: stmts,
		Epoch:      req.Epoch,
		Limit:      req.Limit,
	}
	n := q.c.nodes[id]
	var resp tsdb.Response
	var err error
	if n != nil && n.local != nil {
		resp, err = tsdb.LocalQuerier{Store: n.local}.Query(ctx, sub)
	} else {
		resp, err = q.c.clientFor(id, req.Database).Query(ctx, sub)
	}
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(stmts) {
		return nil, fmt.Errorf("cluster: node %s returned %d results for %d statements", id, len(resp.Results), len(stmts))
	}
	return resp.Results, nil
}

// isNoDatabase reports the one embedded error that is topology-dependent:
// a replica that never saw the database answers "does not exist" while
// another replica holds it. Every other embedded error (bad aggregate,
// bad epoch) is deterministic across replicas and passes through.
func isNoDatabase(res tsdb.ExecResult) bool {
	return res.Err == tsdb.ErrNoDatabase.Error()
}

// route is one routed statement's walk down its replica order.
type route struct {
	order   []string // readOrder of the statement's owners
	next    int      // position in order of the next attempt
	noDB    *tsdb.ExecResult
	lastErr error
}

// execRouted routes measurement-scoped statements to their owner
// replicas, one result per statement. Each statement walks its own
// readOrder: healthy owners first, a replica with queued hints last (it
// is known to be missing acknowledged writes until handoff drains). In
// each round the statements are grouped by the replica they try next, and
// every group goes out as one sub-request, the groups concurrently — at
// most one per ring member. A statement whose group failed in transport,
// or that answered no-database, moves on to its next owner in the next
// round on its own, and every attempt after a statement's first counts as
// a read failover. A single statement is a group of one. Each group
// attempt is one cluster.query.node span with the peer, the number of
// statements and a status attribute: "ok", "no-database" (some statement
// of the group answered so) or the transport error.
func (q *DistributedQuerier) execRouted(ctx context.Context, req tsdb.Request, stmts []tsdb.Statement) ([]tsdb.ExecResult, error) {
	results := make([]tsdb.ExecResult, len(stmts))
	routes := make([]route, len(stmts))
	pending := make([]int, len(stmts))
	for i, st := range stmts {
		owners := q.c.owners(req.Database, st.Query.Measurement)
		if len(owners) == 0 {
			return nil, fmt.Errorf("cluster: empty ring")
		}
		routes[i].order = q.c.readOrder(owners)
		pending[i] = i
	}
	tr := obs.TraceFrom(ctx)
	for len(pending) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var peers []string
		groups := make(map[string][]int)
		for _, i := range pending {
			r := &routes[i]
			id := r.order[r.next]
			if r.next > 0 {
				q.c.readFailovers.Add(1)
			}
			r.next++
			if _, ok := groups[id]; !ok {
				peers = append(peers, id)
			}
			groups[id] = append(groups[id], i)
		}
		answers := make([][]tsdb.ExecResult, len(peers))
		errs := make([]error, len(peers))
		var wg sync.WaitGroup
		for g, id := range peers {
			wg.Add(1)
			go func(g int, id string) {
				defer wg.Done()
				answers[g], errs[g] = q.attempt(ctx, tr, id, req, stmts, groups[id])
			}(g, id)
		}
		wg.Wait()
		pending = pending[:0]
		for g, id := range peers {
			for k, i := range groups[id] {
				r := &routes[i]
				switch {
				case errs[g] != nil:
					r.lastErr = errs[g]
				case isNoDatabase(answers[g][k]):
					r.noDB = &answers[g][k]
				default:
					results[i] = answers[g][k]
					continue
				}
				switch {
				case r.next < len(r.order):
					pending = append(pending, i)
				case r.noDB != nil:
					// Every reachable replica lacks the database: same
					// answer a single node would give.
					results[i] = *r.noDB
				default:
					return nil, fmt.Errorf("cluster: all %d replicas failed: %w", len(r.order), r.lastErr)
				}
			}
		}
	}
	return results, nil
}

// attempt sends the statements stmts[idx...] to one replica as a single
// sub-request, recorded as one cluster.query.node span.
func (q *DistributedQuerier) attempt(ctx context.Context, tr *obs.Trace, id string, req tsdb.Request, stmts []tsdb.Statement, idx []int) ([]tsdb.ExecResult, error) {
	group := make([]tsdb.Statement, len(idx))
	for k, i := range idx {
		group[k] = stmts[i]
	}
	sp := tr.Start("cluster.query.node").Attr("peer", id).AttrInt("statements", int64(len(group)))
	res, err := q.queryNode(ctx, id, req, group)
	status := "ok"
	if err != nil {
		status = err.Error()
	} else {
		for _, r := range res {
			if isNoDatabase(r) {
				status = "no-database"
				break
			}
		}
	}
	sp.Attr("status", status).End()
	return res, err
}

// execExplainAnalyze routes EXPLAIN ANALYZE exactly like the SELECT it
// wraps — the chosen replica executes it and returns the SELECT's series
// plus its storage-side profile — and appends the coordinator's routing
// profile as one more series, rendered from the cluster.query.node spans
// the route recorded on a fork of the request's trace: the chosen replica
// and every attempt's timing (DESIGN.md §14).
func (q *DistributedQuerier) execExplainAnalyze(ctx context.Context, req tsdb.Request, st tsdb.Statement) (tsdb.ExecResult, error) {
	parent := obs.TraceFrom(ctx)
	tr := parent.Fork()
	defer parent.Join(tr)
	routed, err := q.execRouted(obs.WithTrace(ctx, tr), req, []tsdb.Statement{st})
	if err != nil {
		return tsdb.ExecResult{}, err
	}
	res := routed[0]
	var attempts []obs.SpanData
	for _, sp := range tr.Spans() {
		if sp.Name == "cluster.query.node" {
			attempts = append(attempts, sp)
		}
	}
	chosen := ""
	if n := len(attempts); n > 0 && attempts[n-1].Attr("status") == "ok" {
		chosen = attempts[n-1].Attr("peer")
	}
	s := tsdb.ResultSeries{
		Name:    tsdb.ExplainClusterSeriesName,
		Columns: []string{"metric", "value"},
		Values: [][]interface{}{
			{"replication", q.c.cfg.Replication},
			{"chosen_replica", chosen},
			{"attempts", len(attempts)},
		},
	}
	for i, at := range attempts {
		p := "attempt_" + strconv.Itoa(i+1)
		s.Values = append(s.Values,
			[]interface{}{p + "_node", at.Attr("peer")},
			[]interface{}{p + "_ns", at.DurNS},
			[]interface{}{p + "_status", at.Attr("status")},
		)
	}
	res.Series = append(res.Series, s)
	return res, nil
}

// fanResults runs one statement on every cluster member concurrently.
func (q *DistributedQuerier) fanResults(ctx context.Context, req tsdb.Request, st tsdb.Statement) ([]tsdb.ExecResult, []error) {
	ids := q.c.ring.Nodes()
	results := make([]tsdb.ExecResult, len(ids))
	errs := make([]error, len(ids))
	done := make(chan int, len(ids))
	for i, id := range ids {
		go func(i int, id string) {
			var res []tsdb.ExecResult
			res, errs[i] = q.queryNode(ctx, id, req, []tsdb.Statement{st})
			if errs[i] == nil {
				results[i] = res[0]
			}
			done <- i
		}(i, id)
	}
	for range ids {
		<-done
	}
	return results, errs
}

// execFanAll answers a cluster-wide metadata statement as the union of
// every reachable node's sorted answer. Down nodes are tolerated: with
// R >= 2 every measurement still has a live owner in the union, so the
// merged answer matches the single-node one with one replica dead — the
// invariant the 3-node harness pins down.
func (q *DistributedQuerier) execFanAll(ctx context.Context, req tsdb.Request, st tsdb.Statement) (tsdb.ExecResult, error) {
	results, errs := q.fanResults(ctx, req, st)
	if err := ctx.Err(); err != nil {
		return tsdb.ExecResult{}, err
	}
	merged := skeletonFor(st)
	seen := make(map[string]struct{})
	var rows []rowKey
	ok, noDB := 0, 0
	var lastErr error
	for i := range results {
		if errs[i] != nil {
			lastErr = errs[i]
			continue
		}
		res := results[i]
		if isNoDatabase(res) {
			noDB++
			continue
		}
		if res.Err != "" {
			// Deterministic statement error: identical on every node.
			return res, nil
		}
		ok++
		for _, s := range res.Series {
			for _, row := range s.Values {
				k := rowString(row)
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = struct{}{}
				rows = append(rows, rowKey{key: k, row: row})
			}
		}
	}
	if ok == 0 {
		if noDB > 0 {
			return tsdb.ExecResult{Err: tsdb.ErrNoDatabase.Error()}, nil
		}
		return tsdb.ExecResult{}, fmt.Errorf("cluster: all %d nodes failed: %w", len(results), lastErr)
	}
	// Each node emits its rows sorted; the union re-sorts on the same keys,
	// so the merged order is the order a single node holding all the data
	// would emit. Values stays nil when the union is empty — the JSON door
	// distinguishes null from [] and a single node emits null.
	sort.Slice(rows, func(a, b int) bool { return rows[a].key < rows[b].key })
	for _, r := range rows {
		merged.Series[0].Values = append(merged.Series[0].Values, r.row)
	}
	return merged, nil
}

// execFanAllStrict runs CREATE/DROP DATABASE on every member. Unreachable
// peers are tolerated (they catch up through ensureDatabase and write
// autocreation), but a peer that was reached and refused — a durable open
// failure, say — surfaces: masking it would acknowledge a database that
// cannot durably exist.
func (q *DistributedQuerier) execFanAllStrict(ctx context.Context, req tsdb.Request, st tsdb.Statement) (tsdb.ExecResult, error) {
	results, errs := q.fanResults(ctx, req, st)
	if err := ctx.Err(); err != nil {
		return tsdb.ExecResult{}, err
	}
	reached := 0
	var lastErr error
	for i := range results {
		if errs[i] != nil {
			lastErr = errs[i]
			continue
		}
		reached++
		if results[i].Err != "" {
			return results[i], nil
		}
	}
	if reached == 0 {
		return tsdb.ExecResult{}, fmt.Errorf("cluster: all %d nodes failed: %w", len(results), lastErr)
	}
	return tsdb.ExecResult{}, nil
}

type rowKey struct {
	key string
	row []interface{}
}

// rowString is the dedupe/sort key of one metadata row. Metadata rows are
// all-string ([name] or [key, value]); the NUL join keeps multi-column
// rows unambiguous and sorts exactly like the per-node sort.Strings order.
func rowString(row []interface{}) string {
	if len(row) == 1 {
		s, _ := row[0].(string)
		return s
	}
	key := ""
	for i, v := range row {
		s, _ := v.(string)
		if i > 0 {
			key += "\x00"
		}
		key += s
	}
	return key
}

// skeletonFor builds the empty result shell of a fanned metadata
// statement with the exact Name/Columns a single node emits, so a merge
// over zero rows still renders byte-identically.
func skeletonFor(st tsdb.Statement) tsdb.ExecResult {
	var s tsdb.ResultSeries
	switch st.Kind {
	case tsdb.StmtShowDatabases:
		s = tsdb.ResultSeries{Name: "databases", Columns: []string{"name"}}
	case tsdb.StmtShowMeasurements:
		s = tsdb.ResultSeries{Name: "measurements", Columns: []string{"name"}}
	case tsdb.StmtShowFieldKeys:
		s = tsdb.ResultSeries{Name: st.Query.Measurement, Columns: []string{"fieldKey"}}
	case tsdb.StmtShowTagKeys:
		s = tsdb.ResultSeries{Name: st.Query.Measurement, Columns: []string{"tagKey"}}
	case tsdb.StmtShowTagValues:
		s = tsdb.ResultSeries{Name: st.Query.Measurement, Columns: []string{"key", "value"}}
	}
	return tsdb.ExecResult{Series: []tsdb.ResultSeries{s}}
}
