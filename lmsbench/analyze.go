package main

// Per-layer breakdown of a traced run.

import "math"

// breakdown aggregates the spans of one operation kind.
type breakdown struct {
	ops     int
	opNS    int64            // summed operation durations
	self    map[string]int64 // layer (layerOp = unattributed) → summed self time
	count   map[string]int   // layer → spans
	durNS   map[string]int64 // layer → summed span durations
	size    map[string]int64 // layer → summed span sizes (response bytes of handler spans)
	coordNS int64            // coordinator /query time not covered by its nested peer queries
	stmts   int64            // statements sent to the coordinator
	fanAll  int64            // of which every node answers
}

// analyzeSpans computes the breakdown of every operation kind in layersOf.
func analyzeSpans(rec *recorder) map[string]*breakdown {
	byOp := map[string][]span{}
	for _, s := range rec.spans {
		if s.op != "" {
			byOp[s.op] = append(byOp[s.op], s)
		}
	}
	out := map[string]*breakdown{}
	for _, spans := range byOp {
		var op *span
		for i := range spans {
			if spans[i].layer == layerOp {
				op = &spans[i]
			}
		}
		if op == nil {
			continue
		}
		layers, ok := layersOf[op.role]
		if !ok {
			continue
		}
		b := out[op.role]
		if b == nil {
			b = &breakdown{self: map[string]int64{}, count: map[string]int{},
				durNS: map[string]int64{}, size: map[string]int64{}}
			out[op.role] = b
		}
		b.add(*op, spans, layers)
	}
	return out
}

func (b *breakdown) add(op span, spans []span, layers []string) {
	b.ops++
	b.opNS += op.end - op.start
	ivs := make([][]ival, len(layers))
	index := map[string]int{}
	for i, l := range layers {
		index[l] = i
	}
	// The analysis layer is the evaluator's stretch of the view: from its
	// first to the end of its last Querier call.
	var evalFirst, evalLast int64 = math.MaxInt64, math.MinInt64
	var nested []ival
	for _, s := range spans {
		if s.layer == layerOp {
			continue
		}
		if i, ok := index[s.layer]; ok {
			ivs[i] = append(ivs[i], ival{s.start, s.end})
		}
		b.count[s.layer]++
		b.durNS[s.layer] += s.end - s.start
		b.size[s.layer] += s.n
		switch {
		case s.layer == layerClient && s.role == layerAnalysis:
			evalFirst = min(evalFirst, s.start)
			evalLast = max(evalLast, s.end)
		case s.layer == layerTSDBQuery:
			nested = append(nested, ival{s.start, s.end})
		case s.layer == layerClusterQuery:
			b.stmts += s.n
			b.fanAll += s.fanAll
		}
	}
	if i, ok := index[layerAnalysis]; ok && evalFirst < evalLast {
		ivs[i] = append(ivs[i], ival{evalFirst, evalLast})
	}
	for _, s := range spans {
		if s.layer == layerClusterQuery {
			var in []ival
			for _, n := range nested {
				if n.start >= s.start && n.end <= s.end {
					in = append(in, n)
				}
			}
			self := layerSelf(ival{s.start, s.end}, [][]ival{in})
			b.coordNS += self[0]
		}
	}
	self := layerSelf(ival{op.start, op.end}, ivs)
	b.self[layerOp] += self[0]
	for i, l := range layers {
		b.self[l] += self[i+1]
	}
}

// perOp returns a layer's mean self time per operation in unit (ns per
// unit).
func (b *breakdown) perOp(layer string, unit float64) float64 {
	if b == nil || b.ops == 0 {
		return 0
	}
	return float64(b.self[layer]) / float64(b.ops) / unit
}

func (b *breakdown) spansPerOp(layer string) float64 {
	if b == nil || b.ops == 0 {
		return 0
	}
	return float64(b.count[layer]) / float64(b.ops)
}

// meanDur is a layer's mean span duration in unit.
func (b *breakdown) meanDur(layer string, unit float64) float64 {
	if b == nil || b.count[layer] == 0 {
		return 0
	}
	return float64(b.durNS[layer]) / float64(b.count[layer]) / unit
}

func (b *breakdown) meanBytes(layer string) float64 {
	if b == nil || b.count[layer] == 0 {
		return 0
	}
	return float64(b.size[layer]) / float64(b.count[layer])
}

// remoteShare is statements the coordinator forwarded over HTTP divided
// by statements it answered from its own store. A routed statement runs
// on one node, a fanned one on every node.
func (b *breakdown) remoteShare() float64 {
	if b == nil {
		return 0
	}
	forwarded := int64(b.count[layerTSDBQuery])
	executions := (b.stmts - b.fanAll) + b.fanAll*numNodes
	local := executions - forwarded
	if local <= 0 {
		return 0
	}
	return float64(forwarded) / float64(local)
}

// explainPerOp averages the EXPLAIN ANALYZE profiles over the sampled
// operations of the given ids.
func explainPerOp(rec *recorder, ops map[string]bool) (points, chunks float64, sampled int) {
	seen := map[string]bool{}
	for _, e := range rec.explain {
		if !ops[e.op] {
			continue
		}
		seen[e.op] = true
		points += e.pointsExamined
		chunks += e.chunksDecoded
	}
	if len(seen) == 0 {
		return 0, 0, 0
	}
	return points / float64(len(seen)), chunks / float64(len(seen)), len(seen)
}

// opsOfKind lists the ids of a kind's operations.
func opsOfKind(rec *recorder, kind string) map[string]bool {
	out := map[string]bool{}
	for _, s := range rec.spans {
		if s.layer == layerOp && s.role == kind {
			out[s.op] = true
		}
	}
	return out
}
