package dashboard

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/tsdb"
)

// This file renders panels as text: the replacement for Grafana's graph
// drawing. Graph panels become unicode sparklines with min/max/last
// summaries; table and text panels pass through.

var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as a fixed-height unicode strip. NaNs render as
// spaces. An empty series yields an empty string.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		if math.IsNaN(v) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if math.IsInf(lo, 1) {
		return strings.Repeat(" ", len(values))
	}
	var b strings.Builder
	for _, v := range values {
		if math.IsNaN(v) {
			b.WriteByte(' ')
			continue
		}
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkLevels)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkLevels) {
			idx = len(sparkLevels) - 1
		}
		b.WriteRune(sparkLevels[idx])
	}
	return b.String()
}

// SeriesSummary condenses one query result series for rendering.
type SeriesSummary struct {
	Legend string
	Values []float64
	Min    float64
	Max    float64
	Last   float64
}

// summarize extracts the first value column of a result series.
func summarize(rs tsdb.ResultSeries) SeriesSummary {
	s := SeriesSummary{Min: math.Inf(1), Max: math.Inf(-1), Last: math.NaN()}
	if len(rs.Tags) > 0 {
		var parts []string
		for k, v := range rs.Tags {
			parts = append(parts, k+"="+v)
		}
		if len(parts) == 1 {
			s.Legend = parts[0]
		} else {
			// Deterministic ordering for multi-tag legends.
			for i := 0; i < len(parts); i++ {
				for j := i + 1; j < len(parts); j++ {
					if parts[j] < parts[i] {
						parts[i], parts[j] = parts[j], parts[i]
					}
				}
			}
			s.Legend = strings.Join(parts, ",")
		}
	}
	for _, row := range rs.Values {
		if len(row) < 2 || row[1] == nil {
			s.Values = append(s.Values, math.NaN())
			continue
		}
		v, ok := tsdb.FloatValue(row[1])
		if !ok {
			s.Values = append(s.Values, math.NaN())
			continue
		}
		s.Values = append(s.Values, v)
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		s.Last = v
	}
	if math.IsInf(s.Min, 1) {
		s.Min, s.Max = math.NaN(), math.NaN()
	}
	return s
}

// renderPanels renders panels as text, in order. Every target of every
// panel is parsed once and all their statements go out in ONE request —
// one round trip against a remote querier — as pre-built statements, so
// the local path skips the InfluxQL string round-trip and the remote path
// ships the canonical text. Each target then renders from its own slice
// of the results: graph panels become one sparkline per result series.
// Errors are those rendering the panels one at a time would meet first: a
// panel that cannot be queried (unknown type, unparsable target) stops the
// batch there, and only the panels before it are fetched.
func renderPanels(ctx context.Context, qr tsdb.Querier, dbName string, panels []Panel) ([]string, error) {
	var stmts []tsdb.Statement
	targets := make([][][2]int, len(panels)) // per panel and target: its [lo, hi) results
	stop, stopErr := len(panels), error(nil)
collect:
	for i, p := range panels {
		switch p.Type {
		case "text":
			continue
		case "graph", "table", "histogram":
		default:
			stop, stopErr = i, fmt.Errorf("dashboard: panel %d has unknown type %q", p.ID, p.Type)
			break collect
		}
		for _, tgt := range p.Targets {
			parsed, err := tsdb.ParseQuery(tgt.Query)
			if err != nil {
				stop, stopErr = i, fmt.Errorf("dashboard: panel %d: %w", p.ID, err)
				break collect
			}
			targets[i] = append(targets[i], [2]int{len(stmts), len(stmts) + len(parsed)})
			stmts = append(stmts, parsed...)
		}
	}
	var results []tsdb.ExecResult
	if len(stmts) > 0 {
		resp, err := qr.Query(ctx, tsdb.Request{Database: dbName, Statements: stmts})
		if err == nil && len(resp.Results) != len(stmts) {
			err = fmt.Errorf("%d statements produced %d results", len(stmts), len(resp.Results))
		}
		if err != nil {
			for i := range panels {
				if len(targets[i]) > 0 {
					return nil, fmt.Errorf("dashboard: panel %d: %w", panels[i].ID, err)
				}
			}
		}
		results = resp.Results
	}
	out := make([]string, 0, len(panels))
	for i, p := range panels {
		var b strings.Builder
		fmt.Fprintf(&b, "== %s ==\n", p.Title)
		if p.Type == "text" {
			b.WriteString(p.Content)
			if !strings.HasSuffix(p.Content, "\n") {
				b.WriteByte('\n')
			}
		}
		for _, span := range targets[i] {
			own := results[span[0]:span[1]]
			if err := (tsdb.Response{Results: own}).Err(); err != nil {
				return nil, fmt.Errorf("dashboard: panel %d: %w", p.ID, err)
			}
			for _, res := range own {
				if len(res.Series) == 0 {
					b.WriteString("(no data)\n")
					continue
				}
				for _, rs := range res.Series {
					s := summarize(rs)
					legend := s.Legend
					if legend == "" {
						legend = rs.Name
					}
					if p.Type == "histogram" {
						fmt.Fprintf(&b, "%s (n=%d)\n%s", legend, len(s.Values),
							RenderHistogram(Histogram(s.Values, 10), 40))
						continue
					}
					fmt.Fprintf(&b, "%-28s %s  min %.4g  max %.4g  last %.4g\n",
						legend, Sparkline(s.Values), s.Min, s.Max, s.Last)
				}
			}
		}
		if i == stop {
			return nil, stopErr
		}
		out = append(out, b.String())
	}
	return out, nil
}

// RenderDashboard renders all rows and panels plus the annotation events,
// fetching every query through the given querier: one request for the
// annotations and one for all panels.
func RenderDashboard(ctx context.Context, qr tsdb.Querier, dbName string, d *Dashboard) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s ###\n", d.Title)
	if !d.Time.From.IsZero() {
		fmt.Fprintf(&b, "time range: %s .. %s\n",
			d.Time.From.Format(time.RFC3339), d.Time.To.Format(time.RFC3339))
	}
	var annStmts []tsdb.Statement
	for _, ann := range d.Annotations {
		stmts, err := tsdb.ParseQuery(ann.Query)
		if err != nil {
			continue
		}
		annStmts = append(annStmts, stmts...)
	}
	if len(annStmts) > 0 {
		if resp, err := qr.Query(ctx, tsdb.Request{Database: dbName, Statements: annStmts}); err == nil {
			for _, res := range resp.Results {
				for _, rs := range res.Series {
					for _, row := range rs.Values {
						if len(row) >= 2 {
							if text, ok := row[1].(string); ok {
								fmt.Fprintf(&b, "event @ %v: %s\n", row[0], text)
							}
						}
					}
				}
			}
		}
	}
	var panels []Panel
	for _, row := range d.Rows {
		panels = append(panels, row.Panels...)
	}
	rendered, err := renderPanels(ctx, qr, dbName, panels)
	if err != nil {
		return "", err
	}
	for _, row := range d.Rows {
		fmt.Fprintf(&b, "\n-- %s --\n", row.Title)
		for range row.Panels {
			b.WriteString(rendered[0])
			rendered = rendered[1:]
		}
	}
	return b.String(), nil
}
