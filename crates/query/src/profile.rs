//! Query profiles: the `EXPLAIN ANALYZE` result.
//!
//! [`crate::Engine::profile`] executes a query while recording, per
//! pipeline operator, the rows it produced, the wall time it took, and
//! operator-specific statistics (anchor candidates, variable-length
//! expansion counts, frontier sizes). The resulting [`QueryProfile`]
//! renders as an annotated plan tree — the paper's Section 5 diagnosis
//! ("index lookups are fast, path enumeration explodes") read directly off
//! one query execution.

use frappe_harness::json::json_escape;

/// One profiled pipeline operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpProfile {
    /// Operator name: `IndexLookup`, `Expand`, `Filter`, `Project`,
    /// `Return`.
    pub name: &'static str,
    /// Human-readable operator detail (lookup text, anchor choice, ...).
    pub detail: String,
    /// Rows in the binding table after this operator ran.
    pub rows_out: u64,
    /// Wall time spent in this operator, in nanoseconds. Operators fused
    /// into one streaming segment share a clock: the segment's first
    /// operator (its `Expand`) carries the whole pass, its `Filter`s read
    /// 0, and a `Project` / `Return` carries only its `finish` (see
    /// [`crate::exec`]).
    pub time_ns: u64,
    /// Operator-specific statistics, e.g. `("var_len_expansions", 531)`.
    pub extras: Vec<(&'static str, u64)>,
}

/// The full `EXPLAIN ANALYZE` result for one query execution.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryProfile {
    /// Operators in pipeline order.
    pub ops: Vec<OpProfile>,
    /// End-to-end wall time, in nanoseconds.
    pub total_ns: u64,
    /// Expansion steps consumed (deterministic work measure).
    pub steps: u64,
    /// The query-shape fingerprint (see [`crate::fingerprint`]) — the key
    /// under which this execution aggregates in `frappe-obs` query stats
    /// and the slow-query log.
    pub fingerprint: u64,
    /// The executed plan's digest: cost/row estimates, plan-cache outcome,
    /// and the statistics seed (if the plan was stats-fed). `None` for
    /// profiles built outside the engine (hand-constructed or replayed).
    pub plan: Option<crate::plan::PlanSummary>,
    /// The serve-layer request-trace id this execution ran under, when the
    /// query arrived through `frappe-serve` with tracing enabled — the
    /// same id labels the request span in `/trace`, so operator rows nest
    /// under it. `None` for embedded executions.
    pub request: Option<u64>,
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

impl QueryProfile {
    /// Renders the annotated plan tree:
    ///
    /// ```text
    /// Query fp=a3f1...  [3 rows, 42 steps, 1.20 ms]
    /// +- IndexLookup n <- short_name: main  [rows=1, 10.0 us, hits=1]
    /// +- Expand (2 nodes, 1 rels) via bound variable  [rows=3, 1.10 ms, candidates=1]
    /// `- Return 1 items  [rows=3, 2.0 us]
    /// ```
    pub fn render(&self) -> String {
        let final_rows = self.ops.last().map_or(0, |op| op.rows_out);
        let mut out = format!(
            "Query fp={}  [{} rows, {} steps, {}]\n",
            crate::fingerprint::format_fingerprint(self.fingerprint),
            final_rows,
            self.steps,
            fmt_ns(self.total_ns)
        );
        if let Some(req) = self.request {
            out.pop();
            out.push_str(&format!("  req={req}\n"));
        }
        if let Some(p) = &self.plan {
            out.push_str(&format!(
                "Plan cost={:.1} rows~{:.0} cache={}",
                p.cost, p.rows, p.cache
            ));
            if let Some(s) = &p.seed {
                out.push_str(&format!(
                    " (stats: {} runs, avg {} rows, p50 {} ns)",
                    s.executions, s.avg_rows, s.p50_ns
                ));
            }
            out.push('\n');
        }
        for (i, op) in self.ops.iter().enumerate() {
            let branch = if i + 1 == self.ops.len() { "`-" } else { "+-" };
            let mut annot = format!("rows={}, {}", op.rows_out, fmt_ns(op.time_ns));
            for (k, v) in &op.extras {
                annot.push_str(&format!(", {k}={v}"));
            }
            out.push_str(&format!("{branch} {} {}  [{annot}]\n", op.name, op.detail));
        }
        out
    }

    /// Serializes the profile as JSON (hand-rendered, matching the
    /// workspace's zero-dependency conventions).
    pub fn to_json(&self) -> String {
        render_json(
            &self.ops,
            self.total_ns,
            self.steps,
            self.fingerprint,
            self.request,
        )
    }
}

/// Renders a profile JSON object from borrowed parts (shared by
/// [`QueryProfile::to_json`] and the executor's slow-query-log path, which
/// has the operator list but no owned `QueryProfile`).
pub(crate) fn render_json(
    ops: &[OpProfile],
    total_ns: u64,
    steps: u64,
    fingerprint: u64,
    request: Option<u64>,
) -> String {
    let mut out = format!(
        "{{\"fingerprint\": \"{}\", \"total_ns\": {}, \"steps\": {}",
        crate::fingerprint::format_fingerprint(fingerprint),
        total_ns,
        steps
    );
    if let Some(req) = request {
        out.push_str(&format!(", \"request\": {req}"));
    }
    out.push_str(", \"ops\": [");
    for (i, op) in ops.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"op\": \"{}\", \"detail\": \"{}\", \"rows\": {}, \"time_ns\": {}",
            op.name,
            json_escape(&op.detail),
            op.rows_out,
            op.time_ns
        ));
        for (k, v) in &op.extras {
            out.push_str(&format!(", \"{k}\": {v}"));
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QueryProfile {
        QueryProfile {
            ops: vec![
                OpProfile {
                    name: "IndexLookup",
                    detail: "n <- short_name: main".into(),
                    rows_out: 1,
                    time_ns: 10_000,
                    extras: vec![("hits", 1)],
                },
                OpProfile {
                    name: "Return",
                    detail: "1 items".into(),
                    rows_out: 3,
                    time_ns: 2_500_000,
                    extras: vec![],
                },
            ],
            total_ns: 2_600_000,
            steps: 42,
            fingerprint: 0xdead_beef,
            plan: None,
            request: None,
        }
    }

    #[test]
    fn render_shows_rows_times_and_extras() {
        let text = sample().render();
        assert!(text.starts_with("Query fp=00000000deadbeef  [3 rows, 42 steps, 2.60 ms]"));
        assert!(text.contains("+- IndexLookup n <- short_name: main  [rows=1, 10.0 us, hits=1]"));
        assert!(text.contains("`- Return 1 items  [rows=3, 2.50 ms]"));
    }

    #[test]
    fn json_round_trips_fields() {
        let json = sample().to_json();
        assert!(json.starts_with(
            "{\"fingerprint\": \"00000000deadbeef\", \"total_ns\": 2600000, \"steps\": 42"
        ));
        assert!(json.contains("\"op\": \"IndexLookup\""));
        assert!(json.contains("\"hits\": 1"));
    }

    #[test]
    fn request_linkage_renders_when_present() {
        let plain = sample();
        assert!(!plain.to_json().contains("\"request\""));
        let mut linked = sample();
        linked.request = Some(17);
        assert!(linked
            .to_json()
            .contains("\"steps\": 42, \"request\": 17, \"ops\": ["));
        assert!(linked
            .render()
            .starts_with("Query fp=00000000deadbeef  [3 rows, 42 steps, 2.60 ms]  req=17\n"));
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(999), "999 ns");
        assert_eq!(fmt_ns(1_500), "1.5 us");
        assert_eq!(fmt_ns(2_000_000), "2.00 ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00 s");
    }
}
