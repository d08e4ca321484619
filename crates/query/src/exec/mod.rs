//! Query executor: interprets a bound query ([`crate::binder::BoundQuery`])
//! under a cached plan ([`crate::plan::Plan`]).
//!
//! Queries run as a push pipeline inside one thread. `START` produces the
//! initial binding rows. The stages after it run as *segments*: a `MATCH`,
//! the `WHERE` stages that follow it, and the `WITH` or `RETURN` that ends
//! them. The matcher hands each match straight down its segment (through
//! the filters, into the projection's `push`), so path rows are never
//! collected; a projection's `finish` yields the segment's output table.
//! Rows are materialized only between segments: as a projection's output,
//! or as the input of a `MATCH` that directly follows another `MATCH`.
//! Variables were resolved to row slots by the binder, so the hot loops
//! never touch variable names.
//!
//! Fusing changes when rows are produced, not which rows, their order, or
//! the `steps` they cost: every tick happens at the same place, only
//! interleaved. `EXPLAIN ANALYZE` keeps one operator per stage with the
//! same `rows_out`. Time is reported per segment: the segment's first
//! operator (its `Expand`, when it has one) carries the wall time of the
//! whole streaming pass, which includes the filters and the projection
//! pushes downstream of it; those filters report no time of their own,
//! and a projection reports only its `finish` (sort, `SKIP` / `LIMIT`,
//! group finalization). An `Expand`'s `steps` and expansion counters stay
//! its own: pattern predicates evaluated downstream are kept out of them.
//!
//! The module is split by pipeline role:
//!
//! * [`scan`] — anchor resolution and candidate materialization;
//! * [`expand`] — the pattern matcher (chain expansion, variable-length
//!   DFS/BFS, the `Trail` undo log);
//! * [`filter`] — expression evaluation over rows;
//! * [`aggregate`] — grouped accumulation for `count/sum/avg/min/max`;
//! * [`sink`] — the shared projection tail (`DISTINCT`, `ORDER BY`,
//!   `SKIP`, `LIMIT`) used by `WITH` and `RETURN`.
//!
//! ## Pattern matching strategy
//!
//! Each pattern is a chain of node and relationship patterns. The planner
//! fixes an *anchor* per pattern by cost ([`crate::plan`]); from the anchor
//! the matcher expands hop by hop to the right, then to the left. When a
//! planned bound-variable anchor turns out `NULL` at runtime (a projected
//! null flowing into a pattern), the anchor is re-chosen per row with the
//! same priority the planner models.
//!
//! ## Variable-length semantics (the Table 5 story)
//!
//! [`PathSemantics::Enumerate`] (the default) expands `*` patterns by
//! depth-first *path enumeration* with relationship uniqueness — Cypher's
//! semantics. The number of paths in a dense call graph grows explosively,
//! which is why the paper's Figure 6 query "does not terminate within 15
//! minutes". Every expansion consumes budget; exhaustion aborts with
//! [`QueryError::BudgetExhausted`] rather than hanging.
//!
//! [`PathSemantics::Reachability`] expands `*` patterns with a visited-set
//! BFS — each reachable endpoint is produced once. This is the specialized
//! traversal of Section 6.1, exposed as an engine option so the two can be
//! compared on identical queries.

mod aggregate;
mod expand;
mod filter;
mod scan;
mod sink;
#[cfg(test)]
mod tests;

use crate::ast::{ExplainMode, Query};
use crate::binder::{BoundExpr, BoundProjection, BoundStage};
use crate::error::QueryError;
use crate::plan::{AnchorSel, PlanCache, PlanCacheStats, PlanSummary, PlannedAnchor};
use crate::profile::{OpProfile, QueryProfile};
use crate::value::Value;
use frappe_model::{NodeId, PropKey, PropValue};
use frappe_store::GraphView;
use sink::Projector;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How variable-length patterns are expanded.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PathSemantics {
    /// Cypher-style relationship-unique path enumeration (default — and the
    /// cause of the Table 5 comprehension abort).
    #[default]
    Enumerate,
    /// Visited-set reachability (the Section 6.1 specialized traversal).
    Reachability,
}

/// Executor configuration.
#[derive(Clone, Copy, Debug)]
pub struct EngineOptions {
    /// Variable-length expansion semantics.
    pub path_semantics: PathSemantics,
    /// Abort after this many expansion steps.
    pub max_steps: u64,
    /// Abort after this wall-clock time.
    pub timeout: Option<Duration>,
    /// Re-plan a cached plan when the live mean rows per execution drifts
    /// more than this factor (in either direction) from the statistics
    /// seed the plan was built with.
    pub stats_drift_factor: f64,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            path_semantics: PathSemantics::Enumerate,
            max_steps: 50_000_000,
            timeout: None,
            stats_drift_factor: 4.0,
        }
    }
}

/// The query engine. Cloning shares the plan cache (an engine is a handle);
/// a fresh engine starts with an empty cache.
#[derive(Clone, Debug, Default)]
pub struct Engine {
    /// Configuration used by [`Engine::run`].
    pub options: EngineOptions,
    cache: Arc<PlanCache>,
}

/// A query result table.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultSet {
    /// Column names from the `RETURN` items.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
    /// Expansion steps consumed (a deterministic work measure).
    pub steps: u64,
}

impl ResultSet {
    /// Renders an aligned text table (for examples and the report binary).
    pub fn to_table(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        out.push('\n');
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                out.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

impl Engine {
    /// Creates an engine with default options.
    pub fn new() -> Engine {
        Engine::default()
    }

    /// Creates an engine with the given options (and a fresh plan cache).
    pub fn with_options(options: EngineOptions) -> Engine {
        Engine {
            options,
            cache: Arc::default(),
        }
    }

    /// Point-in-time statistics of this engine's plan cache.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.cache.stats()
    }

    /// Runs `query` against `g`. Queries carrying an `EXPLAIN` /
    /// `EXPLAIN ANALYZE` prefix return a single-column `plan` table
    /// instead of their normal result (Cypher behaviour): `EXPLAIN` renders
    /// the plan without executing, `EXPLAIN ANALYZE` executes and annotates
    /// each operator with actual rows and timings.
    pub fn run<G: GraphView>(&self, g: &G, query: &Query) -> Result<ResultSet, QueryError> {
        let plan_rows = |text: &str| -> Vec<Vec<Value>> {
            text.lines()
                .map(|l| vec![Value::Scalar(PropValue::Str(l.to_owned()))])
                .collect()
        };
        match query.explain {
            ExplainMode::None => self.run_impl(g, query, None).map(|(r, _)| r),
            ExplainMode::Plan => Ok(ResultSet {
                columns: vec!["plan".to_owned()],
                rows: plan_rows(&self.explain(g, query)),
                steps: 0,
            }),
            ExplainMode::Analyze => {
                let (result, profile) = self.profile(g, query)?;
                Ok(ResultSet {
                    columns: vec!["plan".to_owned()],
                    rows: plan_rows(&profile.render()),
                    steps: result.steps,
                })
            }
        }
    }

    /// Executes `query` while recording per-operator rows, timings, and
    /// expansion statistics. The profile is collected regardless of the
    /// global [`frappe_obs::ObsLevel`] — profiling is an explicit opt-in
    /// for this one execution, not a passive counter.
    pub fn profile<G: GraphView>(
        &self,
        g: &G,
        query: &Query,
    ) -> Result<(ResultSet, QueryProfile), QueryError> {
        let mut ops = Vec::new();
        let start = Instant::now();
        let (result, plan) = self.run_impl(g, query, Some(&mut ops))?;
        let profile = QueryProfile {
            ops,
            total_ns: elapsed_ns(start),
            steps: result.steps,
            fingerprint: query.fingerprint,
            plan: Some(plan),
            request: frappe_obs::reqtrace::current_id(),
        };
        Ok((result, profile))
    }

    /// Executes the query and feeds the operational-observability surfaces
    /// in `frappe-obs`: per-fingerprint statistics (count, rows, errors,
    /// latency histogram) and, when the slow-query log is armed and the
    /// execution crosses its threshold, a full per-operator profile record.
    ///
    /// At [`frappe_obs::ObsLevel::Off`] this is one relaxed load and a tail
    /// call — the overhead contract of `obs_overhead.rs` is unchanged.
    fn run_impl<G: GraphView>(
        &self,
        g: &G,
        query: &Query,
        mut prof: Option<&mut Vec<OpProfile>>,
    ) -> Result<(ResultSet, PlanSummary), QueryError> {
        if !frappe_obs::counters_enabled() {
            return self.run_core(g, query, prof);
        }
        let slowlog = frappe_obs::slowlog();
        // The serve worker registers the request trace on this thread before
        // calling in; operator breakdowns captured here nest under that
        // request's exec span in `/trace`.
        let traced = frappe_obs::reqtrace::current_id();
        // The slow-query log (and the request tracer) want the per-operator
        // breakdown of offending queries, so either being armed opts plain
        // `run` calls into profile collection (deterministic results are
        // unaffected — profiling only samples clocks and row counts).
        let capture_local = (slowlog.enabled() || traced.is_some()) && prof.is_none();
        let mut local_ops: Vec<OpProfile> = Vec::new();
        let start = Instant::now();
        let result = {
            let sink = if capture_local {
                Some(&mut local_ops)
            } else {
                prof.as_deref_mut()
            };
            self.run_core(g, query, sink)
        };
        let total_ns = elapsed_ns(start);
        let (rows, steps, error) = match &result {
            Ok((r, _)) => (r.rows.len() as u64, r.steps, None),
            Err(e) => (0, 0, Some(e.to_string())),
        };
        if error.is_some() {
            frappe_obs::counter!("query.errors").incr();
        }
        frappe_obs::query_stats().observe(
            query.fingerprint,
            &query.normalized,
            total_ns,
            rows,
            error.is_some(),
        );
        let ops: &[OpProfile] = if capture_local {
            &local_ops
        } else {
            prof.as_deref().map_or(&[][..], |v| &v[..])
        };
        if traced.is_some() {
            frappe_obs::reqtrace::with_current(|b| {
                b.set_ops(ops.iter().map(|o| (o.name, o.time_ns)).collect());
            });
        }
        if slowlog.enabled() && total_ns >= slowlog.threshold_ns() {
            let seq = slowlog.record(frappe_obs::SlowQueryEntry {
                fingerprint: query.fingerprint,
                normalized: query.normalized.clone(),
                total_ns,
                rows,
                steps,
                error,
                profile_json: crate::profile::render_json(
                    ops,
                    total_ns,
                    steps,
                    query.fingerprint,
                    traced,
                ),
                phases: None,
            });
            // The write phase isn't over yet — the request tracer patches
            // the phase breakdown onto this record when the reply flushes.
            frappe_obs::reqtrace::with_current(|b| b.set_slowlog_seq(seq));
        }
        result
    }

    fn run_core<G: GraphView>(
        &self,
        g: &G,
        query: &Query,
        mut prof: Option<&mut Vec<OpProfile>>,
    ) -> Result<(ResultSet, PlanSummary), QueryError> {
        let _timer = frappe_obs::histogram!("query.run_ns").start();
        let _span = frappe_obs::span!("query.run");
        frappe_obs::counter!("query.runs").incr();
        let bound = &query.bound;

        // Plan lookup: cached per fingerprint, seeded from live statistics.
        let (plan, outcome) = self.cache.lookup_or_plan(
            g,
            bound,
            query.fingerprint,
            self.options.path_semantics,
            self.options.stats_drift_factor,
        );
        if frappe_obs::counters_enabled() {
            use crate::plan::CacheOutcome;
            match outcome {
                CacheOutcome::Hit => frappe_obs::counter!("query.plan_cache.hits").incr(),
                CacheOutcome::Miss => frappe_obs::counter!("query.plan_cache.misses").incr(),
                CacheOutcome::Reseeded => frappe_obs::counter!("query.plan_cache.reseeds").incr(),
                CacheOutcome::Invalidated | CacheOutcome::GraphChanged => {
                    frappe_obs::counter!("query.plan_cache.invalidations").incr()
                }
            }
        }
        let summary = PlanSummary {
            cost: plan.est_cost,
            rows: plan.est_rows,
            cache: outcome.name(),
            seed: plan.seed,
        };

        let mut budget = Budget::new(self.options.max_steps, self.options.timeout);
        let mut ctx = Ctx {
            g,
            semantics: self.options.path_semantics,
            budget: &mut budget,
            stats: ExecStats {
                enabled: prof.is_some(),
                ..Default::default()
            },
        };

        // START: cartesian product of index lookups.
        let mut rows: Vec<Row> = vec![Vec::new()];
        for item in &bound.starts {
            let t0 = prof.is_some().then(Instant::now);
            let hits = item.lookup.eval(g)?;
            let n_hits = hits.len() as u64;
            rows = cross_bind(rows, item.slot, hits);
            if let Some(ops) = prof.as_deref_mut() {
                ops.push(OpProfile {
                    name: "IndexLookup",
                    detail: format!("{} <- {:?}", item.var, item.lookup),
                    rows_out: rows.len() as u64,
                    time_ns: t0.map_or(0, elapsed_ns),
                    extras: vec![("hits", n_hits)],
                });
            }
        }

        // The stages run as fused segments; rows are materialized only
        // between segments (see the module docs).
        let stages = &bound.stages;
        let mut next_anchor = 0usize;
        let mut i = 0usize;
        loop {
            let head = match stages.get(i) {
                Some(BoundStage::Expand(p)) => {
                    i += 1;
                    Some(p)
                }
                _ => None,
            };
            let mut filters = Vec::new();
            while let Some(BoundStage::Filter(e)) = stages.get(i) {
                filters.push((e, 0));
                i += 1;
            }
            let end = match stages.get(i) {
                Some(BoundStage::Project(proj)) => {
                    i += 1;
                    End::Project { proj, last: false }
                }
                // The next stage is another MATCH.
                Some(_) => End::Collect,
                None => End::Project {
                    proj: &bound.ret,
                    last: true,
                },
            };
            let mut chain = Chain {
                pushed: 0,
                filters,
                tail: match end {
                    End::Project { proj, .. } => Tail::Project(Projector::new(proj)),
                    End::Collect => Tail::Collect(Vec::new()),
                },
            };

            let t0 = prof.is_some().then(Instant::now);
            let mut expand_steps = 0;
            if let Some(p) = head {
                let steps_before = ctx.budget.steps;
                ctx.stats.reset_pattern();
                let anchor = plan.anchors.get(next_anchor).copied().unwrap_or(
                    // Unreachable in practice (plans mirror stage
                    // structure); scanning everything stays correct.
                    PlannedAnchor {
                        index: 0,
                        sel: AnchorSel::AllNodes,
                    },
                );
                next_anchor += 1;
                let mut downstream_steps = 0;
                expand::expand_pattern(&mut ctx, &rows, p, anchor, &mut |ctx, row| {
                    if !ctx.stats.enabled {
                        return chain.push(ctx, row);
                    }
                    // Pattern predicates downstream run the matcher too;
                    // keep them out of this Expand's statistics, as when
                    // they ran after it.
                    let (stats, steps) = (ctx.stats, ctx.budget.steps);
                    let pushed = chain.push(ctx, row);
                    downstream_steps += ctx.budget.steps - steps;
                    ctx.stats = stats;
                    pushed
                })?;
                expand_steps = ctx.budget.steps - steps_before - downstream_steps;
            } else {
                for row in &rows {
                    chain.push(&mut ctx, row)?;
                }
            }
            let drive_ns = t0.map_or(0, elapsed_ns);
            let t1 = prof.is_some().then(Instant::now);
            rows = match chain.tail {
                Tail::Project(p) => p.finish(),
                Tail::Collect(rows) => rows,
            };
            let finish_ns = t1.map_or(0, elapsed_ns);

            if let Some(ops) = prof.as_deref_mut() {
                let first = ops.len();
                if let Some(p) = head {
                    let mut extras = vec![
                        ("candidates", ctx.stats.candidates),
                        ("steps", expand_steps),
                    ];
                    if p.rels.iter().any(|r| r.var_len.is_some()) {
                        extras.push(("var_len_expansions", ctx.stats.var_len_expansions));
                        extras.push(("var_len_max_depth", ctx.stats.var_len_max_depth as u64));
                        extras.push(("var_len_max_frontier", ctx.stats.var_len_max_frontier));
                    }
                    ops.push(OpProfile {
                        name: "Expand",
                        detail: format!(
                            "({} nodes, {} rels) via {}",
                            p.nodes.len(),
                            p.rels.len(),
                            ctx.stats.last_anchor.unwrap_or("unknown anchor"),
                        ),
                        rows_out: chain.pushed,
                        time_ns: 0,
                        extras,
                    });
                }
                let mut rows_in = chain.pushed;
                for &(_, passed) in &chain.filters {
                    ops.push(OpProfile {
                        name: "Filter",
                        detail: String::new(),
                        rows_out: passed,
                        time_ns: 0,
                        extras: vec![("rows_in", rows_in)],
                    });
                    rows_in = passed;
                }
                if let End::Project { proj, last } = end {
                    let distinct = if proj.distinct { "distinct " } else { "" };
                    let (name, detail) = if !last {
                        let items: Vec<&str> = proj.items.iter().map(|i| i.name.as_str()).collect();
                        ("Project", format!("{distinct}[{}]", items.join(", ")))
                    } else if proj.aggregated {
                        let n = proj.items.len();
                        ("Return", format!("{n} items (grouped aggregate)"))
                    } else {
                        ("Return", format!("{distinct}{} items", proj.items.len()))
                    };
                    ops.push(OpProfile {
                        name,
                        detail,
                        rows_out: rows.len() as u64,
                        time_ns: finish_ns,
                        extras: Vec::new(),
                    });
                }
                // The segment's first operator drove it.
                ops[first].time_ns += drive_ns;
            }
            if let End::Project { last: true, .. } = end {
                break;
            }
        }
        Ok((
            ResultSet {
                columns: bound.ret.items.iter().map(|i| i.name.clone()).collect(),
                rows,
                steps: budget.steps,
            },
            summary,
        ))
    }

    /// Parses and runs a query in one call.
    pub fn run_str<G: GraphView>(&self, g: &G, text: &str) -> Result<ResultSet, QueryError> {
        self.run(g, &Query::parse(text)?)
    }

    /// Produces a textual plan: the cache outcome, total cost/cardinality
    /// estimate, and per-operator estimates (anchor choices, expansion
    /// order). Consults the plan cache read-only — `EXPLAIN` never executes
    /// or caches.
    pub fn explain<G: GraphView>(&self, g: &G, query: &Query) -> String {
        let bound = &query.bound;
        let (plan, outcome) = self.cache.peek(
            g,
            bound,
            query.fingerprint,
            self.options.path_semantics,
            self.options.stats_drift_factor,
        );
        let mut out = format!(
            "Plan cost={:.1} rows~{:.0} cache={}",
            plan.est_cost,
            plan.est_rows,
            outcome.name()
        );
        if let Some(s) = &plan.seed {
            out.push_str(&format!(
                " (stats: {} runs, avg {} rows, p50 {} ns)",
                s.executions, s.avg_rows, s.p50_ns
            ));
        }
        out.push('\n');
        let mut ests = plan.op_ests.iter();
        let mut line = |body: String, out: &mut String| {
            out.push_str(&body);
            if let Some(e) = ests.next() {
                out.push_str(&format!("  [cost={:.1} rows~{:.0}]", e.cost, e.rows));
            }
            out.push('\n');
        };
        for s in &bound.starts {
            line(format!("IndexLookup {} <- {:?}", s.var, s.lookup), &mut out);
        }
        let mut next_anchor = 0usize;
        for stage in &bound.stages {
            match stage {
                BoundStage::Expand(p) => {
                    let (idx, describe) = plan
                        .anchors
                        .get(next_anchor)
                        .map_or((0, "all-nodes scan"), |a| (a.index, a.sel.describe()));
                    next_anchor += 1;
                    line(
                        format!(
                            "Expand pattern ({} nodes, {} rels) from anchor #{} [{}]",
                            p.nodes.len(),
                            p.rels.len(),
                            idx,
                            describe
                        ),
                        &mut out,
                    );
                }
                BoundStage::Filter(_) => line("Filter".to_owned(), &mut out),
                BoundStage::Project(proj) => line(
                    format!(
                        "Project{} [{}]",
                        if proj.distinct { " distinct" } else { "" },
                        proj.items
                            .iter()
                            .map(|i| i.name.as_str())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                    &mut out,
                ),
            }
        }
        line(
            format!(
                "Return{} ({} items)",
                if bound.ret.distinct { " distinct" } else { "" },
                bound.ret.items.len()
            ),
            &mut out,
        );
        out
    }
}

// ----------------------------------------------------------------------
// Rows
// ----------------------------------------------------------------------

/// A binding row: one [`Value`] per slot, grown lazily (absent slots read
/// as [`Value::Null`]).
pub(crate) type Row = Vec<Value>;

/// Cartesian product with a list of nodes bound to `slot`.
fn cross_bind(rows: Vec<Row>, slot: usize, nodes: Vec<NodeId>) -> Vec<Row> {
    let mut out = Vec::with_capacity(rows.len() * nodes.len().max(1));
    for row in &rows {
        for n in &nodes {
            let mut r = row.clone();
            grow(&mut r, slot);
            r[slot] = Value::Node(*n);
            out.push(r);
        }
    }
    out
}

pub(crate) fn grow(row: &mut Row, slot: usize) {
    if row.len() <= slot {
        row.resize(slot + 1, Value::Null);
    }
}

pub(crate) fn get(row: &Row, slot: usize) -> &Value {
    row.get(slot).unwrap_or(&Value::Null)
}

/// Whether `k` is backed by the name index (an anchor opportunity).
pub(crate) fn is_name_key(k: PropKey) -> bool {
    matches!(k, PropKey::ShortName | PropKey::Name)
}

// ----------------------------------------------------------------------
// Segments
// ----------------------------------------------------------------------

/// What ends a segment.
#[derive(Clone, Copy)]
enum End<'q> {
    /// A `WITH` projection, or with `last` set, the final `RETURN`.
    Project {
        proj: &'q BoundProjection,
        last: bool,
    },
    /// No projection before the next `MATCH`: the rows are collected as
    /// that `MATCH`'s input.
    Collect,
}

/// The consumer side of a segment: its `WHERE` stages, then the
/// projection (or collector) that ends it.
struct Chain<'q> {
    /// Rows pushed in: the driving `Expand`'s output count.
    pushed: u64,
    /// Each `WHERE` with the number of rows it passed.
    filters: Vec<(&'q BoundExpr, u64)>,
    tail: Tail<'q>,
}

enum Tail<'q> {
    Project(Projector<'q>),
    Collect(Vec<Row>),
}

impl Chain<'_> {
    fn push<G: GraphView>(&mut self, ctx: &mut Ctx<'_, G>, row: &Row) -> Result<(), QueryError> {
        self.pushed += 1;
        for (e, passed) in &mut self.filters {
            if !filter::eval_truthy(ctx, row, e)? {
                return Ok(());
            }
            *passed += 1;
        }
        match &mut self.tail {
            Tail::Project(p) => p.push(ctx, row),
            Tail::Collect(rows) => {
                rows.push(row.clone());
                Ok(())
            }
        }
    }
}

// ----------------------------------------------------------------------
// Budget
// ----------------------------------------------------------------------

pub(crate) struct Budget {
    pub(crate) steps: u64,
    max_steps: u64,
    deadline: Option<Instant>,
    limit_ms: u64,
}

impl Budget {
    fn new(max_steps: u64, timeout: Option<Duration>) -> Budget {
        Budget {
            steps: 0,
            max_steps,
            deadline: timeout.map(|t| Instant::now() + t),
            limit_ms: timeout.map_or(0, |t| t.as_millis() as u64),
        }
    }

    #[inline]
    pub(crate) fn tick(&mut self) -> Result<(), QueryError> {
        self.steps += 1;
        if self.steps > self.max_steps {
            return Err(QueryError::BudgetExhausted { steps: self.steps });
        }
        if self.steps.is_multiple_of(4096) {
            if let Some(d) = self.deadline {
                if Instant::now() >= d {
                    return Err(QueryError::Timeout {
                        limit_ms: self.limit_ms,
                    });
                }
            }
        }
        Ok(())
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Per-pattern execution statistics for [`Engine::profile`]. Collection is
/// opt-in (`enabled`); when off every sampling site is a single branch on a
/// plain bool, so unprofiled runs are unperturbed.
#[derive(Default, Clone, Copy)]
pub(crate) struct ExecStats {
    pub(crate) enabled: bool,
    /// Anchor candidate nodes considered for the current pattern.
    pub(crate) candidates: u64,
    /// How the most recent pattern's anchor was chosen.
    pub(crate) last_anchor: Option<&'static str>,
    /// Edge traversals inside variable-length expansion.
    pub(crate) var_len_expansions: u64,
    /// Deepest hop count reached by variable-length expansion.
    pub(crate) var_len_max_depth: u32,
    /// Largest BFS frontier (reachability semantics only).
    pub(crate) var_len_max_frontier: u64,
}

impl ExecStats {
    fn reset_pattern(&mut self) {
        *self = ExecStats {
            enabled: self.enabled,
            ..Default::default()
        };
    }
}

pub(crate) struct Ctx<'a, G: GraphView> {
    pub(crate) g: &'a G,
    pub(crate) semantics: PathSemantics,
    pub(crate) budget: &'a mut Budget,
    pub(crate) stats: ExecStats,
}
