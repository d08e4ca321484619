//! Grouped aggregation for `count` / `sum` / `avg` / `min` / `max`.
//!
//! Cypher groups implicitly: the non-aggregate items of the projection are
//! the group key. Groups are kept in first-seen order, so un-sorted
//! aggregate output is deterministic for a given input order (the golden
//! battery relies on this). The binder guarantees aggregate items are
//! built only from aggregate calls, literals, and arithmetic over them, so
//! post-group evaluation needs no input row.
//!
//! `avg()` is integer mean (truncating division), matching the engine's
//! int-only arithmetic; an empty group (all-null argument) yields `NULL`.

use super::{Ctx, Row};
use crate::ast::AggFunc;
use crate::binder::{BoundExpr, BoundProjection, OrderKey};
use crate::error::QueryError;
use crate::exec::{filter, sink};
use crate::value::Value;
use frappe_model::PropValue;
use frappe_store::GraphView;
use std::collections::HashMap;

/// A running accumulator.
enum Acc {
    Count(u64),
    Sum(i64),
    Avg(i64, u64),
    Min(Option<Value>),
    Max(Option<Value>),
}

impl Acc {
    fn new(func: AggFunc) -> Acc {
        match func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum(0),
            AggFunc::Avg => Acc::Avg(0, 0),
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
        }
    }

    /// Folds one per-row value in. `v` is `None` only for `count(*)`.
    fn update(&mut self, v: Option<Value>) {
        match self {
            Acc::Count(c) => match v {
                None => *c += 1,
                Some(v) if !v.is_null() => *c += 1,
                Some(_) => {}
            },
            Acc::Sum(s) => {
                if let Some(i) = v.as_ref().and_then(filter::as_int) {
                    *s = s.wrapping_add(i);
                }
            }
            Acc::Avg(s, c) => {
                if let Some(i) = v.as_ref().and_then(filter::as_int) {
                    *s = s.wrapping_add(i);
                    *c += 1;
                }
            }
            Acc::Min(best) => {
                if let Some(v) = v.filter(|v| !v.is_null()) {
                    let keep = best
                        .as_ref()
                        .is_none_or(|b| filter::value_cmp(&v, b) == std::cmp::Ordering::Less);
                    if keep {
                        *best = Some(v);
                    }
                }
            }
            Acc::Max(best) => {
                if let Some(v) = v.filter(|v| !v.is_null()) {
                    let keep = best
                        .as_ref()
                        .is_none_or(|b| filter::value_cmp(&v, b) == std::cmp::Ordering::Greater);
                    if keep {
                        *best = Some(v);
                    }
                }
            }
        }
    }

    fn finish(self) -> Value {
        match self {
            Acc::Count(c) => Value::Scalar(PropValue::Int(c as i64)),
            Acc::Sum(s) => Value::Scalar(PropValue::Int(s)),
            Acc::Avg(_, 0) => Value::Null,
            Acc::Avg(s, c) => Value::Scalar(PropValue::Int(s.wrapping_div(c as i64))),
            Acc::Min(best) | Acc::Max(best) => best.unwrap_or(Value::Null),
        }
    }
}

/// Aggregate calls of an item tree in accumulator order (the binder
/// allocates indices in the same a-then-b walk).
fn collect_specs<'e>(expr: &'e BoundExpr, out: &mut Vec<Option<(AggFunc, Option<&'e BoundExpr>)>>) {
    match expr {
        BoundExpr::Agg { func, arg, acc } => {
            if out.len() <= *acc {
                out.resize(*acc + 1, None);
            }
            out[*acc] = Some((*func, arg.as_deref()));
        }
        BoundExpr::Arith(a, _, b) => {
            collect_specs(a, out);
            collect_specs(b, out);
        }
        _ => {}
    }
}

/// Evaluates an aggregate item post-grouping: aggregate calls read their
/// finalized accumulator; the rest is literal arithmetic.
fn eval_finished(expr: &BoundExpr, accs: &[Value]) -> Value {
    match expr {
        BoundExpr::Agg { acc, .. } => accs.get(*acc).cloned().unwrap_or(Value::Null),
        BoundExpr::Lit(v) => Value::Scalar(v.clone()),
        BoundExpr::Null => Value::Null,
        BoundExpr::Arith(a, op, b) => {
            filter::arith(&eval_finished(a, accs), *op, &eval_finished(b, accs))
        }
        // The binder rejects per-row references inside aggregate items.
        _ => Value::Null,
    }
}

/// An aggregated projection fed one row at a time: rows are grouped by
/// the non-aggregate items (first-seen order) and folded into their
/// group's accumulators as they arrive; [`Groups::finish`] finalizes one
/// row per group, then `ORDER BY` (output columns only) / `SKIP` / `LIMIT`.
pub(super) struct Groups<'q> {
    proj: &'q BoundProjection,
    specs: Vec<Option<(AggFunc, Option<&'q BoundExpr>)>>,
    index: HashMap<Vec<Value>, usize>,
    groups: Vec<(Vec<Value>, Vec<Acc>)>,
    /// The group-key buffer, reused across pushes.
    key: Vec<Value>,
}

impl<'q> Groups<'q> {
    pub(super) fn new(proj: &'q BoundProjection) -> Groups<'q> {
        let mut specs = Vec::with_capacity(proj.n_accs);
        for item in &proj.items {
            collect_specs(&item.expr, &mut specs);
        }
        Groups {
            proj,
            specs,
            index: HashMap::new(),
            groups: Vec::new(),
            key: Vec::new(),
        }
    }

    pub(super) fn push<G: GraphView>(
        &mut self,
        ctx: &mut Ctx<'_, G>,
        row: &Row,
    ) -> Result<(), QueryError> {
        self.key.clear();
        for item in &self.proj.items {
            if !item.agg {
                self.key.push(filter::eval_value(ctx, row, &item.expr)?);
            }
        }
        let slot = match self.index.get(&self.key) {
            Some(&s) => s,
            None => {
                let accs = self
                    .specs
                    .iter()
                    .map(|s| Acc::new(s.as_ref().map_or(AggFunc::Count, |(f, _)| *f)))
                    .collect();
                self.groups.push((self.key.clone(), accs));
                self.index.insert(self.key.clone(), self.groups.len() - 1);
                self.groups.len() - 1
            }
        };
        for (i, spec) in self.specs.iter().enumerate() {
            let Some((_, arg)) = spec else { continue };
            let v = match arg {
                Some(e) => Some(filter::eval_value(ctx, row, e)?),
                None => None,
            };
            self.groups[slot].1[i].update(v);
        }
        Ok(())
    }

    pub(super) fn finish(self) -> Vec<Row> {
        let proj = self.proj;
        let mut out: Vec<Row> = Vec::with_capacity(self.groups.len());
        for (key, accs) in self.groups {
            let finished: Vec<Value> = accs.into_iter().map(Acc::finish).collect();
            let mut ki = 0;
            let mut row = Vec::with_capacity(proj.items.len());
            for item in &proj.items {
                if item.agg {
                    row.push(eval_finished(&item.expr, &finished));
                } else {
                    row.push(key[ki].clone());
                    ki += 1;
                }
            }
            out.push(row);
        }

        // ORDER BY: the binder guarantees only output-column keys here.
        if !proj.order_by.is_empty() {
            out.sort_by(|a, b| {
                for (key, desc) in &proj.order_by {
                    let OrderKey::Column(i) = key else { continue };
                    let ord = filter::value_cmp(
                        a.get(*i).unwrap_or(&Value::Null),
                        b.get(*i).unwrap_or(&Value::Null),
                    );
                    if ord != std::cmp::Ordering::Equal {
                        return if *desc { ord.reverse() } else { ord };
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
        sink::skip_limit(proj, out.into_iter())
    }
}
