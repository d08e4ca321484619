//! The shared projection tail for `WITH` and `RETURN`, as a push
//! operator: [`Projector::push`] evaluates one input row's items (and its
//! `ORDER BY` keys) as the row arrives, dropping `DISTINCT` duplicates on
//! the spot; [`Projector::finish`] sorts (stable), applies `SKIP` /
//! `LIMIT` and returns the table. Aggregated projections delegate to
//! [`aggregate::Groups`].
//!
//! After `finish`, the row *is* the projection: slot `i` holds item `i`.
//! That is exactly the re-rooting the binder performs on its scope at a
//! `WITH`, so downstream stages read the projected values by slot.

use super::{Ctx, Row};
use crate::binder::{BoundProjection, OrderKey};
use crate::error::QueryError;
use crate::exec::{aggregate, filter};
use crate::value::Value;
use frappe_store::GraphView;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

/// A `WITH` / `RETURN` projection fed one row at a time.
pub(super) enum Projector<'q> {
    Rows(Rows<'q>),
    Groups(aggregate::Groups<'q>),
}

impl<'q> Projector<'q> {
    pub(super) fn new(proj: &'q BoundProjection) -> Projector<'q> {
        if proj.aggregated {
            Projector::Groups(aggregate::Groups::new(proj))
        } else {
            Projector::Rows(Rows {
                proj,
                rows: Vec::new(),
                seen: Seen::default(),
                spare: Vec::new(),
            })
        }
    }

    pub(super) fn push<G: GraphView>(
        &mut self,
        ctx: &mut Ctx<'_, G>,
        row: &Row,
    ) -> Result<(), QueryError> {
        match self {
            Projector::Rows(p) => p.push(ctx, row),
            Projector::Groups(p) => p.push(ctx, row),
        }
    }

    pub(super) fn finish(self) -> Vec<Row> {
        match self {
            Projector::Rows(p) => p.finish(),
            Projector::Groups(p) => p.finish(),
        }
    }
}

/// A non-aggregated projection: projected rows with their sort keys, in
/// arrival order.
pub(super) struct Rows<'q> {
    proj: &'q BoundProjection,
    /// `(ORDER BY keys, projected row)`; the keys are empty without
    /// `ORDER BY`.
    rows: Vec<(Vec<Value>, Row)>,
    /// The index of the kept rows (`DISTINCT` only).
    seen: Seen,
    /// The buffer of the last dropped duplicate, reused by the next push.
    spare: Row,
}

impl Rows<'_> {
    fn push<G: GraphView>(&mut self, ctx: &mut Ctx<'_, G>, row: &Row) -> Result<(), QueryError> {
        let proj = self.proj;
        let mut out = std::mem::take(&mut self.spare);
        out.clear();
        out.reserve_exact(proj.items.len());
        for item in &proj.items {
            out.push(filter::eval_value(ctx, row, &item.expr)?);
        }
        // Sort keys are computed against the full input row (an `ORDER BY`
        // key may reference variables the projection drops), for every
        // row: a `DISTINCT` duplicate's keys are evaluated and dropped, so
        // the first occurrence's keys are the ones kept.
        let mut keys = Vec::with_capacity(proj.order_by.len());
        for (key, _) in &proj.order_by {
            keys.push(match key {
                OrderKey::Input(e) => filter::eval_value(ctx, row, e)?,
                OrderKey::Column(i) => out.get(*i).cloned().unwrap_or(Value::Null),
            });
        }
        if proj.distinct {
            let hash = self.seen.state.hash_one(&out);
            let mut at = self.seen.heads.get(&hash).copied();
            while let Some(i) = at {
                if self.rows[i].1 == out {
                    self.spare = out;
                    return Ok(());
                }
                at = self.seen.older[i];
            }
            let older = self.seen.heads.insert(hash, self.rows.len());
            self.seen.older.push(older);
        }
        self.rows.push((keys, out));
        Ok(())
    }

    fn finish(self) -> Vec<Row> {
        let proj = self.proj;
        let mut rows = self.rows;
        if !proj.order_by.is_empty() {
            rows.sort_by(|a, b| {
                for (i, (_, desc)) in proj.order_by.iter().enumerate() {
                    let ord = filter::value_cmp(&a.0[i], &b.0[i]);
                    if ord != std::cmp::Ordering::Equal {
                        return if *desc { ord.reverse() } else { ord };
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
        let rows = rows.into_iter().map(|(_, r)| r);
        skip_limit(proj, rows)
    }
}

/// The `DISTINCT` index over the kept rows. Each row is hashed once; the
/// table maps a hash to the newest kept row with that hash and `older`
/// chains the rest, so probing and growing the table never follow a row's
/// heap pointer, and a row is compared only on a full hash match.
#[derive(Default)]
struct Seen {
    state: RandomState,
    heads: HashMap<u64, usize, BuildHasherDefault<PreHashed>>,
    /// Per kept row: the previous kept row with the same hash.
    older: Vec<Option<usize>>,
}

/// Passes an already computed hash through.
#[derive(Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(*b);
        }
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// Applies `SKIP` then `LIMIT` to finished output rows.
pub(super) fn skip_limit(proj: &BoundProjection, rows: impl Iterator<Item = Row>) -> Vec<Row> {
    let skip = proj
        .skip
        .map_or(0, |s| usize::try_from(s).unwrap_or(usize::MAX));
    let limit = proj
        .limit
        .map_or(usize::MAX, |l| usize::try_from(l).unwrap_or(usize::MAX));
    rows.skip(skip).take(limit).collect()
}
