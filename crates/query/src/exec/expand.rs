//! The pattern matcher: chain expansion over bound patterns.
//!
//! A pattern is matched row by row. The anchor (planned statically, see
//! [`crate::plan`], with a per-row fallback in [`super::scan`]) binds
//! first; from there the chain expands hop by hop to the right, then to
//! the left. Speculative slot writes go through a [`Trail`] undo log so
//! backtracking restores the row exactly.
//!
//! Budget `tick()` call sites are load-bearing: the `steps` counter is a
//! pinned, deterministic work measure (golden Table 5 fixtures assert it
//! byte-for-byte), so every traversal ticks in the same places the
//! original executor did — once per anchor candidate, once per edge
//! considered.

use super::{get, grow, Ctx, Row};
use crate::ast::{LabelSpec, RelDir};
use crate::binder::{BoundNode, BoundPattern, BoundRel};
use crate::error::QueryError;
use crate::exec::{filter, scan};
use crate::plan::PlannedAnchor;
use crate::value::Value;
use frappe_model::{EdgeId, NodeId};
use frappe_store::graph::Direction;
use frappe_store::GraphView;
use std::collections::HashSet;

/// Receives each match as it is found. The row is the matcher's scratch
/// row, valid only for the call; the consumer copies what it keeps.
pub(super) type Emit<'e, G> = dyn FnMut(&mut Ctx<'_, G>, &Row) -> Result<(), QueryError> + 'e;

/// Expands `pattern` against every row, using the planned anchor, and
/// hands every match to `emit` in match order.
pub(super) fn expand_pattern<G: GraphView>(
    ctx: &mut Ctx<'_, G>,
    rows: &[Row],
    pattern: &BoundPattern,
    anchor: PlannedAnchor,
    emit: &mut Emit<'_, G>,
) -> Result<(), QueryError> {
    for row in rows {
        match_pattern_into(ctx, row, pattern, Some(anchor), false, emit)?;
    }
    Ok(())
}

/// Checks whether `pattern` has at least one match extending `row`
/// (the WHERE pattern-predicate case). Stops at the first match. Pattern
/// predicates are not planned — their anchor is chosen per row, exactly
/// like the legacy engine.
pub(super) fn pattern_exists<G: GraphView>(
    ctx: &mut Ctx<'_, G>,
    row: &Row,
    pattern: &BoundPattern,
) -> Result<bool, QueryError> {
    let mut found = false;
    match_pattern_into(ctx, row, pattern, None, true, &mut |_, _| {
        found = true;
        Ok(())
    })?;
    Ok(found)
}

/// Core matcher: emits each extension of `row` matching `pattern`.
/// With `first_only`, stops after the first emission.
fn match_pattern_into<G: GraphView>(
    ctx: &mut Ctx<'_, G>,
    row: &Row,
    pattern: &BoundPattern,
    planned: Option<PlannedAnchor>,
    first_only: bool,
    emit: &mut Emit<'_, G>,
) -> Result<(), QueryError> {
    let anchor = match planned {
        Some(a) => scan::resolve(a, pattern, row),
        None => scan::dynamic_anchor(pattern, row),
    };
    let candidates = scan::candidates(ctx.g, pattern, anchor, row)?;

    if ctx.stats.enabled {
        ctx.stats.candidates += candidates.len() as u64;
        ctx.stats.last_anchor = Some(anchor.sel.describe());
    }
    if frappe_obs::counters_enabled() {
        scan::count_anchor(anchor.sel);
    }

    let mut scratch = row.clone();
    let mut done = false;
    for cand in candidates {
        if done && first_only {
            break;
        }
        ctx.budget.tick()?;
        // Bind the anchor node (checks its own constraints).
        let mut trail = Trail::default();
        if !bind_node(
            ctx,
            &mut scratch,
            &pattern.nodes[anchor.index],
            cand,
            &mut trail,
        ) {
            trail.undo(&mut scratch);
            continue;
        }
        // Expand right from the anchor, then left; used-edge set enforces
        // per-pattern relationship uniqueness.
        let mut used = Vec::new();
        expand_chain(
            ctx,
            &mut scratch,
            pattern,
            anchor.index,
            &mut used,
            first_only,
            &mut done,
            emit,
        )?;
        trail.undo(&mut scratch);
    }
    Ok(())
}

/// Undo log for speculative bindings. A binding only ever fills a `NULL`
/// slot, so undoing it resets the slot to `NULL`. One trail records at
/// most a relationship and its far node, so it needs no heap.
#[derive(Default)]
struct Trail {
    slots: [usize; 2],
    len: usize,
}

impl Trail {
    /// Binds the `NULL` slot `slot` of `row` to `v`.
    fn bind(&mut self, row: &mut Row, slot: usize, v: Value) {
        self.slots[self.len] = slot;
        self.len += 1;
        grow(row, slot);
        row[slot] = v;
    }

    fn undo(self, row: &mut Row) {
        for &slot in self.slots[..self.len].iter().rev() {
            row[slot] = Value::Null;
        }
    }
}

/// Tries to bind node pattern `np` to `node`, mutating `row` (and recording
/// changes in `trail`). Returns false if constraints fail.
fn bind_node<G: GraphView>(
    ctx: &Ctx<'_, G>,
    row: &mut Row,
    np: &BoundNode,
    node: NodeId,
    trail: &mut Trail,
) -> bool {
    for spec in &np.labels {
        let ok = match spec {
            LabelSpec::Type(t) => ctx.g.node_type(node) == *t,
            LabelSpec::Group(l) => ctx.g.node_labels(node).contains(*l),
        };
        if !ok {
            return false;
        }
    }
    for (k, v) in &np.props {
        match ctx.g.node_prop(node, *k) {
            Some(actual) if filter::values_eq(&actual, v) => {}
            _ => return false,
        }
    }
    match get(row, np.slot) {
        Value::Null => trail.bind(row, np.slot, Value::Node(node)),
        Value::Node(existing) => {
            if *existing != node {
                return false;
            }
        }
        _ => return false,
    }
    true
}

/// Recursively expands the chain from `pos` (whose node is bound)
/// rightwards; when the right side is exhausted, switches to the left side.
#[allow(clippy::too_many_arguments)]
fn expand_chain<G: GraphView>(
    ctx: &mut Ctx<'_, G>,
    row: &mut Row,
    pattern: &BoundPattern,
    pos: usize,
    used: &mut Vec<EdgeId>,
    first_only: bool,
    done: &mut bool,
    emit: &mut Emit<'_, G>,
) -> Result<(), QueryError> {
    if *done && first_only {
        return Ok(());
    }
    if pos + 1 >= pattern.nodes.len() {
        return expand_left(ctx, row, pattern, first_only, done, used, emit);
    }
    let rel = &pattern.rels[pos];
    let from_node = bound_node(row, &pattern.nodes[pos]).expect("current node bound");
    step_over_rel(
        ctx, row, pattern, rel, from_node, pos, true, used, first_only, done, emit,
    )
}

/// Finds the rightmost unbound node position and expands leftwards from
/// its bound right neighbor. When no unbound node remains, emits the row.
#[allow(clippy::too_many_arguments)]
fn expand_left<G: GraphView>(
    ctx: &mut Ctx<'_, G>,
    row: &mut Row,
    pattern: &BoundPattern,
    first_only: bool,
    done: &mut bool,
    used: &mut Vec<EdgeId>,
    emit: &mut Emit<'_, G>,
) -> Result<(), QueryError> {
    // Find the rightmost unbound node position (all nodes to its right are
    // bound by construction).
    let unbound = (0..pattern.nodes.len())
        .rev()
        .find(|i| bound_node(row, &pattern.nodes[*i]).is_none());
    let Some(target) = unbound else {
        *done = true;
        return emit(ctx, row);
    };
    // The node to its right must be bound; step leftwards over rels[target].
    let from_node = bound_node(row, &pattern.nodes[target + 1]).expect("right neighbor bound");
    let rel = &pattern.rels[target];
    step_over_rel(
        ctx, row, pattern, rel, from_node, target, false, used, first_only, done, emit,
    )
}

/// The node currently bound at a pattern position, if any.
fn bound_node(row: &Row, np: &BoundNode) -> Option<NodeId> {
    match get(row, np.slot) {
        Value::Node(n) => Some(*n),
        _ => None,
    }
}

/// Expands one relationship pattern from `from_node`. `moving_right` says
/// whether we travel from `nodes[pos]` to `nodes[pos+1]` (true) or from
/// `nodes[pos+1]` to `nodes[pos]` (false).
#[allow(clippy::too_many_arguments)]
fn step_over_rel<G: GraphView>(
    ctx: &mut Ctx<'_, G>,
    row: &mut Row,
    pattern: &BoundPattern,
    rel: &BoundRel,
    from_node: NodeId,
    pos: usize,
    moving_right: bool,
    used: &mut Vec<EdgeId>,
    first_only: bool,
    done: &mut bool,
    emit: &mut Emit<'_, G>,
) -> Result<(), QueryError> {
    let target_np = if moving_right {
        &pattern.nodes[pos + 1]
    } else {
        &pattern.nodes[pos]
    };

    // Effective traversal directions from `from_node`'s perspective.
    let dirs: &[Direction] = match (rel.dir, moving_right) {
        (RelDir::LeftToRight, true) | (RelDir::RightToLeft, false) => &[Direction::Outgoing],
        (RelDir::LeftToRight, false) | (RelDir::RightToLeft, true) => &[Direction::Incoming],
        (RelDir::Undirected, _) => &[Direction::Outgoing, Direction::Incoming],
    };

    match rel.var_len {
        None => {
            // A copy of the graph reference: the edge iterator borrows it,
            // not `ctx`, so the recursion below can take `&mut ctx`.
            let g = ctx.g;
            for dir in dirs {
                for e in typed_edges(g, from_node, *dir, rel) {
                    if *done && first_only {
                        return Ok(());
                    }
                    ctx.budget.tick()?;
                    if used.contains(&e) {
                        continue;
                    }
                    if !edge_props_match(g, e, rel) {
                        continue;
                    }
                    let other = match dir {
                        Direction::Outgoing => g.edge_dst(e),
                        Direction::Incoming => g.edge_src(e),
                    };
                    let mut trail = Trail::default();
                    // Bind the rel variable if named.
                    if let Some(slot) = rel.slot {
                        match get(row, slot) {
                            Value::Null => trail.bind(row, slot, Value::Edge(e)),
                            Value::Edge(existing) if *existing == e => {}
                            _ => {
                                trail.undo(row);
                                continue;
                            }
                        }
                    }
                    if bind_node(ctx, row, target_np, other, &mut trail) {
                        used.push(e);
                        if moving_right {
                            expand_chain(ctx, row, pattern, pos + 1, used, first_only, done, emit)?;
                        } else {
                            expand_left(ctx, row, pattern, first_only, done, used, emit)?;
                        }
                        used.pop();
                    }
                    trail.undo(row);
                }
            }
            Ok(())
        }
        Some((min, max)) => match ctx.semantics {
            super::PathSemantics::Enumerate => var_len_dfs(
                ctx,
                row,
                pattern,
                rel,
                from_node,
                pos,
                moving_right,
                dirs,
                min,
                max,
                used,
                first_only,
                done,
                emit,
                0,
            ),
            super::PathSemantics::Reachability => {
                // Visited-set BFS: each endpoint once.
                let mut visited: HashSet<NodeId> = HashSet::from([from_node]);
                let mut frontier = vec![from_node];
                let mut reached: Vec<NodeId> = Vec::new();
                let mut depth = 0u32;
                if min == 0 {
                    reached.push(from_node);
                }
                while !frontier.is_empty() && max.is_none_or(|m| depth < m) {
                    depth += 1;
                    if ctx.stats.enabled {
                        ctx.stats.var_len_max_frontier =
                            ctx.stats.var_len_max_frontier.max(frontier.len() as u64);
                        ctx.stats.var_len_max_depth = ctx.stats.var_len_max_depth.max(depth);
                    }
                    let mut next = Vec::new();
                    let g = ctx.g;
                    for n in frontier.drain(..) {
                        for dir in dirs {
                            for e in typed_edges(g, n, *dir, rel) {
                                ctx.budget.tick()?;
                                if ctx.stats.enabled {
                                    ctx.stats.var_len_expansions += 1;
                                }
                                if !edge_props_match(g, e, rel) {
                                    continue;
                                }
                                let other = match dir {
                                    Direction::Outgoing => g.edge_dst(e),
                                    Direction::Incoming => g.edge_src(e),
                                };
                                if visited.insert(other) {
                                    next.push(other);
                                    if depth >= min {
                                        reached.push(other);
                                    }
                                }
                            }
                        }
                    }
                    frontier = next;
                }
                for other in reached {
                    if *done && first_only {
                        return Ok(());
                    }
                    let mut trail = Trail::default();
                    if bind_node(ctx, row, target_np, other, &mut trail) {
                        if moving_right {
                            expand_chain(ctx, row, pattern, pos + 1, used, first_only, done, emit)?;
                        } else {
                            expand_left(ctx, row, pattern, first_only, done, used, emit)?;
                        }
                    }
                    trail.undo(row);
                }
                Ok(())
            }
        },
    }
}

/// DFS path enumeration for variable-length rels (Cypher semantics).
#[allow(clippy::too_many_arguments)]
fn var_len_dfs<G: GraphView>(
    ctx: &mut Ctx<'_, G>,
    row: &mut Row,
    pattern: &BoundPattern,
    rel: &BoundRel,
    at: NodeId,
    pos: usize,
    moving_right: bool,
    dirs: &[Direction],
    min: u32,
    max: Option<u32>,
    used: &mut Vec<EdgeId>,
    first_only: bool,
    done: &mut bool,
    emit: &mut Emit<'_, G>,
    depth: u32,
) -> Result<(), QueryError> {
    if *done && first_only {
        return Ok(());
    }
    if ctx.stats.enabled && depth > ctx.stats.var_len_max_depth {
        ctx.stats.var_len_max_depth = depth;
    }
    let target_np = if moving_right {
        &pattern.nodes[pos + 1]
    } else {
        &pattern.nodes[pos]
    };
    // Endpoint emission at depths within [min, max].
    if depth >= min {
        let mut trail = Trail::default();
        if bind_node(ctx, row, target_np, at, &mut trail) {
            if moving_right {
                expand_chain(ctx, row, pattern, pos + 1, used, first_only, done, emit)?;
            } else {
                expand_left(ctx, row, pattern, first_only, done, used, emit)?;
            }
        }
        trail.undo(row);
        if *done && first_only {
            return Ok(());
        }
    }
    if max.is_some_and(|m| depth >= m) {
        return Ok(());
    }
    let g = ctx.g;
    for dir in dirs {
        for e in typed_edges(g, at, *dir, rel) {
            if *done && first_only {
                return Ok(());
            }
            ctx.budget.tick()?;
            if used.contains(&e) {
                continue;
            }
            if !edge_props_match(g, e, rel) {
                continue;
            }
            let other = match dir {
                Direction::Outgoing => g.edge_dst(e),
                Direction::Incoming => g.edge_src(e),
            };
            if ctx.stats.enabled {
                ctx.stats.var_len_expansions += 1;
            }
            used.push(e);
            var_len_dfs(
                ctx,
                row,
                pattern,
                rel,
                other,
                pos,
                moving_right,
                dirs,
                min,
                max,
                used,
                first_only,
                done,
                emit,
                depth + 1,
            )?;
            used.pop();
        }
    }
    Ok(())
}

/// Edges of `n` in `dir` restricted to the rel's type set, in adjacency
/// order. A single type is filtered by the store; a type alternation
/// (`:a|b`) is filtered here.
fn typed_edges<'a, G: GraphView>(
    g: &'a G,
    n: NodeId,
    dir: Direction,
    rel: &'a BoundRel,
) -> impl Iterator<Item = EdgeId> + 'a {
    let (single, many) = match rel.types.as_slice() {
        [single] => (Some(*single), &[][..]),
        many => (None, many),
    };
    g.edges_dir(n, dir, single)
        .filter(move |e| many.is_empty() || many.contains(&g.edge_type(*e)))
}

fn edge_props_match<G: GraphView>(g: &G, e: EdgeId, rel: &BoundRel) -> bool {
    rel.props.iter().all(|(k, v)| {
        g.edge_prop(e, *k)
            .is_some_and(|actual| filter::values_eq(&actual, v))
    })
}
