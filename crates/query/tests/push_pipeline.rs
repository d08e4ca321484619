//! The fused executor against figures pinned from the materializing one.
//!
//! Every expected value below (rows in order, `steps`, `EXPLAIN ANALYZE`
//! row counts and extras, budget errors) was recorded from the executor
//! that materialized every stage's rows before the next stage ran. The
//! push pipeline must reproduce them exactly: fusing stages changes when
//! rows are produced, never which rows, in what order, or at what cost.

use frappe_harness::rng::Rng;
use frappe_model::{EdgeType, FileId, NodeId, NodeType, SrcRange};
use frappe_query::{Engine, EngineOptions, Query, QueryError, ResultSet};
use frappe_store::GraphStore;

/// A small kernel-shaped graph: a cyclic call graph with line-numbered
/// call sites, global writes, and a module → file → field hierarchy for
/// the Figure 3 code-search shape. Deterministic for a given seed.
fn kernelish(seed: u64) -> GraphStore {
    let mut rng = Rng::seed_from_u64(seed);
    let mut g = GraphStore::new();
    let fns: Vec<NodeId> = (0..40)
        .map(|i| g.add_node(NodeType::Function, &format!("f{i}")))
        .collect();
    for _ in 0..120 {
        let (a, b) = (rng.random_range(0..40usize), rng.random_range(0..40usize));
        if a != b {
            let e = g.add_edge(fns[a], EdgeType::Calls, fns[b]);
            let line = rng.random_range(1..50u32);
            g.set_edge_use_range(e, SrcRange::new(FileId(0), line, 1, line, 9));
        }
    }
    let globals: Vec<NodeId> = (0..6)
        .map(|i| g.add_node(NodeType::Global, &format!("g{i}")))
        .collect();
    for _ in 0..15 {
        let f = fns[rng.random_range(0..40usize)];
        g.add_edge(f, EdgeType::Writes, globals[rng.random_range(0..6usize)]);
    }
    let image = g.add_node(NodeType::Module, "vmlinux");
    let mods: Vec<NodeId> = (0..2)
        .map(|i| g.add_node(NodeType::Module, &format!("m{i}")))
        .collect();
    let files: Vec<NodeId> = (0..6)
        .map(|i| g.add_node(NodeType::File, &format!("file{i}.c")))
        .collect();
    for m in &mods {
        g.add_edge(image, EdgeType::LinkedFrom, *m);
    }
    for f in &files[..3] {
        g.add_edge(mods[0], EdgeType::CompiledFrom, *f);
    }
    // file2.c is compiled into both modules: `WITH distinct f` drops it once.
    for f in &files[2..] {
        g.add_edge(mods[1], EdgeType::CompiledFrom, *f);
    }
    for f in &files {
        for _ in 0..rng.random_range(1..4usize) {
            let name = if rng.random_bool(0.5) {
                "count"
            } else {
                "flags"
            };
            let field = g.add_node(NodeType::Field, name);
            g.add_edge(*f, EdgeType::FileContains, field);
        }
    }
    g.freeze();
    g
}

fn names(g: &GraphStore, r: &ResultSet) -> Vec<String> {
    r.rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|v| match v.as_node() {
                    Some(n) => g.node_short_name(n).to_owned(),
                    None => v.to_string(),
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn run(g: &GraphStore, q: &str) -> ResultSet {
    Engine::new().run_str(g, q).unwrap()
}

/// `(name, rows_out, extras)` of one operator, timings dropped.
type Op = (String, u64, Vec<(&'static str, u64)>);

fn ops(g: &GraphStore, q: &str) -> Vec<Op> {
    let (_, profile) = Engine::new().profile(g, &Query::parse(q).unwrap()).unwrap();
    profile
        .ops
        .into_iter()
        .map(|op| (op.name.to_owned(), op.rows_out, op.extras))
        .collect()
}

const DISTINCT_ORDER: &str = "MATCH (n:function) -[:calls]-> k -[r:calls]-> m \
     RETURN distinct m ORDER BY r.use_start_line";

const GROUPED_WITH: &str = "MATCH (f:function) -[:calls]-> h \
     WITH h, count(f) AS callers \
     MATCH h -[:writes]-> x \
     RETURN h, callers, x";

const PREDICATE_AFTER_VAR_LEN: &str = "MATCH (n:function) -[:calls*1..3]-> m \
     WHERE (m) -[:writes]-> () \
     RETURN distinct n, m";

const SEARCH: &str = "START m=node:node_auto_index('short_name: vmlinux') \
     MATCH m -[:compiled_from|linked_from*]-> f \
     WITH distinct f \
     MATCH f -[:file_contains]-> (n:field{short_name: 'count'}) \
     RETURN n";

fn steps_under(g: &GraphStore, q: &str, max_steps: u64) -> Result<u64, QueryError> {
    Engine::with_options(EngineOptions {
        max_steps,
        ..Default::default()
    })
    .run_str(g, q)
    .map(|r| r.steps)
}

#[test]
fn distinct_with_order_by_on_an_input_key_keeps_the_first_occurrence_key() {
    let g = kernelish(39);
    let r = run(&g, DISTINCT_ORDER);
    assert_eq!(
        names(&g, &r),
        [
            "f21", "f28", "f2", "f25", "f9", "f34", "f20", "f3", "f32", "f7", "f27", "f11", "f37",
            "f4", "f31", "f13", "f6", "f33", "f22", "f1", "f17", "f16", "f35", "f12", "f0", "f30",
            "f23", "f38", "f10", "f26", "f29", "f18", "f19", "f36", "f39", "f15", "f14", "f8",
            "f24", "f5"
        ]
    );
    assert_eq!(r.steps, 472);
    assert_eq!(
        ops(&g, DISTINCT_ORDER),
        [
            (
                "Expand".into(),
                316,
                vec![("candidates", 40), ("steps", 472)]
            ),
            ("Return".into(), 40, vec![]),
        ]
    );

    // The same order from first principles: each endpoint keeps the key of
    // its first match, then a stable sort on that key.
    let all = run(
        &g,
        "MATCH (n:function) -[:calls]-> k -[r:calls]-> m RETURN m, r.use_start_line",
    );
    let mut first: Vec<(String, String)> = Vec::new();
    for row in names(&g, &all) {
        let (m, line) = row.split_once(' ').unwrap();
        if !first.iter().any(|(seen, _)| seen == m) {
            first.push((m.to_owned(), line.to_owned()));
        }
    }
    first.sort_by_key(|(_, line)| line.parse::<i64>().unwrap());
    let expected: Vec<String> = first.into_iter().map(|(m, _)| m).collect();
    assert_eq!(names(&g, &r), expected);
}

#[test]
fn grouped_aggregate_with_between_matches_keeps_first_seen_group_order() {
    let g = kernelish(39);
    let r = run(&g, GROUPED_WITH);
    assert_eq!(
        names(&g, &r),
        [
            "f6 4 g4", "f18 1 g3", "f18 1 g5", "f21 4 g4", "f0 4 g4", "f0 4 g0", "f0 4 g0",
            "f29 6 g4", "f11 3 g5", "f38 1 g1", "f10 1 g0", "f36 4 g4", "f35 3 g0", "f4 3 g4",
            "f30 1 g2"
        ]
    );
    assert_eq!(r.steps, 211);
    assert_eq!(
        ops(&g, GROUPED_WITH),
        [
            (
                "Expand".into(),
                116,
                vec![("candidates", 40), ("steps", 156)]
            ),
            ("Project".into(), 40, vec![]),
            ("Expand".into(), 15, vec![("candidates", 40), ("steps", 55)]),
            ("Return".into(), 15, vec![]),
        ]
    );
}

#[test]
fn where_pattern_predicate_after_a_var_len_match_keeps_steps() {
    let g = kernelish(39);
    let r = run(&g, PREDICATE_AFTER_VAR_LEN);
    assert_eq!(r.rows.len(), 211);
    assert_eq!(r.steps, 3020);
    assert_eq!(fnv(&names(&g, &r).join("\n")), 0x084c_6110_1500_c887);
    assert_eq!(names(&g, &r)[..4], ["f0 f0", "f0 f11", "f0 f10", "f1 f11"]);
    // The predicate's own matcher runs inside the fused Expand, but its
    // steps and statistics stay out of the Expand's extras.
    assert_eq!(
        ops(&g, PREDICATE_AFTER_VAR_LEN),
        [
            (
                "Expand".into(),
                1300,
                vec![
                    ("candidates", 40),
                    ("steps", 1352),
                    ("var_len_expansions", 1300),
                    ("var_len_max_depth", 3),
                    ("var_len_max_frontier", 0),
                ]
            ),
            ("Filter".into(), 368, vec![("rows_in", 1300)]),
            ("Return".into(), 211, vec![]),
        ]
    );
}

#[test]
fn budget_exhaustion_mid_stream_matches_the_materialized_run() {
    let g = kernelish(39);
    // 100 and 1,000 run out inside the expansion, 2,000 and 3,000 inside
    // what was the WHERE stage's share (the expansion alone costs 1,352).
    for max_steps in [100, 1_000, 2_000, 3_000] {
        assert_eq!(
            steps_under(&g, PREDICATE_AFTER_VAR_LEN, max_steps),
            Err(QueryError::BudgetExhausted {
                steps: max_steps + 1
            }),
        );
    }
    assert_eq!(steps_under(&g, PREDICATE_AFTER_VAR_LEN, 3_020), Ok(3_020));
    assert_eq!(
        steps_under(&g, DISTINCT_ORDER, 471),
        Err(QueryError::BudgetExhausted { steps: 472 })
    );
}

#[test]
fn search_shape_keeps_its_explain_analyze_operators() {
    let g = kernelish(39);
    let r = run(&g, SEARCH);
    let ids: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
    assert_eq!(ids, ["(n62)", "(n60)", "(n57)", "(n56)", "(n55)"]);
    assert_eq!(r.steps, 30);
    assert_eq!(
        ops(&g, SEARCH),
        [
            ("IndexLookup".into(), 1, vec![("hits", 1)]),
            (
                "Expand".into(),
                9,
                vec![
                    ("candidates", 1),
                    ("steps", 10),
                    ("var_len_expansions", 9),
                    ("var_len_max_depth", 2),
                    ("var_len_max_frontier", 0),
                ]
            ),
            ("Project".into(), 8, vec![]),
            ("Expand".into(), 5, vec![("candidates", 8), ("steps", 20)]),
            ("Return".into(), 5, vec![]),
        ]
    );
    let text = Engine::new()
        .profile(&g, &Query::parse(SEARCH).unwrap())
        .unwrap()
        .1
        .render();
    assert!(text.contains("Project distinct [f]"), "{text}");
}
