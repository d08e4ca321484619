//! The in-process half of the per-layer ledger: timed calls into the public
//! functions of `store`, `query`, `serve`, `core`, `relational` and
//! `extract` on the mapped snapshot. Everything here runs in the traced
//! pass only; a span is recorded around every call.
//!
//! Sampling rule: a reported time is the median of at least `CALLS` calls
//! (`SLOW_CALLS` for calls over ~10 ms, `OPEN_REPS` for whole-file opens and
//! index builds), warm unless the metric is a first-touch cost.

use crate::config::{Class, Profile, IDE_MIX};
use crate::metrics::Metrics;
use crate::requests::Request;
use crate::server::self_rss_anon_mb;
use crate::stats::median;
use crate::trace::Tracer;
use frappe_core::traverse::{transitive_closure, Dir};
use frappe_model::{EdgeId, EdgeType, Label, NodeId, NodeType, PropKey};
use frappe_query::plan::PlanCache;
use frappe_query::{bind, Engine, EngineOptions, PathSemantics, Query};
use frappe_serve::{answer_query_line, ServeGraph, ServerOptions};
use frappe_store::graph::Direction;
use frappe_store::{GraphStore, GraphView, MappedGraph, NameField, NamePattern};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const CALLS: usize = 200;
const SLOW_CALLS: usize = 32;
const OPEN_REPS: usize = 5;
const SWEEPS: usize = 3;

fn med_ns(samples: &[u64]) -> f64 {
    median(&samples.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// First-touch costs on fresh mappings: open (validation scan) and the three
/// lazy index builds, plus the anonymous memory they leave behind.
fn open_side(snapshot: &Path, tracer: &Tracer, m: &mut Metrics) -> Result<(), String> {
    let (mut open, mut name, mut csr, mut label, mut heap) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..OPEN_REPS {
        let before = self_rss_anon_mb().unwrap_or(0.0);
        let (g, ns) = tracer.time("store", "MappedGraph::open", || MappedGraph::open(snapshot));
        let g = g.map_err(|e| e.to_string())?;
        open.push(ns);
        let pattern = NamePattern::exact("pci_read_bases");
        let (hits, ns) = tracer.time("store", "first lookup_name", || {
            g.lookup_name(NameField::ShortName, &pattern)
        });
        black_box(hits.map_err(|e| e.to_string())?);
        name.push(ns);
        let (n, ns) = tracer.time("store", "first edges_dir", || {
            g.edges_dir(NodeId(0), Direction::Outgoing, None).count()
        });
        black_box(n);
        csr.push(ns);
        let (n, ns) = tracer.time("store", "first nodes_with_label", || {
            g.nodes_with_label(Label::Symbol).map(<[NodeId]>::len)
        });
        black_box(n.map_err(|e| e.to_string())?);
        label.push(ns);
        heap.push((self_rss_anon_mb().unwrap_or(0.0) - before).max(0.0));
    }
    m.set("store.open_mapped_ms", med_ns(&open) / 1e6);
    m.set("store.name_index_build_ms", med_ns(&name) / 1e6);
    m.set("store.csr_build_ms", med_ns(&csr) / 1e6);
    m.set("store.label_index_build_ms", med_ns(&label) / 1e6);
    m.set("store.heap_after_indexes_mb", median(&heap));
    Ok(())
}

/// ns per edge of a full typed-`calls` `edges_dir` sweep over every
/// function node (median of [`SWEEPS`] sweeps).
fn adjacency_sweep<G: GraphView>(
    g: &G,
    functions: &[NodeId],
    dir: Direction,
    tracer: &Tracer,
    label: &str,
) -> f64 {
    let mut per_edge = Vec::new();
    for _ in 0..SWEEPS {
        let (edges, ns) = tracer.time("store", label, || {
            let mut edges = 0u64;
            for &f in functions {
                for e in g.edges_dir(f, dir, Some(EdgeType::Calls)) {
                    black_box(e);
                    edges += 1;
                }
            }
            edges
        });
        per_edge.push(ns as f64 / edges.max(1) as f64);
    }
    median(&per_edge)
}

/// Median ns per call of `f` over `ids`, timed in batches so the clock reads
/// do not dominate a nanosecond-scale call.
fn per_call_ns<T: Copy>(ids: &[T], tracer: &Tracer, label: &str, mut f: impl FnMut(T)) -> f64 {
    let batch = (ids.len() / CALLS).max(1);
    let mut per_call = Vec::new();
    tracer.time("store", label, || {
        for chunk in ids.chunks(batch) {
            let t = Instant::now();
            for &id in chunk {
                f(id);
            }
            per_call.push(t.elapsed().as_nanos() as f64 / chunk.len() as f64);
        }
    });
    median(&per_call)
}

fn read_side(
    mapped: &MappedGraph,
    owned: &GraphStore,
    tracer: &Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    let functions = mapped
        .nodes_with_type(NodeType::Function)
        .map_err(|e| e.to_string())?
        .to_vec();
    m.set(
        "store.adj_out_ns_per_edge.mapped",
        adjacency_sweep(
            mapped,
            &functions,
            Direction::Outgoing,
            tracer,
            "edges_dir out sweep (mapped)",
        ),
    );
    m.set(
        "store.adj_in_ns_per_edge.mapped",
        adjacency_sweep(
            mapped,
            &functions,
            Direction::Incoming,
            tracer,
            "edges_dir in sweep (mapped)",
        ),
    );
    m.set(
        "store.adj_out_ns_per_edge.owned",
        adjacency_sweep(
            owned,
            &functions,
            Direction::Outgoing,
            tracer,
            "edges_dir out sweep (owned)",
        ),
    );

    // A fixed stride over the id space: ~100k nodes and edges.
    let node_stride = (mapped.node_capacity() / 100_000).max(1);
    let nodes: Vec<NodeId> = (0..mapped.node_capacity())
        .step_by(node_stride)
        .map(|i| NodeId(i as u32))
        .filter(|&n| mapped.node_exists(n))
        .collect();
    let edge_stride = (mapped.edge_capacity() / 100_000).max(1);
    let edges: Vec<EdgeId> = (0..mapped.edge_capacity())
        .step_by(edge_stride)
        .map(|i| EdgeId(i as u32))
        .filter(|&e| mapped.edge_exists(e))
        .collect();
    m.set(
        "store.node_prop_ns",
        per_call_ns(&nodes, tracer, "node_prop", |n| {
            black_box(mapped.node_prop(n, PropKey::ShortName));
        }),
    );
    m.set(
        "store.edge_prop_ns",
        per_call_ns(&edges, tracer, "edge_prop", |e| {
            black_box(mapped.edge_prop(e, PropKey::UseStartLine));
        }),
    );
    m.set(
        "store.node_name_ns",
        per_call_ns(&nodes, tracer, "node_name", |n| {
            black_box(mapped.node_name(n).len());
        }),
    );

    let stride = (functions.len() / 2_000).max(1);
    let names: Vec<&str> = functions
        .iter()
        .step_by(stride)
        .map(|&f| mapped.node_short_name(f))
        .collect();
    m.set(
        "store.name_lookup_exact_ns",
        per_call_ns(&names, tracer, "lookup_name exact", |name| {
            black_box(
                mapped
                    .lookup_name(NameField::ShortName, &NamePattern::exact(name))
                    .map(|v| v.len())
                    .unwrap_or(0),
            );
        }),
    );
    let prefixes: Vec<NamePattern> = names
        .iter()
        .filter_map(|n| n.rfind('_').filter(|&i| i >= 2).map(|i| &n[..=i]))
        .map(|p| NamePattern::parse(&format!("{p}*")))
        .collect();
    let (hits, ns) = tracer.time("store", "lookup_name prefix", || {
        prefixes
            .iter()
            .map(|p| {
                mapped
                    .lookup_name(NameField::ShortName, p)
                    .map(|v| v.len())
                    .unwrap_or(0)
            })
            .sum::<usize>()
    });
    m.set(
        "store.name_lookup_prefix_ns_per_hit",
        ns as f64 / hits.max(1) as f64,
    );
    Ok(())
}

/// What the per-class ledger hands on to the wire pass.
#[derive(Debug, Default, Clone)]
pub struct ClassLedger {
    /// `serve.answer_us.<c>` by class index.
    pub answer_us: [f64; 9],
}

/// Runs `f` the way a server worker runs a job: with a request trace
/// registered on the thread (the executor then collects its per-operator
/// breakdown, as it does for every traced request on the wire). The trace
/// is committed outside the caller's timing, as the event loop does after
/// the reply is written.
fn as_worker<T>(seq: u64, f: impl FnOnce() -> T) -> T {
    use frappe_obs::reqtrace::{self, ReqPhase};
    let mut trace = reqtrace::reqtrace().begin(LEDGER_CONN, seq);
    if let Some(t) = trace.as_deref_mut() {
        t.enter(ReqPhase::Exec);
    }
    if let Some(t) = trace {
        reqtrace::enter_current(t);
    }
    let out = f();
    if let Some(mut t) = reqtrace::take_current() {
        t.exit(ReqPhase::Exec);
        t.exit(ReqPhase::Ser);
        reqtrace::reqtrace().commit(t);
    }
    out
}

/// Connection id the ledger's in-process request traces carry.
const LEDGER_CONN: u64 = u64::MAX;

/// The query front end, executor and in-process serve path, per class, on
/// the mapped snapshot: parse, bind, plan miss/hit, `Engine::run`,
/// `answer_query_line`. Every request of a class's pool is called the same
/// number of times; a time is the median over all calls, and serialisation
/// — self time, answer minus front end minus run — is taken per request
/// from the fastest call of each, then the median over requests, so that
/// two large numbers are never subtracted across different requests.
fn class_ledger(
    serve_graph: &ServeGraph,
    pools: &[Vec<Request>],
    tracer: &Tracer,
    m: &mut Metrics,
) -> Result<ClassLedger, String> {
    let ServeGraph::Mapped(mapped) = serve_graph else {
        return Err("the ledger runs on the mapped snapshot".into());
    };
    let engine = Engine::new();
    let options = ServerOptions::default();
    let drift = EngineOptions::default().stats_drift_factor;
    let mut ledger = ClassLedger::default();
    // (parse, bind, plan miss, plan hit) medians in µs per lookup class.
    let mut front: Vec<(Class, [f64; 4])> = Vec::new();
    let mut seq = 0u64;

    for class in Class::ALL {
        let pool = &pools[class.index()];
        if pool.is_empty() {
            return Err(format!("no ledger requests for {}", class.name()));
        }
        let target = if class.is_lookup() { CALLS } else { SLOW_CALLS };
        let reps = target.div_ceil(pool.len()).max(2);
        let (mut full, mut binds, mut miss, mut hit, mut run, mut answer) = (
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
        );
        let (mut ser, mut bytes, mut steps_sum, mut run_sum) = (Vec::new(), 0usize, 0u64, 0u64);
        let warm_cache = PlanCache::default();

        for req in pool {
            let (mut best_front, mut best_run, mut best_answer) = (u64::MAX, u64::MAX, u64::MAX);
            for rep in 0..reps {
                // Front end: the whole of Query::parse, then bind alone;
                // the difference is lexing + parsing.
                let (q, ns) = tracer.time("query", "Query::parse", || Query::parse(&req.text));
                let q = q.map_err(|e| format!("{}: {e}", req.text))?;
                full.push(ns);
                best_front = best_front.min(ns);
                let (b, ns) = tracer.time("query", "bind", || bind(&q));
                black_box(b.map_err(|e| e.to_string())?);
                binds.push(ns);
                if class.is_lookup() {
                    let fresh = PlanCache::default();
                    let plan = |cache: &PlanCache| {
                        black_box(cache.lookup_or_plan(
                            mapped,
                            &q.bound,
                            q.fingerprint,
                            PathSemantics::Enumerate,
                            drift,
                        ));
                    };
                    miss.push(tracer.time("query", "plan (miss)", || plan(&fresh)).1);
                    if rep == 0 {
                        plan(&warm_cache);
                    }
                    hit.push(tracer.time("query", "plan (hit)", || plan(&warm_cache)).1);
                }

                // Executor: Engine::run on the parsed query (its plan lookup
                // hits after the first call).
                seq += 1;
                let (r, ns) =
                    tracer.time("query", &format!("Engine::run {}", class.name()), || {
                        as_worker(seq, || engine.run(mapped, &q))
                    });
                let r = r.map_err(|e| e.to_string())?;
                run.push(ns);
                best_run = best_run.min(ns);
                run_sum += ns;
                steps_sum += r.steps;
                black_box(r.rows.len());

                // The serve path in-process: parse + bind + run + serialise.
                seq += 1;
                let (reply, ns) = tracer.time(
                    "serve",
                    &format!("answer_query_line {}", class.name()),
                    || {
                        as_worker(seq, || {
                            answer_query_line(serve_graph, &engine, &options, &req.text)
                        })
                    },
                );
                if !reply.starts_with("{\"ok\": true") {
                    return Err(format!("in-process answer failed: {reply}"));
                }
                answer.push(ns);
                best_answer = best_answer.min(ns);
                bytes += reply.len();
            }
            ser.push(
                best_answer
                    .saturating_sub(best_front)
                    .saturating_sub(best_run) as f64,
            );
        }

        let calls = (pool.len() * reps) as f64;
        let bind_us = med_ns(&binds) / 1e3;
        if class.is_lookup() {
            front.push((
                class,
                [
                    (med_ns(&full) / 1e3 - bind_us).max(0.0),
                    bind_us,
                    med_ns(&miss) / 1e3,
                    med_ns(&hit) / 1e3,
                ],
            ));
        }
        m.set(format!("query.run_us.{}", class.name()), med_ns(&run) / 1e3);
        m.set(
            format!("query.steps.{}", class.name()),
            pool.iter().map(|r| r.expected.steps).sum::<u64>() as f64 / pool.len() as f64,
        );
        m.set(
            format!("query.ns_per_step.{}", class.name()),
            if steps_sum == 0 {
                0.0
            } else {
                run_sum as f64 / steps_sum as f64
            },
        );
        let answer_us = med_ns(&answer) / 1e3;
        ledger.answer_us[class.index()] = answer_us;
        m.set(format!("serve.answer_us.{}", class.name()), answer_us);
        m.set(format!("serve.ser_us.{}", class.name()), median(&ser) / 1e3);
        m.set(
            format!("serve.reply_bytes.{}", class.name()),
            bytes as f64 / calls,
        );
    }

    // Front-end costs weighted over the ide_lookup mix.
    let total: f64 = IDE_MIX.iter().map(|(_, w)| f64::from(*w)).sum();
    let weighted = |i: usize| -> f64 {
        IDE_MIX
            .iter()
            .map(|(c, w)| {
                let row = front
                    .iter()
                    .find(|(fc, _)| fc == c)
                    .map_or(0.0, |(_, v)| v[i]);
                row * f64::from(*w) / total
            })
            .sum()
    };
    m.set("query.parse_us", weighted(0));
    m.set("query.bind_us", weighted(1));
    m.set("query.plan_miss_us", weighted(2));
    m.set("query.plan_hit_us", weighted(3));

    // Plan-cache effectiveness after an in-process replay of the lookups.
    let replay = Engine::new();
    for (class, _) in IDE_MIX {
        for req in &pools[class.index()] {
            black_box(
                replay
                    .run_str(mapped, &req.text)
                    .map_err(|e| e.to_string())?,
            );
        }
    }
    let pc = replay.plan_cache_stats();
    let lookups = pc.hits + pc.misses + pc.reseeds + pc.invalidations;
    m.set(
        "query.plan_cache_hit_ratio",
        pc.hits as f64 / lookups.max(1) as f64,
    );
    Ok(ledger)
}

/// Reference costs of the layers the wire cannot reach: embedded traversal,
/// the relational oracle, the extractor, and the literal Fig. 6 closure
/// under reachability semantics.
fn off_wire(
    mapped: &MappedGraph,
    profile: &Profile,
    tracer: &Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    let root = mapped
        .lookup_name(NameField::ShortName, &NamePattern::exact("pci_read_bases"))
        .map_err(|e| e.to_string())?
        .into_iter()
        .find(|&n| mapped.node_type(n) == NodeType::Function)
        .ok_or("pci_read_bases is not in the graph")?;

    for (dir, edge_dir, name) in [
        (
            Dir::Out,
            Direction::Outgoing,
            "core.closure_out_ns_per_edge",
        ),
        (Dir::In, Direction::Incoming, "core.closure_in_ns_per_edge"),
    ] {
        let mut per_edge = Vec::new();
        let mut edges = 0u64;
        for _ in 0..SWEEPS {
            let (closure, ns) = tracer.time("core", "transitive_closure", || {
                transitive_closure(mapped, root, dir, &[EdgeType::Calls], None)
            });
            // The traversal expands every typed edge of every node it
            // reaches, the root included.
            edges = closure
                .iter()
                .chain(std::iter::once(&root))
                .map(|&n| mapped.edges_dir(n, edge_dir, Some(EdgeType::Calls)).count() as u64)
                .sum();
            per_edge.push(ns as f64 / edges.max(1) as f64);
        }
        m.set(name, median(&per_edge));
        if dir == Dir::Out {
            m.set("core.closure_edges", edges as f64);
        }
    }

    let edges = frappe_relational::Relation::edges_from_graph(mapped, &[EdgeType::Calls]);
    let mut stats = frappe_relational::EvalStats::default();
    let (reach, ns) = tracer.time("relational", "recursive_reachability", || {
        frappe_relational::recursive_reachability(&edges, root, &mut stats)
    });
    black_box(reach.len());
    m.set("relational.closure_ms", ns as f64 / 1e6);
    m.set("relational.tuples_read", stats.tuples_read as f64);

    let spec =
        frappe_synth::MiniKernelSpec::from_scale(if profile.measurement { 0.05 } else { 0.01 });
    let (tree, db) = frappe_synth::mini_kernel(&spec);
    let (out, ns) = tracer.time("extract", "Extractor::extract", || {
        frappe_extract::Extractor::new().extract(&tree, &db)
    });
    let out = out.map_err(|e| e.to_string())?;
    let s = ns as f64 / 1e9;
    m.set("extract.loc_per_s", tree.total_lines() as f64 / s);
    m.set("extract.nodes_per_s", out.graph.node_count() as f64 / s);

    let reach = Engine::with_options(EngineOptions {
        path_semantics: PathSemantics::Reachability,
        ..EngineOptions::default()
    });
    let fig6 = Query::parse(&frappe_core::queries::figure6_comprehension(
        "pci_read_bases",
    ))
    .map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    for _ in 0..SWEEPS {
        let (r, ns) = tracer.time("query", "Engine::run fig6 (reachability)", || {
            reach.run(mapped, &fig6)
        });
        black_box(r.map_err(|e| e.to_string())?.rows.len());
        runs.push(ns);
    }
    m.set("query.reach_ms.fig6", med_ns(&runs) / 1e6);
    Ok(())
}

/// Runs the whole in-process ledger. `pools[class.index()]` holds the
/// requests each class is measured on.
pub fn measure(
    snapshot: &Path,
    owned: &GraphStore,
    pools: &[Vec<Request>],
    profile: &Profile,
    tracer: &Tracer,
    m: &mut Metrics,
) -> Result<ClassLedger, String> {
    open_side(snapshot, tracer, m)?;
    let serve_graph = ServeGraph::Mapped(MappedGraph::open(snapshot).map_err(|e| e.to_string())?);
    let ServeGraph::Mapped(mapped) = &serve_graph else {
        unreachable!("constructed as Mapped just above")
    };
    read_side(mapped, owned, tracer, m)?;
    let ledger = class_ledger(&serve_graph, pools, tracer, m)?;
    off_wire(mapped, profile, tracer, m)?;
    Ok(ledger)
}
