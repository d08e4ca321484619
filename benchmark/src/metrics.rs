//! The metric catalogue: every name the benchmark reports, with its unit,
//! direction and (end to end) regression bound. `BENCHMARK.json` is rendered
//! from this table, and a unit test holds the committed file to it.

use crate::config::{Class, Workload};
use crate::json::{escape, num};

pub struct Spec {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

fn spec(name: impl Into<String>, unit: &'static str, better: &'static str) -> Spec {
    Spec {
        name: name.into(),
        unit,
        better,
    }
}

/// The seven end-to-end metrics with their regression bounds (share of the
/// parent's median). Same names on every workload. The spreads the bounds
/// were set from are recorded in `benchmark/README.md`.
pub fn end_to_end() -> Vec<(Spec, f64)> {
    vec![
        (spec("setup_s", "s", "lower"), 0.25),
        (spec("throughput_qps", "1/s", "higher"), 0.20),
        (spec("latency_p50_us", "us", "lower"), 0.25),
        (spec("latency_tail_us", "us", "lower"), 0.25),
        (spec("server_cpu_ms_per_kop", "ms", "lower"), 0.20),
        (spec("rss_peak_mb", "MB", "lower"), 0.05),
        (spec("snapshot_mb", "MB", "lower"), 0.005),
    ]
}

/// The per-layer ledger, in report order.
pub fn per_layer() -> Vec<Spec> {
    let mut v = vec![
        // synth
        spec("synth.generate_s", "s", "lower"),
        spec("synth.nodes", "count", "higher"),
        spec("synth.edges", "count", "higher"),
        // store, write side
        spec("store.snapshot_encode_s", "s", "lower"),
        spec("store.snapshot_write_s", "s", "lower"),
        spec("store.snapshot_bytes", "B", "lower"),
        spec("store.freeze_s", "s", "lower"),
        // store, open side
        spec("store.open_mapped_ms", "ms", "lower"),
        spec("store.open_owned_ms", "ms", "lower"),
        spec("store.name_index_build_ms", "ms", "lower"),
        spec("store.csr_build_ms", "ms", "lower"),
        spec("store.label_index_build_ms", "ms", "lower"),
        spec("store.heap_after_indexes_mb", "MB", "lower"),
        // store, read side
        spec("store.adj_out_ns_per_edge.mapped", "ns", "lower"),
        spec("store.adj_in_ns_per_edge.mapped", "ns", "lower"),
        spec("store.adj_out_ns_per_edge.owned", "ns", "lower"),
        spec("store.node_prop_ns", "ns", "lower"),
        spec("store.edge_prop_ns", "ns", "lower"),
        spec("store.node_name_ns", "ns", "lower"),
        spec("store.name_lookup_exact_ns", "ns", "lower"),
        spec("store.name_lookup_prefix_ns_per_hit", "ns", "lower"),
        // query front end
        spec("query.parse_us", "us", "lower"),
        spec("query.bind_us", "us", "lower"),
        spec("query.plan_miss_us", "us", "lower"),
        spec("query.plan_hit_us", "us", "lower"),
        spec("query.plan_cache_hit_ratio", "ratio", "higher"),
    ];
    for c in Class::ALL {
        v.push(spec(format!("query.run_us.{}", c.name()), "us", "lower"));
    }
    for c in Class::ALL {
        v.push(spec(format!("query.steps.{}", c.name()), "count", "lower"));
    }
    for c in Class::ALL {
        v.push(spec(
            format!("query.ns_per_step.{}", c.name()),
            "ns",
            "lower",
        ));
    }
    v.push(spec("query.reach_ms.fig6", "ms", "lower"));
    for c in Class::ALL {
        v.push(spec(format!("serve.answer_us.{}", c.name()), "us", "lower"));
    }
    for c in Class::ALL {
        v.push(spec(format!("serve.ser_us.{}", c.name()), "us", "lower"));
    }
    for c in Class::ALL {
        v.push(spec(
            format!("serve.reply_bytes.{}", c.name()),
            "B",
            "lower",
        ));
    }
    v.push(spec("serve.wire_us", "us", "lower"));
    for c in Class::ALL {
        v.push(spec(format!("class.p50_us.{}", c.name()), "us", "lower"));
    }
    v.extend([
        spec("serve.req.recv_us", "us", "lower"),
        spec("serve.req.queue_us", "us", "lower"),
        spec("serve.req.exec_us", "us", "lower"),
        spec("serve.req.ser_us", "us", "lower"),
        spec("serve.req.write_us", "us", "lower"),
        spec("serve.loop.stalls", "count", "lower"),
        spec("serve.admit.shed", "count", "lower"),
        spec("serve.open_ready_ms", "ms", "lower"),
        spec("cold.first_name_ms", "ms", "lower"),
        spec("cold.first_expand_ms", "ms", "lower"),
        spec("cold.first_label_ms", "ms", "lower"),
        spec("core.closure_out_ns_per_edge", "ns", "lower"),
        spec("core.closure_in_ns_per_edge", "ns", "lower"),
        spec("core.closure_edges", "count", "lower"),
        spec("relational.closure_ms", "ms", "lower"),
        spec("relational.tuples_read", "count", "lower"),
        spec("extract.loc_per_s", "1/s", "higher"),
        spec("extract.nodes_per_s", "1/s", "higher"),
        spec("obs.trace_overhead_pct", "%", "lower"),
        spec("obs.off_gain_pct", "%", "lower"),
        spec("client.late_p99_us", "us", "lower"),
        spec("client.backlog_max", "count", "lower"),
        spec("client.within_limit_ratio", "ratio", "higher"),
        spec("client.cpu_s", "s", "lower"),
    ]);
    v
}

/// Measured values by metric name, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The `"metrics"` object of a result line: exactly the names of
    /// `specs`, each with its unit. A metric that was never measured is an
    /// error, not a silent omission.
    pub fn to_json(&self, specs: &[Spec]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(specs.len());
        for s in specs {
            let v = self
                .get(&s.name)
                .ok_or_else(|| format!("metric {} was not measured", s.name))?;
            parts.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(&s.name),
                num(v),
                s.unit
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }

    /// One `name value unit` line per spec, for the human reading the run.
    pub fn to_table(&self, specs: &[Spec]) -> String {
        let width = specs.iter().map(|s| s.name.len()).max().unwrap_or(0);
        specs
            .iter()
            .filter_map(|s| {
                self.get(&s.name)
                    .map(|v| format!("  {:<width$}  {:>16.4} {}\n", s.name, v, s.unit))
            })
            .collect()
    }
}

/// Why each workload exists, one line each (`BENCHMARK.json` `why`).
pub fn workload_why(w: Workload) -> &'static str {
    match w {
        Workload::IdeLookup => {
            "closed loop of cheap index-anchored lookups, 2 conns x depth 4: framing, epoll, \
             queue hand-off, parse/bind/plan cache and reply writing dominate; the store does almost nothing"
        }
        Workload::CodeSearch => {
            "closed loop of expansion-heavy queries, 2 conns x depth 1: Engine::run over mapped \
             adjacency dominates; serve-path changes should not move it"
        }
        Workload::MixedOpen => {
            "open loop, lookups at a fixed rate while heavy queries occupy the workers: measures \
             queueing and head-of-line wait of interactive lookups, timed from due time"
        }
        Workload::ColdStart => {
            "whole process cycles (spawn, four first queries, shutdown): snapshot open and lazy \
             index builds dominate; page cache warm, process cold"
        }
    }
}

/// The content of `BENCHMARK.json`.
pub fn manifest(run_seconds: u32) -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                escape(workload_why(*w))
            )
        })
        .collect();
    let e2e: Vec<String> = end_to_end()
        .iter()
        .map(|(s, bound)| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                s.name, s.unit, s.better, bound
            )
        })
        .collect();
    let layers: Vec<String> = per_layer()
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                s.name, s.unit, s.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

/// Window length the driver is told to use (`run_seconds`).
pub const RUN_SECONDS: u32 = 15;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn catalogue_fits_the_contract() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert_eq!(e2e.len(), 7);
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        let mut seen = BTreeSet::new();
        for s in e2e.iter().map(|(s, _)| s).chain(&layers) {
            assert!(name_ok(&s.name), "{}", s.name);
            assert!(seen.insert(s.name.clone()), "duplicate {}", s.name);
            assert!(s.unit.len() <= 16 && !s.unit.is_empty());
            assert!(s
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(matches!(s.better, "lower" | "higher"));
        }
        for w in Workload::ALL {
            assert!(seen.insert(w.name().to_owned()));
            let why = workload_why(w);
            assert!(why.len() <= 200 && !why.contains('\n'), "{}", why.len());
        }
        let setup = e2e.iter().find(|(s, _)| s.name == "setup_s").unwrap();
        assert_eq!((setup.0.unit, setup.0.better), ("s", "lower"));
        for (s, bound) in &e2e {
            assert!(*bound > 0.0 && *bound <= 0.25, "{}", s.name);
            assert!(*bound <= setup.1, "setup_s carries the largest bound");
        }
    }

    #[test]
    fn committed_manifest_is_the_rendered_one() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(committed, manifest(RUN_SECONDS));
        let doc = Json::parse(committed).expect("BENCHMARK.json parses");
        let Json::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn result_objects_name_every_metric_or_fail() {
        let layers = per_layer();
        let specs = &layers[..2];
        let mut m = Metrics::default();
        m.set("synth.generate_s", 2.25);
        assert!(m.to_json(specs).is_err());
        m.set("synth.nodes", 577_609.0);
        m.set("synth.nodes", 577_610.0); // overwrite, not duplicate
        let doc = Json::parse(&m.to_json(specs).unwrap()).unwrap();
        assert_eq!(
            doc.get("synth.nodes")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(577_610.0)
        );
        assert_eq!(
            doc.get("synth.generate_s")
                .unwrap()
                .get("unit")
                .unwrap()
                .as_str(),
            Some("s")
        );
    }
}
