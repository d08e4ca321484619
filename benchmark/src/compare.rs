//! `compare A.json B.json`: for every workload × end-to-end metric, both
//! medians with quartiles, the relative difference with its base, the bound
//! and a verdict; plus a diff of the counts that must repeat exactly.

use crate::config::{Class, Workload};
use crate::json::Json;
use crate::metrics::{end_to_end, Spec};
use crate::stats::{median, quartiles, spread};

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    /// Either side's own spread is wider than the bound, so the bound
    /// cannot be held against the difference.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(spec: &Spec, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match spec.better {
        "higher" => (a - b) / a.abs(),
        _ => (b - a) / a.abs(),
    }
}

pub fn verdict(spec: &Spec, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let wide = |v: &[f64]| spread(v).is_some_and(|s| s > bound);
    if wide(a) || wide(b) {
        Verdict::Unresolved
    } else if worsening(spec, median(a), median(b)) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Values of `metric` over the runs of `workload` with the given trace flag.
fn values(doc: &Json, workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("trace").and_then(Json::as_bool) == Some(trace)
        })
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn describe(v: &[f64]) -> String {
    match quartiles(v) {
        Some((q1, q3)) => format!("{:.4} [{:.4}, {:.4}] n={}", median(v), q1, q3, v.len()),
        None => format!("{:.4} n={}", median(v), v.len()),
    }
}

/// Renders the comparison; the flag says whether any row is `worse` or
/// `unresolved`, or any exact count changed.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut out = String::new();
    let mut flagged = false;
    for side in [a, b] {
        if side.get("measurement").and_then(Json::as_bool) != Some(true) {
            out.push_str("warning: a side is a --quick smoke run, not a measurement\n");
            flagged = true;
        }
    }
    out.push_str(&format!(
        "{:<12} {:<22} {:>38} {:>38} {:>9} {:>6}  verdict\n",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B vs A", "bound"
    ));
    for w in Workload::ALL {
        for (spec, bound) in end_to_end() {
            let (va, vb) = (
                values(a, w.name(), false, &spec.name),
                values(b, w.name(), false, &spec.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = verdict(&spec, bound, &va, &vb);
            flagged |= verdict != Verdict::Ok;
            let (ma, mb) = (median(&va), median(&vb));
            let rel = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
            out.push_str(&format!(
                "{:<12} {:<22} {:>38} {:>38} {:>+8.2}% {:>5.1}%  {}\n",
                w.name(),
                spec.name,
                describe(&va),
                describe(&vb),
                rel * 100.0,
                bound * 100.0,
                verdict.name()
            ));
        }
    }
    // Counts that identify the dataset and the work: any change is flagged.
    let mut exact = vec![
        "synth.nodes".to_owned(),
        "synth.edges".to_owned(),
        "store.snapshot_bytes".to_owned(),
    ];
    exact.extend(
        Class::ALL
            .iter()
            .map(|c| format!("query.steps.{}", c.name())),
    );
    for w in Workload::ALL {
        for name in &exact {
            let (va, vb) = (
                values(a, w.name(), true, name),
                values(b, w.name(), true, name),
            );
            let (Some(x), Some(y)) = (va.first(), vb.first()) else {
                continue;
            };
            if x != y || va.iter().any(|v| v != x) || vb.iter().any(|v| v != y) {
                flagged = true;
                out.push_str(&format!(
                    "count changed: {} on {}: {x} -> {y}\n",
                    name,
                    w.name()
                ));
            }
        }
    }
    if !flagged {
        out.push_str("every row ok; exact counts identical\n");
    }
    (out, flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, better: &'static str) -> Spec {
        Spec {
            name: name.into(),
            unit: "x",
            better,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let (higher, lower, bound) = (spec("qps", "higher"), spec("us", "lower"), 0.10);
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict(&higher, bound, &a, &a), Verdict::Ok);
        // Higher is better: a 20 % drop is worse, a 20 % rise is fine.
        let down: Vec<f64> = a.iter().map(|v| v * 0.8).collect();
        let up: Vec<f64> = a.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(&higher, bound, &a, &down), Verdict::Worse);
        assert_eq!(verdict(&higher, bound, &a, &up), Verdict::Ok);
        // A side noisier than the bound cannot be judged.
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(verdict(&higher, bound, &a, &noisy), Verdict::Unresolved);
        // Lower is better for latency.
        assert_eq!(verdict(&lower, bound, &a, &up), Verdict::Worse);
        assert_eq!(verdict(&lower, bound, &a, &down), Verdict::Ok);
    }

    fn doc(qps: f64, steps: f64) -> Json {
        let run = |trace: bool, name: &str, v: f64| {
            format!(
                "{{\"workload\": \"ide_lookup\", \"trace\": {trace}, \"metrics\": {{\"{name}\": {{\"value\": {v}, \"unit\": \"x\"}}}}}}"
            )
        };
        Json::parse(&format!(
            "{{\"measurement\": true, \"runs\": [{}, {}, {}]}}",
            run(false, "throughput_qps", qps),
            run(false, "throughput_qps", qps * 1.01),
            run(true, "query.steps.xref", steps)
        ))
        .unwrap()
    }

    #[test]
    fn compare_flags_regressions_and_changed_counts() {
        let (text, flagged) = compare(&doc(1000.0, 57.0), &doc(1005.0, 57.0));
        assert!(!flagged, "{text}");
        assert!(text.contains("throughput_qps") && text.contains(" ok"));
        let (text, flagged) = compare(&doc(1000.0, 57.0), &doc(500.0, 57.0));
        assert!(flagged && text.contains("worse"), "{text}");
        let (text, flagged) = compare(&doc(1000.0, 57.0), &doc(1000.0, 58.0));
        assert!(
            flagged && text.contains("count changed: query.steps.xref"),
            "{text}"
        );
    }
}
