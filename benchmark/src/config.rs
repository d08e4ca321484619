//! Everything the benchmark fixes in advance: query classes, workloads,
//! request mixes, step bands, the `mixed_open` rates, and the names of the
//! metrics. `BENCHMARK.json` may carry only the keys the driver's contract
//! lists, so the constants the issue wanted there live here instead and are
//! echoed into every `BENCH_e2e.json` under `"config"`.

/// The nine query classes. Names are reused as metric suffixes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Class {
    /// Fig. 4 go-to-definition: edge-property filter on the anchor's
    /// incoming edges.
    Xref,
    /// Table 6 Cypher-2.x grouped-label lookup.
    Label,
    /// `node_auto_index('short_name: X')`.
    NameExact,
    /// `node_auto_index('short_name: X*')`.
    NamePrefix,
    /// Fig. 5 debugging, planted landmark parameters only.
    Debug,
    /// Fig. 3 module-constrained symbol search.
    Search,
    /// `calls*1..4`, `RETURN distinct m` — large reply.
    NbrOut,
    /// `<-[:calls*1..3]-`, `RETURN distinct m`.
    NbrIn,
    /// `calls*1..5`, `RETURN count(m)` — large expansion, one-row reply.
    NbrCount,
}

impl Class {
    pub const ALL: [Class; 9] = [
        Class::Xref,
        Class::Label,
        Class::NameExact,
        Class::NamePrefix,
        Class::Debug,
        Class::Search,
        Class::NbrOut,
        Class::NbrIn,
        Class::NbrCount,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Xref => "xref",
            Class::Label => "label",
            Class::NameExact => "name_exact",
            Class::NamePrefix => "name_prefix",
            Class::Debug => "debug",
            Class::Search => "search",
            Class::NbrOut => "nbr_out",
            Class::NbrIn => "nbr_in",
            Class::NbrCount => "nbr_count",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }

    /// Cheap, index-anchored classes (the interactive lookups whose wait
    /// `mixed_open` measures) as opposed to the expansion-heavy ones.
    pub fn is_lookup(self) -> bool {
        matches!(
            self,
            Class::Xref | Class::Label | Class::NameExact | Class::NamePrefix | Class::Debug
        )
    }
}

/// A request mix: classes with integer weights.
pub type Mix = &'static [(Class, u32)];

pub const IDE_MIX: Mix = &[
    (Class::Xref, 30),
    (Class::NameExact, 25),
    (Class::Label, 20),
    (Class::NamePrefix, 15),
    (Class::Debug, 10),
];

pub const SEARCH_MIX: Mix = &[
    (Class::Search, 30),
    (Class::NbrOut, 30),
    (Class::NbrCount, 25),
    (Class::NbrIn, 15),
];

/// What one `cold_start` cycle sends, in order.
pub const COLD_SEQUENCE: [Class; 4] = [Class::NameExact, Class::NbrOut, Class::Label, Class::NbrIn];

/// Splits `n` pool slots over a mix by largest remainder, so the class
/// shares of a pool are exact and identical for every seed.
pub fn mix_counts(mix: Mix, n: usize) -> Vec<(Class, usize)> {
    let total: u32 = mix.iter().map(|(_, w)| w).sum();
    let mut out: Vec<(Class, usize, u64)> = mix
        .iter()
        .map(|&(c, w)| {
            let exact = n as u64 * u64::from(w);
            (
                c,
                (exact / u64::from(total)) as usize,
                exact % u64::from(total),
            )
        })
        .collect();
    let mut left = n - out.iter().map(|(_, k, _)| k).sum::<usize>();
    let mut order: Vec<usize> = (0..out.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(out[i].2));
    for i in order {
        if left == 0 {
            break;
        }
        out[i].1 += 1;
        left -= 1;
    }
    out.into_iter().map(|(c, k, _)| (c, k)).collect()
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    IdeLookup,
    CodeSearch,
    MixedOpen,
    ColdStart,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::IdeLookup,
        Workload::CodeSearch,
        Workload::MixedOpen,
        Workload::ColdStart,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IdeLookup => "ide_lookup",
            Workload::CodeSearch => "code_search",
            Workload::MixedOpen => "mixed_open",
            Workload::ColdStart => "cold_start",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The tail percentile `latency_tail_us` reports on this workload, as
    /// a share. Fixed here; a window with fewer than ten samples beyond it
    /// is invalid, never re-ranked.
    pub fn tail(self) -> f64 {
        match self {
            Workload::ColdStart => 0.60,
            _ => 0.99,
        }
    }

    /// Requests each connection keeps in flight (closed loops).
    pub fn depth(self) -> usize {
        match self {
            Workload::IdeLookup => 8,
            _ => 1,
        }
    }
}

/// Fewest cycles an untraced `cold_start` window runs, so that its tail
/// percentile always has ten samples beyond it even on a slow machine.
pub const COLD_MIN_CYCLES: usize = 25;

/// Connections (= client threads) of every socket workload: `nproc` of the
/// machine the bounds were set on.
pub const CONNS: usize = 2;

/// Inclusive acceptance band for a candidate request, from its reference
/// run on the owned graph.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Band {
    pub steps: (u64, u64),
    pub rows: (u64, u64),
    /// When set, candidates are also accepted only while they pull the
    /// class's running mean step count toward this target, which pins the
    /// mean cost of a pool for every seed.
    pub target_steps: Option<u64>,
}

/// Deepest variable-length `calls` pattern the generator will emit.
pub const MAX_CALLS_DEPTH: u32 = 6;
/// Rows the server returns per reply (`ServerOptions::max_response_rows`).
pub const MAX_RESPONSE_ROWS: usize = 1_000;
/// A lookup answered later than this after its due time misses the limit.
pub const LATENCY_LIMIT_US: u64 = 5_000;
/// `client.late_p99_us` above this marks the `mixed_open` row unresolved.
/// Latency runs from the due time, so lateness is never hidden; the limit
/// only says when the offered load stopped resembling the schedule. On two
/// cores the sleeping pacer wakes behind two busy workers, which costs it
/// milliseconds at p99.
pub const LATE_LIMIT_US: u64 = 5_000;
/// Share of failed requests above which `run.sh` exits non-zero.
pub const MAX_FAILED_SHARE: f64 = 0.001;
/// One in this many `search` requests starts from the whole image.
pub const SEARCH_IMAGE_ONE_IN: usize = 8;
pub const SEARCH_IMAGE: &str = "vmlinux";

/// Scale-dependent settings: the measured profile (scale 1.0) and the
/// `--quick` smoke profile, whose output can never pass for a measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Profile {
    pub scale: f64,
    pub measurement: bool,
    pub setup_reps: usize,
    pub ide_pool: usize,
    pub heavy_pool: usize,
    /// Requests per class the cold cycles and the per-class ledger draw.
    pub ledger_pool: usize,
    /// `mixed_open` offered rates, requests per second over both
    /// connections. Set once on the seed commit and frozen.
    pub mixed_lookup_qps: f64,
    pub mixed_heavy_qps: f64,
    pub drain_ms: u64,
    /// Whether candidates must land inside the step bands; the quick graph
    /// is too small for them.
    pub banded: bool,
}

impl Profile {
    pub fn paper() -> Profile {
        Profile {
            scale: 1.0,
            measurement: true,
            setup_reps: 3,
            ide_pool: 4096,
            heavy_pool: 256,
            ledger_pool: 16,
            mixed_lookup_qps: 4000.0,
            mixed_heavy_qps: 90.0,
            drain_ms: 2_000,
            banded: true,
        }
    }

    pub fn quick() -> Profile {
        Profile {
            scale: 0.02,
            measurement: false,
            setup_reps: 3,
            ide_pool: 512,
            heavy_pool: 64,
            ledger_pool: 8,
            mixed_lookup_qps: 2000.0,
            mixed_heavy_qps: 40.0,
            drain_ms: 2_000,
            banded: false,
        }
    }

    /// The acceptance band of `class`. `image` selects the whole-image
    /// stratum of `search`.
    pub fn band(&self, class: Class, image: bool) -> Band {
        let any_rows = (0, u64::MAX);
        if !self.banded {
            // Smoke graph: anything that answers within the paper bands'
            // ceilings will do.
            let hi = if class.is_lookup() { 20_000 } else { 400_000 };
            return Band {
                steps: (0, hi),
                rows: if class.is_lookup() { (1, 64) } else { any_rows },
                target_steps: None,
            };
        }
        match class {
            Class::Xref => Band {
                steps: (1, 400),
                rows: (1, 1),
                target_steps: None,
            },
            Class::Label => Band {
                steps: (1, 64),
                rows: (1, 32),
                target_steps: None,
            },
            Class::NameExact => Band {
                steps: (0, 0),
                rows: (1, 8),
                target_steps: None,
            },
            Class::NamePrefix => Band {
                steps: (0, 0),
                rows: (2, 32),
                target_steps: None,
            },
            Class::Debug => Band {
                steps: (0, 20_000),
                rows: (1, 64),
                target_steps: None,
            },
            Class::Search if image => Band {
                steps: (100_000, 400_000),
                rows: any_rows,
                target_steps: None,
            },
            Class::Search => Band {
                steps: (5_000, 20_000),
                rows: any_rows,
                target_steps: None,
            },
            Class::NbrOut => Band {
                steps: (10_000, 30_000),
                rows: any_rows,
                target_steps: Some(18_000),
            },
            Class::NbrIn => Band {
                steps: (5_000, 20_000),
                rows: any_rows,
                target_steps: Some(10_000),
            },
            Class::NbrCount => Band {
                steps: (40_000, 100_000),
                rows: any_rows,
                target_steps: Some(65_000),
            },
        }
    }

    /// The settings block echoed into `BENCH_e2e.json`.
    pub fn to_json(&self) -> String {
        let bands: Vec<String> = Class::ALL
            .iter()
            .map(|&c| {
                let b = self.band(c, false);
                format!(
                    "\"{}\": {{\"steps\": [{}, {}], \"target_steps\": {}}}",
                    c.name(),
                    b.steps.0,
                    b.steps.1,
                    b.target_steps.map_or("null".into(), |t| t.to_string())
                )
            })
            .collect();
        let tails: Vec<String> = Workload::ALL
            .iter()
            .map(|w| format!("\"{}\": {}", w.name(), w.tail()))
            .collect();
        format!(
            "{{\"scale\": {}, \"setup_reps\": {}, \"conns\": {CONNS}, \"ide_pool\": {}, \
             \"heavy_pool\": {}, \"ledger_pool\": {}, \"mixed_lookup_qps\": {}, \
             \"mixed_heavy_qps\": {}, \"drain_ms\": {}, \"latency_limit_us\": {LATENCY_LIMIT_US}, \
             \"late_limit_us\": {LATE_LIMIT_US}, \"max_calls_depth\": {MAX_CALLS_DEPTH}, \
             \"search_image_one_in\": {SEARCH_IMAGE_ONE_IN}, \"tail\": {{{}}}, \"bands\": {{{}}}}}",
            self.scale,
            self.setup_reps,
            self.ide_pool,
            self.heavy_pool,
            self.ledger_pool,
            self.mixed_lookup_qps,
            self.mixed_heavy_qps,
            self.drain_ms,
            tails.join(", "),
            bands.join(", "),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_counts_are_exact_and_sum_to_n() {
        for n in [1usize, 7, 100, 256, 4096] {
            for mix in [IDE_MIX, SEARCH_MIX] {
                let counts = mix_counts(mix, n);
                assert_eq!(counts.iter().map(|(_, k)| k).sum::<usize>(), n);
                if n >= 100 {
                    for (&(c, w), &(c2, k)) in mix.iter().zip(&counts) {
                        assert_eq!(c, c2);
                        let share = k as f64 / n as f64;
                        assert!((share - f64::from(w) / 100.0).abs() < 0.02, "{c:?} {share}");
                    }
                }
            }
        }
        assert_eq!(
            mix_counts(SEARCH_MIX, 256),
            vec![
                (Class::Search, 77),
                (Class::NbrOut, 77),
                (Class::NbrCount, 64),
                (Class::NbrIn, 38)
            ]
        );
    }

    #[test]
    fn names_round_trip_and_fit_the_metric_alphabet() {
        for c in Class::ALL {
            assert!(c
                .name()
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_'));
        }
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("closure"), None);
    }

    #[test]
    fn config_block_is_valid_json() {
        for p in [Profile::paper(), Profile::quick()] {
            crate::json::Json::parse(&p.to_json()).expect("config json");
        }
    }
}
