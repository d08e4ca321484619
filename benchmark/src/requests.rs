//! Request generation: seeded sampling of query parameters from the owned
//! reference graph, the step-band and crash guards, and the request files.
//!
//! The seed drives only which names are asked for and in which order; the
//! graph itself never depends on it. Every accepted request carries the
//! oracle's expected answer, so parent and change are held to byte-identical
//! inputs and outputs.

use crate::config::{
    mix_counts, Band, Class, Mix, Profile, MAX_CALLS_DEPTH, SEARCH_IMAGE, SEARCH_IMAGE_ONE_IN,
};
use crate::oracle::{reference, Expected};
use frappe_core::queries;
use frappe_harness::rng::{stream, Rng};
use frappe_model::{EdgeId, EdgeType, Label, NodeId, NodeType};
use frappe_query::{Engine, EngineOptions};
use frappe_store::{GraphStore, NameField, NamePattern};
use std::collections::BTreeSet;
use std::io::Write;
use std::path::Path;
use std::time::Duration;

/// One request with its expected answer.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    pub class: Class,
    pub text: String,
    pub expected: Expected,
}

/// Figure 5's planted landmark tuple — the only parameters `debug` is ever
/// asked with, because its `calls*` is unbounded.
pub fn landmark_debug_text(call_line: u32) -> String {
    queries::figure5_debugging(
        "sr_media_change",
        "get_sectorsize",
        "packet_command",
        "cmd",
        call_line,
    )
}

/// Refuses any request that could crash or wedge the server under test:
/// a variable-length `calls` pattern must carry an upper bound of at most
/// [`MAX_CALLS_DEPTH`]. The single exception is the `debug` class, whose
/// text must be exactly the planted landmark query.
pub fn guard(class: Class, text: &str, landmark: &str) -> Result<(), String> {
    if class == Class::Debug {
        return if text == landmark {
            Ok(())
        } else {
            Err("debug may only be asked with the planted landmark parameters".into())
        };
    }
    let lower = text.to_ascii_lowercase();
    let mut rest = lower.as_str();
    while let Some(open) = rest.find('[') {
        let close = rest[open..]
            .find(']')
            .map(|c| open + c)
            .ok_or("unterminated relationship pattern")?;
        let rel = &rest[open + 1..close];
        rest = &rest[close + 1..];
        let Some(star) = rel.find('*') else { continue };
        if !rel[..star].contains("calls") {
            continue;
        }
        let bounds = rel[star + 1..].trim();
        let upper = match bounds.split_once("..") {
            Some((_, hi)) => hi.trim(),
            None => bounds,
        };
        let digits: String = upper.chars().take_while(char::is_ascii_digit).collect();
        match digits.parse::<u32>() {
            Ok(hi) if hi <= MAX_CALLS_DEPTH => {}
            Ok(hi) => {
                return Err(format!(
                    "calls* depth {hi} exceeds the limit of {MAX_CALLS_DEPTH}"
                ))
            }
            Err(_) => return Err("unbounded calls* pattern".into()),
        }
    }
    Ok(())
}

fn plain_name(s: &str) -> bool {
    !s.is_empty() && s.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
}

fn module_name(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.')
}

/// Candidate parameter sources, collected once from the reference graph.
pub struct Sources<'g> {
    g: &'g GraphStore,
    symbols: Vec<NodeId>,
    containers: Vec<NodeId>,
    /// Functions whose estimated expansion lands in the class's band, each
    /// with the estimate, for `nbr_out`, `nbr_in` and `nbr_count` in that
    /// order.
    nbr_roots: [Vec<(NodeId, u64)>; 3],
    modules: Vec<NodeId>,
    image: Option<NodeId>,
    field_names: Vec<String>,
    /// Lower-cased short names of every node, sorted: what the name index
    /// matches against, for counting hits before a query is ever run.
    sorted_names: Vec<String>,
    landmark: String,
}

impl<'g> Sources<'g> {
    /// `call_line` is the planted line of `sr_media_change`'s call to
    /// `get_sectorsize` (the paper pins 236).
    pub fn new(
        g: &'g GraphStore,
        profile: &Profile,
        call_line: u32,
    ) -> Result<Sources<'g>, String> {
        let err = |e: frappe_store::StoreError| e.to_string();
        let with_label = |label: Label| -> Result<Vec<NodeId>, String> {
            Ok(g.nodes_with_label(label).map_err(err)?.to_vec())
        };
        let symbols: Vec<NodeId> = with_label(Label::Symbol)?
            .into_iter()
            .filter(|&n| plain_name(g.node_short_name(n)))
            .collect();
        let containers: Vec<NodeId> = with_label(Label::Container)?
            .into_iter()
            .filter(|&n| g.node_labels(n).contains(Label::Symbol) && plain_name(g.node_name(n)))
            .collect();
        let of_type = |ty: NodeType| -> Result<Vec<NodeId>, String> {
            Ok(g.nodes_with_type(ty).map_err(err)?.to_vec())
        };
        let functions: Vec<NodeId> = of_type(NodeType::Function)?
            .into_iter()
            .filter(|&n| plain_name(g.node_short_name(n)))
            .collect();
        let image = g
            .lookup_name(NameField::ShortName, &NamePattern::exact(SEARCH_IMAGE))
            .map_err(err)?
            .into_iter()
            .find(|&n| g.node_type(n) == NodeType::Module);
        let modules: Vec<NodeId> = of_type(NodeType::Module)?
            .into_iter()
            .filter(|&n| Some(n) != image && module_name(g.node_short_name(n)))
            .collect();
        let field_names: BTreeSet<&str> = of_type(NodeType::Field)?
            .into_iter()
            .map(|n| g.node_short_name(n))
            .filter(|s| plain_name(s))
            .collect();
        let mut sorted_names: Vec<String> = g
            .nodes()
            .map(|n| g.node_short_name(n).to_ascii_lowercase())
            .collect();
        sorted_names.sort_unstable();
        let calls: Vec<(u32, u32)> = g
            .edges()
            .filter(|&e| g.edge_type(e) == EdgeType::Calls)
            .map(|e| (g.edge_src(e).0, g.edge_dst(e).0))
            .collect();
        let roots_in_band = |class: Class, outgoing: bool, depth: u32| -> Vec<(NodeId, u64)> {
            let band = profile.band(class, false);
            let table = walk_table(g.node_capacity(), &calls, outgoing, depth);
            // The estimate never undershoots and overshoots by under a
            // percent; the reference run has the last word.
            let hi = band.steps.1.saturating_add(band.steps.1 / 32);
            functions
                .iter()
                .map(|f| (*f, table[f.index()]))
                .filter(|(_, steps)| (band.steps.0..=hi).contains(steps))
                .collect()
        };
        let nbr_roots = [
            roots_in_band(Class::NbrOut, true, 4),
            roots_in_band(Class::NbrIn, false, 3),
            roots_in_band(Class::NbrCount, true, 5),
        ];
        if symbols.is_empty()
            || containers.is_empty()
            || modules.is_empty()
            || nbr_roots.iter().any(Vec::is_empty)
        {
            return Err(
                "reference graph lacks symbols, containers, modules or in-band call roots".into(),
            );
        }
        Ok(Sources {
            g,
            symbols,
            containers,
            nbr_roots,
            modules,
            image,
            field_names: field_names.into_iter().map(str::to_owned).collect(),
            sorted_names,
            landmark: landmark_debug_text(call_line),
        })
    }

    pub fn landmark(&self) -> &str {
        &self.landmark
    }

    /// Nodes whose lower-cased short name starts with `prefix` (`exact`:
    /// equals it) — the row count of a name lookup, from two binary searches.
    fn name_hits(&self, prefix: &str, exact: bool) -> u64 {
        let key = prefix.to_ascii_lowercase();
        let lo = self
            .sorted_names
            .partition_point(|s| s.as_str() < key.as_str());
        let hi = if exact {
            self.sorted_names
                .partition_point(|s| s.as_str() <= key.as_str())
        } else {
            self.sorted_names[lo..].partition_point(|s| s.starts_with(&key)) + lo
        };
        (hi - lo) as u64
    }

    fn pick(rng: &mut Rng, xs: &[NodeId]) -> NodeId {
        xs[rng.random_range(0..xs.len())]
    }

    /// Draws the text of one candidate request of `class`, with the step
    /// estimate where one exists; `None` when the draw has no usable
    /// parameters or cheap counting already shows it out of band (the caller
    /// draws again).
    fn candidate(
        &self,
        class: Class,
        image: bool,
        band: &Band,
        rng: &mut Rng,
    ) -> Option<(String, Option<u64>)> {
        let g = self.g;
        let nbr = |rng: &mut Rng, i: usize| {
            let (root, estimate) = self.nbr_roots[i][rng.random_range(0..self.nbr_roots[i].len())];
            (g.node_short_name(root), Some(estimate))
        };
        let text = match class {
            Class::Xref => {
                let e = EdgeId(rng.random_range(0..u32::try_from(g.edge_capacity()).ok()?));
                if !g.edge_exists(e) {
                    return None;
                }
                let range = g.edge_name_range(e)?;
                let symbol = g.node_short_name(g.edge_dst(e));
                // The filter walks the incoming edges of every node of that
                // name: refuse hubs and common names before running them.
                if !plain_name(symbol) || self.name_hits(symbol, true) > 8 {
                    return None;
                }
                let scanned: u64 = g
                    .lookup_name(NameField::ShortName, &NamePattern::exact(symbol))
                    .ok()?
                    .iter()
                    .map(|&n| g.in_degree(n) as u64)
                    .sum();
                if scanned > band.steps.1 {
                    return None;
                }
                queries::figure4_goto_definition(
                    symbol,
                    range.file.0,
                    range.start.line,
                    range.start.col,
                )
            }
            Class::Label => {
                queries::table6_cypher2x(g.node_name(Self::pick(rng, &self.containers)))
            }
            Class::NameExact => {
                let name = g.node_short_name(Self::pick(rng, &self.symbols));
                if !(band.rows.0..=band.rows.1).contains(&self.name_hits(name, true)) {
                    return None;
                }
                format!("START n=node:node_auto_index('short_name: {name}') RETURN n")
            }
            Class::NamePrefix => {
                let name = g.node_short_name(Self::pick(rng, &self.symbols));
                let prefix = &name[..name.rfind('_').filter(|&i| i >= 2)? + 1];
                if !(band.rows.0..=band.rows.1).contains(&self.name_hits(prefix, false)) {
                    return None;
                }
                format!("START n=node:node_auto_index('short_name: {prefix}*') RETURN n")
            }
            Class::Debug => self.landmark.clone(),
            Class::Search => {
                let module = if image {
                    self.image?
                } else {
                    Self::pick(rng, &self.modules)
                };
                let field = &self.field_names[rng.random_range(0..self.field_names.len())];
                queries::figure3_code_search(g.node_short_name(module), field)
            }
            Class::NbrOut => {
                let (root, estimate) = nbr(rng, 0);
                return Some((
                    format!(
                        "START n=node:node_auto_index('short_name: {root}') \
                         MATCH n -[:calls*1..4]-> m RETURN distinct m"
                    ),
                    estimate,
                ));
            }
            Class::NbrIn => {
                let (root, estimate) = nbr(rng, 1);
                return Some((
                    format!(
                        "START n=node:node_auto_index('short_name: {root}') \
                         MATCH n <-[:calls*1..3]- m RETURN distinct m"
                    ),
                    estimate,
                ));
            }
            Class::NbrCount => {
                let (root, estimate) = nbr(rng, 2);
                return Some((
                    format!(
                        "START n=node:node_auto_index('short_name: {root}') \
                         MATCH n -[:calls*1..5]-> m RETURN count(m)"
                    ),
                    estimate,
                ));
            }
        };
        Some((text, None))
    }
}

/// For every node, an upper estimate of the executor's step count for a
/// `calls*1..depth` expansion anchored there: one tick for the anchor plus
/// one per edge of every walk of up to `depth` hops (relationship-unique
/// enumeration only prunes the few walks that reuse an edge, so this lands
/// within a percent). Walk counts per depth follow from the previous depth
/// in one pass over the `calls` edges, so the whole table costs less than
/// enumerating the paths of a single heavy root — which is what lets the
/// generator draw only roots that will land in band.
///
/// `calls` holds the `(source, target)` pairs; `outgoing` picks the
/// direction walks follow.
pub fn walk_table(nodes: usize, calls: &[(u32, u32)], outgoing: bool, depth: u32) -> Vec<u64> {
    let mut total = vec![1u64; nodes];
    let mut prev = vec![1u64; nodes];
    for _ in 0..depth {
        let mut cur = vec![0u64; nodes];
        for &(src, dst) in calls {
            let (from, to) = if outgoing { (src, dst) } else { (dst, src) };
            cur[from as usize] = cur[from as usize].saturating_add(prev[to as usize]);
        }
        for (t, c) in total.iter_mut().zip(&cur) {
            *t = t.saturating_add(*c);
        }
        prev = cur;
    }
    total
}

/// Whether accepting a request of `steps` keeps the class's running mean
/// moving toward `target`.
fn pulls_toward(target: u64, sum: u64, count: u64, steps: u64) -> bool {
    if count == 0 {
        return true;
    }
    if sum / count > target {
        steps <= target
    } else {
        steps >= target
    }
}

fn in_band(band: &Band, e: &Expected) -> bool {
    (band.steps.0..=band.steps.1).contains(&e.steps)
        && (band.rows.0..=band.rows.1).contains(&e.rows)
}

/// RNG stream namespaces: one per (class, stratum), plus the final shuffle.
fn stream_index(class: Class, image: bool, idx: u64) -> u64 {
    ((class.index() as u64 * 2 + u64::from(image)) << 40) | idx
}
const SHUFFLE_STREAM: u64 = u64::MAX;

/// Draws `want` in-band requests of one class. Candidates are numbered and
/// each draws from its own RNG stream; selection (cheap counts, and for the
/// heavy classes the balance of estimated steps) runs in candidate order,
/// then only the selected candidates are run on the reference graph, in
/// parallel. The result is a function of the seed alone, whatever the thread
/// count.
fn fill(
    src: &Sources<'_>,
    profile: &Profile,
    class: Class,
    image: bool,
    want: usize,
    seed: u64,
) -> Result<Vec<Request>, String> {
    if want == 0 {
        return Ok(Vec::new());
    }
    let band = profile.band(class, image);
    // A candidate that still runs over its band is refused by budget
    // exhaustion instead of being run to completion.
    let engine = Engine::with_options(EngineOptions {
        max_steps: band.steps.1.saturating_add(1),
        timeout: Some(Duration::from_secs(2)),
        ..EngineOptions::default()
    });
    let run = |text: String| -> Option<Request> {
        reference(&engine, src.g, &text)
            .ok()
            .filter(|e| in_band(&band, e))
            .map(|expected| Request {
                class,
                text,
                expected,
            })
    };
    if class == Class::Debug {
        guard(class, src.landmark(), src.landmark())?;
        let one = run(src.landmark().to_owned()).ok_or("the landmark debug query left its band")?;
        return Ok(vec![one; want]);
    }

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
    let limit = (want as u64 * 2_000).max(100_000);
    let mut out: Vec<Request> = Vec::with_capacity(want);
    let mut next = 0u64;
    while out.len() < want {
        // Select: as many candidates as are still missing.
        let (mut sum, mut count) = (
            out.iter().map(|r| r.expected.steps).sum::<u64>(),
            out.len() as u64,
        );
        let mut chosen: Vec<String> = Vec::new();
        while chosen.len() < want - out.len() {
            if next >= limit {
                return Err(format!(
                    "only {} of {want} {} requests found in band after {next} candidates",
                    out.len(),
                    class.name()
                ));
            }
            let mut rng = stream(seed, stream_index(class, image, next));
            next += 1;
            let Some((text, estimate)) = src.candidate(class, image, &band, &mut rng) else {
                continue;
            };
            guard(class, &text, src.landmark())?;
            if let (Some(target), Some(estimate)) = (band.target_steps, estimate) {
                if !pulls_toward(target, sum, count, estimate) {
                    continue;
                }
                sum += estimate;
                count += 1;
            }
            chosen.push(text);
        }
        // Run the selected candidates; keep, in order, those in band.
        let run = &run;
        let chosen = &chosen;
        let mut ran: Vec<(usize, Option<Request>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        (t..chosen.len())
                            .step_by(threads)
                            .map(|i| (i, run(chosen[i].clone())))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("reference run panicked"))
                .collect()
        });
        ran.sort_by_key(|(i, _)| *i);
        out.extend(ran.into_iter().filter_map(|(_, r)| r));
    }
    crate::progress(&format!(
        "  {}{}: {want} requests from {next} candidates, mean {} steps",
        class.name(),
        if image { " (image)" } else { "" },
        out.iter().map(|r| r.expected.steps).sum::<u64>() / want as u64
    ));
    Ok(out)
}

/// `n` requests of a single class (cold cycles, the per-class ledger).
pub fn class_pool(
    src: &Sources<'_>,
    profile: &Profile,
    class: Class,
    n: usize,
    seed: u64,
) -> Result<Vec<Request>, String> {
    fill(src, profile, class, false, n, seed)
}

/// A pool of `n` requests in the exact class shares of `mix`, in seeded
/// order. One in [`SEARCH_IMAGE_ONE_IN`] `search` requests starts from the
/// whole image, so the class's mean cost does not swing with the seed.
pub fn build_pool(
    src: &Sources<'_>,
    profile: &Profile,
    mix: Mix,
    n: usize,
    seed: u64,
) -> Result<Vec<Request>, String> {
    let mut pool = Vec::with_capacity(n);
    for (class, want) in mix_counts(mix, n) {
        let from_image = if class == Class::Search && src.image.is_some() {
            want / SEARCH_IMAGE_ONE_IN
        } else {
            0
        };
        pool.extend(fill(src, profile, class, true, from_image, seed)?);
        pool.extend(fill(src, profile, class, false, want - from_image, seed)?);
    }
    stream(seed, SHUFFLE_STREAM).shuffle(&mut pool);
    Ok(pool)
}

/// Renders the request file: one line per request with class, expected row
/// count, expected hash, reference steps and the query text.
pub fn render_requests<'r>(pool: impl IntoIterator<Item = &'r Request>) -> String {
    let mut out = String::new();
    for r in pool {
        out.push_str(&format!(
            "{}\trows={}\thash={:016x}\tsteps={}\t{}\n",
            r.class.name(),
            r.expected.rows,
            r.expected.hash,
            r.expected.steps,
            r.text
        ));
    }
    out
}

pub fn write_requests<'r>(
    path: &Path,
    pool: impl IntoIterator<Item = &'r Request>,
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(render_requests(pool).as_bytes())?;
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{IDE_MIX, SEARCH_MIX};
    use frappe_synth::{generate, SynthSpec};

    #[test]
    fn guard_refuses_unbounded_and_deep_calls() {
        let lm = landmark_debug_text(236);
        let q = |pat: &str| {
            format!("START n=node:node_auto_index('short_name: f') MATCH n {pat} m RETURN m")
        };
        assert!(guard(Class::NbrOut, &q("-[:calls*1..4]->"), &lm).is_ok());
        assert!(guard(Class::NbrCount, &q("-[:calls*1..6]->"), &lm).is_ok());
        assert!(guard(Class::NbrIn, &q("<-[:calls*1..3]-"), &lm).is_ok());
        assert!(guard(Class::NbrOut, &q("-[:calls*3]->"), &lm).is_ok());
        assert!(guard(Class::NbrOut, &q("-[:calls]->"), &lm).is_ok());
        // The literal Fig. 6 closure and its near misses.
        assert!(guard(Class::NbrOut, &q("-[:calls*]->"), &lm).is_err());
        assert!(guard(Class::NbrOut, &q("-[:calls*2..]->"), &lm).is_err());
        assert!(guard(Class::NbrOut, &q("-[:CALLS*]->"), &lm).is_err());
        assert!(guard(Class::NbrOut, &q("-[r:calls|reads*]->"), &lm).is_err());
        assert!(guard(Class::NbrCount, &q("-[:calls*1..12]->"), &lm).is_err());
        assert!(guard(Class::NbrCount, &q("-[:calls*7]->"), &lm).is_err());
        // The file hierarchy is acyclic, so Fig. 3's `*` is allowed.
        let fig3 = queries::figure3_code_search("vmlinux", "id");
        assert!(guard(Class::Search, &fig3, &lm).is_ok());
        // Fig. 5 only with the planted tuple.
        assert!(guard(Class::Debug, &lm, &lm).is_ok());
        let other = queries::figure5_debugging("a", "b", "c", "d", 1);
        assert!(guard(Class::Debug, &other, &lm).is_err());
        assert!(guard(Class::Xref, &lm, &lm).is_err());
    }

    #[test]
    fn balanced_acceptance_pins_the_mean() {
        let mut rng = Rng::seed_from_u64(9);
        let (mut sum, mut count) = (0u64, 0u64);
        while count < 64 {
            let steps = rng.random_range(40_000u64..=100_000);
            if pulls_toward(65_000, sum, count, steps) {
                sum += steps;
                count += 1;
            }
        }
        let mean = sum as f64 / count as f64;
        assert!((mean / 65_000.0 - 1.0).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn pools_are_a_function_of_the_seed_alone() {
        let out = generate(&SynthSpec::scaled(0.01));
        let src = Sources::new(
            &out.graph,
            &Profile::quick(),
            out.landmarks.failing_call_line,
        )
        .unwrap();
        let profile = Profile::quick();
        for mix in [IDE_MIX, SEARCH_MIX] {
            let a = build_pool(&src, &profile, mix, 100, 7).unwrap();
            let b = build_pool(&src, &profile, mix, 100, 7).unwrap();
            let c = build_pool(&src, &profile, mix, 100, 8).unwrap();
            assert_eq!(render_requests(&a), render_requests(&b));
            assert_ne!(render_requests(&a), render_requests(&c));
            // Same class mix (within 2 %; exact by construction).
            for class in Class::ALL {
                let share = |p: &[Request]| {
                    p.iter().filter(|r| r.class == class).count() as f64 / p.len() as f64
                };
                assert!((share(&a) - share(&c)).abs() <= 0.02, "{class:?}");
            }
            for (class, want) in mix_counts(mix, 100) {
                assert_eq!(a.iter().filter(|r| r.class == class).count(), want);
            }
        }
    }

    #[test]
    fn request_file_lines_carry_every_column() {
        let out = generate(&SynthSpec::scaled(0.01));
        let src = Sources::new(
            &out.graph,
            &Profile::quick(),
            out.landmarks.failing_call_line,
        )
        .unwrap();
        let pool = class_pool(&src, &Profile::quick(), Class::NbrOut, 3, 1).unwrap();
        let text = render_requests(&pool);
        assert_eq!(text.lines().count(), 3);
        for (line, req) in text.lines().zip(&pool) {
            let cols: Vec<&str> = line.split('\t').collect();
            assert_eq!(cols.len(), 5);
            assert_eq!(cols[0], "nbr_out");
            assert_eq!(cols[1], format!("rows={}", req.expected.rows));
            assert!(cols[2].starts_with("hash=") && cols[2].len() == 5 + 16);
            assert_eq!(cols[3], format!("steps={}", req.expected.steps));
            assert_eq!(cols[4], req.text);
        }
    }
}
