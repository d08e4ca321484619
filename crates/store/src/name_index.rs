//! The name index — the paper's `node_auto_index`.
//!
//! Frappé's code-search use case (Section 4.1) "requires an index of symbol
//! names with wildcard or fuzzy matching support". Neo4j 1.x provided this
//! through an automatic Lucene index queried with
//! `node:node_auto_index('short_name: wakeup.elf')`. We implement the same
//! capability as a sorted term dictionary with postings lists, supporting
//! exact, prefix, and general wildcard (`*`, `?`) lookup, all
//! case-insensitive like Lucene's default analyzer.

use crate::view::GraphView;
use frappe_model::NodeId;

/// Which indexed field a lookup targets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NameField {
    /// The `SHORT_NAME` property (symbol or file name).
    ShortName,
    /// The `NAME` property (qualified name or file path).
    Name,
}

impl NameField {
    /// Parses the Lucene-style field name used in `START` clauses.
    pub fn parse(s: &str) -> Option<NameField> {
        match s.to_ascii_lowercase().as_str() {
            "short_name" => Some(NameField::ShortName),
            "name" => Some(NameField::Name),
            _ => None,
        }
    }
}

/// A parsed name pattern.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum NamePattern {
    /// No wildcards: exact (case-insensitive) term match.
    Exact(String),
    /// A single trailing `*`: prefix match (fast range scan).
    Prefix(String),
    /// General glob with `*` / `?`.
    Wildcard(String),
    /// Lucene-style fuzzy match (`term~` / `term~2`): terms within the
    /// given Levenshtein distance.
    Fuzzy(String, u8),
}

impl NamePattern {
    /// Builds an exact pattern.
    pub fn exact(s: &str) -> NamePattern {
        NamePattern::Exact(s.to_ascii_lowercase())
    }

    /// Parses a pattern string, classifying it by its wildcard structure.
    /// A trailing `~` (optionally `~1` / `~2`) selects fuzzy matching, like
    /// Lucene's fuzzy term queries.
    pub fn parse(s: &str) -> NamePattern {
        let lower = s.to_ascii_lowercase();
        if let Some(tilde) = lower.rfind('~') {
            let (term, dist) = lower.split_at(tilde);
            let dist = dist[1..].parse::<u8>().unwrap_or(1).min(3);
            if !term.contains(['*', '?']) {
                return NamePattern::Fuzzy(term.to_owned(), dist);
            }
        }
        let has_q = lower.contains('?');
        let star_count = lower.matches('*').count();
        if !has_q && star_count == 0 {
            NamePattern::Exact(lower)
        } else if !has_q && star_count == 1 && lower.ends_with('*') {
            NamePattern::Prefix(lower[..lower.len() - 1].to_owned())
        } else {
            NamePattern::Wildcard(lower)
        }
    }

    /// The literal prefix usable to narrow a term-dictionary scan.
    fn scan_prefix(&self) -> &str {
        match self {
            NamePattern::Exact(s) | NamePattern::Prefix(s) => s,
            NamePattern::Wildcard(s) => {
                let end = s.find(['*', '?']).unwrap_or(s.len());
                &s[..end]
            }
            // A fuzzy term can differ in its first character: no prefix.
            NamePattern::Fuzzy(..) => "",
        }
    }

    /// Whether `term` (already lower-cased) matches.
    pub fn matches(&self, term: &str) -> bool {
        match self {
            NamePattern::Exact(s) => term == s,
            NamePattern::Prefix(p) => term.starts_with(p.as_str()),
            NamePattern::Wildcard(p) => glob_match(p, term),
            NamePattern::Fuzzy(p, d) => edit_distance_at_most(p, term, *d as usize),
        }
    }
}

/// Banded Levenshtein: is `dist(a, b) ≤ k`? O(len·k) time, O(len) space.
pub fn edit_distance_at_most(a: &str, b: &str, k: usize) -> bool {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.len().abs_diff(b.len()) > k {
        return false;
    }
    const INF: usize = usize::MAX / 2;
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![INF; b.len() + 1];
    for i in 1..=a.len() {
        cur[0] = i;
        let lo = i.saturating_sub(k).max(1);
        let hi = (i + k).min(b.len());
        if lo > 1 {
            cur[lo - 1] = INF;
        }
        let mut row_min = cur[0];
        for j in lo..=hi {
            let sub = prev[j - 1] + usize::from(a[i - 1] != b[j - 1]);
            let del = prev[j] + 1;
            let ins = cur[j - 1] + 1;
            cur[j] = sub.min(del).min(ins);
            row_min = row_min.min(cur[j]);
        }
        if hi < b.len() {
            cur[hi + 1] = INF;
        }
        if row_min > k {
            return false;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()] <= k
}

/// Iterative glob matching with `*` (any run) and `?` (any one char).
/// Classic two-pointer algorithm with backtracking to the last `*`.
pub fn glob_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    let (mut pi, mut ti) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None;
    while ti < t.len() {
        if pi < p.len() && (p[pi] == '?' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == '*' {
            star = Some((pi, ti));
            pi += 1;
        } else if let Some((sp, st)) = star {
            pi = sp + 1;
            ti = st + 1;
            star = Some((sp, st + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '*' {
        pi += 1;
    }
    pi == p.len()
}

/// One field's term dictionary: the distinct lower-cased terms in sorted
/// order, each with its ascending postings, in three flat arrays.
///
/// Term `i`'s text is `text[text_start[i]..text_start[i + 1]]` and its
/// postings are `postings[post_start[i]..post_start[i + 1]]`.
#[derive(Debug, Default)]
struct TermIndex {
    text: String,
    text_start: Vec<u32>,
    post_start: Vec<u32>,
    postings: Vec<NodeId>,
}

impl TermIndex {
    /// Builds the dictionary over `g`'s live nodes from each node's symbol
    /// (`sym_of`) and symbol text (`resolve`): fold each used symbol once,
    /// sort and merge the folded texts (`Main`/`main`) into terms, then fill
    /// the postings in ascending node order so each list comes out sorted.
    fn build<'s, G: GraphView>(
        g: &G,
        symbols: usize,
        resolve: impl Fn(u32) -> &'s str,
        sym_of: impl Fn(NodeId) -> u32,
    ) -> TermIndex {
        let mut per_sym = vec![0u32; symbols];
        for id in g.nodes() {
            per_sym[sym_of(id) as usize] += 1;
        }
        // (start, end, symbol) of each used symbol's folded text in `folded`.
        let mut folded = String::new();
        let mut spans: Vec<(u32, u32, u32)> = Vec::new();
        for (sym, _) in per_sym.iter().enumerate().filter(|(_, &n)| n > 0) {
            let start = text_offset(folded.len());
            folded.push_str(resolve(sym as u32));
            folded[start as usize..].make_ascii_lowercase();
            spans.push((start, text_offset(folded.len()), sym as u32));
        }
        let text_of = |&(start, end, _): &(u32, u32, u32)| &folded[start as usize..end as usize];
        spans.sort_unstable_by(|a, b| text_of(a).cmp(text_of(b)));

        // Merge equal texts into terms; `per_sym` becomes symbol → term.
        let mut ix = TermIndex::default();
        let (mut total, mut prev) = (0u32, None);
        for span in &spans {
            let text = text_of(span);
            if prev != Some(text) {
                prev = Some(text);
                ix.text_start.push(text_offset(ix.text.len()));
                ix.post_start.push(total);
                ix.text.push_str(text);
            }
            let sym = span.2 as usize;
            total += per_sym[sym];
            per_sym[sym] = ix.text_start.len() as u32 - 1;
        }
        ix.text_start.push(text_offset(ix.text.len()));
        ix.post_start.push(total);
        drop((spans, folded));

        ix.postings = vec![NodeId(0); total as usize];
        let mut cursor = ix.post_start[..ix.len()].to_vec();
        for id in g.nodes() {
            let term = per_sym[sym_of(id) as usize] as usize;
            ix.postings[cursor[term] as usize] = id;
            cursor[term] += 1;
        }
        ix
    }

    fn len(&self) -> usize {
        self.text_start.len() - 1
    }

    fn term(&self, i: usize) -> &str {
        &self.text[self.text_start[i] as usize..self.text_start[i + 1] as usize]
    }

    fn postings(&self, i: usize) -> &[NodeId] {
        &self.postings[self.post_start[i] as usize..self.post_start[i + 1] as usize]
    }

    /// Simulated byte offset of term `i`'s entry for page-cache accounting.
    /// An entry costs its text, 16 bytes of header and 4 bytes per posting,
    /// so the running sum of the entries before `i` has this closed form
    /// (`i == len()` gives the total size).
    fn entry_offset(&self, i: usize) -> u64 {
        u64::from(self.text_start[i]) + 16 * i as u64 + 4 * u64::from(self.post_start[i])
    }

    /// Index of the first term ≥ `prefix`.
    fn lower_bound(&self, prefix: &str) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.term(mid) < prefix {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// Term-text offsets are `u32`: one field's text is bounded at 4 GiB.
fn text_offset(len: usize) -> u32 {
    u32::try_from(len).expect("name index text exceeds 4 GiB")
}

/// The two-field name index, shared by the owned store (built at freeze)
/// and the mapped reader (built on first lookup).
#[derive(Debug)]
pub(crate) struct NameIndex {
    short_name: TermIndex,
    name: TermIndex,
}

impl NameIndex {
    /// Builds the index over all live nodes of `g`. `resolve` gives the text
    /// of each of the store's `symbols` interned strings; `short_sym` and
    /// `name_sym` give a node's symbol for each field.
    pub(crate) fn build<'s, G: GraphView + Sync>(
        g: &G,
        symbols: usize,
        resolve: impl Fn(u32) -> &'s str + Sync,
        short_sym: impl Fn(NodeId) -> u32 + Sync,
        name_sym: impl Fn(NodeId) -> u32 + Sync,
    ) -> NameIndex {
        // The two field indexes are independent scans; build them
        // concurrently. Each is a pure function of the store, so the
        // result is identical to building them back to back.
        std::thread::scope(|scope| {
            let short = scope.spawn(|| TermIndex::build(g, symbols, &resolve, &short_sym));
            let name = TermIndex::build(g, symbols, &resolve, &name_sym);
            NameIndex {
                short_name: short.join().expect("short-name index build panicked"),
                name,
            }
        })
    }

    /// Simulated index size in bytes (Table 4 "Indexes" row contribution).
    pub(crate) fn storage_bytes(&self) -> usize {
        let total = |t: &TermIndex| t.entry_offset(t.len()) as usize;
        total(&self.short_name) + total(&self.name)
    }

    /// Looks up all nodes whose `field` term matches `pattern`, passing the
    /// `(offset, len)` of each term entry visited to `touch`.
    pub(crate) fn lookup(
        &self,
        field: NameField,
        pattern: &NamePattern,
        mut touch: impl FnMut(u64, u64),
    ) -> Vec<NodeId> {
        let terms = match field {
            NameField::ShortName => &self.short_name,
            NameField::Name => &self.name,
        };
        let prefix = pattern.scan_prefix();
        let mut out = Vec::new();
        let mut scanned = 0u64;
        for i in terms.lower_bound(prefix)..terms.len() {
            let term = terms.term(i);
            if !term.starts_with(prefix) {
                break;
            }
            scanned += 1;
            let offset = terms.entry_offset(i);
            touch(offset, terms.entry_offset(i + 1) - offset);
            if pattern.matches(term) {
                out.extend_from_slice(terms.postings(i));
            }
            if matches!(pattern, NamePattern::Exact(_)) {
                break;
            }
        }
        frappe_obs::counter!("store.name_index.lookups").incr();
        frappe_obs::counter!("store.name_index.scanned_terms").add(scanned);
        // Terms' postings are disjoint: sorting is all a merge needs.
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphStore;
    use frappe_model::NodeType;

    fn sample() -> GraphStore {
        let mut g = GraphStore::new();
        for name in [
            "main",
            "bar",
            "baz",
            "pci_read_bases",
            "sr_media_change",
            "Main",
        ] {
            g.add_node(NodeType::Function, name);
        }
        let f = g.add_node(NodeType::File, "wakeup.elf");
        g.set_node_name(f, "arch/x86/boot/wakeup.elf");
        g
    }

    #[test]
    fn pattern_classification() {
        assert_eq!(
            NamePattern::parse("main"),
            NamePattern::Exact("main".into())
        );
        assert_eq!(NamePattern::parse("ba*"), NamePattern::Prefix("ba".into()));
        assert_eq!(
            NamePattern::parse("b?r"),
            NamePattern::Wildcard("b?r".into())
        );
        assert_eq!(
            NamePattern::parse("*_change"),
            NamePattern::Wildcard("*_change".into())
        );
        // Case folded at parse time.
        assert_eq!(
            NamePattern::parse("MAIN"),
            NamePattern::Exact("main".into())
        );
    }

    #[test]
    fn exact_lookup_is_case_insensitive() {
        let g = {
            let mut g = sample();
            g.freeze();
            g
        };
        let hits = g
            .lookup_name(NameField::ShortName, &NamePattern::parse("main"))
            .unwrap();
        // Both `main` and `Main` fold to the same term.
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn prefix_and_wildcard_lookup() {
        let mut g = sample();
        g.freeze();
        let prefix = g
            .lookup_name(NameField::ShortName, &NamePattern::parse("ba*"))
            .unwrap();
        assert_eq!(prefix.len(), 2); // bar, baz
        let wc = g
            .lookup_name(NameField::ShortName, &NamePattern::parse("*_read_*"))
            .unwrap();
        assert_eq!(wc.len(), 1); // pci_read_bases
        let q = g
            .lookup_name(NameField::ShortName, &NamePattern::parse("ba?"))
            .unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn name_field_indexes_full_path() {
        let mut g = sample();
        g.freeze();
        let hits = g
            .lookup_name(NameField::Name, &NamePattern::parse("arch/*"))
            .unwrap();
        assert_eq!(hits.len(), 1);
        // SHORT_NAME still finds the file by its bare name (Figure 3).
        let hits = g
            .lookup_name(NameField::ShortName, &NamePattern::parse("wakeup.elf"))
            .unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn field_parse() {
        assert_eq!(NameField::parse("short_name"), Some(NameField::ShortName));
        assert_eq!(NameField::parse("NAME"), Some(NameField::Name));
        assert_eq!(NameField::parse("long_name"), None);
    }

    #[test]
    fn glob_matcher_basics() {
        assert!(glob_match("", ""));
        assert!(glob_match("*", "anything"));
        assert!(glob_match("a*b", "ab"));
        assert!(glob_match("a*b", "axxxb"));
        assert!(!glob_match("a*b", "axxxc"));
        assert!(glob_match("?", "x"));
        assert!(!glob_match("?", ""));
        assert!(glob_match("*a*a*", "banana"));
        assert!(!glob_match("*ab", "ba"));
    }

    #[test]
    fn case_variants_share_one_term() {
        let mut g = GraphStore::new();
        for name in ["MAIN", "x", "main", "Main", "main"] {
            g.add_node(NodeType::Function, name);
        }
        g.freeze();
        let terms = &g.name_index.as_ref().unwrap().short_name;
        assert_eq!(terms.len(), 2);
        assert_eq!((terms.term(0), terms.term(1)), ("main", "x"));
        assert_eq!(
            terms.postings(0),
            &[NodeId(0), NodeId(2), NodeId(3), NodeId(4)]
        );
        assert_eq!(terms.postings(1), &[NodeId(1)]);
    }

    /// `SynthSpec::scaled(0.02)` as this crate's store. The synth crate links
    /// its own build of `frappe-store`, so the graph is carried over by its
    /// node types and names (it has no deleted nodes, so ids are kept).
    fn synth_sample() -> GraphStore {
        let out = frappe_synth::generate(&frappe_synth::SynthSpec::scaled(0.02));
        let src = &out.graph;
        assert_eq!(src.node_capacity(), src.node_count());
        let mut g = GraphStore::new();
        for id in src.nodes() {
            let n = g.add_node(src.node_type(id), src.node_short_name(id));
            if src.node_name(id) != src.node_short_name(id) {
                g.set_node_name(n, src.node_name(id));
            }
        }
        g.freeze();
        g
    }

    /// The page-cache layout is the one the index has always charged: term
    /// entries in term order, each `len + 16 + 4·postings` bytes. Checks
    /// every entry an exact lookup touches against that running sum, and
    /// the totals against the values the per-entry offset table gave.
    #[test]
    fn page_cache_offsets_follow_the_entry_rule() {
        let mut sample = sample();
        sample.freeze();
        // (graph, SHORT_NAME bytes, NAME bytes): fixed values measured with
        // the per-entry offset table, so any layout change shows here.
        for (g, short_bytes, name_bytes) in [(sample, 173, 187), (synth_sample(), 151_329, 355_978)]
        {
            let idx = g.name_index.as_ref().unwrap();
            for (field, terms, want) in [
                (NameField::ShortName, &idx.short_name, short_bytes),
                (NameField::Name, &idx.name, name_bytes),
            ] {
                let mut offset = 0u64;
                for i in 0..terms.len() {
                    let len = (terms.term(i).len() + 16 + 4 * terms.postings(i).len()) as u64;
                    let mut touched = Vec::new();
                    let pattern = NamePattern::Exact(terms.term(i).to_owned());
                    idx.lookup(field, &pattern, |off, len| touched.push((off, len)));
                    assert_eq!(touched, [(offset, len)], "{field:?} term {i}");
                    offset += len;
                }
                assert_eq!(offset, want, "{field:?}");
            }
            assert_eq!(idx.storage_bytes() as u64, short_bytes + name_bytes);
        }
    }

    #[test]
    fn deleted_nodes_are_not_indexed() {
        let mut g = sample();
        let doomed = g.add_node(NodeType::Function, "doomed");
        g.delete_node(doomed).unwrap();
        g.freeze();
        let hits = g
            .lookup_name(NameField::ShortName, &NamePattern::parse("doomed"))
            .unwrap();
        assert!(hits.is_empty());
    }

    /// Index lookup agrees with a brute-force linear scan for arbitrary
    /// names and patterns built from a small alphabet.
    #[test]
    fn prop_index_matches_linear_scan() {
        use frappe_harness::proptest_lite as pt;
        let strategy = pt::tuple2(
            pt::vec_of(pt::string_of("abc", 0, 5), 1, 24),
            pt::string_of("abc*?", 0, 6),
        );
        pt::check(
            "index_matches_linear_scan",
            &strategy,
            |(names, pattern)| {
                let mut g = GraphStore::new();
                let ids: Vec<NodeId> = names
                    .iter()
                    .map(|n| g.add_node(NodeType::Function, n))
                    .collect();
                g.freeze();
                let pat = NamePattern::parse(pattern);
                let mut expected: Vec<NodeId> = ids
                    .iter()
                    .zip(names)
                    .filter(|(_, n)| pat.matches(&n.to_ascii_lowercase()))
                    .map(|(id, _)| *id)
                    .collect();
                expected.sort_unstable();
                expected.dedup();
                let got = g.lookup_name(NameField::ShortName, &pat).unwrap();
                assert_eq!(got, expected);
                Ok(())
            },
        );
    }

    /// The glob matcher agrees with a simple recursive reference
    /// implementation.
    #[test]
    fn prop_glob_matches_reference() {
        use frappe_harness::proptest_lite as pt;
        fn reference(p: &[char], t: &[char]) -> bool {
            match (p.first(), t.first()) {
                (None, None) => true,
                (Some('*'), _) => reference(&p[1..], t) || (!t.is_empty() && reference(p, &t[1..])),
                (Some('?'), Some(_)) => reference(&p[1..], &t[1..]),
                (Some(c), Some(d)) if c == d => reference(&p[1..], &t[1..]),
                _ => false,
            }
        }
        let strategy = pt::tuple2(pt::string_of("ab*?", 0, 7), pt::string_of("ab", 0, 7));
        pt::check("glob_matches_reference", &strategy, |(pattern, text)| {
            let p: Vec<char> = pattern.chars().collect();
            let t: Vec<char> = text.chars().collect();
            assert_eq!(glob_match(pattern, text), reference(&p, &t));
            Ok(())
        });
    }
}

#[cfg(test)]
mod fuzzy_tests {
    use super::*;
    use crate::GraphStore;
    use frappe_model::NodeType;

    #[test]
    fn fuzzy_pattern_parses() {
        assert_eq!(
            NamePattern::parse("pci_read~"),
            NamePattern::Fuzzy("pci_read".into(), 1)
        );
        assert_eq!(
            NamePattern::parse("PCI~2"),
            NamePattern::Fuzzy("pci".into(), 2)
        );
        // Fuzzy caps at distance 3; wildcards disable fuzziness.
        assert_eq!(NamePattern::parse("x~9"), NamePattern::Fuzzy("x".into(), 3));
        assert!(matches!(
            NamePattern::parse("a*b~"),
            NamePattern::Wildcard(_)
        ));
    }

    #[test]
    fn fuzzy_lookup_finds_typos() {
        let mut g = GraphStore::new();
        let target = g.add_node(NodeType::Function, "sr_media_change");
        g.add_node(NodeType::Function, "sr_media_charge"); // distance 1
        g.add_node(NodeType::Function, "unrelated");
        g.freeze();
        // The developer typo'd the query ("sr_media_chnge").
        let hits = g
            .lookup_name(NameField::ShortName, &NamePattern::parse("sr_media_chnge~"))
            .unwrap();
        assert!(hits.contains(&target));
        assert_eq!(hits.len(), 1); // "charge" is distance 2 from the typo
        let hits2 = g
            .lookup_name(
                NameField::ShortName,
                &NamePattern::parse("sr_media_chnge~2"),
            )
            .unwrap();
        assert_eq!(hits2.len(), 2);
    }

    #[test]
    fn edit_distance_basics() {
        assert!(edit_distance_at_most("abc", "abc", 0));
        assert!(edit_distance_at_most("abc", "abd", 1));
        assert!(!edit_distance_at_most("abc", "abd", 0));
        assert!(edit_distance_at_most("abc", "ab", 1));
        assert!(edit_distance_at_most("abc", "xabc", 1));
        assert!(!edit_distance_at_most("abc", "xyz", 2));
        assert!(edit_distance_at_most("", "ab", 2));
        assert!(!edit_distance_at_most("", "ab", 1));
    }

    fn levenshtein_reference(a: &[char], b: &[char]) -> usize {
        let mut dp = vec![vec![0usize; b.len() + 1]; a.len() + 1];
        for i in 0..=a.len() {
            dp[i][0] = i;
        }
        for j in 0..=b.len() {
            dp[0][j] = j;
        }
        for i in 1..=a.len() {
            for j in 1..=b.len() {
                dp[i][j] = (dp[i - 1][j - 1] + usize::from(a[i - 1] != b[j - 1]))
                    .min(dp[i - 1][j] + 1)
                    .min(dp[i][j - 1] + 1);
            }
        }
        dp[a.len()][b.len()]
    }

    /// The banded check agrees with full Levenshtein for all k in 0..4.
    #[test]
    fn prop_banded_matches_reference() {
        use frappe_harness::proptest_lite as pt;
        let strategy = pt::tuple2(pt::string_of("ab", 0, 9), pt::string_of("ab", 0, 9));
        pt::check("banded_matches_reference", &strategy, |(a, b)| {
            let av: Vec<char> = a.chars().collect();
            let bv: Vec<char> = b.chars().collect();
            let d = levenshtein_reference(&av, &bv);
            for k in 0..4usize {
                assert_eq!(
                    edit_distance_at_most(a, b, k),
                    d <= k,
                    "a={a} b={b} k={k} d={d}"
                );
            }
            Ok(())
        });
    }
}
