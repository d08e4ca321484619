//! The name index against a brute-force scan, on the owned store and on the
//! mapped reader: both fields, every pattern class, and names that collide
//! under case folding (`Main`/`main`/`MAIN`), carry non-ASCII UTF-8, are
//! empty, or belong to deleted nodes.

use frappe_harness::proptest_lite as pt;
use frappe_model::{NodeId, NodeType};
use frappe_store::{snapshot, GraphStore, GraphView, MappedGraph, NameField, NamePattern};

/// Name alphabet: ASCII case pairs, a character `to_ascii_lowercase` leaves
/// alone (`É` ≠ `é`), and multibyte letters. Lengths start at 0.
const NAMES: &str = "mMaAéÉλ_";

/// One node: short name, NAME (used when bit 0 of the flags is set), and
/// whether the node is deleted (bit 1).
type NodeSpec = (String, String, u8);

fn build(nodes: &[NodeSpec]) -> GraphStore {
    let mut g = GraphStore::new();
    let ids: Vec<NodeId> = nodes
        .iter()
        .map(|(short, name, flags)| {
            let id = g.add_node(NodeType::Function, short);
            if flags & 1 != 0 {
                g.set_node_name(id, name);
            }
            id
        })
        .collect();
    for (id, (_, _, flags)) in ids.iter().zip(nodes) {
        if flags & 2 != 0 {
            g.delete_node(*id).unwrap();
        }
    }
    g.freeze();
    g
}

/// The live nodes whose `field` text, ASCII-lowercased, matches `pattern`.
fn brute_force(g: &GraphStore, field: NameField, pattern: &NamePattern) -> Vec<NodeId> {
    g.nodes()
        .filter(|id| {
            let text = match field {
                NameField::ShortName => g.node_short_name(*id),
                NameField::Name => g.node_name(*id),
            };
            pattern.matches(&text.to_ascii_lowercase())
        })
        .collect()
}

/// Pattern body plus a class selector: exact, prefix, wildcard or fuzzy.
fn pattern(body: &str, class: u8) -> NamePattern {
    NamePattern::parse(&match class % 4 {
        0 => body.to_owned(),
        1 => format!("{body}*"),
        2 => format!("*{body}?"),
        _ => format!("{body}~{}", 1 + class / 4 % 2),
    })
}

#[test]
fn prop_lookup_matches_brute_force_on_both_stores() {
    let node = pt::tuple3(
        pt::string_of(NAMES, 0, 4),
        pt::string_of(NAMES, 0, 4),
        pt::u8_range(0, 4),
    );
    let strategy = pt::tuple3(
        pt::vec_of(node, 0, 24),
        pt::string_of("maMéλ*?", 0, 4),
        pt::u8_range(0, 8),
    );
    pt::check(
        "name_lookup_matches_brute_force",
        &strategy,
        |(nodes, body, class)| {
            let g = build(nodes);
            let m = MappedGraph::from_bytes(snapshot::encode(&g)).unwrap();
            for field in [NameField::ShortName, NameField::Name] {
                // The generated pattern, then an exact lookup of every term.
                let mut patterns = vec![pattern(body, *class)];
                patterns.extend(
                    nodes
                        .iter()
                        .flat_map(|(short, name, _)| [short, name].map(|t| NamePattern::exact(t))),
                );
                for pat in &patterns {
                    let want = brute_force(&g, field, pat);
                    assert_eq!(
                        g.lookup_name(field, pat).unwrap(),
                        want,
                        "owned {field:?} {pat:?}"
                    );
                    assert_eq!(
                        m.lookup_name(field, pat).unwrap(),
                        want,
                        "mapped {field:?} {pat:?}"
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn case_variants_are_found_together_in_id_order() {
    let spec = |s: &str| (s.to_owned(), String::new(), 0);
    let nodes = [
        spec("MAIN"),
        spec("x"),
        spec("main"),
        spec("Main"),
        spec("É"),
    ];
    let g = build(&nodes);
    let m = MappedGraph::from_bytes(snapshot::encode(&g)).unwrap();
    let main = [NodeId(0), NodeId(2), NodeId(3)];
    for pat in ["main", "MAIN", "ma*", "m?in", "mian~2"].map(NamePattern::parse) {
        assert_eq!(g.lookup_name(NameField::ShortName, &pat).unwrap(), main);
        assert_eq!(m.lookup_name(NameField::ShortName, &pat).unwrap(), main);
    }
    // `É` is not ASCII, so it does not fold to `é`.
    let accented = NamePattern::exact("é");
    assert!(g
        .lookup_name(NameField::ShortName, &accented)
        .unwrap()
        .is_empty());
    assert_eq!(
        m.lookup_name(NameField::ShortName, &NamePattern::exact("É"))
            .unwrap(),
        [NodeId(4)]
    );
}
