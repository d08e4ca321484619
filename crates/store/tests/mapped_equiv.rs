//! The zero-copy contract: `MappedGraph` over `encode(g)` must be
//! observationally identical to the decoded `GraphStore` — every node
//! record, every edge record, label sets, adjacency *order*, and name-index
//! results for every pattern class — on arbitrary mutation scripts
//! including node/edge tombstones.
//!
//! Run with `FRAPPE_PT_CASES=256` for the acceptance-level sweep.

use frappe_harness::proptest_lite as pt;
use frappe_model::{EdgeId, EdgeType, FileId, NodeId, NodeType, PropKey, SrcRange};
use frappe_store::{snapshot, GraphStore, GraphView, MappedGraph, NameField, NamePattern};

/// A random mutation script, richer than `prop_store`'s: it also exercises
/// the optional record fields (names, long names, ranges, extra props) so
/// the mapped reader's variable-width offset arithmetic is covered.
#[derive(Debug, Clone)]
enum Op {
    AddNode(u8, u8),
    AddEdge(u8, u8, u8, u8),
    DeleteNode(u8),
    DeleteEdge(u8),
}

fn op_strategy() -> pt::Strategy<Op> {
    pt::one_of(vec![
        pt::tuple2(pt::u8_range(0, 21), pt::u8_range(0, 255))
            .map(|(t, decor)| Op::AddNode(*t, *decor)),
        pt::tuple3(
            pt::u8_range(0, 255),
            pt::u8_range(0, 30),
            pt::tuple2(pt::u8_range(0, 255), pt::u8_range(0, 255)),
        )
        .map(|(a, t, (b, decor))| Op::AddEdge(*a, *t, *b, *decor)),
        pt::u8_range(0, 255).map(|a| Op::DeleteNode(*a)),
        pt::u8_range(0, 255).map(|a| Op::DeleteEdge(*a)),
    ])
}

fn apply(ops: &[Op]) -> GraphStore {
    let mut g = GraphStore::new();
    let mut nodes: Vec<NodeId> = Vec::new();
    let mut edges: Vec<EdgeId> = Vec::new();
    for op in ops {
        match op {
            Op::AddNode(t, decor) => {
                let ty = NodeType::from_u8(*t % 21).unwrap();
                let i = nodes.len();
                let n = g.add_node(ty, &format!("n{i}"));
                // Optional fields keyed off `decor` bits.
                if decor & 1 != 0 {
                    g.set_node_name(n, &format!("file{}.c::n{i}", decor % 7));
                }
                if decor & 2 != 0 {
                    g.set_node_long_name(n, &format!("n{i}(void)"));
                }
                if decor & 4 != 0 {
                    g.set_node_prop(n, PropKey::Variadic, decor & 8 != 0);
                }
                if decor & 16 != 0 {
                    g.set_node_prop(n, PropKey::Index, i64::from(*decor));
                }
                // Case variants of a few shared names fold to one term.
                if decor & 32 != 0 {
                    let stem = if decor & 64 != 0 { "FILE" } else { "File" };
                    g.set_node_name(n, &format!("{stem}{}.c", decor % 3));
                }
                nodes.push(n);
            }
            Op::AddEdge(a, t, b, decor) => {
                let live: Vec<NodeId> = nodes
                    .iter()
                    .copied()
                    .filter(|n| g.node_exists(*n))
                    .collect();
                if live.is_empty() {
                    continue;
                }
                let src = live[*a as usize % live.len()];
                let dst = live[*b as usize % live.len()];
                let ty = EdgeType::from_u8(*t % 30).unwrap();
                let e = g.add_edge(src, ty, dst);
                if decor & 1 != 0 {
                    let l = u32::from(*decor);
                    g.set_edge_use_range(e, SrcRange::new(FileId(l % 9), l, 1, l, 9));
                }
                if decor & 2 != 0 {
                    let l = u32::from(*decor);
                    g.set_edge_name_range(e, SrcRange::new(FileId(l % 9), l, 2, l, 5));
                }
                if decor & 4 != 0 {
                    g.set_edge_prop(e, PropKey::Index, i64::from(*decor));
                }
                edges.push(e);
            }
            Op::DeleteNode(a) => {
                let live: Vec<NodeId> = nodes
                    .iter()
                    .copied()
                    .filter(|n| g.node_exists(*n))
                    .collect();
                if let Some(victim) = live.get(*a as usize % live.len().max(1)) {
                    g.delete_node(*victim).unwrap();
                }
            }
            Op::DeleteEdge(a) => {
                let live: Vec<EdgeId> = edges
                    .iter()
                    .copied()
                    .filter(|e| g.edge_exists(*e))
                    .collect();
                if let Some(victim) = live.get(*a as usize % live.len().max(1)) {
                    g.delete_edge(*victim).unwrap();
                }
            }
        }
    }
    g
}

/// Every observable surface of `GraphView` agrees between the mapped reader
/// and the decoded store.
fn assert_equivalent(g: &GraphStore, m: &MappedGraph) {
    assert_eq!(m.node_count(), g.node_count());
    assert_eq!(m.edge_count(), g.edge_count());
    assert_eq!(m.node_capacity(), g.node_capacity());
    assert_eq!(m.edge_capacity(), g.edge_capacity());
    assert_eq!(m.is_frozen(), g.is_frozen());
    assert_eq!(
        GraphView::nodes(m).collect::<Vec<_>>(),
        g.nodes().collect::<Vec<_>>()
    );
    assert_eq!(
        GraphView::edges(m).collect::<Vec<_>>(),
        g.edges().collect::<Vec<_>>()
    );

    for i in 0..g.node_capacity() {
        let n = NodeId(i as u32);
        assert_eq!(m.node_exists(n), g.node_exists(n), "liveness of node {i}");
        if !g.node_exists(n) {
            continue;
        }
        assert_eq!(m.node_type(n), g.node_type(n));
        assert_eq!(m.node_labels(n), g.node_labels(n));
        assert_eq!(m.node_short_name(n), g.node_short_name(n));
        assert_eq!(m.node_name(n), g.node_name(n));
        for key in [
            PropKey::ShortName,
            PropKey::Name,
            PropKey::LongName,
            PropKey::Variadic,
            PropKey::Index,
        ] {
            assert_eq!(m.node_prop(n, key), g.node_prop(n, key), "node {i} {key:?}");
        }
        assert_eq!(m.out_degree(n), g.out_degree(n));
        assert_eq!(m.in_degree(n), g.in_degree(n));
        // Adjacency must agree edge-for-edge *in order*, typed and untyped.
        assert_eq!(
            m.out_edges(n, None).collect::<Vec<_>>(),
            g.out_edges(n, None).collect::<Vec<_>>(),
            "out-chain order of node {i}"
        );
        assert_eq!(
            m.in_edges(n, None).collect::<Vec<_>>(),
            g.in_edges(n, None).collect::<Vec<_>>(),
            "in-chain order of node {i}"
        );
        assert_eq!(
            m.out_edges(n, Some(EdgeType::Calls)).collect::<Vec<_>>(),
            g.out_edges(n, Some(EdgeType::Calls)).collect::<Vec<_>>()
        );
        assert_eq!(
            m.in_neighbors(n, None).collect::<Vec<_>>(),
            g.in_neighbors(n, None).collect::<Vec<_>>()
        );
    }

    for i in 0..g.edge_capacity() {
        let e = EdgeId(i as u32);
        assert_eq!(m.edge_exists(e), g.edge_exists(e), "liveness of edge {i}");
        if !g.edge_exists(e) {
            continue;
        }
        assert_eq!(m.edge_type(e), g.edge_type(e));
        assert_eq!(m.edge_src(e), g.edge_src(e));
        assert_eq!(m.edge_dst(e), g.edge_dst(e));
        assert_eq!(m.edge_use_range(e), g.edge_use_range(e));
        assert_eq!(m.edge_name_range(e), g.edge_name_range(e));
        for key in [
            PropKey::UseFileId,
            PropKey::UseStartLine,
            PropKey::NameEndCol,
            PropKey::Index,
        ] {
            assert_eq!(m.edge_prop(e, key), g.edge_prop(e, key), "edge {i} {key:?}");
        }
    }
}

/// Name-index results agree for every pattern class across both fields.
fn assert_name_index_equivalent(g: &GraphStore, m: &MappedGraph) {
    let patterns = [
        NamePattern::exact("n1"),
        NamePattern::exact("no_such_node"),
        NamePattern::parse("n*"),
        NamePattern::parse("n1*"),
        NamePattern::parse("*"),
        NamePattern::parse("n?2*"),
        NamePattern::parse("file*.c::*"),
        NamePattern::parse("n2~1"),
    ];
    for field in [NameField::ShortName, NameField::Name] {
        for pat in &patterns {
            assert_eq!(
                m.lookup_name(field, pat).unwrap(),
                g.lookup_name(field, pat).unwrap(),
                "{field:?} {pat:?}"
            );
        }
    }
    // Every term's postings: an exact lookup of each live node's folded
    // text returns the same ids from both stores.
    for n in g.nodes() {
        for (field, text) in [
            (NameField::ShortName, g.node_short_name(n)),
            (NameField::Name, g.node_name(n)),
        ] {
            let pat = NamePattern::exact(text);
            let ids = m.lookup_name(field, &pat).unwrap();
            assert_eq!(ids, g.lookup_name(field, &pat).unwrap(), "{field:?} {text}");
            assert!(ids.contains(&n), "{field:?} {text} misses {n:?}");
        }
    }
    for label in frappe_model::Label::ALL {
        assert_eq!(
            m.nodes_with_label(label).unwrap(),
            g.nodes_with_label(label).unwrap()
        );
    }
    for t in 0..21 {
        let ty = NodeType::from_u8(t).unwrap();
        assert_eq!(
            m.nodes_with_type(ty).unwrap(),
            g.nodes_with_type(ty).unwrap()
        );
    }
}

#[test]
fn prop_mapped_equals_decoded() {
    let strategy = pt::vec_of(op_strategy(), 0, 100);
    pt::check("mapped_equals_decoded", &strategy, |ops| {
        let mut g = apply(ops);
        g.freeze();
        let bytes = snapshot::encode(&g);
        // Decoded control: proves we compare against what decode reconstructs,
        // not just against the original builder.
        let decoded = snapshot::decode(&bytes).unwrap();
        let m = MappedGraph::from_bytes(bytes).unwrap();
        assert_equivalent(&decoded, &m);
        assert_name_index_equivalent(&decoded, &m);
        Ok(())
    });
}

#[test]
fn prop_mapped_equals_decoded_unfrozen() {
    let strategy = pt::vec_of(op_strategy(), 0, 60);
    pt::check("mapped_equals_decoded_unfrozen", &strategy, |ops| {
        let g = apply(ops);
        let bytes = snapshot::encode(&g);
        let decoded = snapshot::decode(&bytes).unwrap();
        let m = MappedGraph::from_bytes(bytes).unwrap();
        assert_equivalent(&decoded, &m);
        // Both sides must refuse index lookups before freeze.
        assert!(m
            .lookup_name(NameField::Name, &NamePattern::exact("n0"))
            .is_err());
        assert!(decoded
            .lookup_name(NameField::Name, &NamePattern::exact("n0"))
            .is_err());
        Ok(())
    });
}
