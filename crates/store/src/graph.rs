//! The property-graph store: fixed-width node/edge records with chained
//! adjacency lists, per-entity properties, and page-cache-accounted reads.
//!
//! ## Record layout (simulated)
//!
//! Like Neo4j, nodes and relationships live in fixed-width record stores;
//! a node record holds pointers to the heads of its outgoing and incoming
//! relationship chains, and every relationship record holds the next
//! relationship in both its source node's out-chain and its target node's
//! in-chain. Traversal is pointer chasing, not index lookup — this is what
//! makes the embedded traversal mode of Section 6.1 fast.
//!
//! The *simulated on-disk* record sizes (15 bytes per node, 34 per
//! relationship — Neo4j 2.x figures) drive both the page-cache accounting
//! and the Table 4 size breakdown; the in-memory representation is ordinary
//! Rust structs.

use crate::error::StoreError;
use crate::interner::{StringInterner, Sym};
use crate::label_index::LabelIndex;
use crate::name_index::{NameField, NameIndex, NamePattern};
use crate::pagecache::{CacheMode, CacheStats, IoCostModel, PageCache, StoreFile};
use frappe_model::{
    EdgeId, EdgeType, Label, LabelSet, NodeId, NodeType, PropKey, PropMap, PropValue, SrcRange,
};

/// Simulated on-disk node record size (Neo4j 2.x: 15 bytes incl. in-use byte).
pub const NODE_RECORD_BYTES: u64 = 15;
/// Simulated on-disk relationship record size (Neo4j 2.x: 34 bytes).
pub const EDGE_RECORD_BYTES: u64 = 34;

/// Sentinel for "no edge" in adjacency chains.
const NIL: u32 = u32::MAX;

/// In-memory node record.
#[derive(Clone, Debug)]
pub struct NodeData {
    /// The node's Table 1 type.
    pub ty: NodeType,
    /// Grouped labels (Table 6). Derived from `ty` at creation but mutable,
    /// so synthetic graphs can experiment with label sets.
    pub labels: LabelSet,
    pub(crate) short_name: Sym,
    pub(crate) name: Option<Sym>,
    pub(crate) long_name: Option<Sym>,
    pub(crate) first_out: u32,
    pub(crate) first_in: u32,
    pub(crate) out_degree: u32,
    pub(crate) in_degree: u32,
    pub(crate) extra: Option<Box<PropMap>>,
    pub(crate) deleted: bool,
}

/// In-memory edge (relationship) record.
#[derive(Clone, Debug)]
pub struct EdgeData {
    /// The edge's Table 1 type.
    pub ty: EdgeType,
    pub(crate) src: u32,
    pub(crate) dst: u32,
    pub(crate) next_out: u32,
    pub(crate) next_in: u32,
    pub(crate) use_range: Option<SrcRange>,
    pub(crate) name_range: Option<SrcRange>,
    pub(crate) extra: Option<Box<PropMap>>,
    pub(crate) deleted: bool,
}

impl EdgeData {
    /// Source node.
    pub fn src(&self) -> NodeId {
        NodeId(self.src)
    }
    /// Target node.
    pub fn dst(&self) -> NodeId {
        NodeId(self.dst)
    }
    /// `USE_*` source range, if any.
    pub fn use_range(&self) -> Option<SrcRange> {
        self.use_range
    }
    /// `NAME_*` source range, if any.
    pub fn name_range(&self) -> Option<SrcRange> {
        self.name_range
    }
}

/// Traversal direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Follow edges from source to target.
    Outgoing,
    /// Follow edges from target to source.
    Incoming,
}

/// The property-graph store.
///
/// Persistence goes through the [`crate::snapshot`] codec, which serializes
/// the logical fields (records, interner, liveness, frozen flag) and
/// rebuilds the derived state (cache, indexes, property offsets) on load.
pub struct GraphStore {
    pub(crate) nodes: Vec<NodeData>,
    pub(crate) edges: Vec<EdgeData>,
    pub(crate) interner: StringInterner,
    pub(crate) live_nodes: u32,
    pub(crate) live_edges: u32,
    pub(crate) frozen: bool,
    pub(crate) cache: PageCache,
    pub(crate) name_index: Option<NameIndex>,
    pub(crate) label_index: Option<LabelIndex>,
    /// Cumulative simulated byte offset of each node's property chain
    /// (built at freeze; drives NodeProps page accounting).
    node_prop_offsets: Vec<u64>,
    edge_prop_offsets: Vec<u64>,
}

impl GraphStore {
    /// Creates an empty, unfrozen store.
    pub fn new() -> GraphStore {
        GraphStore {
            nodes: Vec::new(),
            edges: Vec::new(),
            interner: StringInterner::new(),
            live_nodes: 0,
            live_edges: 0,
            frozen: false,
            cache: PageCache::new(),
            name_index: None,
            label_index: None,
            node_prop_offsets: Vec::new(),
            edge_prop_offsets: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Mutation (build phase)
    // ------------------------------------------------------------------

    /// Reserves capacity for at least `nodes` further nodes and `edges`
    /// further edges. Bulk builders (the synthetic generator's shard merge,
    /// snapshot decode) know their totals up front; reserving once avoids
    /// the doubling reallocations of the record arrays mid-build.
    pub fn reserve(&mut self, nodes: usize, edges: usize) {
        self.nodes.reserve(nodes);
        self.edges.reserve(edges);
    }

    /// Adds a node of type `ty` with the given `SHORT_NAME`.
    ///
    /// Labels are derived from the type per Table 6.
    ///
    /// # Panics
    /// Panics if the store is frozen (use [`GraphStore::unfreeze`] first);
    /// programmatic callers that cannot guarantee this should check
    /// [`GraphStore::is_frozen`].
    pub fn add_node(&mut self, ty: NodeType, short_name: &str) -> NodeId {
        assert!(!self.frozen, "store is frozen");
        let short_name = self.interner.intern(short_name);
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(NodeData {
            ty,
            labels: LabelSet::from_slice(ty.labels()),
            short_name,
            name: None,
            long_name: None,
            first_out: NIL,
            first_in: NIL,
            out_degree: 0,
            in_degree: 0,
            extra: None,
            deleted: false,
        });
        self.live_nodes += 1;
        id
    }

    /// Adds an edge `src -[ty]-> dst`.
    ///
    /// # Panics
    /// Panics if the store is frozen or either endpoint is deleted/unknown.
    pub fn add_edge(&mut self, src: NodeId, ty: EdgeType, dst: NodeId) -> EdgeId {
        assert!(!self.frozen, "store is frozen");
        let id = EdgeId::from_index(self.edges.len());
        let (next_out, next_in);
        {
            let s = &mut self.nodes[src.index()];
            assert!(!s.deleted, "source node deleted");
            next_out = s.first_out;
            s.first_out = id.0;
            s.out_degree += 1;
        }
        {
            let d = &mut self.nodes[dst.index()];
            assert!(!d.deleted, "target node deleted");
            next_in = d.first_in;
            d.first_in = id.0;
            d.in_degree += 1;
        }
        self.edges.push(EdgeData {
            ty,
            src: src.0,
            dst: dst.0,
            next_out,
            next_in,
            use_range: None,
            name_range: None,
            extra: None,
            deleted: false,
        });
        self.live_edges += 1;
        id
    }

    /// Sets the node's `NAME` property (defaults to `SHORT_NAME` when unset).
    pub fn set_node_name(&mut self, id: NodeId, name: &str) {
        assert!(!self.frozen, "store is frozen");
        let sym = self.interner.intern(name);
        self.nodes[id.index()].name = Some(sym);
    }

    /// Sets the node's `LONG_NAME` property.
    pub fn set_node_long_name(&mut self, id: NodeId, long_name: &str) {
        assert!(!self.frozen, "store is frozen");
        let sym = self.interner.intern(long_name);
        self.nodes[id.index()].long_name = Some(sym);
    }

    /// Sets an arbitrary node property. Name-like keys are routed to the
    /// interned name fields.
    pub fn set_node_prop(&mut self, id: NodeId, key: PropKey, value: impl Into<PropValue>) {
        assert!(!self.frozen, "store is frozen");
        let value = value.into();
        match (key, &value) {
            (PropKey::ShortName, PropValue::Str(s)) => {
                let sym = self.interner.intern(s);
                self.nodes[id.index()].short_name = sym;
            }
            (PropKey::Name, PropValue::Str(s)) => {
                let sym = self.interner.intern(s);
                self.nodes[id.index()].name = Some(sym);
            }
            (PropKey::LongName, PropValue::Str(s)) => {
                let sym = self.interner.intern(s);
                self.nodes[id.index()].long_name = Some(sym);
            }
            _ => {
                self.nodes[id.index()]
                    .extra
                    .get_or_insert_with(Default::default)
                    .insert(key, value);
            }
        }
    }

    /// Adds an extra label to a node.
    pub fn add_node_label(&mut self, id: NodeId, label: Label) {
        assert!(!self.frozen, "store is frozen");
        self.nodes[id.index()].labels.insert(label);
    }

    /// Sets the edge's `USE_*` source range.
    pub fn set_edge_use_range(&mut self, id: EdgeId, range: SrcRange) {
        assert!(!self.frozen, "store is frozen");
        self.edges[id.index()].use_range = Some(range);
    }

    /// Sets the edge's `NAME_*` source range.
    pub fn set_edge_name_range(&mut self, id: EdgeId, range: SrcRange) {
        assert!(!self.frozen, "store is frozen");
        self.edges[id.index()].name_range = Some(range);
    }

    /// Sets an arbitrary edge property. Range keys are routed to the packed
    /// range fields.
    pub fn set_edge_prop(&mut self, id: EdgeId, key: PropKey, value: impl Into<PropValue>) {
        assert!(!self.frozen, "store is frozen");
        let value = value.into();
        // Range properties are packed; update through the range fields.
        let e = &mut self.edges[id.index()];
        let is_range_key = matches!(
            key,
            PropKey::UseFileId
                | PropKey::UseStartLine
                | PropKey::UseStartCol
                | PropKey::UseEndLine
                | PropKey::UseEndCol
                | PropKey::NameFileId
                | PropKey::NameStartLine
                | PropKey::NameStartCol
                | PropKey::NameEndLine
                | PropKey::NameEndCol
        );
        if is_range_key {
            // Range keys accumulate in the extra map until a complete
            // five-tuple is present, then promote into the packed field.
            let extra = e.extra.get_or_insert_with(Default::default);
            extra.insert(key, value);
            if let Some(r) = SrcRange::read_use_props(extra) {
                e.use_range = Some(r);
                for k in [
                    PropKey::UseFileId,
                    PropKey::UseStartLine,
                    PropKey::UseStartCol,
                    PropKey::UseEndLine,
                    PropKey::UseEndCol,
                ] {
                    extra.remove(k);
                }
            }
            if let Some(r) = SrcRange::read_name_props(extra) {
                e.name_range = Some(r);
                for k in [
                    PropKey::NameFileId,
                    PropKey::NameStartLine,
                    PropKey::NameStartCol,
                    PropKey::NameEndLine,
                    PropKey::NameEndCol,
                ] {
                    extra.remove(k);
                }
            }
            if extra.is_empty() {
                e.extra = None;
            }
        } else {
            e.extra
                .get_or_insert_with(Default::default)
                .insert(key, value);
        }
    }

    /// Tombstones an edge. Adjacency chains skip deleted edges.
    pub fn delete_edge(&mut self, id: EdgeId) -> Result<(), StoreError> {
        if self.frozen {
            return Err(StoreError::Frozen);
        }
        let e = self
            .edges
            .get_mut(id.index())
            .ok_or(StoreError::EdgeNotFound(id))?;
        if e.deleted {
            return Err(StoreError::EdgeNotFound(id));
        }
        e.deleted = true;
        let (src, dst) = (e.src as usize, e.dst as usize);
        self.nodes[src].out_degree -= 1;
        self.nodes[dst].in_degree -= 1;
        self.live_edges -= 1;
        Ok(())
    }

    /// Tombstones a node and all edges incident to it.
    pub fn delete_node(&mut self, id: NodeId) -> Result<(), StoreError> {
        if self.frozen {
            return Err(StoreError::Frozen);
        }
        let n = self
            .nodes
            .get(id.index())
            .ok_or(StoreError::NodeNotFound(id))?;
        if n.deleted {
            return Err(StoreError::NodeNotFound(id));
        }
        // Collect incident live edges first (both directions).
        let incident: Vec<EdgeId> = self
            .raw_chain(n.first_out, Direction::Outgoing)
            .chain(self.raw_chain(n.first_in, Direction::Incoming))
            .collect();
        for e in incident {
            // A self-loop appears in both chains but may already be deleted.
            if !self.edges[e.index()].deleted {
                self.delete_edge(e)?;
            }
        }
        self.nodes[id.index()].deleted = true;
        self.live_nodes -= 1;
        Ok(())
    }

    /// Walks a raw chain collecting live edge ids (used by delete_node; no
    /// cache charges, build phase only).
    fn raw_chain(&self, first: u32, dir: Direction) -> impl Iterator<Item = EdgeId> + '_ {
        let mut cur = first;
        std::iter::from_fn(move || {
            while cur != NIL {
                let e = &self.edges[cur as usize];
                let id = EdgeId(cur);
                cur = match dir {
                    Direction::Outgoing => e.next_out,
                    Direction::Incoming => e.next_in,
                };
                if !e.deleted {
                    return Some(id);
                }
            }
            None
        })
    }

    // ------------------------------------------------------------------
    // Freeze / indexes / cache
    // ------------------------------------------------------------------

    /// Builds the name and label indexes, computes property-chain offsets,
    /// and registers store files with the page cache. Reads are valid both
    /// before and after freezing, but index lookups require a frozen store.
    pub fn freeze(&mut self) {
        if self.frozen {
            return;
        }
        // The two index builds and the two property-offset scans are
        // independent read-only passes over the store; run them on scoped
        // worker threads (the store is shared immutably — all its interior
        // mutability is atomic page-cache accounting). Each pass is a
        // deterministic function of the store contents, so the result is
        // identical to the previous sequential construction.
        let (name_index, label_index, node_prop_offsets, edge_prop_offsets) = {
            let g = &*self;
            std::thread::scope(|scope| {
                let ni = scope.spawn(|| {
                    NameIndex::build(
                        g,
                        g.interner.len(),
                        |sym| g.interner.resolve(Sym(sym)),
                        |id| g.node_data(id).short_name.0,
                        |id| g.node_data(id).name.unwrap_or(g.node_data(id).short_name).0,
                    )
                });
                let li = scope.spawn(|| LabelIndex::build(g));
                let eo = scope.spawn(|| {
                    let mut offsets = Vec::with_capacity(g.edges.len() + 1);
                    let mut off = 0u64;
                    for e in &g.edges {
                        offsets.push(off);
                        off += Self::edge_prop_bytes(e);
                    }
                    offsets.push(off);
                    offsets
                });
                // Node offsets on the calling thread.
                let mut no = Vec::with_capacity(g.nodes.len() + 1);
                let mut off = 0u64;
                for n in &g.nodes {
                    no.push(off);
                    off += Self::node_prop_bytes(n);
                }
                no.push(off);
                (
                    ni.join().expect("name-index build panicked"),
                    li.join().expect("label-index build panicked"),
                    no,
                    eo.join().expect("edge-offset scan panicked"),
                )
            })
        };
        self.name_index = Some(name_index);
        self.label_index = Some(label_index);
        let node_prop_total = *node_prop_offsets.last().unwrap_or(&0);
        let edge_prop_total = *edge_prop_offsets.last().unwrap_or(&0);
        self.node_prop_offsets = node_prop_offsets;
        self.edge_prop_offsets = edge_prop_offsets;

        self.cache.register_file(
            StoreFile::NodeRecords,
            self.nodes.len() as u64 * NODE_RECORD_BYTES,
        );
        self.cache.register_file(
            StoreFile::EdgeRecords,
            self.edges.len() as u64 * EDGE_RECORD_BYTES,
        );
        self.cache
            .register_file(StoreFile::NodeProps, node_prop_total);
        self.cache
            .register_file(StoreFile::EdgeProps, edge_prop_total);
        let idx_bytes = self.name_index.as_ref().map_or(0, |i| i.storage_bytes());
        self.cache
            .register_file(StoreFile::NameIndex, idx_bytes as u64);
        self.cache
            .register_file(StoreFile::DynamicStore, self.interner.data_bytes() as u64);
        self.frozen = true;
    }

    /// Drops the indexes and re-enables mutation.
    pub fn unfreeze(&mut self) {
        self.frozen = false;
        self.name_index = None;
        self.label_index = None;
        self.node_prop_offsets.clear();
        self.edge_prop_offsets.clear();
    }

    /// Whether [`GraphStore::freeze`] has been called.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Simulated property bytes for one node (Table 4 accounting).
    pub(crate) fn node_prop_bytes(n: &NodeData) -> u64 {
        // SHORT_NAME + NAME/LONG_NAME when present are property blocks too.
        let mut blocks = 1usize;
        blocks += usize::from(n.name.is_some());
        blocks += usize::from(n.long_name.is_some());
        let extra = n.extra.as_deref();
        blocks += extra.map_or(0, |m| m.len());
        let dynamic: usize = 0; // names live in the interner/dynamic store
        (blocks.div_ceil(frappe_model::value::BLOCKS_PER_RECORD)
            * frappe_model::value::PROPERTY_RECORD
            + dynamic) as u64
    }

    /// Simulated property bytes for one edge.
    pub(crate) fn edge_prop_bytes(e: &EdgeData) -> u64 {
        let mut blocks = 0usize;
        blocks += if e.use_range.is_some() { 5 } else { 0 };
        blocks += if e.name_range.is_some() { 5 } else { 0 };
        blocks += e.extra.as_deref().map_or(0, |m| m.len());
        (blocks.div_ceil(frappe_model::value::BLOCKS_PER_RECORD)
            * frappe_model::value::PROPERTY_RECORD) as u64
    }

    /// Sets the cache mode (`Tracked` enables fault accounting).
    pub fn set_cache_mode(&mut self, mode: CacheMode) {
        self.cache.set_mode(mode);
    }

    /// Sets the I/O cost model.
    pub fn set_io_cost(&mut self, cost: IoCostModel) {
        self.cache.set_cost_model(cost);
    }

    /// Evicts the simulated page cache (next queries run cold).
    pub fn make_cold(&self) {
        self.cache.make_cold();
    }

    /// Pre-faults the entire simulated page cache (next queries run warm).
    pub fn warm_up(&self) {
        self.cache.warm_up();
    }

    /// Resets fault/hit counters.
    pub fn reset_cache_stats(&self) {
        self.cache.reset_stats();
    }

    /// Bounds the simulated page cache to `pages` resident pages
    /// (0 = unbounded). Models a store larger than available buffer memory.
    pub fn set_cache_capacity_pages(&mut self, pages: u64) {
        self.cache.set_capacity_pages(pages);
    }

    /// Reads fault/hit counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.live_nodes as usize
    }

    /// Number of live edges.
    pub fn edge_count(&self) -> usize {
        self.live_edges as usize
    }

    /// Highest node id ever allocated (including deleted); useful for
    /// sizing dense per-node scratch arrays.
    pub fn node_capacity(&self) -> usize {
        self.nodes.len()
    }

    /// Highest edge id ever allocated (including deleted).
    pub fn edge_capacity(&self) -> usize {
        self.edges.len()
    }

    /// Whether `id` refers to a live node.
    pub fn node_exists(&self, id: NodeId) -> bool {
        self.nodes.get(id.index()).is_some_and(|n| !n.deleted)
    }

    /// Whether `id` refers to a live edge.
    pub fn edge_exists(&self, id: EdgeId) -> bool {
        self.edges.get(id.index()).is_some_and(|e| !e.deleted)
    }

    #[inline]
    fn touch_node(&self, id: NodeId) {
        self.cache
            .touch(StoreFile::NodeRecords, id.0 as u64 * NODE_RECORD_BYTES);
    }

    #[inline]
    fn touch_edge(&self, id: EdgeId) {
        self.cache
            .touch(StoreFile::EdgeRecords, id.0 as u64 * EDGE_RECORD_BYTES);
    }

    #[inline]
    fn touch_node_props(&self, id: NodeId) {
        if let Some(w) = self.node_prop_offsets.get(id.index()..id.index() + 2) {
            self.cache
                .touch_range(StoreFile::NodeProps, w[0], w[1] - w[0]);
        }
    }

    #[inline]
    fn touch_edge_props(&self, id: EdgeId) {
        if let Some(w) = self.edge_prop_offsets.get(id.index()..id.index() + 2) {
            self.cache
                .touch_range(StoreFile::EdgeProps, w[0], w[1] - w[0]);
        }
    }

    /// The node's Table 1 type.
    pub fn node_type(&self, id: NodeId) -> NodeType {
        self.touch_node(id);
        self.nodes[id.index()].ty
    }

    /// The node's label set.
    pub fn node_labels(&self, id: NodeId) -> LabelSet {
        self.touch_node(id);
        self.nodes[id.index()].labels
    }

    /// The node's `SHORT_NAME`.
    pub fn node_short_name(&self, id: NodeId) -> &str {
        self.touch_node(id);
        self.touch_node_props(id);
        self.interner.resolve(self.nodes[id.index()].short_name)
    }

    /// The node's `NAME` (falls back to `SHORT_NAME`).
    pub fn node_name(&self, id: NodeId) -> &str {
        self.touch_node(id);
        self.touch_node_props(id);
        let n = &self.nodes[id.index()];
        self.interner.resolve(n.name.unwrap_or(n.short_name))
    }

    /// Reads a node property (Table 2). Returns an owned value because the
    /// name fields are synthesized from the interner.
    pub fn node_prop(&self, id: NodeId, key: PropKey) -> Option<PropValue> {
        self.touch_node(id);
        self.touch_node_props(id);
        let n = &self.nodes[id.index()];
        match key {
            PropKey::ShortName => Some(PropValue::from(self.interner.resolve(n.short_name))),
            PropKey::Name => Some(PropValue::from(
                self.interner.resolve(n.name.unwrap_or(n.short_name)),
            )),
            PropKey::LongName => n
                .long_name
                .map(|s| PropValue::from(self.interner.resolve(s))),
            _ => n.extra.as_deref().and_then(|m| m.get(key)).cloned(),
        }
    }

    /// Out-degree from the node record.
    pub fn out_degree(&self, id: NodeId) -> usize {
        self.touch_node(id);
        self.nodes[id.index()].out_degree as usize
    }

    /// In-degree from the node record.
    pub fn in_degree(&self, id: NodeId) -> usize {
        self.touch_node(id);
        self.nodes[id.index()].in_degree as usize
    }

    /// The edge's Table 1 type.
    pub fn edge_type(&self, id: EdgeId) -> EdgeType {
        self.touch_edge(id);
        self.edges[id.index()].ty
    }

    /// Source node of an edge.
    pub fn edge_src(&self, id: EdgeId) -> NodeId {
        self.touch_edge(id);
        self.edges[id.index()].src()
    }

    /// Target node of an edge.
    pub fn edge_dst(&self, id: EdgeId) -> NodeId {
        self.touch_edge(id);
        self.edges[id.index()].dst()
    }

    /// The edge's `USE_*` range.
    pub fn edge_use_range(&self, id: EdgeId) -> Option<SrcRange> {
        self.touch_edge(id);
        self.touch_edge_props(id);
        self.edges[id.index()].use_range
    }

    /// The edge's `NAME_*` range.
    pub fn edge_name_range(&self, id: EdgeId) -> Option<SrcRange> {
        self.touch_edge(id);
        self.touch_edge_props(id);
        self.edges[id.index()].name_range
    }

    /// Reads an edge property (Table 2), synthesizing range keys from the
    /// packed range fields.
    pub fn edge_prop(&self, id: EdgeId, key: PropKey) -> Option<PropValue> {
        self.touch_edge(id);
        self.touch_edge_props(id);
        let e = &self.edges[id.index()];
        let from_use = |f: fn(&SrcRange) -> i64| e.use_range.as_ref().map(f).map(PropValue::Int);
        let from_name = |f: fn(&SrcRange) -> i64| e.name_range.as_ref().map(f).map(PropValue::Int);
        match key {
            PropKey::UseFileId => from_use(|r| i64::from(r.file.0)),
            PropKey::UseStartLine => from_use(|r| i64::from(r.start.line)),
            PropKey::UseStartCol => from_use(|r| i64::from(r.start.col)),
            PropKey::UseEndLine => from_use(|r| i64::from(r.end.line)),
            PropKey::UseEndCol => from_use(|r| i64::from(r.end.col)),
            PropKey::NameFileId => from_name(|r| i64::from(r.file.0)),
            PropKey::NameStartLine => from_name(|r| i64::from(r.start.line)),
            PropKey::NameStartCol => from_name(|r| i64::from(r.start.col)),
            PropKey::NameEndLine => from_name(|r| i64::from(r.end.line)),
            PropKey::NameEndCol => from_name(|r| i64::from(r.end.col)),
            _ => e.extra.as_deref().and_then(|m| m.get(key)).cloned(),
        }
    }

    /// Iterates all live node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.deleted)
            .map(|(i, _)| NodeId::from_index(i))
    }

    /// Iterates all live edge ids.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.deleted)
            .map(|(i, _)| EdgeId::from_index(i))
    }

    /// Iterates the live edges incident to `id` in `dir`, optionally
    /// filtered by type. Each step charges one relationship-record page
    /// access, reproducing the traversal cost profile of chained records.
    pub fn edges_dir(
        &self,
        id: NodeId,
        dir: Direction,
        ty: Option<EdgeType>,
    ) -> impl Iterator<Item = EdgeId> + '_ {
        self.touch_node(id);
        let n = &self.nodes[id.index()];
        let first = match dir {
            Direction::Outgoing => n.first_out,
            Direction::Incoming => n.first_in,
        };
        let mut cur = first;
        std::iter::from_fn(move || {
            while cur != NIL {
                let eid = EdgeId(cur);
                self.touch_edge(eid);
                let e = &self.edges[cur as usize];
                cur = match dir {
                    Direction::Outgoing => e.next_out,
                    Direction::Incoming => e.next_in,
                };
                if !e.deleted && ty.is_none_or(|t| t == e.ty) {
                    return Some(eid);
                }
            }
            None
        })
    }

    /// Outgoing edges of `id` (optionally typed).
    pub fn out_edges(&self, id: NodeId, ty: Option<EdgeType>) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges_dir(id, Direction::Outgoing, ty)
    }

    /// Incoming edges of `id` (optionally typed).
    pub fn in_edges(&self, id: NodeId, ty: Option<EdgeType>) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges_dir(id, Direction::Incoming, ty)
    }

    /// Outgoing neighbors of `id` (optionally typed).
    pub fn out_neighbors(
        &self,
        id: NodeId,
        ty: Option<EdgeType>,
    ) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edges(id, ty).map(|e| self.edges[e.index()].dst())
    }

    /// Incoming neighbors of `id` (optionally typed).
    pub fn in_neighbors(
        &self,
        id: NodeId,
        ty: Option<EdgeType>,
    ) -> impl Iterator<Item = NodeId> + '_ {
        self.in_edges(id, ty).map(|e| self.edges[e.index()].src())
    }

    // ------------------------------------------------------------------
    // Index lookups
    // ------------------------------------------------------------------

    /// Looks up nodes by name pattern through the name index (the paper's
    /// `node_auto_index`). Requires a frozen store.
    pub fn lookup_name(
        &self,
        field: NameField,
        pattern: &NamePattern,
    ) -> Result<Vec<NodeId>, StoreError> {
        let idx = self.name_index.as_ref().ok_or(StoreError::NotFrozen)?;
        Ok(idx.lookup(field, pattern, |offset, len| {
            self.cache.touch_range(StoreFile::NameIndex, offset, len)
        }))
    }

    /// All live nodes carrying `label`. Requires a frozen store.
    pub fn nodes_with_label(&self, label: Label) -> Result<&[NodeId], StoreError> {
        let idx = self.label_index.as_ref().ok_or(StoreError::NotFrozen)?;
        Ok(idx.with_label(label))
    }

    /// All live nodes of Table 1 type `ty`. Requires a frozen store.
    pub fn nodes_with_type(&self, ty: NodeType) -> Result<&[NodeId], StoreError> {
        let idx = self.label_index.as_ref().ok_or(StoreError::NotFrozen)?;
        Ok(idx.with_type(ty))
    }

    /// Direct access to the interner (extractor/synth use this to pre-intern).
    pub fn interner(&self) -> &StringInterner {
        &self.interner
    }

    /// Internal: raw node data (used by index builders and snapshots).
    pub(crate) fn node_data(&self, id: NodeId) -> &NodeData {
        &self.nodes[id.index()]
    }
}

impl Default for GraphStore {
    fn default() -> Self {
        GraphStore::new()
    }
}

impl std::fmt::Debug for GraphStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GraphStore({} nodes, {} edges{})",
            self.live_nodes,
            self.live_edges,
            if self.frozen { ", frozen" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frappe_model::FileId;

    fn tiny() -> (GraphStore, NodeId, NodeId, NodeId) {
        let mut g = GraphStore::new();
        let main = g.add_node(NodeType::Function, "main");
        let bar = g.add_node(NodeType::Function, "bar");
        let x = g.add_node(NodeType::Global, "x");
        g.add_edge(main, EdgeType::Calls, bar);
        g.add_edge(main, EdgeType::Writes, x);
        g.add_edge(bar, EdgeType::Reads, x);
        (g, main, bar, x)
    }

    #[test]
    fn add_and_read_nodes() {
        let (g, main, bar, x) = tiny();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.node_type(main), NodeType::Function);
        assert_eq!(g.node_short_name(bar), "bar");
        assert_eq!(g.node_type(x), NodeType::Global);
    }

    #[test]
    fn adjacency_chains() {
        let (g, main, bar, x) = tiny();
        let out: Vec<NodeId> = g.out_neighbors(main, None).collect();
        // Chain is LIFO: writes edge added last appears first.
        assert_eq!(out, vec![x, bar]);
        let calls: Vec<NodeId> = g.out_neighbors(main, Some(EdgeType::Calls)).collect();
        assert_eq!(calls, vec![bar]);
        let readers: Vec<NodeId> = g.in_neighbors(x, Some(EdgeType::Reads)).collect();
        assert_eq!(readers, vec![bar]);
        assert_eq!(g.out_degree(main), 2);
        assert_eq!(g.in_degree(x), 2);
    }

    #[test]
    fn name_props_fall_back() {
        let (mut g, main, _, _) = tiny();
        assert_eq!(g.node_name(main), "main");
        g.set_node_name(main, "kernel::main");
        g.set_node_long_name(main, "kernel::main(int, char **)");
        assert_eq!(g.node_name(main), "kernel::main");
        assert_eq!(
            g.node_prop(main, PropKey::LongName).unwrap().as_str(),
            Some("kernel::main(int, char **)")
        );
    }

    #[test]
    fn extra_props_round_trip() {
        let (mut g, main, _, _) = tiny();
        g.set_node_prop(main, PropKey::Variadic, true);
        assert_eq!(
            g.node_prop(main, PropKey::Variadic),
            Some(PropValue::Bool(true))
        );
        assert_eq!(g.node_prop(main, PropKey::Virtual), None);
    }

    #[test]
    fn edge_ranges_pack_and_synthesize() {
        let (mut g, main, bar, _) = tiny();
        let e = g.out_edges(main, Some(EdgeType::Calls)).next().unwrap();
        let use_r = SrcRange::new(FileId(3), 10, 5, 10, 20);
        let name_r = SrcRange::new(FileId(3), 10, 5, 10, 8);
        g.set_edge_use_range(e, use_r);
        g.set_edge_name_range(e, name_r);
        assert_eq!(g.edge_use_range(e), Some(use_r));
        assert_eq!(
            g.edge_prop(e, PropKey::UseStartLine),
            Some(PropValue::Int(10))
        );
        assert_eq!(g.edge_prop(e, PropKey::NameEndCol), Some(PropValue::Int(8)));
        assert_eq!(g.edge_src(e), main);
        assert_eq!(g.edge_dst(e), bar);
    }

    #[test]
    fn set_edge_prop_routes_range_keys() {
        let (mut g, main, _, _) = tiny();
        let e = g.out_edges(main, Some(EdgeType::Calls)).next().unwrap();
        for (k, v) in [
            (PropKey::UseFileId, 1i64),
            (PropKey::UseStartLine, 2),
            (PropKey::UseStartCol, 3),
            (PropKey::UseEndLine, 4),
            (PropKey::UseEndCol, 5),
        ] {
            g.set_edge_prop(e, k, v);
        }
        assert_eq!(
            g.edge_use_range(e),
            Some(SrcRange::new(FileId(1), 2, 3, 4, 5))
        );
        g.set_edge_prop(e, PropKey::Index, 7i64);
        assert_eq!(g.edge_prop(e, PropKey::Index), Some(PropValue::Int(7)));
    }

    #[test]
    fn delete_edge_updates_chains_and_counts() {
        let (mut g, main, bar, x) = tiny();
        let calls = g.out_edges(main, Some(EdgeType::Calls)).next().unwrap();
        g.delete_edge(calls).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_degree(main), 1);
        assert_eq!(g.in_degree(bar), 0);
        let out: Vec<NodeId> = g.out_neighbors(main, None).collect();
        assert_eq!(out, vec![x]);
        assert_eq!(g.delete_edge(calls), Err(StoreError::EdgeNotFound(calls)));
    }

    #[test]
    fn delete_node_removes_incident_edges() {
        let (mut g, main, bar, x) = tiny();
        g.delete_node(x).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert!(!g.node_exists(x));
        let out: Vec<NodeId> = g.out_neighbors(main, None).collect();
        assert_eq!(out, vec![bar]);
        assert_eq!(g.out_degree(bar), 0);
    }

    #[test]
    fn self_loop_delete_is_safe() {
        let mut g = GraphStore::new();
        let f = g.add_node(NodeType::Function, "recurse");
        g.add_edge(f, EdgeType::Calls, f);
        assert_eq!(g.out_degree(f), 1);
        assert_eq!(g.in_degree(f), 1);
        g.delete_node(f).unwrap();
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.node_count(), 0);
    }

    #[test]
    fn freeze_enables_index_lookups() {
        let (mut g, main, _, _) = tiny();
        assert!(g
            .lookup_name(NameField::ShortName, &NamePattern::exact("main"))
            .is_err());
        g.freeze();
        assert!(g.is_frozen());
        let hits = g
            .lookup_name(NameField::ShortName, &NamePattern::exact("main"))
            .unwrap();
        assert_eq!(hits, vec![main]);
        let fns = g.nodes_with_type(NodeType::Function).unwrap();
        assert_eq!(fns.len(), 2);
    }

    #[test]
    #[should_panic(expected = "store is frozen")]
    fn frozen_store_rejects_mutation() {
        let (mut g, _, _, _) = tiny();
        g.freeze();
        g.add_node(NodeType::Function, "late");
    }

    #[test]
    fn unfreeze_allows_further_building() {
        let (mut g, main, _, _) = tiny();
        g.freeze();
        g.unfreeze();
        let extra = g.add_node(NodeType::Function, "extra");
        g.add_edge(main, EdgeType::Calls, extra);
        g.freeze();
        assert_eq!(g.node_count(), 4);
    }

    #[test]
    fn cache_counts_faults_on_traversal() {
        let (mut g, main, _, _) = tiny();
        g.freeze();
        g.set_cache_mode(CacheMode::Tracked);
        g.make_cold();
        g.reset_cache_stats();
        let _: Vec<NodeId> = g.out_neighbors(main, None).collect();
        let cold = g.cache_stats();
        assert!(cold.faults > 0);
        // Warm run: same traversal, no faults.
        g.reset_cache_stats();
        let _: Vec<NodeId> = g.out_neighbors(main, None).collect();
        let warm = g.cache_stats();
        assert_eq!(warm.faults, 0);
        assert!(warm.hits > 0);
    }

    #[test]
    fn nodes_and_edges_iterators_skip_deleted() {
        let (mut g, _, _, x) = tiny();
        g.delete_node(x).unwrap();
        assert_eq!(g.nodes().count(), 2);
        assert_eq!(g.edges().count(), 1);
        assert_eq!(g.node_capacity(), 3);
        assert_eq!(g.edge_capacity(), 3);
    }
}
