//! Zero-copy snapshot reads: [`MappedSnapshot`] and [`MappedGraph`].
//!
//! [`crate::snapshot::decode`] materializes every record into owned `Vec`s —
//! it rebuilds the interner hash map, re-links adjacency chains, and boxes
//! every property map. That cost dominates cold starts (the paper's
//! cold-cache columns in Table 5) and per-version checkouts in
//! `frappe-temporal`. Snapshot format v1 needs none of it to be *read*: all
//! records are length-determined, so one validation pass can compute each
//! record's byte offset and every later lookup is offset arithmetic into the
//! (memory-mapped) file.
//!
//! * [`MappedSnapshot`] opens a snapshot via [`frappe_harness::mmap::Mmap`]
//!   and performs the **up-front validation scan**: header magic/version,
//!   interner string bounds and UTF-8, per-record offsets, string-table and
//!   endpoint references, tombstone consistency, and exact trailing length.
//!   The scan rejects every input `decode` rejects — without allocating
//!   record data.
//! * [`MappedGraph`] implements [`GraphView`] over a validated snapshot.
//!   Adjacency (a CSR built in the store's LIFO chain order), the name
//!   index, and the label index are built **lazily** on first use, so the
//!   cold open touches nothing but the validation scan. The `ablation_mmap`
//!   bench measures exactly this split.
//!
//! Corrupted input can never panic or read past the map: every offset the
//! accessors use was bounds-checked by the validation scan, and the file is
//! treated as immutable for the lifetime of the mapping (see the safety
//! notes in `frappe_harness::mmap`).

use crate::error::StoreError;
use crate::graph::Direction;
use crate::label_index::LabelIndex;
use crate::name_index::{NameField, NameIndex, NamePattern};
use crate::snapshot::{
    F_DELETED, F_EXTRA, F_LONG, F_NAME, F_NAME_RANGE, F_USE_RANGE, MAGIC, VERSION,
};
use crate::view::GraphView;
use frappe_harness::mmap::Mmap;
use frappe_harness::serdes::{ByteReader, Decode};
use frappe_model::{
    EdgeId, EdgeType, FileId, Label, LabelSet, NodeId, NodeType, PropKey, PropMap, PropValue,
    SrcPos, SrcRange,
};
use std::path::Path;
use std::sync::OnceLock;

/// A validated, position-indexed view of a snapshot file.
///
/// Construction runs the full validation scan; every accessor afterwards is
/// offset arithmetic. Offsets are `u32`, bounding mapped snapshots at 4 GiB
/// (the owned decoder has no such limit; a kernel-scale graph is ~1 GB).
pub struct MappedSnapshot {
    data: Mmap,
    frozen: bool,
    /// `(byte offset, byte length)` of each interned string, in `Sym` order.
    strings: Vec<(u32, u32)>,
    /// Byte offset of each node record.
    node_offs: Vec<u32>,
    /// Byte offset of each edge record.
    edge_offs: Vec<u32>,
    live_nodes: u32,
    live_edges: u32,
    /// Live out/in degree per node (computed during the edge scan).
    out_deg: Vec<u32>,
    in_deg: Vec<u32>,
}

fn corrupt(msg: &str) -> StoreError {
    StoreError::CorruptSnapshot(msg.to_owned())
}

impl MappedSnapshot {
    /// Memory-maps and validates the snapshot at `path`. Falls back to a
    /// buffered read on platforms without mmap. Corruption surfaces as an
    /// `InvalidData` I/O error, mirroring [`crate::snapshot::load`].
    pub fn open(path: &Path) -> std::io::Result<MappedSnapshot> {
        Self::validate_io(Mmap::open(path)?)
    }

    /// Reads and validates the snapshot without mmap (the explicit fallback
    /// path, also useful for cross-checking).
    pub fn open_buffered(path: &Path) -> std::io::Result<MappedSnapshot> {
        Self::validate_io(Mmap::open_buffered(path)?)
    }

    /// Validates an in-memory snapshot (e.g. a `frappe-temporal` version
    /// that was never written to disk).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<MappedSnapshot, StoreError> {
        Self::validate(Mmap::from_vec(bytes))
    }

    fn validate_io(data: Mmap) -> std::io::Result<MappedSnapshot> {
        Self::validate(data).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// The validation scan. Accepts exactly the inputs
    /// [`crate::snapshot::decode`] accepts (pinned by property test).
    fn validate(data: Mmap) -> Result<MappedSnapshot, StoreError> {
        let _timer = frappe_obs::histogram!("store.mapped.open_ns").start();
        let _span = frappe_obs::span!("mapped.validate");
        let bytes: &[u8] = &data;
        if bytes.len() > u32::MAX as usize {
            return Err(corrupt("snapshot exceeds 4 GiB mapped-offset limit"));
        }
        let total = bytes.len();
        let mut r = ByteReader::new(bytes);
        let pos = |r: &ByteReader<'_>| (total - r.remaining()) as u32;

        if r.remaining() < 9 {
            return Err(corrupt("truncated header"));
        }
        let mut magic = [0u8; 4];
        r.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(corrupt("bad magic"));
        }
        if r.get_u32_le() != VERSION {
            return Err(corrupt("unsupported version"));
        }
        let frozen = r.get_u8() != 0;

        // Interner: record each string's (offset, len) and check UTF-8 once
        // here, so `resolve` can skip per-access validation of the bounds.
        let nstrings = try_u32(&mut r)? as usize;
        let mut strings = Vec::with_capacity(nstrings.min(r.remaining() / 4));
        for _ in 0..nstrings {
            let len = try_u32(&mut r)?;
            let off = pos(&r);
            let body = r
                .try_take(len as usize)
                .map_err(|_| corrupt("truncated string"))?;
            std::str::from_utf8(body).map_err(|_| corrupt("invalid utf8"))?;
            strings.push((off, len));
        }
        let check_sym = |sym: u32| -> Result<(), StoreError> {
            if (sym as usize) < strings.len() {
                Ok(())
            } else {
                Err(corrupt("dangling string ref"))
            }
        };

        let nnodes = try_u32(&mut r)? as usize;
        let mut node_offs = Vec::with_capacity(nnodes.min(r.remaining() / 7));
        let mut node_deleted = Vec::with_capacity(node_offs.capacity());
        let mut live_nodes = 0u32;
        for _ in 0..nnodes {
            if r.remaining() < 7 {
                return Err(corrupt("truncated node"));
            }
            node_offs.push(pos(&r));
            NodeType::from_u8(r.get_u8()).ok_or_else(|| corrupt("bad node type"))?;
            let _labels = r.get_u8();
            let flags = r.get_u8();
            check_sym(r.get_u32_le())?;
            if flags & F_NAME != 0 {
                check_sym(try_u32(&mut r)?)?;
            }
            if flags & F_LONG != 0 {
                check_sym(try_u32(&mut r)?)?;
            }
            if flags & F_EXTRA != 0 {
                skip_propmap(&mut r)?;
            }
            let deleted = flags & F_DELETED != 0;
            node_deleted.push(deleted);
            if !deleted {
                live_nodes += 1;
            }
        }

        let nedges = try_u32(&mut r)? as usize;
        let mut edge_offs = Vec::with_capacity(nedges.min(r.remaining() / 10));
        let mut live_edges = 0u32;
        let mut out_deg = vec![0u32; nnodes];
        let mut in_deg = vec![0u32; nnodes];
        for _ in 0..nedges {
            if r.remaining() < 10 {
                return Err(corrupt("truncated edge"));
            }
            edge_offs.push(pos(&r));
            EdgeType::from_u8(r.get_u8()).ok_or_else(|| corrupt("bad edge type"))?;
            let flags = r.get_u8();
            let src = r.get_u32_le() as usize;
            let dst = r.get_u32_le() as usize;
            if src >= nnodes || dst >= nnodes {
                return Err(corrupt("dangling edge endpoint"));
            }
            if flags & F_USE_RANGE != 0 {
                r.try_take(20).map_err(|_| corrupt("truncated range"))?;
            }
            if flags & F_NAME_RANGE != 0 {
                r.try_take(20).map_err(|_| corrupt("truncated range"))?;
            }
            if flags & F_EXTRA != 0 {
                skip_propmap(&mut r)?;
            }
            if flags & F_DELETED == 0 {
                if node_deleted[src] || node_deleted[dst] {
                    return Err(corrupt("live edge on deleted node"));
                }
                live_edges += 1;
                out_deg[src] += 1;
                in_deg[dst] += 1;
            }
        }
        if r.has_remaining() {
            return Err(corrupt("trailing bytes"));
        }

        Ok(MappedSnapshot {
            data,
            frozen,
            strings,
            node_offs,
            edge_offs,
            live_nodes,
            live_edges,
            out_deg,
            in_deg,
        })
    }

    /// Whether the snapshot was taken from a frozen store.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Whether the bytes come from a real kernel mapping.
    pub fn is_mapped(&self) -> bool {
        self.data.is_mapped()
    }

    /// Total snapshot size in bytes.
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }

    // ------------------------------------------------------------------
    // Offset-arithmetic record accessors. All offsets were bounds-checked
    // by `validate`, so plain indexing cannot go past the map.
    // ------------------------------------------------------------------

    #[inline]
    fn u32_at(&self, off: usize) -> u32 {
        u32::from_le_bytes(self.data[off..off + 4].try_into().unwrap())
    }

    /// Resolves an interner symbol. UTF-8 was validated up front; the
    /// re-check here degrades to `""` instead of panicking if the file is
    /// modified behind the map (a documented precondition violation).
    #[inline]
    fn resolve(&self, sym: u32) -> &str {
        let (off, len) = self.strings[sym as usize];
        std::str::from_utf8(&self.data[off as usize..(off + len) as usize]).unwrap_or("")
    }

    #[inline]
    fn node_off(&self, id: NodeId) -> usize {
        self.node_offs[id.index()] as usize
    }

    #[inline]
    fn node_flags(&self, id: NodeId) -> u8 {
        self.data[self.node_off(id) + 2]
    }

    fn node_ty(&self, id: NodeId) -> NodeType {
        NodeType::from_u8(self.data[self.node_off(id)]).expect("validated node type")
    }

    fn node_label_set(&self, id: NodeId) -> LabelSet {
        LabelSet(self.data[self.node_off(id) + 1])
    }

    #[inline]
    fn node_short_sym(&self, id: NodeId) -> u32 {
        self.u32_at(self.node_off(id) + 3)
    }

    /// The `NAME` symbol, falling back to `SHORT_NAME`'s.
    fn node_name_sym(&self, id: NodeId) -> u32 {
        if self.node_flags(id) & F_NAME != 0 {
            self.u32_at(self.node_off(id) + 7)
        } else {
            self.node_short_sym(id)
        }
    }

    fn node_long_sym(&self, id: NodeId) -> Option<u32> {
        let flags = self.node_flags(id);
        if flags & F_LONG == 0 {
            return None;
        }
        let off = self.node_off(id) + 7 + usize::from(flags & F_NAME != 0) * 4;
        Some(self.u32_at(off))
    }

    fn node_extra(&self, id: NodeId) -> Option<PropMap> {
        let flags = self.node_flags(id);
        if flags & F_EXTRA == 0 {
            return None;
        }
        let off = self.node_off(id)
            + 7
            + usize::from(flags & F_NAME != 0) * 4
            + usize::from(flags & F_LONG != 0) * 4;
        PropMap::decode(&mut ByteReader::new(&self.data[off..])).ok()
    }

    #[inline]
    fn edge_off(&self, id: EdgeId) -> usize {
        self.edge_offs[id.index()] as usize
    }

    #[inline]
    fn edge_flags(&self, id: EdgeId) -> u8 {
        self.data[self.edge_off(id) + 1]
    }

    fn edge_ty(&self, id: EdgeId) -> EdgeType {
        EdgeType::from_u8(self.data[self.edge_off(id)]).expect("validated edge type")
    }

    #[inline]
    fn edge_src_id(&self, id: EdgeId) -> NodeId {
        NodeId(self.u32_at(self.edge_off(id) + 2))
    }

    #[inline]
    fn edge_dst_id(&self, id: EdgeId) -> NodeId {
        NodeId(self.u32_at(self.edge_off(id) + 6))
    }

    fn range_at(&self, off: usize) -> SrcRange {
        SrcRange {
            file: FileId(self.u32_at(off)),
            start: SrcPos::new(self.u32_at(off + 4), self.u32_at(off + 8)),
            end: SrcPos::new(self.u32_at(off + 12), self.u32_at(off + 16)),
        }
    }

    fn edge_use(&self, id: EdgeId) -> Option<SrcRange> {
        if self.edge_flags(id) & F_USE_RANGE != 0 {
            Some(self.range_at(self.edge_off(id) + 10))
        } else {
            None
        }
    }

    fn edge_name(&self, id: EdgeId) -> Option<SrcRange> {
        let flags = self.edge_flags(id);
        if flags & F_NAME_RANGE == 0 {
            return None;
        }
        let off = self.edge_off(id) + 10 + usize::from(flags & F_USE_RANGE != 0) * 20;
        Some(self.range_at(off))
    }

    fn edge_extra(&self, id: EdgeId) -> Option<PropMap> {
        let flags = self.edge_flags(id);
        if flags & F_EXTRA == 0 {
            return None;
        }
        let off = self.edge_off(id)
            + 10
            + usize::from(flags & F_USE_RANGE != 0) * 20
            + usize::from(flags & F_NAME_RANGE != 0) * 20;
        PropMap::decode(&mut ByteReader::new(&self.data[off..])).ok()
    }
}

fn try_u32(r: &mut ByteReader<'_>) -> Result<u32, StoreError> {
    r.try_get_u32_le().map_err(|_| corrupt("truncated u32"))
}

/// Validates a propmap's structure without allocating it: key bytes, value
/// tags, payload lengths, and UTF-8 of string payloads — everything
/// `PropMap::decode` would reject.
fn skip_propmap(r: &mut ByteReader<'_>) -> Result<(), StoreError> {
    let n = r
        .try_get_u16_le()
        .map_err(|_| corrupt("truncated propmap"))?;
    for _ in 0..n {
        let key = r.try_get_u8().map_err(|_| corrupt("truncated propmap"))?;
        PropKey::from_u8(key).ok_or_else(|| corrupt("bad prop key"))?;
        match r.try_get_u8().map_err(|_| corrupt("truncated propmap"))? {
            0 => {
                r.try_take(8).map_err(|_| corrupt("truncated prop int"))?;
            }
            1 => {
                let len = r
                    .try_get_u32_le()
                    .map_err(|_| corrupt("truncated prop string"))?
                    as usize;
                let body = r
                    .try_take(len)
                    .map_err(|_| corrupt("truncated prop string"))?;
                std::str::from_utf8(body).map_err(|_| corrupt("invalid utf8"))?;
            }
            2 => {
                r.try_take(1).map_err(|_| corrupt("truncated prop bool"))?;
            }
            3 => {
                let len =
                    r.try_get_u32_le()
                        .map_err(|_| corrupt("truncated prop list"))? as usize;
                let bytes = len
                    .checked_mul(8)
                    .ok_or_else(|| corrupt("absurd prop list length"))?;
                r.try_take(bytes)
                    .map_err(|_| corrupt("truncated prop list"))?;
            }
            _ => return Err(corrupt("bad value tag")),
        }
    }
    Ok(())
}

/// CSR adjacency in the store's LIFO chain order.
///
/// `GraphStore::add_edge` prepends, so a node's live out-chain is its live
/// edges with that source in **descending edge-id order** (tombstones are
/// skipped by chain iteration). Filling forward while iterating edge ids in
/// reverse reproduces that order exactly — pinned by the equivalence
/// property test.
struct Csr {
    out_start: Vec<u32>,
    out_ids: Vec<u32>,
    in_start: Vec<u32>,
    in_ids: Vec<u32>,
}

impl Csr {
    fn build(s: &MappedSnapshot) -> Csr {
        let n = s.node_offs.len();
        let mut out_start = Vec::with_capacity(n + 1);
        let mut in_start = Vec::with_capacity(n + 1);
        let (mut o, mut i) = (0u32, 0u32);
        for idx in 0..n {
            out_start.push(o);
            in_start.push(i);
            o += s.out_deg[idx];
            i += s.in_deg[idx];
        }
        out_start.push(o);
        in_start.push(i);
        let mut out_ids = vec![0u32; o as usize];
        let mut in_ids = vec![0u32; i as usize];
        let mut out_cur: Vec<u32> = out_start[..n].to_vec();
        let mut in_cur: Vec<u32> = in_start[..n].to_vec();
        for e in (0..s.edge_offs.len()).rev() {
            let id = EdgeId::from_index(e);
            if s.edge_flags(id) & F_DELETED != 0 {
                continue;
            }
            let src = s.edge_src_id(id).index();
            let dst = s.edge_dst_id(id).index();
            out_ids[out_cur[src] as usize] = id.0;
            out_cur[src] += 1;
            in_ids[in_cur[dst] as usize] = id.0;
            in_cur[dst] += 1;
        }
        Csr {
            out_start,
            out_ids,
            in_start,
            in_ids,
        }
    }

    fn slice(&self, node: usize, dir: Direction) -> &[u32] {
        match dir {
            Direction::Outgoing => {
                &self.out_ids[self.out_start[node] as usize..self.out_start[node + 1] as usize]
            }
            Direction::Incoming => {
                &self.in_ids[self.in_start[node] as usize..self.in_start[node + 1] as usize]
            }
        }
    }
}

/// A read-only graph borrowing its records from a validated snapshot.
///
/// Cold open does only the [`MappedSnapshot`] validation scan; adjacency
/// and both indexes are built on first use and cached.
pub struct MappedGraph {
    snap: MappedSnapshot,
    csr: OnceLock<Csr>,
    name_index: OnceLock<NameIndex>,
    label_index: OnceLock<LabelIndex>,
}

impl MappedGraph {
    /// Opens (mmap + validate) the snapshot at `path`.
    pub fn open(path: &Path) -> std::io::Result<MappedGraph> {
        Ok(MappedGraph::from_snapshot(MappedSnapshot::open(path)?))
    }

    /// Opens the snapshot through the buffered (no-mmap) fallback.
    pub fn open_buffered(path: &Path) -> std::io::Result<MappedGraph> {
        Ok(MappedGraph::from_snapshot(MappedSnapshot::open_buffered(
            path,
        )?))
    }

    /// Validates and wraps an in-memory snapshot.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<MappedGraph, StoreError> {
        Ok(MappedGraph::from_snapshot(MappedSnapshot::from_bytes(
            bytes,
        )?))
    }

    /// Wraps an already validated snapshot.
    pub fn from_snapshot(snap: MappedSnapshot) -> MappedGraph {
        MappedGraph {
            snap,
            csr: OnceLock::new(),
            name_index: OnceLock::new(),
            label_index: OnceLock::new(),
        }
    }

    /// The underlying validated snapshot.
    pub fn snapshot(&self) -> &MappedSnapshot {
        &self.snap
    }

    fn csr(&self) -> &Csr {
        self.csr.get_or_init(|| Csr::build(&self.snap))
    }

    fn names(&self) -> &NameIndex {
        self.name_index.get_or_init(|| {
            let s = &self.snap;
            NameIndex::build(
                self,
                s.strings.len(),
                |sym| s.resolve(sym),
                |id| s.node_short_sym(id),
                |id| s.node_name_sym(id),
            )
        })
    }

    fn labels(&self) -> &LabelIndex {
        self.label_index.get_or_init(|| {
            LabelIndex::build_from(
                GraphView::nodes(self)
                    .map(|id| (id, self.snap.node_label_set(id), self.snap.node_ty(id))),
            )
        })
    }
}

impl std::fmt::Debug for MappedGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MappedGraph({} nodes, {} edges, {}{})",
            self.snap.live_nodes,
            self.snap.live_edges,
            if self.snap.is_mapped() {
                "mapped"
            } else {
                "owned"
            },
            if self.snap.frozen { ", frozen" } else { "" }
        )
    }
}

impl GraphView for MappedGraph {
    fn node_count(&self) -> usize {
        self.snap.live_nodes as usize
    }

    fn edge_count(&self) -> usize {
        self.snap.live_edges as usize
    }

    fn node_capacity(&self) -> usize {
        self.snap.node_offs.len()
    }

    fn edge_capacity(&self) -> usize {
        self.snap.edge_offs.len()
    }

    fn is_frozen(&self) -> bool {
        self.snap.frozen
    }

    fn node_exists(&self, id: NodeId) -> bool {
        id.index() < self.snap.node_offs.len() && self.snap.node_flags(id) & F_DELETED == 0
    }

    fn edge_exists(&self, id: EdgeId) -> bool {
        id.index() < self.snap.edge_offs.len() && self.snap.edge_flags(id) & F_DELETED == 0
    }

    fn node_type(&self, id: NodeId) -> NodeType {
        self.snap.node_ty(id)
    }

    fn node_labels(&self, id: NodeId) -> LabelSet {
        self.snap.node_label_set(id)
    }

    fn node_short_name(&self, id: NodeId) -> &str {
        self.snap.resolve(self.snap.node_short_sym(id))
    }

    fn node_name(&self, id: NodeId) -> &str {
        self.snap.resolve(self.snap.node_name_sym(id))
    }

    fn node_prop(&self, id: NodeId, key: PropKey) -> Option<PropValue> {
        let s = &self.snap;
        match key {
            PropKey::ShortName => Some(PropValue::from(self.node_short_name(id))),
            PropKey::Name => Some(PropValue::from(self.node_name(id))),
            PropKey::LongName => s
                .node_long_sym(id)
                .map(|sym| PropValue::from(s.resolve(sym))),
            _ => s.node_extra(id).and_then(|m| m.get(key).cloned()),
        }
    }

    fn out_degree(&self, id: NodeId) -> usize {
        self.snap.out_deg[id.index()] as usize
    }

    fn in_degree(&self, id: NodeId) -> usize {
        self.snap.in_deg[id.index()] as usize
    }

    fn edge_type(&self, id: EdgeId) -> EdgeType {
        self.snap.edge_ty(id)
    }

    fn edge_src(&self, id: EdgeId) -> NodeId {
        self.snap.edge_src_id(id)
    }

    fn edge_dst(&self, id: EdgeId) -> NodeId {
        self.snap.edge_dst_id(id)
    }

    fn edge_use_range(&self, id: EdgeId) -> Option<SrcRange> {
        self.snap.edge_use(id)
    }

    fn edge_name_range(&self, id: EdgeId) -> Option<SrcRange> {
        self.snap.edge_name(id)
    }

    fn edge_prop(&self, id: EdgeId, key: PropKey) -> Option<PropValue> {
        let s = &self.snap;
        let from_use = |f: fn(&SrcRange) -> i64| s.edge_use(id).as_ref().map(f).map(PropValue::Int);
        let from_name =
            |f: fn(&SrcRange) -> i64| s.edge_name(id).as_ref().map(f).map(PropValue::Int);
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
            _ => s.edge_extra(id).and_then(|m| m.get(key).cloned()),
        }
    }

    fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.snap.node_offs.len())
            .map(NodeId::from_index)
            .filter(|id| self.snap.node_flags(*id) & F_DELETED == 0)
    }

    fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.snap.edge_offs.len())
            .map(EdgeId::from_index)
            .filter(|id| self.snap.edge_flags(*id) & F_DELETED == 0)
    }

    fn edges_dir(
        &self,
        id: NodeId,
        dir: Direction,
        ty: Option<EdgeType>,
    ) -> impl Iterator<Item = EdgeId> + '_ {
        self.csr()
            .slice(id.index(), dir)
            .iter()
            .map(|e| EdgeId(*e))
            .filter(move |e| ty.is_none_or(|t| t == self.snap.edge_ty(*e)))
    }

    fn lookup_name(
        &self,
        field: NameField,
        pattern: &NamePattern,
    ) -> Result<Vec<NodeId>, StoreError> {
        if !self.snap.frozen {
            return Err(StoreError::NotFrozen);
        }
        Ok(self.names().lookup(field, pattern, |_, _| {}))
    }

    fn nodes_with_label(&self, label: Label) -> Result<&[NodeId], StoreError> {
        if !self.snap.frozen {
            return Err(StoreError::NotFrozen);
        }
        Ok(self.labels().with_label(label))
    }

    fn nodes_with_type(&self, ty: NodeType) -> Result<&[NodeId], StoreError> {
        if !self.snap.frozen {
            return Err(StoreError::NotFrozen);
        }
        Ok(self.labels().with_type(ty))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{encode, save};
    use crate::GraphStore;

    fn build_sample() -> GraphStore {
        let mut g = GraphStore::new();
        let main = g.add_node(NodeType::Function, "main");
        let bar = g.add_node(NodeType::Function, "bar");
        let x = g.add_node(NodeType::Global, "x");
        g.set_node_name(x, "foo.c::x");
        g.set_node_long_name(main, "main(int, char **)");
        g.set_node_prop(main, PropKey::Variadic, true);
        let e = g.add_edge(main, EdgeType::Calls, bar);
        g.set_edge_use_range(e, SrcRange::new(FileId(1), 4, 10, 4, 18));
        g.set_edge_name_range(e, SrcRange::new(FileId(1), 4, 10, 4, 12));
        let w = g.add_edge(main, EdgeType::Writes, x);
        g.set_edge_prop(w, PropKey::Index, 2i64);
        g.add_edge(bar, EdgeType::Reads, x);
        g
    }

    #[test]
    fn mapped_reads_match_decoded_store() {
        let mut g = build_sample();
        g.freeze();
        let bytes = encode(&g);
        let m = MappedGraph::from_bytes(bytes).unwrap();
        assert_eq!(m.node_count(), g.node_count());
        assert_eq!(m.edge_count(), g.edge_count());
        assert!(m.is_frozen());
        for id in g.nodes() {
            assert_eq!(m.node_type(id), g.node_type(id));
            assert_eq!(m.node_short_name(id), g.node_short_name(id));
            assert_eq!(m.node_name(id), g.node_name(id));
            assert_eq!(m.node_labels(id), g.node_labels(id));
            assert_eq!(m.out_degree(id), g.out_degree(id));
            assert_eq!(m.in_degree(id), g.in_degree(id));
            let out_m: Vec<EdgeId> = m.out_edges(id, None).collect();
            let out_g: Vec<EdgeId> = g.out_edges(id, None).collect();
            assert_eq!(out_m, out_g, "adjacency order for {id:?}");
        }
        for id in g.edges() {
            assert_eq!(m.edge_type(id), g.edge_type(id));
            assert_eq!(m.edge_src(id), g.edge_src(id));
            assert_eq!(m.edge_dst(id), g.edge_dst(id));
            assert_eq!(m.edge_use_range(id), g.edge_use_range(id));
            assert_eq!(m.edge_name_range(id), g.edge_name_range(id));
            assert_eq!(
                m.edge_prop(id, PropKey::Index),
                g.edge_prop(id, PropKey::Index)
            );
        }
        let main = m
            .lookup_name(NameField::ShortName, &NamePattern::exact("main"))
            .unwrap();
        assert_eq!(
            main,
            g.lookup_name(NameField::ShortName, &NamePattern::exact("main"))
                .unwrap()
        );
        assert_eq!(
            m.node_prop(main[0], PropKey::Variadic),
            Some(PropValue::Bool(true))
        );
    }

    #[test]
    fn open_maps_a_file_and_open_buffered_agrees() {
        let mut g = build_sample();
        g.freeze();
        let dir = std::env::temp_dir().join(format!("frappe-mapped-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.frap");
        save(&g, &path).unwrap();
        let mapped = MappedGraph::open(&path).unwrap();
        let buffered = MappedGraph::open_buffered(&path).unwrap();
        #[cfg(unix)]
        assert!(mapped.snapshot().is_mapped());
        assert!(!buffered.snapshot().is_mapped());
        assert_eq!(mapped.node_count(), buffered.node_count());
        let a: Vec<NodeId> = mapped.nodes().collect();
        let b: Vec<NodeId> = buffered.nodes().collect();
        assert_eq!(a, b);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unfrozen_snapshot_rejects_index_lookups() {
        let g = build_sample();
        let m = MappedGraph::from_bytes(encode(&g)).unwrap();
        assert!(!m.is_frozen());
        assert_eq!(
            m.lookup_name(NameField::ShortName, &NamePattern::exact("main")),
            Err(StoreError::NotFrozen)
        );
        assert_eq!(
            m.nodes_with_type(NodeType::Function),
            Err(StoreError::NotFrozen)
        );
        assert_eq!(
            m.nodes_with_label(Label::Symbol),
            Err(StoreError::NotFrozen)
        );
    }

    #[test]
    fn tombstones_are_skipped_like_the_decoder() {
        let mut g = build_sample();
        let doomed = g.add_node(NodeType::Local, "tmp");
        let keep = g.add_node(NodeType::Local, "keep");
        g.delete_node(doomed).unwrap();
        let e = g
            .out_edges(NodeId(0), Some(EdgeType::Calls))
            .next()
            .unwrap();
        g.delete_edge(e).unwrap();
        g.freeze();
        let m = MappedGraph::from_bytes(encode(&g)).unwrap();
        assert_eq!(m.node_count(), g.node_count());
        assert_eq!(m.edge_count(), g.edge_count());
        assert!(!m.node_exists(doomed));
        assert!(m.node_exists(keep));
        assert!(!m.edge_exists(e));
        assert_eq!(m.node_capacity(), g.node_capacity());
        let out_m: Vec<EdgeId> = m.out_edges(NodeId(0), None).collect();
        let out_g: Vec<EdgeId> = g.out_edges(NodeId(0), None).collect();
        assert_eq!(out_m, out_g);
    }

    #[test]
    fn corrupt_bad_magic_is_rejected() {
        let mut bytes = encode(&build_sample());
        bytes[0] = b'X';
        assert!(matches!(
            MappedGraph::from_bytes(bytes),
            Err(StoreError::CorruptSnapshot(m)) if m == "bad magic"
        ));
    }

    #[test]
    fn corrupt_bad_version_is_rejected() {
        let mut bytes = encode(&build_sample());
        bytes[4] = 99;
        assert!(matches!(
            MappedGraph::from_bytes(bytes),
            Err(StoreError::CorruptSnapshot(m)) if m == "unsupported version"
        ));
    }

    #[test]
    fn every_truncation_errors_never_panics() {
        let mut g = build_sample();
        g.freeze();
        let bytes = encode(&g);
        for cut in 0..bytes.len() {
            assert!(
                MappedSnapshot::from_bytes(bytes[..cut].to_vec()).is_err(),
                "prefix of {cut} bytes validated successfully"
            );
        }
        assert!(MappedSnapshot::from_bytes(bytes).is_ok());
    }

    #[test]
    fn out_of_bounds_section_offsets_are_rejected() {
        let g = build_sample();
        let bytes = encode(&g);
        // Blow up the interner count so the string section claims to extend
        // far past the end of the file.
        let mut oob = bytes.clone();
        oob[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(MappedGraph::from_bytes(oob).is_err());
        // Trailing garbage.
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            MappedGraph::from_bytes(trailing),
            Err(StoreError::CorruptSnapshot(m)) if m == "trailing bytes"
        ));
        // A dangling string reference in the first node record.
        let mut g2 = GraphStore::new();
        g2.add_node(NodeType::Function, "f");
        let mut dangle = encode(&g2);
        // Header (9) + interner count (4) + "f" entry (4 + 1) + node count
        // (4) + ty/labels/flags (3) = offset of the short-name sym.
        let sym_off = 9 + 4 + 5 + 4 + 3;
        dangle[sym_off..sym_off + 4].copy_from_slice(&7u32.to_le_bytes());
        assert!(matches!(
            MappedGraph::from_bytes(dangle),
            Err(StoreError::CorruptSnapshot(m)) if m == "dangling string ref"
        ));
    }

    #[test]
    fn mapped_rejects_exactly_what_decode_rejects_on_byte_flips() {
        // Flip every byte of a small snapshot through several values; the
        // mapped validator and the owned decoder must agree on accept/reject.
        let mut g = build_sample();
        g.freeze();
        let bytes = encode(&g);
        for pos in 0..bytes.len() {
            for delta in [1u8, 0x80] {
                let mut mutated = bytes.clone();
                mutated[pos] = mutated[pos].wrapping_add(delta);
                let decode_ok = crate::snapshot::decode(&mutated).is_ok();
                let mapped_ok = MappedSnapshot::from_bytes(mutated).is_ok();
                assert_eq!(
                    decode_ok, mapped_ok,
                    "disagreement at byte {pos} (+{delta:#x})"
                );
            }
        }
    }

    #[test]
    fn empty_and_garbage_inputs_error() {
        assert!(MappedGraph::from_bytes(Vec::new()).is_err());
        assert!(MappedGraph::from_bytes(b"not a snapshot".to_vec()).is_err());
        assert!(MappedSnapshot::open(Path::new("/nonexistent/x.frap")).is_err());
    }
}
