//! Flat binary serialization of an HNSW index.
//!
//! The encoding is a single contiguous little-endian blob containing the
//! header, the adjacency lists, and the raw vectors. d-HNSW places these
//! blobs verbatim into registered remote memory, which is why the format
//! is deliberately position-independent (no pointers, only ids) and
//! readable with one sequential scan: a compute node can fetch a whole
//! cluster with one `RDMA_READ` and search it where it landed.
//!
//! One validating walk, [`layout`], decides whether a blob is well
//! formed and records where everything in it sits; it copies nothing.
//! [`Layout::view`] turns that record plus the blob's own words into a
//! searchable [`IndexView`] — deserialization in place — and
//! [`from_bytes`] is the same walk followed by copies of the two
//! sections, for callers that want to own (and grow) an [`HnswIndex`].
//! Every section starts a whole number of words from the blob's first
//! byte, so a blob that starts on a 4-byte boundary can be read as
//! `&[u32]` / `&[f32]` on a little-endian host (`vecsim::cast`).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   u32   "HSW1" (0x31575348)
//! version u32   1
//! dim     u32
//! n       u32
//! entry   u32   u32::MAX when the index is empty
//! max_lvl u32
//! m       u32
//! ef_c    u32
//! metric  u8    0 = L2, 1 = IP, 2 = cosine
//! extend  u8    0 (extendCandidates is off in every build)
//! keep    u8    1 (keepPrunedConnections is on in every build)
//! pad     u8
//! cap     u32   level cap + 1, 0 = uncapped
//! seed    u64
//! nodes   n × { levels u32, levels × { cnt u32, cnt × u32 } }
//! vecs    n × dim × f32
//! ```

use std::ops::Range;

use vecsim::io::le_words;
use vecsim::{Dataset, Metric};

use crate::graph::{Graph, Tables};
use crate::{Error, HnswIndex, HnswParams, IndexView, Result};

/// Magic tag identifying a serialized HNSW blob.
pub const MAGIC: u32 = 0x3157_5348; // "HSW1"
/// Current format version.
pub const VERSION: u32 = 1;

fn metric_code(m: Metric) -> u8 {
    match m {
        Metric::L2 => 0,
        Metric::InnerProduct => 1,
        Metric::Cosine => 2,
    }
}

fn metric_from_code(c: u8) -> Result<Metric> {
    match c {
        0 => Ok(Metric::L2),
        1 => Ok(Metric::InnerProduct),
        2 => Ok(Metric::Cosine),
        other => Err(Error::CorruptBlob(format!("unknown metric code {other}"))),
    }
}

/// Little-endian byte writer.
#[derive(Debug)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
}

/// Little-endian byte reader with bounds checking.
#[derive(Debug)]
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(Error::CorruptBlob(format!(
                "truncated blob: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Serializes an index into one contiguous blob.
///
/// # Example
///
/// ```rust
/// use hnsw::{serialize, HnswIndex, HnswParams};
/// use vecsim::gen;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let idx = HnswIndex::build(gen::uniform(4, 50, 0.0, 1.0, 1)?, &HnswParams::new(4, 16))?;
/// let blob = serialize::to_bytes(&idx);
/// let back = serialize::from_bytes(&blob)?;
/// assert_eq!(back.len(), idx.len());
/// # Ok(())
/// # }
/// ```
pub fn to_bytes(index: &HnswIndex) -> Vec<u8> {
    let p = index.params();
    let mut e = Enc {
        buf: Vec::with_capacity(serialized_size(index)),
    };
    e.u32(MAGIC);
    e.u32(VERSION);
    e.u32(index.dim() as u32);
    e.u32(index.len() as u32);
    e.u32(index.entry_point().unwrap_or(u32::MAX));
    e.u32(index.max_level() as u32);
    e.u32(p.m() as u32);
    e.u32(p.ef_construction() as u32);
    e.u8(metric_code(p.metric_kind()));
    e.u8(0);
    e.u8(1);
    e.u8(0);
    e.u32(p.max_level_cap().map(|c| c as u32 + 1).unwrap_or(0));
    e.u64(p.rng_seed());

    for id in 0..index.len() as u32 {
        let levels = index.level_of(id) + 1;
        e.u32(levels as u32);
        for layer in 0..levels {
            let list = index.neighbors(id, layer);
            e.u32(list.len() as u32);
            for &nb in list {
                e.u32(nb);
            }
        }
    }
    for &x in index.data().as_flat() {
        e.buf.extend_from_slice(&x.to_le_bytes());
    }
    e.buf
}

/// Size in bytes [`to_bytes`] would produce, without allocating the blob.
pub fn serialized_size(index: &HnswIndex) -> usize {
    let header = 4 * 8 + 4 + 4 + 8; // fixed fields above
    let (lists, links) = index.list_and_link_counts();
    let nodes = 4 * (index.len() + lists + links);
    let vectors = index.len() * index.dim() * 4;
    header + nodes + vectors
}

/// What the validating walk over a blob establishes: the header's
/// fields, where the node and vector sections sit in it, and where in the
/// node section every neighbour list is. It borrows nothing; pair it with
/// the blob's own words to search in place ([`Layout::view`]).
#[derive(Debug, Clone)]
pub struct Layout {
    params: HnswParams,
    dim: usize,
    entry: Option<u32>,
    max_level: usize,
    nodes: Range<usize>,
    vectors: Range<usize>,
    tables: Tables,
}

impl Layout {
    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the blob holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.tables.len() == 0
    }

    /// Vector dimensionality (at least 1, also for an empty blob).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Byte range of the node section — whole words, count words
    /// included — within the blob.
    pub fn node_bytes(&self) -> Range<usize> {
        self.nodes.clone()
    }

    /// Byte range of the row-major `f32` vectors within the blob.
    pub fn vector_bytes(&self) -> Range<usize> {
        self.vectors.clone()
    }

    /// The index over the blob's own words: `links` is the node section
    /// and `rows` the vector section of the blob this layout was walked
    /// from, each read as little-endian words.
    ///
    /// # Panics
    ///
    /// Panics when either slice is not the length of its section — they
    /// belong to another blob.
    pub fn view<'a>(&'a self, links: &'a [u32], rows: &'a [f32]) -> IndexView<'a> {
        assert_eq!(
            links.len() * 4,
            self.nodes.len(),
            "not this blob's node section"
        );
        assert_eq!(
            rows.len() * 4,
            self.vectors.len(),
            "not this blob's vectors"
        );
        IndexView {
            graph: self.tables.over(links),
            rows,
            dim: self.dim,
            entry: self.entry,
            max_level: self.max_level,
            metric: self.params.metric_kind(),
        }
    }
}

/// The one validating walk over a blob produced by [`to_bytes`]: header
/// checks, then every node's framing. Copies nothing, and allocates only
/// the span tables, which are smaller than the node section they index.
///
/// # Errors
///
/// Returns [`Error::CorruptBlob`] on a bad magic/version, truncated data,
/// out-of-range ids, or trailing garbage.
pub fn layout(blob: &[u8]) -> Result<Layout> {
    let mut d = Dec::new(blob);
    if d.u32()? != MAGIC {
        return Err(Error::CorruptBlob("bad magic".into()));
    }
    let version = d.u32()?;
    if version != VERSION {
        return Err(Error::CorruptBlob(format!("unsupported version {version}")));
    }
    let dim = d.u32()? as usize;
    let n = d.u32()? as usize;
    let entry_raw = d.u32()?;
    let max_level = d.u32()? as usize;
    let m = d.u32()? as usize;
    let ef_c = d.u32()? as usize;
    let metric = metric_from_code(d.u8()?)?;
    let (extend, keep) = (d.u8()?, d.u8()?);
    if (extend, keep) != (0, 1) {
        return Err(Error::CorruptBlob(format!(
            "selection flags ({extend}, {keep}), every build writes (0, 1)"
        )));
    }
    let _pad = d.u8()?;
    let cap_raw = d.u32()?;
    let seed = d.u64()?;

    if dim == 0 && n > 0 {
        return Err(Error::CorruptBlob("zero dim with non-zero count".into()));
    }
    let entry = if entry_raw == u32::MAX {
        None
    } else if (entry_raw as usize) < n {
        Some(entry_raw)
    } else {
        return Err(Error::CorruptBlob(format!(
            "entry point {entry_raw} out of range (n = {n})"
        )));
    };

    let mut params = HnswParams::new(m, ef_c).metric(metric).seed(seed);
    if cap_raw > 0 {
        params = params.max_level((cap_raw - 1) as usize);
    }
    params
        .validate()
        .map_err(|e| Error::CorruptBlob(format!("header parameters: {e}")))?;

    // The vectors are the blob's tail, so their declared size also fixes
    // where the node section ends — before anything is allocated.
    let vec_bytes = n
        .checked_mul(dim)
        .and_then(|x| x.checked_mul(4))
        .filter(|&b| b <= d.remaining())
        .ok_or_else(|| {
            Error::CorruptBlob(format!(
                "{n} vectors of dim {dim} do not fit the {} bytes after the header",
                d.remaining()
            ))
        })?;
    let nodes = d.pos..blob.len() - vec_bytes;
    let node_bytes = d.take(nodes.len())?;
    if !node_bytes.len().is_multiple_of(4) {
        return Err(Error::CorruptBlob(format!(
            "node section of {} bytes is not whole words",
            node_bytes.len()
        )));
    }

    // The node section is the adjacency as it is, count words and all;
    // the walk validates the framing and records where each list sits.
    // `at` counts words. Nothing allocated here is larger than the
    // section itself.
    let words = node_bytes.len() / 4;
    let truncated = || Error::CorruptBlob("node section ends inside a node".into());
    // The walk eats the section from the front; how much is left says
    // where it stands.
    let mut rest = node_bytes;
    let word = |rest: &mut &[u8]| match rest.split_first_chunk::<4>() {
        Some((w, tail)) => {
            *rest = tail;
            Ok(u32::from_le_bytes(*w))
        }
        None => Err(truncated()),
    };
    let mut tables = Tables::with_capacity(n.min(words));
    let mut entry_levels = 0u32;
    for node in 0..n as u32 {
        let levels = word(&mut rest)?;
        if levels == 0 || (levels - 1) as usize > max_level {
            return Err(Error::CorruptBlob(format!(
                "node {node} has {levels} layers but max level is {max_level}"
            )));
        }
        for _ in 0..levels {
            let cnt = word(&mut rest)?;
            if cnt as usize > n {
                return Err(Error::CorruptBlob(format!(
                    "node {node} neighbour count {cnt} exceeds n = {n}"
                )));
            }
            // `cnt <= n <= words`, so the length cannot overflow. The
            // largest id decides for the whole list, without a branch
            // per id.
            let at = words - rest.len() / 4;
            let (ids, tail) = rest
                .split_at_checked(4 * cnt as usize)
                .ok_or_else(truncated)?;
            rest = tail;
            let largest = le_words(ids, u32::from_le_bytes).fold(0, u32::max);
            if largest as usize >= n {
                return Err(Error::CorruptBlob(format!(
                    "neighbour id {largest} out of range (n = {n})"
                )));
            }
            tables.push_list(at, cnt);
        }
        tables.end_node();
        if entry == Some(node) {
            entry_levels = levels;
        }
    }
    if !rest.is_empty() {
        return Err(Error::CorruptBlob(format!(
            "{} unaccounted words between the node section and the vectors",
            rest.len() / 4
        )));
    }
    // Searches descend from `max_level` at the entry point, so a header
    // that overstates it would walk layers nothing lives on.
    let consistent = if n == 0 {
        max_level == 0
    } else {
        (entry_levels as usize).checked_sub(1) == Some(max_level)
    };
    if !consistent {
        return Err(Error::CorruptBlob(format!(
            "entry point spans {entry_levels} layers but max level is {max_level} (n = {n})"
        )));
    }
    Ok(Layout {
        params,
        dim: dim.max(1),
        entry,
        max_level,
        vectors: nodes.end..blob.len(),
        nodes,
        tables,
    })
}

/// Deserializes a blob produced by [`to_bytes`] into an index that owns
/// its data: the [`layout`] walk, then one copy of each section.
///
/// # Errors
///
/// As [`layout`].
pub fn from_bytes(blob: &[u8]) -> Result<HnswIndex> {
    let at = layout(blob)?;
    let links = le_words(&blob[at.node_bytes()], u32::from_le_bytes).collect();
    let rows = le_words(&blob[at.vector_bytes()], f32::from_le_bytes).collect();
    let p = &at.params;
    let mut graph = Graph::adopt(p.m0() + 1, p.m() + 1, links, at.tables);
    graph.entry = at.entry;
    graph.max_level = at.max_level;
    let data = Dataset::from_flat(at.dim, rows)?;
    Ok(HnswIndex::from_parts(at.params, data, graph))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecsim::gen;

    fn build_small() -> HnswIndex {
        let data = gen::uniform(8, 200, 0.0, 1.0, 5).unwrap();
        HnswIndex::build(data, &HnswParams::new(6, 40).seed(6)).unwrap()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let idx = build_small();
        let blob = to_bytes(&idx);
        let back = from_bytes(&blob).unwrap();
        assert_eq!(back.len(), idx.len());
        assert_eq!(back.dim(), idx.dim());
        assert_eq!(back.entry_point(), idx.entry_point());
        assert_eq!(back.max_level(), idx.max_level());
        assert_eq!(back.params(), idx.params());
        for id in 0..idx.len() as u32 {
            assert_eq!(back.level_of(id), idx.level_of(id));
            for layer in 0..=idx.level_of(id) {
                assert_eq!(back.neighbors(id, layer), idx.neighbors(id, layer));
            }
            assert_eq!(back.vector(id), idx.vector(id));
        }
    }

    #[test]
    fn round_tripped_index_searches_identically() {
        let idx = build_small();
        let back = from_bytes(&to_bytes(&idx)).unwrap();
        let q = [0.5f32; 8];
        assert_eq!(idx.search(&q, 10, 50), back.search(&q, 10, 50));
    }

    /// The blob's own words, where they lie, are the index: the view
    /// over them answers every query as the decoded copy does, down to
    /// the distance evaluations.
    #[test]
    fn a_view_over_the_blob_searches_like_the_decoded_index() {
        use vecsim::cast::{le_f32s, le_u32s, AlignedBytes};
        for (idx, empty) in [
            (build_small(), false),
            (HnswIndex::new(4, &HnswParams::new(4, 16)).unwrap(), true),
        ] {
            let blob = AlignedBytes::copy_of(&to_bytes(&idx));
            let at = layout(blob.as_bytes()).unwrap();
            assert_eq!(
                (at.len(), at.dim(), at.is_empty()),
                (idx.len(), idx.dim(), empty)
            );
            let links = le_u32s(&blob.as_bytes()[at.node_bytes()]).unwrap();
            let rows = le_f32s(&blob.as_bytes()[at.vector_bytes()]).unwrap();
            let view = at.view(links, rows);
            let owned = from_bytes(blob.as_bytes()).unwrap();
            let mut scratch = crate::SearchScratch::default();
            for (i, ef) in [1usize, 8, 50].into_iter().enumerate() {
                let q = vec![0.1 + 0.3 * i as f32; idx.dim()];
                let (mut want_stats, mut got_stats) = Default::default();
                let want = owned.search_with_stats(&q, 10, ef, &mut want_stats);
                let got = view.search_in(&q, 10, ef, &mut scratch, &mut got_stats);
                assert_eq!(got, &want[..]);
                assert_eq!(got_stats, want_stats);
                assert_eq!(got.is_empty(), empty);
            }
            for id in 0..idx.len() as u32 {
                assert_eq!(view.vector(id), idx.vector(id));
            }
        }
    }

    #[test]
    #[should_panic(expected = "not this blob's node section")]
    fn a_view_refuses_another_blobs_words() {
        let blob = to_bytes(&build_small());
        layout(&blob).unwrap().view(&[], &[]);
    }

    #[test]
    fn serialized_size_matches_actual() {
        let idx = build_small();
        assert_eq!(serialized_size(&idx), to_bytes(&idx).len());
    }

    #[test]
    fn empty_index_round_trips() {
        let idx = HnswIndex::new(4, &HnswParams::new(4, 16)).unwrap();
        let back = from_bytes(&to_bytes(&idx)).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.entry_point(), None);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut blob = to_bytes(&build_small());
        blob[0] ^= 0xff;
        assert!(matches!(
            from_bytes(&blob).unwrap_err(),
            Error::CorruptBlob(_)
        ));
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut blob = to_bytes(&build_small());
        blob[4] = 99;
        assert!(from_bytes(&blob).is_err());
    }

    #[test]
    fn truncated_blob_is_rejected() {
        let blob = to_bytes(&build_small());
        for cut in [10, blob.len() / 2, blob.len() - 1] {
            assert!(from_bytes(&blob[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut blob = to_bytes(&build_small());
        blob.push(0);
        assert!(from_bytes(&blob).is_err());
    }

    #[test]
    fn selection_flags_other_than_every_builds_are_rejected() {
        // extend (offset 33) is always 0 and keep (34) always 1.
        for (at, flag) in [(33, 1), (34, 0)] {
            let mut blob = to_bytes(&build_small());
            blob[at] = flag;
            assert!(
                matches!(from_bytes(&blob), Err(Error::CorruptBlob(_))),
                "byte {at} = {flag} accepted"
            );
        }
    }

    #[test]
    fn out_of_range_entry_is_rejected() {
        let mut blob = to_bytes(&build_small());
        // Entry point is at offset 16.
        blob[16..20].copy_from_slice(&10_000u32.to_le_bytes());
        assert!(from_bytes(&blob).is_err());
    }

    #[test]
    fn capped_params_round_trip() {
        let data = gen::uniform(4, 100, 0.0, 1.0, 5).unwrap();
        let idx = HnswIndex::build(data, &HnswParams::new(4, 20).max_level(2).seed(1)).unwrap();
        let back = from_bytes(&to_bytes(&idx)).unwrap();
        assert_eq!(back.params().max_level_cap(), Some(2));
    }
}
