//! Per-partition sub-HNSW clusters and their wire format.
//!
//! A [`SubCluster`] is the unit d-HNSW moves over the network: a complete
//! HNSW index over one partition's vectors, together with the mapping from
//! partition-local ids back to global dataset ids. Serialized clusters are
//! fully self-contained byte blobs (§3.2), so a compute node can fetch one
//! with a single contiguous `RDMA_READ` and search it immediately.
//!
//! Newly inserted vectors do not rewrite the serialized cluster; they are
//! appended to the group's shared *overflow area* as fixed-size
//! [`OverflowRecord`]s. A [`LoadedCluster`] combines both: sub-HNSW search
//! over the base vectors plus an exact scan over the (small) overflow
//! tail, merged into one result.
//!
//! [`SubCluster`] and [`SqCluster`] are what the store *builds and
//! serializes* (and what tests hold the loaded form against). What a
//! compute node *loads* is neither: a [`LoadedCluster`] keeps the
//! serialized bytes exactly as the fetch landed them and searches them
//! where they lie — ids, adjacency and vectors are `&[u32]` / `&[f32]`
//! views of that one buffer (`vecsim::cast`), found by the same validating
//! walk the owning decoders run. DESIGN.md §5k has the argument.

use std::ops::Range;

use hnsw::serialize::Layout;
use hnsw::{HnswIndex, HnswParams, IndexView, SearchScratch, SearchStats};
use vecsim::cast::{self, AlignedBytes};
use vecsim::io::le_words;
use vecsim::quantize::SqParams;
use vecsim::{Dataset, Metric, Neighbor, QueryBlock, TopK};

use crate::{Error, Result};

/// Magic tag of a serialized cluster.
pub const CLUSTER_MAGIC: u32 = 0x3143_4844; // "DHC1"
/// Magic tag of a serialized SQ8 cluster blob.
pub const SQ_CLUSTER_MAGIC: u32 = 0x3243_4844; // "DHC2"

/// Cuts a blob into the sections its header declares, front to back.
/// Every length is checked against what is left before anything is
/// sliced or allocated, so a corrupt count cannot overflow an offset or
/// size a buffer.
struct Sections<'a> {
    rest: &'a [u8],
    what: &'static str,
}

impl<'a> Sections<'a> {
    fn take(&mut self, len: Option<usize>) -> Result<&'a [u8]> {
        let len = len
            .filter(|&l| l <= self.rest.len())
            .ok_or_else(|| Error::Corrupt(format!("truncated {}", self.what)))?;
        let (head, rest) = self.rest.split_at(len);
        self.rest = rest;
        Ok(head)
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.take(Some(4))?;
        Ok(u32::from_le_bytes(b.try_into().expect("took 4 bytes")))
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.take(Some(8))?;
        Ok(u64::from_le_bytes(b.try_into().expect("took 8 bytes")))
    }
}

/// A sub-HNSW over one partition.
///
/// # Example
///
/// ```rust
/// use dhnsw::cluster::SubCluster;
/// use hnsw::HnswParams;
/// use vecsim::Dataset;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let vectors = Dataset::from_rows(&[[0.0f32, 0.0], [1.0, 1.0]])?;
/// let cluster = SubCluster::build(7, vectors, vec![100, 200], &HnswParams::new(4, 16))?;
/// let hits = cluster.search(&[0.1, 0.1], 1, 8);
/// assert_eq!(hits[0].id, 100); // global id, not local
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SubCluster {
    partition: u32,
    hnsw: HnswIndex,
    global_ids: Vec<u32>,
}

impl SubCluster {
    /// Builds the sub-HNSW for `partition` over `vectors`, which map
    /// position-wise onto `global_ids`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `vectors` and
    /// `global_ids` disagree in length or the partition is empty.
    pub fn build(
        partition: u32,
        vectors: Dataset,
        global_ids: Vec<u32>,
        params: &HnswParams,
    ) -> Result<Self> {
        if vectors.len() != global_ids.len() {
            return Err(Error::InvalidParameter(format!(
                "{} vectors but {} global ids",
                vectors.len(),
                global_ids.len()
            )));
        }
        if vectors.is_empty() {
            return Err(Error::InvalidParameter(format!(
                "partition {partition} is empty"
            )));
        }
        let hnsw = HnswIndex::build(vectors, params)?;
        Ok(SubCluster {
            partition,
            hnsw,
            global_ids,
        })
    }

    /// The partition this cluster serves.
    pub fn partition(&self) -> u32 {
        self.partition
    }

    /// Number of base vectors (excluding overflow inserts).
    pub fn len(&self) -> usize {
        self.hnsw.len()
    }

    /// Whether the cluster holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.hnsw.is_empty()
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.hnsw.dim()
    }

    /// Searches the sub-HNSW; results carry **global** ids.
    pub fn search(&self, query: &[f32], k: usize, ef: usize) -> Vec<Neighbor> {
        let mut stats = SearchStats::default();
        self.search_with_stats(query, k, ef, &mut stats)
    }

    /// Like [`SubCluster::search`], accumulating work counters.
    pub fn search_with_stats(
        &self,
        query: &[f32],
        k: usize,
        ef: usize,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        SearchScratch::with_local(|scratch| {
            let found = self.hnsw.search_in(query, k, ef, scratch, stats);
            let global = |n: &Neighbor| Neighbor::new(self.global_ids[n.id as usize], n.dist);
            found.iter().map(global).collect()
        })
    }

    /// The global ids of the base vectors, indexed by local id.
    pub fn global_ids(&self) -> &[u32] {
        &self.global_ids
    }

    /// The underlying HNSW.
    pub fn hnsw(&self) -> &HnswIndex {
        &self.hnsw
    }

    /// Serializes into the wire format: magic, partition, id map, then
    /// the HNSW blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        let hnsw_blob = hnsw::serialize::to_bytes(&self.hnsw);
        let mut out = Vec::with_capacity(self.serialized_size());
        out.extend_from_slice(&CLUSTER_MAGIC.to_le_bytes());
        out.extend_from_slice(&self.partition.to_le_bytes());
        out.extend_from_slice(&(self.global_ids.len() as u32).to_le_bytes());
        out.extend_from_slice(&(hnsw_blob.len() as u64).to_le_bytes());
        for &id in &self.global_ids {
            out.extend_from_slice(&id.to_le_bytes());
        }
        out.extend_from_slice(&hnsw_blob);
        out
    }

    /// Exact size [`SubCluster::to_bytes`] produces.
    pub fn serialized_size(&self) -> usize {
        4 + 4 + 4 + 8 + 4 * self.global_ids.len() + hnsw::serialize::serialized_size(&self.hnsw)
    }

    /// Deserializes a blob produced by [`SubCluster::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on bad magic, truncation, or an invalid
    /// embedded HNSW blob.
    pub fn from_bytes(blob: &[u8]) -> Result<Self> {
        let (partition, ids, hnsw_blob) = full_sections(blob)?;
        let hnsw = hnsw::serialize::from_bytes(hnsw_blob).map_err(embedded)?;
        check_id_map(ids, hnsw.len())?;
        Ok(SubCluster {
            partition,
            hnsw,
            global_ids: le_words(ids, u32::from_le_bytes).collect(),
        })
    }
}

/// Byte offset of the id map in a `DHC1` blob; the `HSW1` blob follows it.
const FULL_IDS_AT: usize = 4 + 4 + 4 + 8;

/// Where base row `local` of a `DHC1` blob of `blob_len` bytes holding
/// `rows` base rows of `dim` floats starts, in bytes from the blob's
/// first: the blob ends with its embedded `HSW1` blob, which ends with
/// the rows, row-major.
pub fn full_row_at(blob_len: u64, rows: usize, local: u32, dim: usize) -> u64 {
    blob_len - (rows as u64 - u64::from(local)) * (dim * 4) as u64
}

/// The framing of a `DHC1` blob: partition, id map, embedded `HSW1` blob.
fn full_sections(blob: &[u8]) -> Result<(u32, &[u8], &[u8])> {
    let mut sec = Sections {
        rest: blob,
        what: "cluster blob",
    };
    let magic = sec.u32()?;
    if magic != CLUSTER_MAGIC {
        return Err(Error::Corrupt(format!("bad cluster magic {magic:#x}")));
    }
    let partition = sec.u32()?;
    let n = sec.u32()? as usize;
    let hnsw_len = usize::try_from(sec.u64()?).ok();
    let ids = sec.take(n.checked_mul(4))?;
    Ok((partition, ids, sec.take(hnsw_len)?))
}

fn embedded(e: hnsw::Error) -> Error {
    Error::Corrupt(format!("embedded hnsw: {e}"))
}

fn check_id_map(ids: &[u8], indexed: usize) -> Result<()> {
    if ids.len() / 4 != indexed {
        return Err(Error::Corrupt(format!(
            "id map has {} entries but hnsw holds {indexed}",
            ids.len() / 4
        )));
    }
    Ok(())
}

/// The scalar-quantized copy of one partition's base vectors, as written
/// into the layout-v3 tail region and fetched by quantized queries.
///
/// Unlike [`SubCluster`] this blob carries **no graph**: at SQ8 rates
/// the cluster is small enough that an exhaustive asymmetric scan over
/// the codes is cheaper than shipping the adjacency lists, and the scan
/// result is a superset of what a graph search over the same codes
/// could return. Exact distances for the survivors come from the
/// engine's targeted full-vector rerank reads against the
/// full-precision cluster.
///
/// # Wire format
///
/// ```text
/// magic u32 | partition u32 | n u32 | dim u32
/// min   dim × f32
/// scale dim × f32
/// ids   n × u32
/// codes n × dim × u8
/// ```
#[derive(Debug)]
pub struct SqCluster {
    partition: u32,
    params: SqParams,
    global_ids: Vec<u32>,
    codes: Vec<u8>,
}

impl SqCluster {
    /// Trains per-cluster quantization parameters over `vectors` and
    /// encodes every row. `global_ids` maps rows to dataset ids, as in
    /// [`SubCluster::build`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on an empty partition or a
    /// row-count/id-count mismatch.
    pub fn build(partition: u32, vectors: &Dataset, global_ids: Vec<u32>) -> Result<Self> {
        if vectors.len() != global_ids.len() {
            return Err(Error::InvalidParameter(format!(
                "{} vectors but {} global ids",
                vectors.len(),
                global_ids.len()
            )));
        }
        if vectors.is_empty() {
            return Err(Error::InvalidParameter(format!(
                "partition {partition} is empty"
            )));
        }
        let params = SqParams::train(vectors.dim(), vectors.iter())
            .map_err(|e| Error::InvalidParameter(format!("sq train: {e}")))?;
        let mut codes = Vec::with_capacity(vectors.len() * vectors.dim());
        for row in vectors.iter() {
            codes.extend_from_slice(&params.encode(row));
        }
        Ok(SqCluster {
            partition,
            params,
            global_ids,
            codes,
        })
    }

    /// The partition this blob serves.
    pub fn partition(&self) -> u32 {
        self.partition
    }

    /// Number of encoded base vectors.
    pub fn len(&self) -> usize {
        self.global_ids.len()
    }

    /// Whether the blob holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.global_ids.is_empty()
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.params.dim()
    }

    /// The per-cluster quantization parameters.
    pub fn params(&self) -> &SqParams {
        &self.params
    }

    /// The global ids of the encoded vectors, indexed by local row.
    pub fn global_ids(&self) -> &[u32] {
        &self.global_ids
    }

    /// The codes of local row `local`.
    pub fn codes_of(&self, local: u32) -> &[u8] {
        let dim = self.dim();
        let start = local as usize * dim;
        &self.codes[start..start + dim]
    }

    /// Serializes into the wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_size());
        out.extend_from_slice(&SQ_CLUSTER_MAGIC.to_le_bytes());
        out.extend_from_slice(&self.partition.to_le_bytes());
        out.extend_from_slice(&(self.global_ids.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.dim() as u32).to_le_bytes());
        for &m in self.params.min() {
            out.extend_from_slice(&m.to_le_bytes());
        }
        for &s in self.params.scale() {
            out.extend_from_slice(&s.to_le_bytes());
        }
        for &id in &self.global_ids {
            out.extend_from_slice(&id.to_le_bytes());
        }
        out.extend_from_slice(&self.codes);
        out
    }

    /// Exact size [`SqCluster::to_bytes`] produces.
    pub fn serialized_size(&self) -> usize {
        Self::wire_size(self.global_ids.len(), self.dim())
    }

    /// Wire size of an SQ8 blob over `n` vectors of dimensionality
    /// `dim`.
    pub fn wire_size(n: usize, dim: usize) -> usize {
        4 + 4 + 4 + 4 + 8 * dim + 4 * n + n * dim
    }

    /// Deserializes a blob produced by [`SqCluster::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on bad magic or truncation.
    pub fn from_bytes(blob: &[u8]) -> Result<Self> {
        let (partition, params, ids, codes) = sq_sections(blob)?;
        Ok(SqCluster {
            partition,
            params,
            global_ids: le_words(ids, u32::from_le_bytes).collect(),
            codes: codes.to_vec(),
        })
    }
}

/// The framing of a `DHC2` blob: partition, quantization parameters (the
/// one section decoded here — two rows of `dim` floats), id map, codes.
fn sq_sections(blob: &[u8]) -> Result<(u32, SqParams, &[u8], &[u8])> {
    let mut sec = Sections {
        rest: blob,
        what: "sq cluster blob",
    };
    if sec.u32()? != SQ_CLUSTER_MAGIC {
        return Err(Error::Corrupt("bad sq cluster magic".into()));
    }
    let partition = sec.u32()?;
    let n = sec.u32()? as usize;
    let dim = sec.u32()? as usize;
    if n == 0 || dim == 0 {
        return Err(Error::Corrupt("empty sq cluster blob".into()));
    }
    let min = le_words(sec.take(dim.checked_mul(4))?, f32::from_le_bytes).collect();
    let scale = le_words(sec.take(dim.checked_mul(4))?, f32::from_le_bytes).collect();
    let params =
        SqParams::from_parts(min, scale).map_err(|e| Error::Corrupt(format!("sq params: {e}")))?;
    let ids = sec.take(n.checked_mul(4))?;
    Ok((partition, params, ids, sec.take(n.checked_mul(dim))?))
}

/// High bit of the on-wire partition field: set for tombstones (deletes),
/// clear for inserted vectors. Partition ids therefore must stay below
/// `2^31`, which the representative counts in play never approach.
pub const TOMBSTONE_BIT: u32 = 1 << 31;

/// Value of the commit marker word that ends every *committed* overflow
/// slot. A slot whose final word differs (the all-zero value of a
/// reserved-but-never-written slot, most importantly) is treated as
/// uncommitted and skipped at materialization.
pub const OVERFLOW_COMMIT: u32 = 0x3256_4F44; // "DOV2"

/// 32-bit FNV-1a over `bytes` — dependency-free record checksum.
fn fnv1a(seed: u32, bytes: &[u8]) -> u32 {
    let mut h = seed;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// FNV-1a offset basis (the conventional starting seed).
const FNV_OFFSET: u32 = 0x811c_9dc5;

/// A record appended after the cluster was serialized, living in the
/// group's shared overflow area. Two kinds share one fixed-size slot
/// format:
///
/// - an **insert** carries a new vector under a fresh global id;
/// - a **tombstone** marks an existing global id (base or inserted) as
///   deleted; its vector payload is ignored.
///
/// # Wire format (v2)
///
/// ```text
/// offset  size  field
/// 0       4     tag        (partition | TOMBSTONE_BIT)
/// 4       4     global_id
/// 8       4     len        (payload bytes = 4 * dim, length prefix)
/// 12      4     checksum   (FNV-1a over tag..len + payload)
/// 16      4*dim payload    (f32 little-endian)
/// ...           zero padding to 8-byte alignment
/// end-4   4     commit     (OVERFLOW_COMMIT, written last)
/// ```
///
/// The commit marker occupies the *final* word of the slot, so a slot is
/// only ever observed committed after every preceding byte of the record
/// landed. A fault between the slot-reserving FAA and the RDMA_WRITE
/// leaves the slot all-zero: no commit marker, skipped on read. The
/// checksum additionally rejects slots whose bytes were damaged after
/// commit.
#[derive(Debug, Clone, PartialEq)]
pub struct OverflowRecord {
    /// Partition the record belongs to (either cluster of the group).
    pub partition: u32,
    /// Global id: the inserted vector's id, or the deleted target's id.
    pub global_id: u32,
    /// The vector itself (zeroed and ignored for tombstones).
    pub vector: Vec<f32>,
    /// Whether this record deletes `global_id` instead of inserting it.
    pub tombstone: bool,
}

impl OverflowRecord {
    /// An insert record.
    pub fn insert(partition: u32, global_id: u32, vector: Vec<f32>) -> Self {
        OverflowRecord {
            partition,
            global_id,
            vector,
            tombstone: false,
        }
    }

    /// A tombstone deleting `global_id` from `partition`.
    pub fn tombstone(partition: u32, global_id: u32, dim: usize) -> Self {
        OverflowRecord {
            partition,
            global_id,
            vector: vec![0.0; dim],
            tombstone: true,
        }
    }

    /// On-wire size of one record for dimensionality `dim`: 16-byte
    /// header, payload, trailing commit word, padded to an 8-byte
    /// multiple so records never straddle the alignment the FAA bump
    /// allocator guarantees.
    pub fn wire_size(dim: usize) -> usize {
        (16 + 4 * dim + 4 + 7) & !7
    }

    /// Encodes the record into exactly [`OverflowRecord::wire_size`]
    /// bytes, commit marker in the slot's final word.
    pub fn to_bytes(&self) -> Vec<u8> {
        let dim = self.vector.len();
        let size = Self::wire_size(dim);
        let mut out = Vec::with_capacity(size);
        let tag = self.partition | if self.tombstone { TOMBSTONE_BIT } else { 0 };
        out.extend_from_slice(&tag.to_le_bytes());
        out.extend_from_slice(&self.global_id.to_le_bytes());
        out.extend_from_slice(&((4 * dim) as u32).to_le_bytes());
        out.extend_from_slice(&[0u8; 4]); // checksum backfilled below
        for &x in &self.vector {
            out.extend_from_slice(&x.to_le_bytes());
        }
        let sum = fnv1a(fnv1a(FNV_OFFSET, &out[0..12]), &out[16..16 + 4 * dim]);
        out[12..16].copy_from_slice(&sum.to_le_bytes());
        out.resize(size - 4, 0);
        out.extend_from_slice(&OVERFLOW_COMMIT.to_le_bytes());
        out
    }

    /// Decodes one committed record of dimensionality `dim`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] when `bytes` is shorter than the wire
    /// size, the commit marker is absent (torn or never-completed
    /// insert), the length prefix disagrees with `dim`, or the checksum
    /// does not match.
    pub fn from_bytes(bytes: &[u8], dim: usize) -> Result<Self> {
        let size = Self::wire_size(dim);
        if bytes.len() < size {
            return Err(Error::Corrupt("truncated overflow record".into()));
        }
        let word =
            |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"));
        if word(size - 4) != OVERFLOW_COMMIT {
            return Err(Error::Corrupt("uncommitted overflow record".into()));
        }
        let tag = word(0);
        let global_id = word(4);
        let len = word(8) as usize;
        if len != 4 * dim {
            return Err(Error::Corrupt(format!(
                "overflow record length prefix {len} does not match dim {dim}"
            )));
        }
        let sum = fnv1a(fnv1a(FNV_OFFSET, &bytes[0..12]), &bytes[16..16 + len]);
        if sum != word(12) {
            return Err(Error::Corrupt("overflow record checksum mismatch".into()));
        }
        let vector = le_words(&bytes[16..16 + len], f32::from_le_bytes).collect();
        Ok(OverflowRecord {
            partition: tag & !TOMBSTONE_BIT,
            global_id,
            vector,
            tombstone: tag & TOMBSTONE_BIT != 0,
        })
    }
}

/// Parses a raw overflow area: an 8-byte little-endian `used` counter
/// followed by `used` bytes of fixed-size record slots.
///
/// Slots without a valid commit marker or whose checksum fails — torn or
/// never-completed inserts — are *skipped*, not errors: a crashed writer
/// must never poison every subsequent read of its group.
///
/// # Errors
///
/// Returns [`Error::Corrupt`] only when the area is shorter than its own
/// `used` counter header.
pub fn parse_overflow(area: &[u8], dim: usize) -> Result<Vec<OverflowRecord>> {
    Ok(parse_overflow_detailed(area, dim)?.0)
}

/// Like [`parse_overflow`], additionally reporting how many slots inside
/// the committed range were skipped as uncommitted or damaged.
///
/// # Errors
///
/// Same as [`parse_overflow`].
pub fn parse_overflow_detailed(area: &[u8], dim: usize) -> Result<(Vec<OverflowRecord>, usize)> {
    if area.len() < 8 {
        return Err(Error::Corrupt("overflow area shorter than header".into()));
    }
    let used = u64::from_le_bytes(area[0..8].try_into().expect("8 bytes")) as usize;
    let rec = OverflowRecord::wire_size(dim);
    // A concurrent reservation may have bumped `used` past capacity (the
    // failed insert writes nothing); only whole records within the area
    // can be live.
    let usable = used.min(area.len() - 8);
    let count = usable / rec;
    let mut out = Vec::with_capacity(count);
    let mut skipped = 0usize;
    for i in 0..count {
        let off = 8 + i * rec;
        match OverflowRecord::from_bytes(&area[off..off + rec], dim) {
            Ok(r) => out.push(r),
            Err(_) => skipped += 1,
        }
    }
    Ok((out, skipped))
}

/// What the validating walk recorded about a [`LoadedCluster`]'s bytes —
/// everything needed to read them in place, and nothing copied out of
/// them but the SQ8 parameters.
#[derive(Debug)]
enum Payload {
    /// The bytes are a `DHC1` blob: the id map from [`FULL_IDS_AT`] to
    /// `hnsw_at`, then the `HSW1` blob that `layout` describes.
    Full { hnsw_at: usize, layout: Layout },
    /// The bytes are a `DHC2` blob of `n` rows; ids and codes are read
    /// where they lie.
    Sq { params: SqParams, n: usize },
}

/// One approximate hit from a quantized cluster scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SqHit {
    /// Global id of the candidate.
    pub id: u32,
    /// Asymmetric squared-L2 distance for base vectors; exact distance
    /// for overflow inserts.
    pub dist: f32,
    /// Local base row (for rerank addressing into the full-precision
    /// cluster blob), or `None` for an overflow insert, whose distance
    /// is already exact.
    pub local: Option<u32>,
}

/// One hit of [`LoadedCluster::probe`], whatever wire format the cluster
/// was loaded in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Global id of the candidate.
    pub id: u32,
    /// Distance from the query: exact for a full-precision cluster and
    /// for overflow inserts, asymmetric squared L2 for an SQ8 base row.
    pub dist: f32,
    /// The SQ8 base row `dist` was estimated from — where an exact
    /// rerank read finds the vector in the full-precision cluster blob —
    /// or `None` when `dist` is already exact.
    pub local: Option<u32>,
    /// One-sigma margin of `dist`, not a worst case (0 if exact): [`SqParams::l2_error_bound`].
    pub err: f32,
}

impl Candidate {
    pub(crate) fn exact(id: u32, dist: f32) -> Self {
        Candidate {
            id,
            dist,
            local: None,
            err: 0.0,
        }
    }
}

/// Ascending `(dist, global id)`: the order exact hits leave a probe in.
fn by_dist_then_id(a: &Candidate, b: &Candidate) -> std::cmp::Ordering {
    a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id))
}

/// What a worker keeps from probe to probe ([`LoadedCluster::probe`]):
/// the sub-HNSW walk's scratch and, for a block scan, the block's collectors
/// and kernel layout and the row an SQ8 scan is decoding.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    walk: SearchScratch,
    row: Vec<f32>,
    block: Block,
}

/// A block scan's collectors, and its queries laid out for the block kernel.
#[derive(Debug, Default)]
struct Block {
    tops: Vec<TopK>,
    queries: QueryBlock,
}

impl Block {
    /// Holds one row against every query — all the distances first, in one
    /// call of the block kernel ([`QueryBlock::distances`]: its width is
    /// chosen once per row and its loop carries no collector state) — then
    /// offers each to its query's collector under the row's pseudo-id.
    #[inline(always)]
    fn offer(&mut self, local: u32, queries: &[&[f32]], row: &[f32]) {
        let dists = self.queries.distances(row, queries);
        for (top, &dist) in self.tops.iter_mut().zip(dists) {
            top.push(local, dist);
        }
    }
}

thread_local! {
    /// What the scratch-less search signatures probe with.
    static LOCAL_SCRATCH: std::cell::RefCell<ProbeScratch> = Default::default();
}

/// Bytes of queries one block scan holds each row against: a block of
/// queries, the row and the rows streaming past stay inside a 32 KiB L1
/// together (32 queries at 128 dimensions). Longer runs are cut.
const SCAN_BLOCK_BYTES: usize = 16 << 10;

/// A full-precision cluster of up to this many base rows per unit of `ef`
/// is scanned whole instead of walked ([`scans`]). A beam of `ef` expands
/// `ef` nodes under a visited set and a sorted pool, jumping between rows
/// scattered over the cluster; the scan streams every row through the
/// distance kernel and keeps nothing but a reservoir. Read off a
/// measurement: `repro subsearch` (EXPERIMENTS.md) has a lone probe's scan,
/// clusters in rotation as a worker meets them, no slower than its walk at
/// every size up to here in every round on record, and behind from 1 500
/// rows when the walk runs fastest; DESIGN.md §5l has the cost model.
/// Derived from the `ef` a caller already passes — never a setting.
pub const SCAN_ROWS_PER_EF: usize = 20;

/// Whether a full-precision cluster of `rows` base rows, probed with beam
/// `ef`, is scanned whole rather than walked — the rule
/// [`LoadedCluster::probe`] decides by, and the only place it is written.
pub fn scans(rows: usize, ef: usize) -> bool {
    rows <= SCAN_ROWS_PER_EF.saturating_mul(ef)
}

/// Where a block scan reads a cluster's base rows. The scan is compiled
/// once per source, so each row loop is the only one in its copy.
trait Rows {
    /// Whether hits are exact, and so leave ordered by `(dist, global id)`
    /// as a walk's do. Estimates leave as the selection left them, in no
    /// order: the engine orders a pool itself.
    const EXACT: bool;

    /// What the rows — and the overflow inserts beside them — are ranked
    /// under.
    fn metric(&self) -> Metric;

    /// Base row `local`, to hold a block of queries against.
    fn row(&mut self, local: u32) -> &[f32];

    /// The distance from base row `local` to a query that has the scan to
    /// itself: the bits [`Rows::row`] under [`Rows::metric`] gives.
    fn alone(&mut self, local: u32, query: &[f32]) -> f32 {
        self.metric().distance(query, self.row(local))
    }

    /// The candidate base row `local` leaves the probe as.
    fn hit(&self, id: u32, local: u32, dist: f32) -> Candidate;
}

/// SQ8 codes, `dim` to a row, held against a query by asymmetric squared
/// L2: a row is decoded once into the worker's `row`
/// ([`SqParams::decode_into`]) and every query of the block takes its
/// [`vecsim::l2_sq`] to the decoded row — the bits
/// [`SqParams::asymmetric_l2`] gives that query and those codes.
struct Codes<'a> {
    params: &'a SqParams,
    codes: &'a [u8],
    row: &'a mut [f32],
}

impl<'a> Codes<'a> {
    fn codes(&self, local: u32) -> &'a [u8] {
        &self.codes[local as usize * self.params.dim()..][..self.params.dim()]
    }
}

impl Rows for Codes<'_> {
    const EXACT: bool = false;

    /// The compressed wire is L2 throughout — the kernels here, the error
    /// bound, the engine's exact rerank — and this is where the scan
    /// learns it ([`crate::DHnswConfig::validate`] refuses SQ8 under any
    /// other metric).
    fn metric(&self) -> Metric {
        Metric::L2
    }

    fn row(&mut self, local: u32) -> &[f32] {
        self.params.decode_into(self.codes(local), self.row);
        self.row
    }

    /// Nothing to share a decoded row with: the fused kernel gives the
    /// same bits without storing the row and loading it back (a lone probe
    /// measures a tenth to a quarter slower that way).
    fn alone(&mut self, local: u32, query: &[f32]) -> f32 {
        self.params.asymmetric_l2(query, self.codes(local))
    }

    fn hit(&self, id: u32, local: u32, dist: f32) -> Candidate {
        Candidate {
            id,
            dist,
            local: Some(local),
            err: self.params.l2_error_bound(dist),
        }
    }
}

/// Full-precision rows read where the fetch landed them, under the
/// index's own metric: nothing to decode, nothing to rerank.
impl Rows for IndexView<'_> {
    const EXACT: bool = true;

    fn metric(&self) -> Metric {
        IndexView::metric(self)
    }

    fn row(&mut self, local: u32) -> &[f32] {
        self.vector(local)
    }

    fn hit(&self, id: u32, _: u32, dist: f32) -> Candidate {
        Candidate::exact(id, dist)
    }
}

/// A cluster as materialized on a compute node: the serialized base
/// cluster, kept as the bytes the fetch landed and searched in place,
/// plus the overflow inserts belonging to its partition, minus anything
/// its tombstones deleted.
///
/// When the engine runs in SQ8 mode the bytes are the compressed
/// [`SqCluster`] blob instead; searches then return asymmetric distances
/// and the engine reranks the survivors with exact reads. Either way the
/// bytes are resident once and nothing decoded from them is.
#[derive(Debug)]
pub struct LoadedCluster {
    bytes: AlignedBytes,
    partition: u32,
    payload: Payload,
    extra: Vec<(u32, Vec<f32>)>,
    deleted: std::collections::HashSet<u32>,
    skipped_slots: usize,
}

/// This partition's share of a raw overflow area: its inserts, minus
/// those a tombstone killed; its tombstones; and the slots skipped.
type Folded = (Vec<(u32, Vec<f32>)>, std::collections::HashSet<u32>, usize);

fn fold_overflow(partition: u32, area: &[u8], dim: usize) -> Result<Folded> {
    let (records, skipped) = parse_overflow_detailed(area, dim)?;
    let mut extra: Vec<(u32, Vec<f32>)> = Vec::new();
    let mut deleted = std::collections::HashSet::new();
    for r in records.into_iter().filter(|r| r.partition == partition) {
        if r.tombstone {
            deleted.insert(r.global_id);
        } else {
            extra.push((r.global_id, r.vector));
        }
    }
    extra.retain(|(gid, _)| !deleted.contains(gid));
    Ok((extra, deleted, skipped))
}

/// Why a section cast cannot fail after [`LoadedCluster::adopt`].
const VIEWABLE: &str = "every section was cast once when the cluster was adopted";

impl LoadedCluster {
    /// The loader's entry, and the one every other constructor ends in:
    /// takes ownership of `buf`, whose bytes from `start` on are one
    /// serialized cluster (a `DHC2` blob when `quantized`, else `DHC1`),
    /// validates them with the decoders' own walk and keeps them as the
    /// cluster — nothing is copied unless `buf[start..]` does not start on
    /// a 4-byte boundary, in which case it moves once to a buffer that
    /// does. `overflow_area` is the group's raw overflow area when one
    /// was read; `None` stands for a pristine one. Overflow records
    /// belonging to the *other* cluster of the group are skipped.
    ///
    /// # Errors
    ///
    /// Propagates [`Error::Corrupt`] from either parse, and reports a
    /// host that cannot read little-endian words in place as one.
    pub fn adopt(
        buf: Vec<u8>,
        start: usize,
        quantized: bool,
        overflow_area: Option<&[u8]>,
    ) -> Result<Self> {
        if start > buf.len() {
            return Err(Error::Corrupt("cluster starts past its buffer".into()));
        }
        let bytes = AlignedBytes::adopt(buf, start);
        let blob = bytes.as_bytes();
        // Every section a search will read as words is cast once here, so
        // a host or a buffer that cannot be read in place is an error at
        // load time, not a panic at search time.
        let viewable = |section: &[u8]| match cast::le_u32s(section) {
            Some(_) => Ok(()),
            None => Err(Error::Corrupt(
                "this host cannot read cluster words in place".into(),
            )),
        };
        let (partition, payload, dim) = if quantized {
            let (partition, params, ids, _) = sq_sections(blob)?;
            viewable(ids)?;
            let (n, dim) = (ids.len() / 4, params.dim());
            (partition, Payload::Sq { params, n }, dim)
        } else {
            let (partition, ids, hnsw_blob) = full_sections(blob)?;
            let layout = hnsw::serialize::layout(hnsw_blob).map_err(embedded)?;
            check_id_map(ids, layout.len())?;
            viewable(ids)?;
            viewable(&hnsw_blob[layout.node_bytes()])?;
            viewable(&hnsw_blob[layout.vector_bytes()])?;
            let (dim, hnsw_at) = (layout.dim(), FULL_IDS_AT + ids.len());
            (partition, Payload::Full { hnsw_at, layout }, dim)
        };
        let (extra, deleted, skipped_slots) = match overflow_area {
            Some(area) => fold_overflow(partition, area, dim)?,
            None => Folded::default(),
        };
        Ok(LoadedCluster {
            bytes,
            partition,
            payload,
            extra,
            deleted,
            skipped_slots,
        })
    }

    /// Holds a decoded cluster against the directory entry it was fetched
    /// for. A blob can be internally valid and still not that cluster —
    /// another partition's, whose overflow records were folded instead of
    /// this one's, or of another dimensionality than the queries the node
    /// accepts — and every search downstream takes `dim()` to be the
    /// queries' as given.
    ///
    /// # Errors
    ///
    /// [`Error::Corrupt`] naming both sides of the mismatch.
    pub fn expecting(self, partition: u32, dim: usize) -> Result<Self> {
        if (self.partition, self.dim()) != (partition, dim) {
            return Err(Error::Corrupt(format!(
                "fetched partition {partition} ({dim} dimensions), landed a blob of partition {} ({} dimensions)",
                self.partition,
                self.dim()
            )));
        }
        Ok(self)
    }

    /// Materializes a cluster from the two slices a contiguous group read
    /// yields — the serialized cluster and its group's raw overflow area —
    /// copying the former once into a buffer of its own.
    ///
    /// # Errors
    ///
    /// As [`LoadedCluster::adopt`].
    pub fn from_remote(cluster_bytes: &[u8], overflow_area: &[u8]) -> Result<Self> {
        Self::adopt(cluster_bytes.to_vec(), 0, false, Some(overflow_area))
    }

    /// Materializes a cluster from its SQ8 blob, copied once.
    /// `overflow_area` is the group's raw overflow area when one was
    /// read; `None` means the cluster's version slot proved the overflow
    /// pristine (version 0, nothing ever inserted), so no overflow bytes
    /// were fetched.
    ///
    /// # Errors
    ///
    /// As [`LoadedCluster::adopt`].
    pub fn from_remote_sq(sq_bytes: &[u8], overflow_area: Option<&[u8]>) -> Result<Self> {
        Self::adopt(sq_bytes.to_vec(), 0, true, overflow_area)
    }

    /// Overflow slots inside the committed range that were skipped as
    /// uncommitted or damaged (torn inserts survived).
    pub fn skipped_slots(&self) -> usize {
        self.skipped_slots
    }

    /// Global ids tombstoned in this cluster's overflow.
    pub fn deleted(&self) -> &std::collections::HashSet<u32> {
        &self.deleted
    }

    fn words(&self, section: Range<usize>) -> &[u32] {
        cast::le_u32s(&self.bytes.as_bytes()[section]).expect(VIEWABLE)
    }

    /// The sub-HNSW over the cluster's own bytes: `layout` describes the
    /// `HSW1` blob that starts `hnsw_at` into them.
    fn index<'a>(&'a self, hnsw_at: usize, layout: &'a Layout) -> IndexView<'a> {
        let (nodes, vectors) = (layout.node_bytes(), layout.vector_bytes());
        let rows = &self.bytes.as_bytes()[hnsw_at + vectors.start..hnsw_at + vectors.end];
        let rows = cast::le_f32s(rows).expect(VIEWABLE);
        layout.view(self.words(hnsw_at + nodes.start..hnsw_at + nodes.end), rows)
    }

    /// Where the SQ8 id map ends and the codes — the blob's tail — begin.
    fn sq_codes_at(params: &SqParams, n: usize) -> usize {
        SqCluster::wire_size(n, params.dim()) - n * params.dim()
    }

    /// The global ids of the base rows, indexed by local id.
    pub fn global_ids(&self) -> &[u32] {
        match &self.payload {
            Payload::Full { hnsw_at, .. } => self.words(FULL_IDS_AT..*hnsw_at),
            Payload::Sq { params, n } => {
                let end = Self::sq_codes_at(params, *n);
                self.words(end - 4 * n..end)
            }
        }
    }

    /// The full-precision vector of base row `local`; `None` past the
    /// last row, and for an SQ8 load, which holds codes only.
    pub fn base_vector(&self, local: u32) -> Option<&[f32]> {
        let Payload::Full { hnsw_at, layout } = &self.payload else {
            return None;
        };
        ((local as usize) < layout.len()).then(|| self.index(*hnsw_at, layout).vector(local))
    }

    /// The quantization parameters, when this cluster was loaded
    /// compressed.
    pub fn sq_params(&self) -> Option<&SqParams> {
        match &self.payload {
            Payload::Sq { params, .. } => Some(params),
            Payload::Full { .. } => None,
        }
    }

    /// Whether the base payload is the compressed (SQ8) form.
    pub fn is_quantized(&self) -> bool {
        matches!(self.payload, Payload::Sq { .. })
    }

    /// The partition this cluster serves.
    pub fn partition(&self) -> u32 {
        self.partition
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        match &self.payload {
            Payload::Full { layout, .. } => layout.dim(),
            Payload::Sq { params, .. } => params.dim(),
        }
    }

    /// Number of overflow inserts materialized.
    pub fn overflow_len(&self) -> usize {
        self.extra.len()
    }

    /// Base rows, overflow inserts excluded.
    pub fn base_len(&self) -> usize {
        match &self.payload {
            Payload::Full { layout, .. } => layout.len(),
            Payload::Sq { n, .. } => *n,
        }
    }

    /// Top-`k` search over base + overflow vectors, global ids, ascending
    /// distance. Overflow vectors are scanned exactly — the tail is small
    /// by construction (bounded by the group's overflow capacity).
    pub fn search(&self, query: &[f32], k: usize, ef: usize) -> Vec<Neighbor> {
        let mut stats = SearchStats::default();
        self.search_with_stats(query, k, ef, &mut stats)
    }

    /// Like [`LoadedCluster::search`], accumulating work counters.
    pub fn search_with_stats(
        &self,
        query: &[f32],
        k: usize,
        ef: usize,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        let hits = self.probe_one(query, k, ef, stats);
        hits.into_iter()
            .map(|c| Neighbor::new(c.id, c.dist))
            .collect()
    }

    /// [`LoadedCluster::probe`] of one query, no rerank slack, with the
    /// calling thread's own scratch.
    fn probe_one(
        &self,
        query: &[f32],
        k: usize,
        ef: usize,
        stats: &mut SearchStats,
    ) -> Vec<Candidate> {
        let (mut out, mut ends) = (Vec::new(), Vec::new());
        LOCAL_SCRATCH.with_borrow_mut(|scratch| {
            self.probe(&[query], &[], k, 0, ef, scratch, stats, &mut out, &mut ends)
        });
        out
    }

    /// The one search entry: appends this cluster's best candidates for
    /// each of `queries` to `out` — exact ones ascending by `(dist, id)`,
    /// an SQ8 cluster's estimates in no order — and where each query's
    /// candidates end to `ends` — working out of the caller's `scratch`,
    /// so a worker probing cluster after cluster allocates nothing per
    /// probe for bookkeeping.
    ///
    /// A full-precision cluster too large for [`scans`] at `ef` walks its
    /// sub-HNSW with beam `ef` once per query; a smaller one, and every
    /// SQ8 cluster, is scanned whole **once per block of queries**: each
    /// row is read (SQ8: decoded) once and held against every query of
    /// the block. A full-precision probe yields up
    /// to `k` exact candidates — under the cut-off the exact `k` nearest of
    /// the cluster, whatever `ef` is. An SQ8 probe yields up to `k + slack`
    /// — the extra is the pool an exact rerank chooses from — each base row
    /// carrying its rerank address and error bound. What a query gets does
    /// not depend on what it shares a block with. Either way the overflow
    /// tail is scanned exactly and tombstoned ids are gone; a scan leaves
    /// `stats.hops` alone, which tells the two apart.
    ///
    /// `bounds` is empty (unseeded) or one distance per query: a
    /// full-precision scan then returns only query i's hits at or within
    /// `bounds[i]` (NaN and +∞ bound nothing). The caller vouches that
    /// query i has `k` distinct ids that close, so what a query finally
    /// gets depends on neither its block nor its seeds. A walk and an SQ8
    /// scan ignore them: a bound would narrow the beam, or drop an estimate
    /// the rerank may yet promote.
    #[allow(clippy::too_many_arguments)]
    pub fn probe(
        &self,
        queries: &[&[f32]],
        bounds: &[f32],
        k: usize,
        slack: usize,
        ef: usize,
        scratch: &mut ProbeScratch,
        stats: &mut SearchStats,
        out: &mut Vec<Candidate>,
        ends: &mut Vec<usize>,
    ) {
        match &self.payload {
            Payload::Sq { params, n } => {
                let codes =
                    &self.bytes.as_bytes()[Self::sq_codes_at(params, *n)..][..n * params.dim()];
                scratch.row.resize(params.dim(), 0.0);
                let rows = Codes {
                    params,
                    codes,
                    row: &mut scratch.row,
                };
                self.scan(
                    rows,
                    queries,
                    &[],
                    k + slack,
                    &mut scratch.block,
                    stats,
                    out,
                    ends,
                )
            }
            Payload::Full { hnsw_at, layout } => {
                let index = self.index(*hnsw_at, layout);
                if scans(layout.len(), ef) {
                    let block = &mut scratch.block;
                    self.scan(index, queries, bounds, k, block, stats, out, ends)
                } else {
                    self.walk(&index, queries, k, ef, &mut scratch.walk, stats, out, ends)
                }
            }
        }
    }

    /// The sub-HNSW walk, once per query, merged with the overflow tail.
    #[allow(clippy::too_many_arguments)]
    fn walk(
        &self,
        index: &IndexView<'_>,
        queries: &[&[f32]],
        k: usize,
        ef: usize,
        walk: &mut SearchScratch,
        stats: &mut SearchStats,
        out: &mut Vec<Candidate>,
        ends: &mut Vec<usize>,
    ) {
        let ids = self.global_ids();
        // When tombstones exist, ask the base graph for that many extra
        // candidates (and widen the beam accordingly) so filtering the
        // deleted ids still leaves k survivors.
        let extra_needed = self.deleted.len().min(k);
        for query in queries {
            let start = out.len();
            let base = index.search_in(query, k + extra_needed, ef + extra_needed, walk, stats);
            out.extend(
                (base
                    .iter()
                    .map(|n| Candidate::exact(ids[n.id as usize], n.dist)))
                .filter(|c| extra_needed == 0 || !self.deleted.contains(&c.id)),
            );
            for (gid, v) in &self.extra {
                stats.dist_evals += 1;
                out.push(Candidate::exact(*gid, index.metric().distance(query, v)));
            }
            // The walk orders ties by local id; hits leave ordered by
            // global.
            out[start..].sort_unstable_by(by_dist_then_id);
            out.truncate(start + k);
            ends.push(out.len());
        }
    }

    /// The block scan: the run is cut into blocks of [`SCAN_BLOCK_BYTES`]
    /// of queries, and each block makes one pass over the cluster's base
    /// `rows` and its overflow inserts, every query collecting its `pool`
    /// closest at or within its bound, if `bounds` has one.
    #[allow(clippy::too_many_arguments)]
    fn scan<R: Rows>(
        &self,
        mut rows: R,
        queries: &[&[f32]],
        bounds: &[f32],
        pool: usize,
        block: &mut Block,
        stats: &mut SearchStats,
        out: &mut Vec<Candidate>,
        ends: &mut Vec<usize>,
    ) {
        debug_assert!(queries.iter().all(|q| q.len() == self.dim()));
        let ids = self.global_ids();
        let metric = rows.metric();
        // TopK carries plain (id, dist), so select over pseudo-ids:
        // base row i -> i, overflow insert j -> n + j.
        let n = ids.len() as u32;
        // Most clusters carry no tombstone; those skip the per-row hash
        // lookup altogether.
        let any_deleted = !self.deleted.is_empty();
        let per = (SCAN_BLOCK_BYTES / (4 * self.dim())).max(1);
        for (at, queries) in (0..).step_by(per).zip(queries.chunks(per)) {
            block
                .tops
                .resize_with(block.tops.len().max(queries.len()), || TopK::new(pool));
            block.queries.load(metric, queries);
            for (i, top) in block.tops[..queries.len()].iter_mut().enumerate() {
                top.reset_below(pool, bounds.get(at + i).copied().unwrap_or(f32::INFINITY));
            }
            let live = (0u32..)
                .zip(ids)
                .filter(|(_, gid)| !any_deleted || !self.deleted.contains(gid));
            let live = live.map(|(local, _)| local);
            let mut evals = self.extra.len();
            if let [query] = queries {
                for local in live {
                    evals += 1;
                    block.tops[0].push(local, rows.alone(local, query));
                }
            } else {
                for local in live {
                    evals += 1;
                    block.offer(local, queries, rows.row(local));
                }
            }
            for (j, (_, v)) in self.extra.iter().enumerate() {
                block.offer(n + j as u32, queries, v);
            }
            stats.dist_evals += (evals * queries.len()) as u64;
            for top in &mut block.tops[..queries.len()] {
                let start = out.len();
                top.drain(|h| {
                    out.push(match h.id.checked_sub(n) {
                        None => rows.hit(ids[h.id as usize], h.id, h.dist),
                        Some(j) => Candidate::exact(self.extra[j as usize].0, h.dist),
                    })
                });
                if R::EXACT {
                    out[start..].sort_unstable_by(by_dist_then_id);
                }
                ends.push(out.len());
            }
        }
    }

    /// Top-`k` scan of a quantized cluster: [`LoadedCluster::probe`]
    /// with no rerank slack, hits keeping their rerank address, put in
    /// ascending `(dist, id)` order.
    pub fn search_sq(&self, query: &[f32], k: usize) -> Vec<SqHit> {
        let mut stats = SearchStats::default();
        self.search_sq_with_stats(query, k, &mut stats)
    }

    /// Like [`LoadedCluster::search_sq`], accumulating work counters.
    pub fn search_sq_with_stats(
        &self,
        query: &[f32],
        k: usize,
        stats: &mut SearchStats,
    ) -> Vec<SqHit> {
        let mut hits = self.probe_one(query, k, k, stats);
        hits.sort_unstable_by(by_dist_then_id);
        hits.into_iter()
            .map(|c| SqHit {
                id: c.id,
                dist: c.dist,
                local: c.local,
            })
            .collect()
    }

    /// Resident size in bytes (for cache accounting): the serialized
    /// cluster plus the overflow extras — O(1) in the cluster's size, as
    /// the cache sums it under its lock.
    pub fn resident_bytes(&self) -> usize {
        let base = match &self.payload {
            Payload::Full { hnsw_at, layout } => hnsw_at + layout.vector_bytes().end,
            Payload::Sq { params, n } => SqCluster::wire_size(*n, params.dim()),
        };
        base + self.extra.len() * (8 + 4 * self.dim())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecsim::gen;

    fn params() -> HnswParams {
        HnswParams::new(6, 32).seed(3)
    }

    fn build_cluster(n: usize) -> SubCluster {
        let data = gen::uniform(8, n, 0.0, 1.0, 9).unwrap();
        let ids: Vec<u32> = (0..n as u32).map(|i| i * 10 + 1).collect();
        SubCluster::build(3, data, ids, &params()).unwrap()
    }

    #[test]
    fn a_cluster_scans_up_to_scan_rows_per_ef_times_ef() {
        for ef in [1, 2, 48, 500] {
            let cut = SCAN_ROWS_PER_EF * ef;
            assert!(scans(cut, ef) && !scans(cut + 1, ef), "ef {ef}");
        }
        assert!(scans(usize::MAX, usize::MAX), "the product saturates");
    }

    #[test]
    fn search_returns_global_ids() {
        let c = build_cluster(50);
        let out = c.search(c.hnsw().vector(7), 1, 16);
        assert_eq!(out[0].id, 71); // local 7 -> global 7*10+1
        assert_eq!(out[0].dist, 0.0);
    }

    #[test]
    fn build_rejects_mismatched_ids() {
        let data = gen::uniform(4, 10, 0.0, 1.0, 1).unwrap();
        assert!(SubCluster::build(0, data, vec![1, 2], &params()).is_err());
    }

    #[test]
    fn build_rejects_empty_partition() {
        let data = Dataset::new(4);
        assert!(SubCluster::build(0, data, vec![], &params()).is_err());
    }

    #[test]
    fn cluster_round_trips_through_bytes() {
        let c = build_cluster(40);
        let blob = c.to_bytes();
        assert_eq!(blob.len(), c.serialized_size());
        let back = SubCluster::from_bytes(&blob).unwrap();
        assert_eq!(back.partition(), c.partition());
        assert_eq!(back.global_ids(), c.global_ids());
        let q = [0.5f32; 8];
        assert_eq!(back.search(&q, 5, 16), c.search(&q, 5, 16));
    }

    #[test]
    fn a_full_row_sits_where_full_row_at_says() {
        let c = build_cluster(40);
        let blob = c.to_bytes();
        let loaded = LoadedCluster::adopt(blob.clone(), 0, false, None).unwrap();
        for local in [0u32, 1, 17, 39] {
            let at = full_row_at(blob.len() as u64, c.len(), local, c.dim()) as usize;
            let row: Vec<f32> = blob[at..at + 4 * c.dim()]
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes(b.try_into().unwrap()))
                .collect();
            assert_eq!(row, c.hnsw().vector(local), "row {local}");
            assert_eq!(Some(&row[..]), loaded.base_vector(local), "row {local}");
        }
    }

    #[test]
    fn corrupt_cluster_blobs_are_rejected() {
        let c = build_cluster(10);
        let blob = c.to_bytes();
        assert!(SubCluster::from_bytes(&blob[..10]).is_err());
        let mut bad = blob.clone();
        bad[0] ^= 0xff;
        assert!(SubCluster::from_bytes(&bad).is_err());
    }

    #[test]
    fn overflow_record_round_trips_with_padding() {
        for dim in [1usize, 2, 3, 8, 128] {
            let r = OverflowRecord {
                partition: 5,
                global_id: 999,
                vector: (0..dim).map(|i| i as f32 * 0.5).collect(),
                tombstone: false,
            };
            let bytes = r.to_bytes();
            assert_eq!(bytes.len(), OverflowRecord::wire_size(dim));
            assert_eq!(bytes.len() % 8, 0, "records must stay 8-aligned");
            // Commit marker sits in the slot's final word.
            let tail = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
            assert_eq!(tail, OVERFLOW_COMMIT);
            let back = OverflowRecord::from_bytes(&bytes, dim).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn uncommitted_slot_is_rejected_by_decode() {
        let dim = 4;
        // A reserved-but-never-written slot reads as all zeros.
        let zeros = vec![0u8; OverflowRecord::wire_size(dim)];
        let err = OverflowRecord::from_bytes(&zeros, dim).unwrap_err();
        assert!(err.to_string().contains("uncommitted"), "{err}");
        // A committed slot with a cleared marker is also uncommitted.
        let mut torn = OverflowRecord::insert(1, 7, vec![1.0; dim]).to_bytes();
        let n = torn.len();
        torn[n - 4..].fill(0);
        assert!(OverflowRecord::from_bytes(&torn, dim).is_err());
    }

    #[test]
    fn damaged_payload_fails_the_checksum() {
        let dim = 3;
        let mut bytes = OverflowRecord::insert(2, 42, vec![0.25; dim]).to_bytes();
        bytes[17] ^= 0x01; // flip a payload bit, marker intact
        let err = OverflowRecord::from_bytes(&bytes, dim).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn parse_overflow_reads_only_used_records() {
        let dim = 4;
        let rec = OverflowRecord::wire_size(dim);
        let mut area = vec![0u8; 8 + 3 * rec];
        let r0 = OverflowRecord {
            partition: 1,
            global_id: 10,
            vector: vec![1.0; dim],
            tombstone: false,
        };
        let r1 = OverflowRecord {
            partition: 2,
            global_id: 20,
            vector: vec![2.0; dim],
            tombstone: false,
        };
        area[8..8 + rec].copy_from_slice(&r0.to_bytes());
        area[8 + rec..8 + 2 * rec].copy_from_slice(&r1.to_bytes());
        area[0..8].copy_from_slice(&(2 * rec as u64).to_le_bytes());
        let got = parse_overflow(&area, dim).unwrap();
        assert_eq!(got, vec![r0, r1]);
    }

    #[test]
    fn parse_overflow_tolerates_overcommitted_counter() {
        // A failed insert can leave `used` past capacity; parsing must
        // clamp, not error.
        let dim = 2;
        let rec = OverflowRecord::wire_size(dim);
        let mut area = vec![0u8; 8 + rec];
        let r = OverflowRecord::insert(0, 5, vec![0.5; dim]);
        area[8..8 + rec].copy_from_slice(&r.to_bytes());
        area[0..8].copy_from_slice(&(10_000u64).to_le_bytes());
        let got = parse_overflow(&area, dim).unwrap();
        assert_eq!(got, vec![r]); // only the one whole record that fits
    }

    #[test]
    fn parse_overflow_skips_torn_slots() {
        // Committed, torn (reserved-but-unwritten, all zeros), committed:
        // parse yields the two committed records and counts one skip.
        let dim = 2;
        let rec = OverflowRecord::wire_size(dim);
        let mut area = vec![0u8; 8 + 3 * rec];
        let r0 = OverflowRecord::insert(0, 1, vec![1.0; dim]);
        let r2 = OverflowRecord::insert(0, 3, vec![3.0; dim]);
        area[8..8 + rec].copy_from_slice(&r0.to_bytes());
        area[8 + 2 * rec..8 + 3 * rec].copy_from_slice(&r2.to_bytes());
        area[0..8].copy_from_slice(&((3 * rec) as u64).to_le_bytes());
        let (got, skipped) = parse_overflow_detailed(&area, dim).unwrap();
        assert_eq!(got, vec![r0, r2]);
        assert_eq!(skipped, 1);
    }

    #[test]
    fn parse_overflow_rejects_headerless_area() {
        assert!(parse_overflow(&[0u8; 4], 2).is_err());
    }

    #[test]
    fn loaded_cluster_filters_overflow_by_partition() {
        let c = build_cluster(20);
        let dim = c.dim();
        let rec = OverflowRecord::wire_size(dim);
        let mut area = vec![0u8; 8 + 2 * rec];
        let mine = OverflowRecord {
            partition: 3,
            global_id: 7_000,
            vector: vec![0.5; dim],
            tombstone: false,
        };
        let other = OverflowRecord {
            partition: 4,
            global_id: 8_000,
            vector: vec![0.5; dim],
            tombstone: false,
        };
        area[8..8 + rec].copy_from_slice(&mine.to_bytes());
        area[8 + rec..8 + 2 * rec].copy_from_slice(&other.to_bytes());
        area[0..8].copy_from_slice(&((2 * rec) as u64).to_le_bytes());

        let loaded = LoadedCluster::from_remote(&c.to_bytes(), &area).unwrap();
        assert_eq!((loaded.base_len(), loaded.overflow_len()), (20, 1));
        // The inserted vector is findable.
        let out = loaded.search(&vec![0.5; dim], 1, 16);
        assert_eq!(out[0].id, 7_000);
    }

    fn build_sq(n: usize) -> (Dataset, SqCluster) {
        let data = gen::uniform(8, n, 0.0, 1.0, 9).unwrap();
        let ids: Vec<u32> = (0..n as u32).map(|i| i * 10 + 1).collect();
        let sq = SqCluster::build(3, &data, ids).unwrap();
        (data, sq)
    }

    #[test]
    fn sq_cluster_round_trips_through_bytes() {
        let (_, sq) = build_sq(40);
        let blob = sq.to_bytes();
        assert_eq!(blob.len(), sq.serialized_size());
        assert_eq!(blob.len(), SqCluster::wire_size(40, 8));
        let back = SqCluster::from_bytes(&blob).unwrap();
        assert_eq!(back.partition(), 3);
        assert_eq!(back.global_ids(), sq.global_ids());
        assert_eq!(back.params(), sq.params());
        assert_eq!(back.codes_of(17), sq.codes_of(17));
    }

    #[test]
    fn corrupt_sq_blobs_are_rejected() {
        let (_, sq) = build_sq(10);
        let blob = sq.to_bytes();
        assert!(SqCluster::from_bytes(&blob[..10]).is_err());
        let mut bad = blob.clone();
        bad[0] ^= 0xff;
        assert!(SqCluster::from_bytes(&bad).is_err());
        assert!(SqCluster::from_bytes(&blob[..blob.len() - 1]).is_err());
    }

    #[test]
    fn sq_blob_is_roughly_a_quarter_of_f32_payload() {
        let (_, sq) = build_sq(200);
        // 200 vectors at dim 8: f32 payload alone is 6400 bytes; the sq
        // blob (codes + ids + params) must come in well under half.
        assert!(sq.serialized_size() < 200 * 8 * 4 / 2);
    }

    #[test]
    fn sq_scan_finds_the_encoded_vector_and_orders_like_exact_l2() {
        let (data, sq) = build_sq(60);
        let loaded = LoadedCluster::from_remote_sq(&sq.to_bytes(), None).unwrap();
        assert!(loaded.is_quantized());
        assert_eq!(loaded.sq_params(), Some(sq.params()));
        assert_eq!(loaded.global_ids(), sq.global_ids());
        assert_eq!(loaded.base_vector(0), None, "an SQ8 load holds codes only");
        assert_eq!(loaded.dim(), 8);
        let q = data.get(7);
        let hits = loaded.search_sq(q, 5);
        // The query is itself a member: the asymmetric distance to its
        // own codes is bounded by the quantization error, far below the
        // distance to any other uniform random vector.
        assert_eq!(hits[0].id, 71);
        assert_eq!(hits[0].local, Some(7));
        assert!(hits[0].dist < 0.01, "self distance {}", hits[0].dist);
        // Hits come back ascending.
        for w in hits.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        // And the generic search() entry point agrees.
        let plain = loaded.search(q, 5, 16);
        let ids: Vec<u32> = hits.iter().map(|h| h.id).collect();
        let plain_ids: Vec<u32> = plain.iter().map(|n| n.id).collect();
        assert_eq!(ids, plain_ids);
    }

    #[test]
    fn sq_scan_merges_overflow_exactly_and_respects_tombstones() {
        let (data, sq) = build_sq(20);
        let dim = 8;
        let rec = OverflowRecord::wire_size(dim);
        let mut area = vec![0u8; 8 + 3 * rec];
        // An insert right on top of the query, an insert for the other
        // partition, and a tombstone killing base id 51 (local 5).
        let q = data.get(5).to_vec();
        let mine = OverflowRecord::insert(3, 7_000, q.clone());
        let other = OverflowRecord::insert(4, 8_000, q.clone());
        let kill = OverflowRecord::tombstone(3, 51, dim);
        area[8..8 + rec].copy_from_slice(&mine.to_bytes());
        area[8 + rec..8 + 2 * rec].copy_from_slice(&other.to_bytes());
        area[8 + 2 * rec..8 + 3 * rec].copy_from_slice(&kill.to_bytes());
        area[0..8].copy_from_slice(&((3 * rec) as u64).to_le_bytes());

        let loaded = LoadedCluster::from_remote_sq(&sq.to_bytes(), Some(&area)).unwrap();
        assert_eq!(loaded.overflow_len(), 1);
        assert!(loaded.deleted().contains(&51));
        let hits = loaded.search_sq(&q, 3);
        // The overflow insert sits at distance exactly 0 (exact scan)
        // and carries no local row; the tombstoned base id is gone.
        assert_eq!(hits[0].id, 7_000);
        assert_eq!(hits[0].dist, 0.0);
        assert_eq!(hits[0].local, None);
        assert!(hits.iter().all(|h| h.id != 51));
        assert!(hits.iter().all(|h| h.id != 8_000));
    }

    /// A seeded full-precision scan returns exactly the unseeded hits at or
    /// within each query's bound, a hit at the bound itself included, alone
    /// or in a block; an SQ8 scan and a walk ignore the bounds.
    #[test]
    fn a_seeded_scan_returns_the_unseeded_hits_within_its_bounds() {
        let full = LoadedCluster::adopt(build_cluster(60).to_bytes(), 0, false, None).unwrap();
        let sq = LoadedCluster::from_remote_sq(&build_sq(60).1.to_bytes(), None).unwrap();
        let queries: Vec<Vec<f32>> = (0..3).map(|i| vec![0.3 * i as f32; 8]).collect();
        for n in [1, 3] {
            let block: Vec<&[f32]> = queries[..n].iter().map(Vec::as_slice).collect();
            let probe = |c: &LoadedCluster, bounds: &[f32], ef| {
                let (mut out, mut ends) = (Vec::new(), Vec::new());
                let (scratch, stats) = (&mut ProbeScratch::default(), &mut SearchStats::default());
                c.probe(
                    &block, bounds, 5, 3, ef, scratch, stats, &mut out, &mut ends,
                );
                let starts = std::iter::once(0).chain(ends.iter().copied());
                let hits = starts
                    .zip(&ends)
                    .map(|(start, &end)| out[start..end].to_vec());
                hits.collect::<Vec<Vec<Candidate>>>()
            };
            let unseeded = probe(&full, &[], 48);
            // At a hit, unbounded, and closer than every hit.
            let bound = |(i, hits): (usize, &Vec<Candidate>)| match i {
                0 => hits[2].dist,
                1 => f32::NAN,
                _ => hits[0].dist - 1e-3,
            };
            let bounds: Vec<f32> = unseeded.iter().enumerate().map(bound).collect();
            let seeded = probe(&full, &bounds, 48);
            for ((want, got), &bound) in unseeded.iter().zip(&seeded).zip(&bounds) {
                let within = want.iter().filter(|c| bound.is_nan() || c.dist <= bound);
                assert_eq!(*got, within.copied().collect::<Vec<_>>(), "bound {bound}");
            }
            assert_eq!(seeded[0].len(), 3);
            assert_eq!(probe(&sq, &bounds, 48), probe(&sq, &[], 48));
            assert!(!scans(60, 1));
            assert_eq!(probe(&full, &bounds, 1), probe(&full, &[], 1));
        }
    }

    #[test]
    fn sq_build_rejects_degenerate_partitions() {
        let data = Dataset::new(4);
        assert!(SqCluster::build(0, &data, vec![]).is_err());
        let data = gen::uniform(4, 3, 0.0, 1.0, 1).unwrap();
        assert!(SqCluster::build(0, &data, vec![1]).is_err());
    }

    #[test]
    fn loaded_cluster_merges_base_and_overflow_by_distance() {
        let data = Dataset::from_rows(&[[0.0f32, 0.0], [10.0, 10.0]]).unwrap();
        let sub = SubCluster::build(0, data, vec![1, 2], &params()).unwrap();
        let dim = 2;
        let rec = OverflowRecord::wire_size(dim);
        let mut area = vec![0u8; 8 + rec];
        let inserted = OverflowRecord {
            partition: 0,
            global_id: 99,
            vector: vec![0.2, 0.2],
            tombstone: false,
        };
        area[8..8 + rec].copy_from_slice(&inserted.to_bytes());
        area[0..8].copy_from_slice(&(rec as u64).to_le_bytes());
        let loaded = LoadedCluster::from_remote(&sub.to_bytes(), &area).unwrap();
        let out = loaded.search(&[0.1, 0.1], 3, 8);
        let ids: Vec<u32> = out.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![1, 99, 2]);
    }
}
