//! The RDMA-friendly remote memory layout of §3.2.
//!
//! One contiguous registered region holds everything:
//!
//! ```text
//! ┌────────────┬──────────────────────────── group 0 ───────────────────────────┬── group 1 ──┬─ ...
//! │ directory  │ cluster A │ shared overflow (used u64, records…) │ cluster B   │             │
//! └────────────┴───────────┴──────────────────────────────────────┴─────────────┴─────────────┴─ ...
//! ```
//!
//! The *directory* (global metadata block) records the offset and length
//! of every serialized sub-HNSW cluster, and — since format v2 — carries
//! one aligned `u64` *version slot* per cluster at its tail. Writers
//! `FAA` a cluster's version slot after committing a mutation; readers
//! bracket their cluster fetch with version reads (version → bytes →
//! version, folded into the same doorbell batch) and retry on mismatch,
//! which is the §3.2 optimistic-read protocol. Each *group* packs two
//! clusters at its two ends with a shared overflow area between them, so
//! that
//!
//! - cluster A plus the overflow is one contiguous span, and
//! - the overflow plus cluster B is one contiguous span,
//!
//! meaning any cluster together with every vector later inserted into it
//! is fetched by a **single** `RDMA_READ` ([`ClusterLocation::read_span`]).
//! The overflow area starts with an 8-byte `used` counter that compute
//! nodes bump with remote atomics when reserving insert slots.
//!
//! All offsets and lengths are kept 8-byte aligned so the counter (and
//! every overflow record) is a legal target for `CAS`/`FAA`.

use crate::cluster::OverflowRecord;
use crate::{Error, QuantizeMode, Result};

/// Magic tag of a serialized directory.
pub const DIRECTORY_MAGIC: u32 = 0x3144_4844; // "DHD1"
/// v2: one aligned `u64` version slot per cluster after the location
/// entries, paired with the framed overflow records (length prefix,
/// checksum, commit marker). This is what [`Directory::plan`] emits for
/// uncompressed stores, and the oldest format still decoded.
pub const DIRECTORY_VERSION: u32 = 2;
/// v3 appends a per-cluster SQ8 span table (`sq_off`/`sq_len` `u64`
/// pairs) after the version slots; the spans point at scalar-quantized
/// cluster blobs in a tail region after the groups. Emitted by
/// [`Directory::plan_with_sq`] when quantization is on.
pub const DIRECTORY_VERSION_V3: u32 = 3;

const HEADER_BYTES: usize = 4 + 4 + 4 + 4 + 4 + 4 + 8 + 8 + 8;

/// Absolute region offset of the live global-id counter: an aligned `u64`
/// inside the directory that compute nodes `FAA` to allocate ids for
/// inserted vectors.
pub const ID_COUNTER_OFFSET: u64 = 40;
const ENTRY_BYTES: usize = 4 + 1 + 3 + 8 + 8 + 8 + 8;
const SQ_SPAN_BYTES: usize = 8 + 8;
/// Bytes a reader must fetch to learn a directory's version and
/// partition count — enough for [`Directory::peek_size`].
pub const DIRECTORY_PEEK_BYTES: usize = HEADER_BYTES;

fn pad8(n: u64) -> u64 {
    (n + 7) & !7
}

/// Which end of its group a cluster occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupSlot {
    /// The front of the group (cluster, then overflow).
    Front,
    /// The back of the group (overflow, then cluster).
    Back,
}

/// Where one partition's cluster lives in remote memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterLocation {
    /// Partition id.
    pub partition: u32,
    /// Group index.
    pub group: u32,
    /// Position within the group.
    pub slot: GroupSlot,
    /// Absolute byte offset of the serialized cluster.
    pub cluster_off: u64,
    /// Length of the serialized cluster in bytes.
    pub cluster_len: u64,
    /// Absolute byte offset of the group's shared overflow area
    /// (including its 8-byte `used` header).
    pub overflow_off: u64,
    /// Total length of the overflow area, header included.
    pub overflow_len: u64,
}

impl ClusterLocation {
    /// The single contiguous `(offset, len)` span covering this cluster
    /// *and* its overflow area — what one `RDMA_READ` fetches.
    pub fn read_span(&self) -> (u64, u64) {
        match self.slot {
            GroupSlot::Front => (
                self.cluster_off,
                self.overflow_off + self.overflow_len - self.cluster_off,
            ),
            GroupSlot::Back => (
                self.overflow_off,
                self.cluster_off + self.cluster_len - self.overflow_off,
            ),
        }
    }

    /// Where one read of [`ClusterLocation::read_span`] is cut so the
    /// serialized cluster lands alone: bytes into the span, and whether
    /// the cluster is the part after the cut (back slot) rather than the
    /// part before it (front slot).
    pub fn cluster_cut(&self) -> (u64, bool) {
        let (_, len) = self.read_span();
        match self.slot {
            GroupSlot::Front => (self.cluster_len, false),
            GroupSlot::Back => (len.saturating_sub(self.cluster_len), true),
        }
    }

    /// The overflow area inside `rest`, what the span holds beside its
    /// cluster: alignment padding then the area after a front-slot
    /// cluster, the area alone before a back-slot one. A buffer holding
    /// exactly the area (a read of `overflow_off`, `overflow_len`) is its
    /// own area either way.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] when `rest` is shorter than the area.
    pub fn overflow_in<'a>(&self, rest: &'a [u8]) -> Result<&'a [u8]> {
        let n = self.overflow_len as usize;
        let area = match self.slot {
            GroupSlot::Front => rest.len().checked_sub(n).map(|at| &rest[at..]),
            GroupSlot::Back => rest.get(..n),
        };
        area.ok_or_else(|| Error::Corrupt("span ends inside its overflow area".into()))
    }

    /// Splits a buffer fetched via [`ClusterLocation::read_span`] into
    /// `(cluster_bytes, overflow_area)`: [`ClusterLocation::cluster_cut`]
    /// and [`ClusterLocation::overflow_in`] applied to one contiguous
    /// buffer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] when the buffer does not match the
    /// span's length.
    pub fn split<'a>(&self, buf: &'a [u8]) -> Result<(&'a [u8], &'a [u8])> {
        let (_, span_len) = self.read_span();
        if buf.len() as u64 != span_len {
            return Err(Error::Corrupt(format!(
                "span buffer is {} bytes, expected {span_len}",
                buf.len()
            )));
        }
        let (cut, cluster_last) = self.cluster_cut();
        let (head, tail) = buf
            .split_at_checked(cut as usize)
            .ok_or_else(|| Error::Corrupt("cluster runs past its span".into()))?;
        let (cluster, rest) = if cluster_last {
            (tail, head)
        } else {
            (head, tail)
        };
        Ok((cluster, self.overflow_in(rest)?))
    }

    /// Absolute offset of the overflow record that starts `at` payload
    /// bytes into the area (past its 8-byte `used` counter).
    pub fn overflow_record_off(&self, at: u64) -> u64 {
        self.overflow_off + 8 + at
    }

    /// Absolute offset of the overflow `used` counter (an aligned `u64`).
    pub fn overflow_counter_off(&self) -> u64 {
        self.overflow_off
    }

    /// Bytes of record payload the overflow area can hold.
    pub fn overflow_capacity(&self) -> u64 {
        self.overflow_len - 8
    }

    /// Alignment padding after this cluster's serialized bytes (in
    /// front of the overflow area for the front slot, at the group's
    /// tail for the back slot) — dead bytes the layout spends on
    /// 8-byte alignment.
    pub fn padding_bytes(&self) -> u64 {
        pad8(self.cluster_len) - self.cluster_len
    }
}

/// Layout accounting for one §3.2 group: up to two clusters sharing an
/// overflow area. Produced by [`Directory::groups`] for health
/// reporting — the group's live `used` counter sits at
/// [`GroupLayout::overflow_off`] and can be read with one 8-byte
/// `RDMA_READ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupLayout {
    /// Group index.
    pub group: u32,
    /// Partition in the front slot.
    pub front: u32,
    /// Partition in the back slot (`None` for a trailing odd group).
    pub back: Option<u32>,
    /// Serialized cluster bytes across the group's members.
    pub cluster_bytes: u64,
    /// Alignment padding across the group's members.
    pub padding_bytes: u64,
    /// Absolute offset of the shared overflow area (== its 8-byte
    /// `used` counter).
    pub overflow_off: u64,
    /// Insert capacity of the overflow area in bytes, header excluded.
    pub overflow_capacity: u64,
}

/// The global metadata block: every cluster's location, plus enough
/// geometry for a compute node to plan reads and inserts.
///
/// # Example
///
/// ```rust
/// use dhnsw::layout::Directory;
///
/// # fn main() -> Result<(), dhnsw::Error> {
/// // Three clusters of 100/220/60 bytes, dim-4 vectors, 8 overflow slots.
/// let dir = Directory::plan(&[100, 220, 60], 4, 8)?;
/// assert_eq!(dir.partitions(), 3);
/// let back = Directory::from_bytes(&dir.to_bytes())?;
/// assert_eq!(back, dir);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directory {
    format_version: u32,
    dim: u32,
    epoch: u64,
    total_len: u64,
    record_size: u32,
    next_id: u64,
    locations: Vec<ClusterLocation>,
    /// Per-partition `(offset, len)` of the SQ8 cluster blob in the
    /// tail region; empty unless `format_version >= 3`.
    sq_spans: Vec<(u64, u64)>,
}

impl Directory {
    /// Plans the layout for clusters of the given serialized sizes
    /// (indexed by partition id), with `overflow_slots` insert records of
    /// dimensionality `dim` per group.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `cluster_sizes` is empty
    /// or `dim` is zero.
    pub fn plan(cluster_sizes: &[u64], dim: usize, overflow_slots: usize) -> Result<Self> {
        Self::plan_inner(cluster_sizes, None, dim, overflow_slots)
    }

    /// Plans a v3 layout: the v2 group geometry, plus one SQ8 blob per
    /// cluster (serialized sizes in `sq_sizes`, indexed by partition)
    /// packed into an 8-aligned tail region after the last group.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on the same degenerate
    /// inputs as [`Directory::plan`], or when `sq_sizes` and
    /// `cluster_sizes` disagree in length.
    pub fn plan_with_sq(
        cluster_sizes: &[u64],
        sq_sizes: &[u64],
        dim: usize,
        overflow_slots: usize,
    ) -> Result<Self> {
        if sq_sizes.len() != cluster_sizes.len() {
            return Err(Error::InvalidParameter(format!(
                "{} sq blob sizes for {} clusters",
                sq_sizes.len(),
                cluster_sizes.len()
            )));
        }
        Self::plan_inner(cluster_sizes, Some(sq_sizes), dim, overflow_slots)
    }

    fn plan_inner(
        cluster_sizes: &[u64],
        sq_sizes: Option<&[u64]>,
        dim: usize,
        overflow_slots: usize,
    ) -> Result<Self> {
        if cluster_sizes.is_empty() {
            return Err(Error::InvalidParameter(
                "layout needs at least one cluster".into(),
            ));
        }
        if dim == 0 {
            return Err(Error::InvalidParameter("dim must be non-zero".into()));
        }
        let record_size = OverflowRecord::wire_size(dim) as u64;
        let overflow_len = 8 + record_size * overflow_slots as u64;

        let n = cluster_sizes.len();
        let dir_len = if sq_sizes.is_some() {
            pad8(Self::byte_size_v3(n) as u64)
        } else {
            pad8(Self::byte_size(n) as u64)
        };
        let mut cursor = dir_len;
        let mut locations = Vec::with_capacity(n);

        let mut p = 0usize;
        let mut group = 0u32;
        while p < n {
            let a_len = cluster_sizes[p];
            let a_off = cursor;
            let ovf_off = a_off + pad8(a_len);
            let after_ovf = ovf_off + overflow_len;
            locations.push(ClusterLocation {
                partition: p as u32,
                group,
                slot: GroupSlot::Front,
                cluster_off: a_off,
                cluster_len: a_len,
                overflow_off: ovf_off,
                overflow_len,
            });
            cursor = after_ovf;
            if p + 1 < n {
                let b_len = cluster_sizes[p + 1];
                locations.push(ClusterLocation {
                    partition: (p + 1) as u32,
                    group,
                    slot: GroupSlot::Back,
                    cluster_off: after_ovf,
                    cluster_len: b_len,
                    overflow_off: ovf_off,
                    overflow_len,
                });
                cursor = after_ovf + pad8(b_len);
            }
            p += 2;
            group += 1;
        }

        // SQ8 blobs live in one tail region after the last group, so
        // the group geometry (and every v2 offset) is untouched by
        // quantization being on or off.
        let mut sq_spans = Vec::new();
        if let Some(sq) = sq_sizes {
            sq_spans.reserve(n);
            for &len in sq {
                sq_spans.push((cursor, len));
                cursor += pad8(len);
            }
        }

        Ok(Directory {
            format_version: if sq_sizes.is_some() {
                DIRECTORY_VERSION_V3
            } else {
                DIRECTORY_VERSION
            },
            dim: dim as u32,
            epoch: 0,
            total_len: cursor,
            record_size: record_size as u32,
            next_id: 0,
            locations,
            sq_spans,
        })
    }

    /// Format version this directory was planned/decoded at.
    pub fn format_version(&self) -> u32 {
        self.format_version
    }

    /// Number of partitions described.
    pub fn partitions(&self) -> usize {
        self.locations.len()
    }

    /// Vector dimensionality of the store.
    pub fn dim(&self) -> usize {
        self.dim as usize
    }

    /// Bytes one overflow record occupies.
    pub fn record_size(&self) -> usize {
        self.record_size as usize
    }

    /// Total region bytes the layout requires (directory + all groups).
    pub fn total_len(&self) -> u64 {
        self.total_len
    }

    /// Directory epoch (bumped when the layout is rebuilt).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The global-id counter value as of serialization/fetch time. The
    /// *live* counter is the `u64` at [`ID_COUNTER_OFFSET`] in remote
    /// memory, advanced with `FAA` on every insert.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Sets the initial global-id counter (store build time: the number
    /// of base vectors).
    pub fn set_next_id(&mut self, id: u64) {
        self.next_id = id;
    }

    /// Sets the directory epoch (bumped by every rebuild so compute
    /// nodes can detect a re-layout).
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// The location of partition `p`'s cluster.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownPartition`] for an out-of-range id.
    pub fn location(&self, p: u32) -> Result<&ClusterLocation> {
        self.locations
            .get(p as usize)
            .ok_or(Error::UnknownPartition(p))
    }

    /// All locations, indexed by partition id.
    pub fn locations(&self) -> &[ClusterLocation] {
        &self.locations
    }

    /// Serialized size of a directory over `n` partitions: header,
    /// location entries, alignment padding, then `n` version slots.
    pub fn byte_size(n: usize) -> usize {
        Self::version_slots_off(n) + n * 8
    }

    /// Serialized size under the v3 format: the v2 layout plus one
    /// `(sq_off, sq_len)` pair per cluster.
    pub fn byte_size_v3(n: usize) -> usize {
        Self::byte_size(n) + n * SQ_SPAN_BYTES
    }

    /// Serialized directory size, computed from a header prefix of at
    /// least [`DIRECTORY_PEEK_BYTES`] bytes — lets a reader size the
    /// full directory fetch without knowing the format in advance.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on a short prefix, a bad magic, or
    /// an unknown format version.
    pub fn peek_size(header: &[u8]) -> Result<usize> {
        if header.len() < HEADER_BYTES {
            return Err(Error::Corrupt("truncated directory header".into()));
        }
        let u32_at = |off: usize| u32::from_le_bytes(header[off..off + 4].try_into().expect("4"));
        if u32_at(0) != DIRECTORY_MAGIC {
            return Err(Error::Corrupt("bad directory magic".into()));
        }
        let n = u32_at(12) as usize;
        match u32_at(4) {
            DIRECTORY_VERSION => Ok(Self::byte_size(n)),
            DIRECTORY_VERSION_V3 => Ok(Self::byte_size_v3(n)),
            _ => Err(Error::Corrupt("unsupported directory version".into())),
        }
    }

    /// Byte offset of the first version slot, 8-aligned so every slot is
    /// a legal `FAA` target.
    fn version_slots_off(n: usize) -> usize {
        pad8((HEADER_BYTES + n * ENTRY_BYTES) as u64) as usize
    }

    /// Absolute region offset of partition `p`'s version slot (an
    /// aligned `u64` that writers `FAA` after committing a mutation).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownPartition`] for an out-of-range id.
    pub fn version_slot_off(&self, p: u32) -> Result<u64> {
        if p as usize >= self.locations.len() {
            return Err(Error::UnknownPartition(p));
        }
        Ok(Self::version_slots_off(self.locations.len()) as u64 + 8 * u64::from(p))
    }

    /// Serialized size of *this* directory at the head of the region.
    pub fn directory_bytes(&self) -> u64 {
        let n = self.locations.len();
        (if self.has_sq_spans() {
            Self::byte_size_v3(n)
        } else {
            Self::byte_size(n)
        }) as u64
    }

    /// Whether the directory carries SQ8 blob spans (format v3).
    pub fn has_sq_spans(&self) -> bool {
        self.format_version >= DIRECTORY_VERSION_V3
    }

    /// The `(offset, len)` of partition `p`'s SQ8 blob, or `None` on a
    /// pre-v3 directory.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownPartition`] for an out-of-range id.
    pub fn sq_span(&self, p: u32) -> Result<Option<(u64, u64)>> {
        if p as usize >= self.locations.len() {
            return Err(Error::UnknownPartition(p));
        }
        Ok(self.sq_spans.get(p as usize).copied())
    }

    /// What one load of partition `p` reads on `wire`: the `(offset,
    /// len)` of its span — the group span of cluster and overflow area
    /// at full precision ([`ClusterLocation::read_span`]), the compressed
    /// blob alone on SQ8 — and where that read is cut so the cluster
    /// lands alone ([`ClusterLocation::cluster_cut`]; the blob is the
    /// whole span).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownPartition`] for an out-of-range id, and
    /// [`Error::Corrupt`] for SQ8 on a directory without SQ8 spans.
    pub fn load_span(&self, p: u32, wire: QuantizeMode) -> Result<((u64, u64), (u64, bool))> {
        let loc = self.location(p)?;
        match wire {
            QuantizeMode::Off => Ok((loc.read_span(), loc.cluster_cut())),
            QuantizeMode::Sq8 => {
                let (off, len) = self
                    .sq_span(p)?
                    .ok_or_else(|| Error::Corrupt(format!("partition {p} has no sq span")))?;
                Ok(((off, len), (len, false)))
            }
        }
    }

    /// Live SQ8 blob bytes across the tail region (zero pre-v3).
    pub fn sq_live_bytes(&self) -> u64 {
        self.sq_spans.iter().map(|&(_, len)| len).sum()
    }

    /// Alignment padding spent between SQ8 blobs in the tail region.
    pub fn sq_padding_bytes(&self) -> u64 {
        self.sq_spans.iter().map(|&(_, len)| pad8(len) - len).sum()
    }

    /// Alignment padding between the directory and the first group.
    pub fn directory_padding(&self) -> u64 {
        pad8(self.directory_bytes()) - self.directory_bytes()
    }

    /// Per-group layout accounting, in group order. Locations are laid
    /// out front-slot first, so every group's shared overflow geometry
    /// is taken from its front member.
    pub fn groups(&self) -> Vec<GroupLayout> {
        let mut groups: Vec<GroupLayout> = Vec::new();
        for loc in &self.locations {
            let g = loc.group as usize;
            if g == groups.len() {
                groups.push(GroupLayout {
                    group: loc.group,
                    front: loc.partition,
                    back: None,
                    cluster_bytes: 0,
                    padding_bytes: 0,
                    overflow_off: loc.overflow_off,
                    overflow_capacity: loc.overflow_capacity(),
                });
            }
            let entry = &mut groups[g];
            if loc.slot == GroupSlot::Back {
                entry.back = Some(loc.partition);
            }
            entry.cluster_bytes += loc.cluster_len;
            entry.padding_bytes += loc.padding_bytes();
        }
        groups
    }

    /// Serializes the directory (what gets written at region offset 0).
    /// The version slots at the tail are serialized as zero — the live
    /// values exist only in remote memory, advanced by writer `FAA`s.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::byte_size(self.locations.len()));
        out.extend_from_slice(&DIRECTORY_MAGIC.to_le_bytes());
        out.extend_from_slice(&self.format_version.to_le_bytes());
        out.extend_from_slice(&self.dim.to_le_bytes());
        out.extend_from_slice(&(self.locations.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.record_size.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.total_len.to_le_bytes());
        out.extend_from_slice(&self.next_id.to_le_bytes());
        for loc in &self.locations {
            out.extend_from_slice(&loc.group.to_le_bytes());
            out.push(match loc.slot {
                GroupSlot::Front => 0,
                GroupSlot::Back => 1,
            });
            out.extend_from_slice(&[0, 0, 0]);
            out.extend_from_slice(&loc.cluster_off.to_le_bytes());
            out.extend_from_slice(&loc.cluster_len.to_le_bytes());
            out.extend_from_slice(&loc.overflow_off.to_le_bytes());
            out.extend_from_slice(&loc.overflow_len.to_le_bytes());
        }
        out.resize(Self::byte_size(self.locations.len()), 0);
        if self.has_sq_spans() {
            for &(off, len) in &self.sq_spans {
                out.extend_from_slice(&off.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
            }
        }
        out
    }

    /// Deserializes a directory blob, refusing any geometry the planner
    /// cannot have written: a region larger than memory can hold, an
    /// entry outside the `(group, slot)` pairing, a span outside `[end of
    /// the directory, total_len]`, an overflow area shorter than its
    /// `used` counter, or a front (back) cluster that does not end before
    /// (start after) its overflow area. Every offset a reader derives from
    /// an accepted directory is then in range.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on a bad magic/version, truncation, or
    /// such a geometry.
    pub fn from_bytes(blob: &[u8]) -> Result<Self> {
        let take = |off: usize, n: usize| -> Result<&[u8]> {
            blob.get(off..off + n)
                .ok_or_else(|| Error::Corrupt("truncated directory".into()))
        };
        let u32_at = |off: usize| -> Result<u32> {
            Ok(u32::from_le_bytes(take(off, 4)?.try_into().expect("4")))
        };
        let u64_at = |off: usize| -> Result<u64> {
            Ok(u64::from_le_bytes(take(off, 8)?.try_into().expect("8")))
        };
        // The header checks (magic, version) are `peek_size`'s; the size it
        // derives from the partition count is held against the blob
        // before anything is reserved for that count.
        let dir_end = Self::peek_size(blob)?;
        take(0, dir_end)?;
        let format_version = u32_at(4)?;
        let dim = u32_at(8)?;
        let n = u32_at(12)? as usize;
        let record_size = u32_at(16)?;
        let epoch = u64_at(24)?;
        let total_len = u64_at(32)?;
        let next_id = u64_at(ID_COUNTER_OFFSET as usize)?;
        if total_len > isize::MAX as u64 {
            return Err(Error::Corrupt(format!(
                "region of {total_len} bytes cannot exist"
            )));
        }
        // A span `(off, len)` inside the region, past the directory.
        let inside = |off: u64, len: u64| {
            off >= dir_end as u64 && off.checked_add(len).is_some_and(|end| end <= total_len)
        };
        let mut locations = Vec::with_capacity(n);
        for i in 0..n {
            let base = HEADER_BYTES + i * ENTRY_BYTES;
            let group = u32_at(base)?;
            let slot = match take(base + 4, 1)?[0] {
                0 => GroupSlot::Front,
                1 => GroupSlot::Back,
                other => {
                    return Err(Error::Corrupt(format!("bad slot tag {other}")));
                }
            };
            let loc = ClusterLocation {
                partition: i as u32,
                group,
                slot,
                cluster_off: u64_at(base + 8)?,
                cluster_len: u64_at(base + 16)?,
                overflow_off: u64_at(base + 24)?,
                overflow_len: u64_at(base + 32)?,
            };
            let paired =
                (group as usize, slot) == (i / 2, [GroupSlot::Front, GroupSlot::Back][i % 2]);
            // Summed only once both spans are known to end in the region.
            let ordered = || match slot {
                GroupSlot::Front => loc.cluster_off + loc.cluster_len <= loc.overflow_off,
                GroupSlot::Back => loc.overflow_off + loc.overflow_len <= loc.cluster_off,
            };
            if !paired
                || !inside(loc.cluster_off, loc.cluster_len)
                || !inside(loc.overflow_off, loc.overflow_len)
                || loc.overflow_len < 8
                || !ordered()
            {
                return Err(Error::Corrupt(format!(
                    "directory entry {i} is not a planned location: {loc:?}"
                )));
            }
            locations.push(loc);
        }
        let mut sq_spans = Vec::new();
        if format_version >= DIRECTORY_VERSION_V3 {
            sq_spans.reserve(n);
            for i in 0..n {
                let base = Self::byte_size(n) + i * SQ_SPAN_BYTES;
                let (off, len) = (u64_at(base)?, u64_at(base + 8)?);
                if !inside(off, len) {
                    return Err(Error::Corrupt(format!(
                        "sq span {i} ({off}, {len}) leaves the region"
                    )));
                }
                sq_spans.push((off, len));
            }
        }
        Ok(Directory {
            format_version,
            dim,
            epoch,
            total_len,
            record_size,
            next_id,
            locations,
            sq_spans,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_lays_out_pairs_with_shared_overflow() {
        let dir = Directory::plan(&[100, 200, 300, 400], 4, 8).unwrap();
        assert_eq!(dir.partitions(), 4);
        let a = *dir.location(0).unwrap();
        let b = *dir.location(1).unwrap();
        assert_eq!(a.group, 0);
        assert_eq!(b.group, 0);
        assert_eq!(a.slot, GroupSlot::Front);
        assert_eq!(b.slot, GroupSlot::Back);
        // Shared overflow: identical area for both partners.
        assert_eq!(a.overflow_off, b.overflow_off);
        assert_eq!(a.overflow_len, b.overflow_len);
        // Geometry: A | overflow | B, contiguous.
        assert_eq!(a.overflow_off, a.cluster_off + 104); // 100 padded to 8
        assert_eq!(b.cluster_off, a.overflow_off + a.overflow_len);
    }

    #[test]
    fn odd_cluster_count_leaves_last_group_half_full() {
        let dir = Directory::plan(&[100, 200, 300], 4, 8).unwrap();
        let last = *dir.location(2).unwrap();
        assert_eq!(last.group, 1);
        assert_eq!(last.slot, GroupSlot::Front);
        assert!(last.overflow_off > last.cluster_off);
    }

    #[test]
    fn spans_are_contiguous_and_cover_cluster_plus_overflow() {
        let dir = Directory::plan(&[64, 128], 2, 4).unwrap();
        for p in 0..2u32 {
            let loc = *dir.location(p).unwrap();
            let (off, len) = loc.read_span();
            // Span contains the cluster...
            assert!(off <= loc.cluster_off);
            assert!(off + len >= loc.cluster_off + loc.cluster_len);
            // ...and the whole overflow area.
            assert!(off <= loc.overflow_off);
            assert!(off + len >= loc.overflow_off + loc.overflow_len);
        }
    }

    #[test]
    fn split_recovers_cluster_and_overflow_slices() {
        let dir = Directory::plan(&[16, 24], 2, 2).unwrap();
        for p in 0..2u32 {
            let loc = *dir.location(p).unwrap();
            let (off, len) = loc.read_span();
            // Build a fake region where every byte is its absolute offset
            // modulo 251, so slices betray any misalignment.
            let buf: Vec<u8> = (off..off + len).map(|i| (i % 251) as u8).collect();
            let (cluster, overflow) = loc.split(&buf).unwrap();
            assert_eq!(cluster.len() as u64, loc.cluster_len);
            assert_eq!(overflow.len() as u64, loc.overflow_len);
            assert_eq!(cluster[0], (loc.cluster_off % 251) as u8);
            assert_eq!(overflow[0], (loc.overflow_off % 251) as u8);
        }
    }

    #[test]
    fn split_rejects_wrong_length_buffers() {
        let dir = Directory::plan(&[16], 2, 2).unwrap();
        let loc = *dir.location(0).unwrap();
        assert!(loc.split(&[0u8; 3]).is_err());
    }

    #[test]
    fn offsets_are_8_aligned_for_atomics() {
        let dir = Directory::plan(&[13, 27, 55, 101, 7], 3, 5).unwrap();
        for loc in dir.locations() {
            assert_eq!(loc.cluster_off % 8, 0, "{loc:?}");
            assert_eq!(loc.overflow_off % 8, 0, "{loc:?}");
        }
    }

    #[test]
    fn total_len_bounds_every_location() {
        let sizes = [100u64, 1, 999, 64, 31];
        let dir = Directory::plan(&sizes, 6, 3).unwrap();
        for loc in dir.locations() {
            let (off, len) = loc.read_span();
            assert!(off + len <= dir.total_len());
        }
    }

    #[test]
    fn id_counter_slot_is_aligned_and_inside_header() {
        assert_eq!(ID_COUNTER_OFFSET % 8, 0);
        assert!((ID_COUNTER_OFFSET as usize) + 8 <= HEADER_BYTES);
    }

    #[test]
    fn epoch_round_trips() {
        let mut dir = Directory::plan(&[50], 4, 2).unwrap();
        dir.set_epoch(9);
        let back = Directory::from_bytes(&dir.to_bytes()).unwrap();
        assert_eq!(back.epoch(), 9);
    }

    #[test]
    fn next_id_round_trips() {
        let mut dir = Directory::plan(&[100], 4, 4).unwrap();
        dir.set_next_id(12_345);
        let back = Directory::from_bytes(&dir.to_bytes()).unwrap();
        assert_eq!(back.next_id(), 12_345);
    }

    #[test]
    fn directory_round_trips_through_bytes() {
        let dir = Directory::plan(&[100, 200, 300], 8, 16).unwrap();
        let blob = dir.to_bytes();
        assert_eq!(blob.len(), Directory::byte_size(3));
        let back = Directory::from_bytes(&blob).unwrap();
        assert_eq!(back, dir);
    }

    #[test]
    fn corrupt_directories_are_rejected() {
        let dir = Directory::plan(&[100], 4, 4).unwrap();
        let blob = dir.to_bytes();
        assert!(Directory::from_bytes(&blob[..10]).is_err());
        let mut bad = blob.clone();
        bad[0] ^= 0xff;
        assert!(Directory::from_bytes(&bad).is_err());
        let mut bad_slot = blob.clone();
        bad_slot[HEADER_BYTES + 4] = 9;
        assert!(Directory::from_bytes(&bad_slot).is_err());
    }

    #[test]
    fn plan_rejects_degenerate_input() {
        assert!(Directory::plan(&[], 4, 4).is_err());
        assert!(Directory::plan(&[10], 0, 4).is_err());
    }

    #[test]
    fn version_slots_are_aligned_and_inside_the_directory() {
        let dir = Directory::plan(&[100, 200, 300], 4, 8).unwrap();
        assert_eq!(dir.format_version(), DIRECTORY_VERSION);
        for p in 0..3u32 {
            let off = dir.version_slot_off(p).unwrap();
            assert_eq!(off % 8, 0, "slot {p} must be FAA-able");
            // Slots live between the entries and the first group.
            assert!(off >= (HEADER_BYTES + 3 * ENTRY_BYTES) as u64);
            assert!(off + 8 <= Directory::byte_size(3) as u64);
            assert!(off + 8 <= dir.location(0).unwrap().cluster_off);
        }
        // Slots are distinct and consecutive.
        assert_eq!(
            dir.version_slot_off(1).unwrap(),
            dir.version_slot_off(0).unwrap() + 8
        );
        assert!(dir.version_slot_off(3).is_err());
        // Serialization covers the slots (zeroed at build time).
        assert_eq!(dir.to_bytes().len(), Directory::byte_size(3));
    }

    #[test]
    fn v3_plan_appends_sq_tail_after_the_groups() {
        let plain = Directory::plan(&[100, 220, 60], 4, 8).unwrap();
        let dir = Directory::plan_with_sq(&[100, 220, 60], &[40, 90, 25], 4, 8).unwrap();
        assert!(dir.has_sq_spans());
        assert_eq!(dir.format_version(), DIRECTORY_VERSION_V3);
        // The larger v3 directory shifts the groups, but the group
        // *shape* (pairing, shared overflow, relative geometry) matches
        // the v2 plan, and every sq span sits after every group span.
        let group_end = dir
            .locations()
            .iter()
            .map(|l| {
                let (off, len) = l.read_span();
                off + len
            })
            .max()
            .unwrap();
        for p in 0..3u32 {
            let (off, len) = dir.sq_span(p).unwrap().unwrap();
            assert_eq!(off % 8, 0);
            assert!(off >= group_end);
            assert!(off + len <= dir.total_len());
            assert_eq!(len, [40, 90, 25][p as usize]);
        }
        // Spans are packed back to back (40 is already 8-aligned, 90
        // pads to 96).
        let (off0, _) = dir.sq_span(0).unwrap().unwrap();
        assert_eq!(dir.sq_span(1).unwrap().unwrap().0, off0 + 40);
        assert_eq!(dir.sq_span(2).unwrap().unwrap().0, off0 + 40 + 96);
        assert!(dir.sq_span(3).is_err());
        // v2 plans report no spans.
        assert_eq!(plain.sq_span(0).unwrap(), None);
        assert_eq!(plain.sq_live_bytes(), 0);
        // Accounting: sq live + padding is exactly the tail.
        assert_eq!(dir.sq_live_bytes(), 40 + 90 + 25);
        assert_eq!(
            dir.sq_span(0).unwrap().unwrap().0 + dir.sq_live_bytes() + dir.sq_padding_bytes(),
            dir.total_len()
        );
    }

    #[test]
    fn v3_directory_round_trips_through_bytes() {
        let mut dir = Directory::plan_with_sq(&[100, 200], &[30, 70], 4, 8).unwrap();
        dir.set_next_id(77);
        dir.set_epoch(3);
        let blob = dir.to_bytes();
        assert_eq!(blob.len(), Directory::byte_size_v3(2));
        assert_eq!(blob.len() as u64, dir.directory_bytes());
        let back = Directory::from_bytes(&blob).unwrap();
        assert_eq!(back, dir);
    }

    #[test]
    fn peek_size_reports_every_format() {
        let v2 = Directory::plan(&[100, 200], 4, 8).unwrap();
        let v3 = Directory::plan_with_sq(&[100, 200], &[30, 70], 4, 8).unwrap();
        let v2_blob = v2.to_bytes();
        let v3_blob = v3.to_bytes();
        assert_eq!(Directory::peek_size(&v2_blob).unwrap(), v2_blob.len());
        assert_eq!(Directory::peek_size(&v3_blob).unwrap(), v3_blob.len());
        assert_eq!(
            Directory::peek_size(&v3_blob[..DIRECTORY_PEEK_BYTES]).unwrap(),
            v3_blob.len()
        );
        assert!(Directory::peek_size(&v2_blob[..10]).is_err());
        let mut bad = v2_blob.clone();
        bad[4..8].copy_from_slice(&9u32.to_le_bytes());
        assert!(Directory::peek_size(&bad).is_err());
    }

    #[test]
    fn plan_with_sq_rejects_mismatched_span_counts() {
        assert!(Directory::plan_with_sq(&[100, 200], &[30], 4, 8).is_err());
    }

    #[test]
    fn overflow_capacity_counts_only_payload() {
        let dir = Directory::plan(&[10, 20], 4, 3).unwrap();
        let loc = dir.location(0).unwrap();
        let rec = OverflowRecord::wire_size(4) as u64;
        assert_eq!(loc.overflow_capacity(), 3 * rec);
    }

    #[test]
    fn padding_accounts_for_alignment() {
        let dir = Directory::plan(&[100, 64], 4, 2).unwrap();
        // 100 pads to 104; 64 is already aligned.
        assert_eq!(dir.location(0).unwrap().padding_bytes(), 4);
        assert_eq!(dir.location(1).unwrap().padding_bytes(), 0);
        assert_eq!(
            dir.directory_padding(),
            pad8(dir.directory_bytes()) - dir.directory_bytes()
        );
    }

    #[test]
    fn groups_pair_members_and_share_overflow_geometry() {
        let dir = Directory::plan(&[100, 220, 60], 4, 8).unwrap();
        let groups = dir.groups();
        assert_eq!(groups.len(), 2);
        let g0 = &groups[0];
        assert_eq!((g0.front, g0.back), (0, Some(1)));
        assert_eq!(g0.cluster_bytes, 320);
        assert_eq!(g0.padding_bytes, (104 - 100) + (224 - 220));
        let front = dir.location(0).unwrap();
        assert_eq!(g0.overflow_off, front.overflow_off);
        assert_eq!(g0.overflow_capacity, front.overflow_capacity());
        // Trailing odd group has a single member.
        let g1 = &groups[1];
        assert_eq!((g1.front, g1.back), (2, None));
        assert_eq!(g1.cluster_bytes, 60);
        assert_eq!(g1.padding_bytes, 64 - 60);
    }

    #[test]
    fn group_accounting_tiles_the_region() {
        // directory + Σ(cluster + padding) + Σ(overflow area) == total.
        let dir = Directory::plan(&[100, 220, 60, 31, 57], 4, 8).unwrap();
        let groups = dir.groups();
        let covered: u64 = pad8(dir.directory_bytes())
            + groups
                .iter()
                .map(|g| g.cluster_bytes + g.padding_bytes + 8 + g.overflow_capacity)
                .sum::<u64>();
        assert_eq!(covered, dir.total_len());
    }
}
