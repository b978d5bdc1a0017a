//! Mutation sweep over the three cluster decoders and the layout
//! directory's (std-only, seeded).
//!
//! Whatever bytes the memory pool hands back, decoding them must end in
//! `Ok` or in the decoder's corruption error: never a panic, an
//! overflowing offset, or an allocation sized by a corrupt count. And an
//! `Ok` must be a value that can be searched. Each format is put through
//! every truncation length, every single-bit and whole-byte flip of its
//! header, and a few hundred random flips of its body.
//!
//! The views a compute node searches in place go through the same sweep
//! as the owning decoders, mutant by mutant: the `HSW1` layout pass and
//! the view over the blob's own words, and `LoadedCluster::adopt` on a
//! buffer whose cluster starts on a boundary and on one where it does
//! not. A view must accept exactly what the owning decoder accepts —
//! there is one validator — and every accepted mutant is searched. What
//! the loader adds on top ([`LoadedCluster::expecting`]) is held too: a
//! mutant it lets through is the partition and dimensionality it asked
//! for, whatever else was flipped.
//!
//! The overflow area goes through the sweep as well: its insert vectors
//! reach the distance kernels straight from `parse_overflow_detailed`, so
//! an accepted area may hold nothing but `dim`-long rows.
//!
//! So does a whole store snapshot (`DHSS`), the one decoder of on-disk
//! bytes: every byte flipped, and each of its length fields — and the
//! embedded meta blob's — set to its maximum.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use dhnsw::cluster::{
    parse_overflow_detailed, LoadedCluster, OverflowRecord, SqCluster, SubCluster,
};
use dhnsw::layout::{Directory, DIRECTORY_PEEK_BYTES};
use dhnsw::{snapshot, DHnswConfig, MetaIndex, QuantizeMode, VectorStore};
use hnsw::{serialize, HnswIndex, HnswParams, SearchScratch};
use vecsim::cast::{le_f32s, le_u32s, AlignedBytes};
use vecsim::gen;

const N: usize = 48;
const DIM: usize = 8;
const BODY_FLIPS: usize = 400;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Hands `visit` the blob truncated to every length, then with each header
/// bit and byte flipped, then with seeded random body bytes flipped.
fn for_each_mutation(
    blob: &[u8],
    header_len: usize,
    seed: u64,
    mut visit: impl FnMut(&str, &[u8]),
) {
    for len in 0..blob.len() {
        visit(&format!("truncated to {len}"), &blob[..len]);
    }
    let mut scratch = blob.to_vec();
    let mut flip = |at: usize, mask: u8, part: &str| {
        scratch[at] ^= mask;
        visit(&format!("{part} byte {at} ^ {mask:#04x}"), &scratch);
        scratch[at] ^= mask;
    };
    for at in 0..header_len {
        for mask in (0..8).map(|bit| 1u8 << bit).chain([0xff]) {
            flip(at, mask, "header");
        }
    }
    let mut rng = seed | 1;
    for _ in 0..BODY_FLIPS {
        let at = header_len + xorshift(&mut rng) as usize % (blob.len() - header_len);
        flip(at, (xorshift(&mut rng) % 255 + 1) as u8, "body");
    }
}

/// Runs `decode_and_search` over every mutation; it returns whether the
/// blob decoded, and fails the sweep itself on an error of the wrong kind.
/// Returns how many mutations were accepted.
fn sweep(
    format: &str,
    blob: &[u8],
    header_len: usize,
    decode_and_search: impl Fn(&[u8]) -> bool,
) -> usize {
    assert!(
        decode_and_search(blob),
        "{format}: the pristine blob must decode"
    );
    let mut accepted = 0;
    for_each_mutation(
        blob,
        header_len,
        0x5eed,
        |what, mutated| match catch_unwind(AssertUnwindSafe(|| decode_and_search(mutated))) {
            Ok(ok) => accepted += usize::from(ok),
            Err(_) => panic!("{format}: panicked on blob {what}"),
        },
    );
    accepted
}

fn queries(dim: usize) -> Vec<Vec<f32>> {
    vec![vec![0.0; dim], vec![0.5; dim], vec![-1.0e6; dim]]
}

fn data() -> vecsim::Dataset {
    gen::uniform(DIM, N, 0.0, 1.0, 21).unwrap()
}

fn params() -> HnswParams {
    HnswParams::new(4, 24).seed(22)
}

#[test]
fn hsw1_blobs_decode_or_report_corruption() {
    let blob = serialize::to_bytes(&HnswIndex::build(data(), &params()).unwrap());
    let accepted = sweep("HSW1", &blob, 48, |bytes| {
        match serialize::from_bytes(bytes) {
            Ok(index) => {
                // The layout pass accepts the mutant too, and the view over
                // the mutant's own words answers as the decoded copy does.
                let at = serialize::layout(bytes).expect("one validator");
                let own = AlignedBytes::copy_of(bytes);
                let links = le_u32s(&own.as_bytes()[at.node_bytes()]).unwrap();
                let view = at.view(links, le_f32s(&own.as_bytes()[at.vector_bytes()]).unwrap());
                let (mut scratch, mut stats) = (SearchScratch::default(), Default::default());
                for q in queries(index.dim()) {
                    let hits = index.search(&q, 10, 48);
                    assert!(hits.len() <= 10 && hits.iter().all(|n| (n.id as usize) < index.len()));
                    let seen = view.search_in(&q, 10, 48, &mut scratch, &mut stats);
                    assert_eq!(
                        format!("{seen:?}"),
                        format!("{hits:?}"),
                        "NaN distances included"
                    );
                    index.descend(&q, 3);
                }
                // What decoded must encode again, and to something decodable.
                serialize::from_bytes(&serialize::to_bytes(&index)).unwrap();
                true
            }
            Err(hnsw::Error::CorruptBlob(_)) => {
                assert!(matches!(
                    serialize::layout(bytes),
                    Err(hnsw::Error::CorruptBlob(_))
                ));
                false
            }
            Err(other) => panic!("HSW1: not a corruption error: {other:?}"),
        }
    });
    // Flipped vector bytes and in-range neighbour ids are still an index.
    assert!(accepted > 0);
}

/// An overflow area holding one insert and one tombstone for partition 3.
fn overflow_area() -> Vec<u8> {
    let rec = OverflowRecord::wire_size(DIM);
    let mut area = vec![0u8; 8 + 3 * rec];
    area[0..8].copy_from_slice(&((2 * rec) as u64).to_le_bytes());
    area[8..8 + rec].copy_from_slice(&OverflowRecord::insert(3, 9_000, vec![0.25; DIM]).to_bytes());
    area[8 + rec..8 + 2 * rec].copy_from_slice(&OverflowRecord::tombstone(3, 11, DIM).to_bytes());
    area
}

#[test]
fn dhc1_blobs_decode_or_report_corruption() {
    let ids = (0..N as u32).map(|i| i * 10 + 1).collect();
    let blob = SubCluster::build(3, data(), ids, &params())
        .unwrap()
        .to_bytes();
    let area = overflow_area();
    // Header: magic, partition, n, hnsw length (20 bytes), then the id map;
    // the embedded HSW1 header is swept as part of the body.
    let refused = Cell::new(0);
    let accepted = sweep(
        "DHC1",
        &blob,
        20,
        |bytes| match LoadedCluster::from_remote(bytes, &area) {
            Ok(loaded) => {
                assert!(
                    SubCluster::from_bytes(bytes).is_ok(),
                    "the view took what the owner refuses"
                );
                let moved = adopt_off_boundary(bytes, false, Some(&area)).expect("one validator");
                for q in queries(loaded.dim()) {
                    let hits = loaded.search(&q, 10, 48);
                    assert!(hits.len() <= 10);
                    assert_eq!(
                        format!("{:?}", moved.search(&q, 10, 48)),
                        format!("{hits:?}")
                    );
                }
                is_the_entry_fetched("DHC1", loaded, &refused)
            }
            Err(dhnsw::Error::Corrupt(_)) => {
                assert!(matches!(
                    SubCluster::from_bytes(bytes),
                    Err(dhnsw::Error::Corrupt(_))
                ));
                assert!(matches!(
                    adopt_off_boundary(bytes, false, Some(&area)),
                    Err(dhnsw::Error::Corrupt(_))
                ));
                false
            }
            Err(other) => panic!("DHC1: not a corruption error: {other:?}"),
        },
    );
    assert!(accepted > 0);
    assert!(
        refused.get() >= PARTITION_FLIPS,
        "{} refused",
        refused.get()
    );
}

/// The loader's last word on a mutant that decoded: corrupt, or the
/// cluster of the directory entry it was fetched for — partition 3 of
/// [`DIM`] dimensions — so no search is handed a blob whose rows are not
/// as long as its queries. Returns whether it passed.
fn is_the_entry_fetched(format: &str, loaded: LoadedCluster, refused: &Cell<usize>) -> bool {
    match loaded.expecting(3, DIM) {
        Ok(loaded) => {
            assert_eq!((loaded.partition(), loaded.dim()), (3, DIM));
            true
        }
        Err(dhnsw::Error::Corrupt(_)) => {
            refused.set(refused.get() + 1);
            false
        }
        Err(other) => panic!("{format}: not a corruption error: {other:?}"),
    }
}

/// Single-bit and whole-byte flips of a header's 4-byte partition field:
/// each still decodes, and each is somebody else's cluster.
const PARTITION_FLIPS: usize = 4 * 9;

/// The loader's entry on a buffer whose cluster starts one byte past a
/// boundary, so the view is built over the converted-once copy.
fn adopt_off_boundary(
    bytes: &[u8],
    quantized: bool,
    overflow: Option<&[u8]>,
) -> dhnsw::Result<LoadedCluster> {
    let mut buf = Vec::with_capacity(bytes.len() + 8);
    let start = 1 + (buf.as_ptr() as usize).wrapping_neg() % 4;
    buf.resize(start, 0xAA);
    buf.extend_from_slice(bytes);
    assert_eq!(
        buf[start..].as_ptr() as usize % 4,
        1,
        "the cluster must start off a boundary"
    );
    LoadedCluster::adopt(buf, start, quantized, overflow)
}

#[test]
fn dhc2_blobs_decode_or_report_corruption() {
    let ids = (0..N as u32).map(|i| i * 10 + 1).collect();
    let blob = SqCluster::build(3, &data(), ids).unwrap().to_bytes();
    let area = overflow_area();
    // Header: magic, partition, n, dim (16 bytes) and the two parameter
    // rows, whose every bit decides whether a scale is still usable.
    let header = 16 + 8 * DIM;
    for overflow in [None, Some(area.as_slice())] {
        let refused = Cell::new(0);
        let accepted = sweep(
            "DHC2",
            &blob,
            header,
            |bytes| match LoadedCluster::from_remote_sq(bytes, overflow) {
                Ok(loaded) => {
                    assert!(
                        SqCluster::from_bytes(bytes).is_ok(),
                        "the view took what the owner refuses"
                    );
                    let moved = adopt_off_boundary(bytes, true, overflow).expect("one validator");
                    for q in queries(loaded.dim()) {
                        let hits = loaded.search_sq(&q, 12);
                        assert!(hits.len() <= 12);
                        assert!(hits
                            .windows(2)
                            .all(|w| w[0].dist <= w[1].dist || w[1].dist.is_nan()));
                        assert_eq!(
                            format!("{:?}", moved.search_sq(&q, 12)),
                            format!("{hits:?}")
                        );
                    }
                    is_the_entry_fetched("DHC2", loaded, &refused)
                }
                Err(dhnsw::Error::Corrupt(_)) => {
                    assert!(matches!(
                        SqCluster::from_bytes(bytes),
                        Err(dhnsw::Error::Corrupt(_))
                    ));
                    assert!(matches!(
                        adopt_off_boundary(bytes, true, overflow),
                        Err(dhnsw::Error::Corrupt(_))
                    ));
                    false
                }
                Err(other) => panic!("DHC2: not a corruption error: {other:?}"),
            },
        );
        assert!(accepted > 0);
        assert!(
            refused.get() >= PARTITION_FLIPS,
            "{} refused",
            refused.get()
        );
    }
}

#[test]
fn overflow_areas_decode_or_report_corruption() {
    // Five slots — three committed inserts of seeded rows, a tombstone on
    // the second, a slot whose write never landed — under a `used` that a
    // refused reservation bumped one slot past the area.
    let rec = OverflowRecord::wire_size(DIM);
    let rows = gen::uniform(DIM, 3, 0.0, 1.0, 23).unwrap();
    let mut records: Vec<OverflowRecord> = (0..3)
        .map(|i| OverflowRecord::insert(3, 9_000 + i as u32, rows.get(i).to_vec()))
        .collect();
    records.push(OverflowRecord::tombstone(3, 9_001, DIM));
    let mut area = vec![0u8; 8 + 5 * rec];
    area[0..8].copy_from_slice(&((6 * rec) as u64).to_le_bytes());
    for (slot, record) in area[8..].chunks_exact_mut(rec).zip(&records) {
        slot.copy_from_slice(&record.to_bytes());
    }
    let (pristine, skipped) = parse_overflow_detailed(&area, DIM).unwrap();
    assert_eq!((pristine, skipped), (records, 1));

    let ids = (0..N as u32).map(|i| i * 10 + 1).collect();
    let blob = SubCluster::build(3, data(), ids, &params())
        .unwrap()
        .to_bytes();
    let block = queries(DIM);
    let block: Vec<&[f32]> = block.iter().map(Vec::as_slice).collect();
    let accepted = sweep(
        "overflow area",
        &area,
        8,
        |bytes| match parse_overflow_detailed(bytes, DIM) {
            Ok((records, skipped)) => {
                // Slots are counted off the bytes that are there, whatever
                // `used` claims, and no kernel is handed a short row.
                assert!(records.len() + skipped <= (bytes.len() - 8) / rec);
                assert!(records.iter().all(|r| r.vector.len() == DIM));
                let loaded = LoadedCluster::from_remote(&blob, bytes).expect("a parsed area folds");
                assert!(loaded.overflow_len() <= records.len());
                assert_eq!(loaded.skipped_slots(), skipped);
                // One query alone, then the block kernel over the tail.
                assert!(loaded.search(block[1], 10, 48).len() <= 10);
                let (mut out, mut ends) = (Vec::new(), Vec::new());
                loaded.probe(
                    &block,
                    &[],
                    10,
                    0,
                    48,
                    &mut Default::default(),
                    &mut Default::default(),
                    &mut out,
                    &mut ends,
                );
                assert!(ends.len() == block.len() && out.len() <= 10 * block.len());
                true
            }
            Err(dhnsw::Error::Corrupt(_)) => {
                assert!(
                    bytes.len() < 8,
                    "only an area shorter than its header is refused"
                );
                false
            }
            Err(other) => panic!("overflow area: not a corruption error: {other:?}"),
        },
    );
    // Torn and damaged slots are skipped, never fatal.
    assert!(accepted > 8 * 9 + BODY_FLIPS);
}

#[test]
fn dhd1_blobs_decode_or_report_corruption() {
    for blob in [
        Directory::plan(&[100, 220, 60], DIM, 4).unwrap().to_bytes(),
        Directory::plan_with_sq(&[100, 220, 60], &[40, 90, 25], DIM, 4)
            .unwrap()
            .to_bytes(),
    ] {
        let accepted =
            sweep(
                "DHD1",
                &blob,
                DIRECTORY_PEEK_BYTES,
                |bytes| match Directory::from_bytes(bytes) {
                    Ok(dir) => {
                        assert_eq!(
                            Directory::peek_size(bytes).unwrap() as u64,
                            dir.directory_bytes()
                        );
                        // Every address a reader derives is in range.
                        for p in 0..dir.partitions() as u32 {
                            let loc = dir.location(p).unwrap();
                            dir.version_slot_off(p).unwrap();
                            assert_eq!(dir.sq_span(p).unwrap().is_some(), dir.has_sq_spans());
                            let (off, len) = loc.read_span();
                            assert!(off + len <= dir.total_len());
                            assert!(loc.cluster_cut().0 <= len);
                            dir.load_span(p, QuantizeMode::Off).unwrap();
                        }
                        let groups = dir.groups();
                        assert_eq!(groups.len(), dir.partitions().div_ceil(2));
                        dir.sq_padding_bytes();
                        true
                    }
                    Err(dhnsw::Error::Corrupt(_)) => false,
                    Err(other) => panic!("DHD1: not a corruption error: {other:?}"),
                },
            );
        // Flipped epochs, id counters, version slots and spans that still
        // lie inside the region decode.
        assert!(accepted > 0);
    }
}

#[test]
fn v1_directories_are_an_unsupported_version_not_a_guess() {
    // Format v1 (no version slots) is gone with the last code that wrote
    // it. A v1 header — on a blob of the size v1 had, or of today's — is
    // refused by name from both entry points.
    let v2 = Directory::plan(&[100, 220, 60], DIM, 4).unwrap().to_bytes();
    let v1_len = DIRECTORY_PEEK_BYTES + 3 * 40;
    for len in [v1_len, v2.len()] {
        let mut blob = v2[..len].to_vec();
        blob[4..8].copy_from_slice(&1u32.to_le_bytes());
        for (entry, result) in [
            (
                "peek_size",
                catch_unwind(|| Directory::peek_size(&blob).map(|_| ())),
            ),
            (
                "from_bytes",
                catch_unwind(|| Directory::from_bytes(&blob).map(|_| ())),
            ),
        ] {
            let err = result
                .unwrap_or_else(|_| panic!("{entry} panicked"))
                .unwrap_err();
            assert!(
                matches!(&err, dhnsw::Error::Corrupt(m) if m == "unsupported directory version"),
                "{entry} on {len} bytes: {err}"
            );
        }
    }
}

#[test]
fn counts_that_outrun_the_blob_allocate_nothing() {
    // The specific hazard the sweep's single flips only graze: a count of
    // billions in an otherwise intact header. Decoding must fail on the
    // length check, before reserving memory for the count.
    let ids: Vec<u32> = (0..N as u32).collect();
    let mut dhc1 = SubCluster::build(0, data(), ids.clone(), &params())
        .unwrap()
        .to_bytes();
    dhc1[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        SubCluster::from_bytes(&dhc1),
        Err(dhnsw::Error::Corrupt(_))
    ));
    dhc1[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        SubCluster::from_bytes(&dhc1),
        Err(dhnsw::Error::Corrupt(_))
    ));

    let mut dhc2 = SqCluster::build(0, &data(), ids).unwrap().to_bytes();
    dhc2[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    dhc2[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        SqCluster::from_bytes(&dhc2),
        Err(dhnsw::Error::Corrupt(_))
    ));

    let mut hsw1 = serialize::to_bytes(&HnswIndex::build(data(), &params()).unwrap());
    hsw1[12..16].copy_from_slice(&u32::MAX.to_le_bytes()); // n
    assert!(matches!(
        serialize::from_bytes(&hsw1),
        Err(hnsw::Error::CorruptBlob(_))
    ));
    hsw1[8..12].copy_from_slice(&u32::MAX.to_le_bytes()); // dim as well
    assert!(matches!(
        serialize::from_bytes(&hsw1),
        Err(hnsw::Error::CorruptBlob(_))
    ));

    let mut dhd1 = Directory::plan(&[100, 220], DIM, 4).unwrap().to_bytes();
    dhd1[12..16].copy_from_slice(&u32::MAX.to_le_bytes()); // partitions
    assert!(matches!(
        Directory::from_bytes(&dhd1),
        Err(dhnsw::Error::Corrupt(_))
    ));
}

#[test]
fn directory_entries_the_planner_cannot_write_are_refused() {
    // Entry 0's fields, past the 48-byte header: group u32, slot u8 + 3
    // pad, cluster_off, cluster_len, overflow_off, overflow_len.
    let dir = Directory::plan(&[100, 220, 60], DIM, 4).unwrap();
    let blob = dir.to_bytes();
    let entry = DIRECTORY_PEEK_BYTES;
    let set_u64 = |at: usize, v: u64| {
        let mut b = blob.clone();
        b[at..at + 8].copy_from_slice(&v.to_le_bytes());
        b
    };
    let front = dir.location(0).unwrap();
    for (what, bytes) in [
        // `groups()` would take 8 off it for the area's capacity.
        ("an overflow area of 0 bytes", set_u64(entry + 32, 0)),
        ("an overflow area of 7 bytes", set_u64(entry + 32, 7)),
        (
            "a cluster ending past total_len",
            set_u64(entry + 16, u64::MAX - 64),
        ),
        ("a cluster inside the directory", set_u64(entry + 8, 0)),
        // `read_span` would compute `overflow_off + overflow_len - cluster_off`.
        (
            "a front cluster after its area",
            set_u64(entry + 8, front.overflow_off + front.overflow_len),
        ),
        ("a region larger than memory", set_u64(32, u64::MAX)),
        ("an entry outside its group", {
            let mut b = blob.clone();
            b[entry..entry + 4].copy_from_slice(&7u32.to_le_bytes());
            b
        }),
    ] {
        let got = catch_unwind(|| Directory::from_bytes(&bytes))
            .unwrap_or_else(|_| panic!("{what}: panicked"));
        assert!(
            matches!(got, Err(dhnsw::Error::Corrupt(_))),
            "{what}: {got:?}"
        );
    }
    // The same holds for an SQ8 span.
    let v3 = Directory::plan_with_sq(&[100, 220, 60], &[40, 90, 25], DIM, 4).unwrap();
    let mut bytes = v3.to_bytes();
    let sq = Directory::byte_size(3);
    bytes[sq + 8..sq + 16].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        Directory::from_bytes(&bytes),
        Err(dhnsw::Error::Corrupt(_))
    ));
}

/// A snapshot of a small store holding one insert.
fn snapshot_of_a_small_store() -> (Vec<u8>, DHnswConfig) {
    let config = DHnswConfig::small()
        .with_representatives(4)
        .with_overflow_slots(2);
    let store = VectorStore::build(data(), &config).unwrap();
    store
        .connect(dhnsw::SearchMode::Full)
        .unwrap()
        .insert(&[0.5; DIM])
        .unwrap();
    let mut bytes = Vec::new();
    snapshot::write_snapshot(&store, &mut bytes).unwrap();
    (bytes, config)
}

/// Restores `bytes`: `Ok` or a corruption error, never a panic.
fn restores_or_reports_corruption(what: &str, bytes: &[u8], config: &DHnswConfig) -> bool {
    match catch_unwind(AssertUnwindSafe(|| snapshot::read_snapshot(bytes, config))) {
        Ok(Ok(_)) => true,
        Ok(Err(dhnsw::Error::Corrupt(_))) => false,
        Ok(Err(other)) => panic!("DHSS {what}: not a corruption error: {other:?}"),
        Err(_) => panic!("DHSS {what}: panicked"),
    }
}

/// Byte offsets of a snapshot's length fields: `(name, offset, width)`.
fn snapshot_length_fields(bytes: &[u8]) -> Vec<(&'static str, usize, usize)> {
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let meta_len_at = 20 + 4 * u32_at(16);
    let meta_at = meta_len_at + 8;
    let hnsw_len_at = meta_at + 4 + 4 * u32_at(meta_at);
    vec![
        ("base_len", 8, 8),
        ("parts", 16, 4),
        ("meta_len", meta_len_at, 8),
        ("meta sample count", meta_at, 4),
        ("meta hnsw length", hnsw_len_at, 8),
        ("region_len", meta_at + u64_at(meta_len_at), 8),
    ]
}

#[test]
fn dhss_snapshots_restore_or_report_corruption() {
    let (bytes, config) = snapshot_of_a_small_store();
    assert!(restores_or_reports_corruption("pristine", &bytes, &config));
    let mut accepted = 0;
    let mut scratch = bytes.clone();
    for at in 0..bytes.len() {
        scratch[at] ^= 0xff;
        let what = format!("byte {at} ^ 0xff");
        accepted += usize::from(restores_or_reports_corruption(&what, &scratch, &config));
        scratch[at] ^= 0xff;
    }
    // Flipped cluster and overflow bytes restore: the region is an image.
    assert!(accepted > 0);
    for (field, at, width) in snapshot_length_fields(&bytes) {
        let mut maxed = bytes.clone();
        maxed[at..at + width].fill(0xff);
        let what = format!("{field} at its maximum");
        restores_or_reports_corruption(&what, &maxed, &config);
    }
}

/// The `(offset, width)` of the snapshot length field `name`.
fn length_field(bytes: &[u8], name: &str) -> (usize, usize) {
    let fields = snapshot_length_fields(bytes);
    let (_, at, width) = fields.iter().find(|f| f.0 == name).unwrap();
    (*at, *width)
}

#[test]
fn oversized_snapshot_sections_are_corruption() {
    // A section length the stream cannot hold: refused from the bytes that
    // arrived, never sized by the count.
    let (bytes, config) = snapshot_of_a_small_store();
    for name in ["meta_len", "region_len"] {
        let (at, _) = length_field(&bytes, name);
        let mut maxed = bytes.clone();
        maxed[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let got = catch_unwind(AssertUnwindSafe(|| {
            snapshot::read_snapshot(&maxed[..], &config)
        }))
        .unwrap_or_else(|_| panic!("{name} = u64::MAX: panicked"));
        assert!(
            matches!(got, Err(dhnsw::Error::Corrupt(_))),
            "{name}: {:?}",
            got.err()
        );
    }
}

#[test]
fn a_meta_hnsw_length_that_overflows_is_corruption() {
    // An embedded HNSW length whose end overflows the offset arithmetic.
    let (bytes, _) = snapshot_of_a_small_store();
    let (meta_len_at, _) = length_field(&bytes, "meta_len");
    let (hnsw_len_at, _) = length_field(&bytes, "meta hnsw length");
    let meta_at = meta_len_at + 8;
    let meta_len = u64::from_le_bytes(bytes[meta_len_at..meta_at].try_into().unwrap()) as usize;
    let mut meta = bytes[meta_at..meta_at + meta_len].to_vec();
    let at = hnsw_len_at - meta_at;
    meta[at..at + 8].copy_from_slice(&(u64::MAX - 3).to_le_bytes());
    let got = catch_unwind(|| MetaIndex::from_bytes(&meta))
        .unwrap_or_else(|_| panic!("hnsw length u64::MAX - 3: panicked"));
    assert!(matches!(got, Err(dhnsw::Error::Corrupt(_))));
}
