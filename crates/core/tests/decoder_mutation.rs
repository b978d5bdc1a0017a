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

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use dhnsw::cluster::{
    parse_overflow_detailed, LoadedCluster, OverflowRecord, SqCluster, SubCluster,
};
use dhnsw::layout::{Directory, DIRECTORY_PEEK_BYTES};
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
                        for p in 0..dir.partitions() as u32 {
                            dir.location(p).unwrap();
                            dir.version_slot_off(p).unwrap();
                            assert_eq!(dir.sq_span(p).unwrap().is_some(), dir.has_sq_spans());
                        }
                        true
                    }
                    Err(dhnsw::Error::Corrupt(_)) => false,
                    Err(other) => panic!("DHD1: not a corruption error: {other:?}"),
                },
            );
        // Offsets and lengths are not cross-checked: most flips decode.
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
