//! Characterization ledger of the write path: what every `insert`,
//! `insert_batch` and `delete` returns, costs and leaves behind — in
//! remote memory, in the writer's cache and in what readers answer —
//! pinned in `tests/golden/write_path_ledger.txt`.
//!
//! One seeded `DHnswConfig::small()` store per wire format, with 8
//! overflow slots per area (small enough to exhaust), a doorbell limit of
//! 8 and a writer that caches every cluster, is driven through a fixed op
//! script over four overflow areas X, Y, Z, W (the four the candidate
//! vectors fall into most):
//!
//! ```text
//! insert x | insert y | insert_batch[1] x | insert_batch[8] over X, Y, Z
//! insert_batch[10] over Y, Z, W (two doorbell chunks)
//! delete of a base id | delete of an inserted id
//! insert_batch[5] that fills X part-way through | insert into full X
//! insert_batch[2] into full X | delete into full X
//! wrong-dimension insert, insert_batch, delete | empty insert_batch
//! insert w (the store still takes writes)
//! ```
//!
//! and then, for every op, every doorbell `d` it posts and every `i` from
//! 0 to that doorbell's length, the store is restored to what it held
//! before that op, a fresh writer is warmed, doorbell `d` is cut after its
//! first `i` work requests (`QueuePair::cut_nth`) and the op runs again: a
//! crash at each cut of the protocol, row `cut=d.i`, including between a
//! record `WRITE` and the version `FAA` behind it in the same doorbell.
//!
//! A row records the op's result (ids, `full` for a vector refused with
//! `OverflowFull`, or the error kind), the writer's `StatsSnapshot` delta
//! (round trips, atomics, work requests, doorbell batches, bytes written,
//! faults), its virtual-clock delta, the three mutation counters, the
//! remote id counter, each area the op's vectors route to (`used`,
//! committed records, skipped slots and an FNV of its bytes, as a fresh
//! reader would fetch them), every nonzero version slot, the partitions
//! the writer's next query batch had to fetch again (what the op dropped
//! from its cache), whether `health_report()` accepts the counters, and a
//! hash of the ids a fixed query batch returns from the writer and from a
//! node connected after the op.
//!
//! Asserted, not just recorded: no overflow area ever fails to parse, a
//! returned id lies in the range the op took from the id counter, the
//! op's clock delta is exactly the price of its counter delta
//! ([`price`]), and after every op, wherever it was cut, the writer
//! answers what the fresh node answers.
//!
//! Regenerate after an intentional change with:
//! `BLESS=1 cargo test -p dhnsw --test write_path_ledger`

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use dhnsw::cluster::parse_overflow_detailed;
use dhnsw::layout::{ClusterLocation, ID_COUNTER_OFFSET};
use dhnsw::snapshot::{read_snapshot, write_snapshot};
use dhnsw::telemetry::metrics;
use dhnsw::{ComputeNode, DHnswConfig, Error, QuantizeMode, SearchMode, Telemetry, VectorStore};
use rdma_sim::{ps_to_us, NetworkModel, QueuePair, StatsSnapshot};
use vecsim::{gen, Dataset, Neighbor};

const K: usize = 10;
const EF: usize = 48;
const QUERIES: usize = 32;
const SLOTS: usize = 8;
const DOORBELL_LIMIT: usize = 8;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a over the returned ids, query boundaries included.
fn hash_ids(results: &[Vec<Neighbor>]) -> u64 {
    let mut h = FNV_BASIS;
    for r in results {
        for n in r {
            fnv(&mut h, &n.id.to_le_bytes());
        }
        fnv(&mut h, &u32::MAX.to_le_bytes());
    }
    h
}

fn config(wire: QuantizeMode) -> DHnswConfig {
    let network = NetworkModel::connectx6()
        .with_doorbell_limit(DOORBELL_LIMIT)
        .unwrap();
    DHnswConfig::small()
        .with_quantize_mode(wire)
        .with_overflow_slots(SLOTS)
        .with_cache_fraction(1.0)
        .with_network(network)
}

fn connect(store: &VectorStore) -> ComputeNode {
    store
        .connect_with_telemetry(SearchMode::Full, Arc::new(Telemetry::new()))
        .unwrap()
}

enum Call {
    Insert(Vec<f32>),
    Batch(Dataset),
    Delete(Vec<f32>, u32),
}

struct Op {
    label: &'static str,
    call: Call,
}

impl Op {
    fn vectors(&self) -> Vec<&[f32]> {
        match &self.call {
            Call::Insert(v) | Call::Delete(v, _) => vec![v],
            Call::Batch(vectors) => vectors.iter().collect(),
        }
    }
}

fn kind(e: &Error) -> &'static str {
    match e {
        Error::DimensionMismatch { .. } => "DimensionMismatch",
        Error::OverflowFull { .. } => "OverflowFull",
        Error::Rdma(rdma_sim::Error::RetriesExhausted { .. }) => "RetriesExhausted",
        _ => "Other",
    }
}

/// Runs `op` on `writer`; the result column and the ids it returned.
fn run(writer: &ComputeNode, op: &Op) -> (String, Vec<u32>) {
    match &op.call {
        Call::Insert(v) => match writer.insert(v) {
            Ok(id) => (format!("ok:{id}"), vec![id]),
            Err(e) => (format!("err:{}", kind(&e)), Vec::new()),
        },
        Call::Batch(vectors) => match writer.insert_batch(vectors) {
            Ok(results) => {
                let ids: Vec<u32> = results
                    .iter()
                    .filter_map(|r| r.as_ref().ok().copied())
                    .collect();
                let cells: Vec<String> = results
                    .iter()
                    .map(|r| match r {
                        Ok(id) => id.to_string(),
                        Err(Error::OverflowFull { .. }) => "full".into(),
                        Err(e) => kind(e).into(),
                    })
                    .collect();
                (format!("ok:{}", cells.join(",")), ids)
            }
            Err(e) => (format!("err:{}", kind(&e)), Vec::new()),
        },
        Call::Delete(v, id) => match writer.delete(v, *id) {
            Ok(()) => ("ok".into(), Vec::new()),
            Err(e) => (format!("err:{}", kind(&e)), Vec::new()),
        },
    }
}

/// Remote memory as a reader that connects now would fetch it.
struct Inspector<'a> {
    store: &'a VectorStore,
    qp: QueuePair,
}

impl<'a> Inspector<'a> {
    fn new(store: &'a VectorStore) -> Self {
        let qp = QueuePair::connect(store.memory_node(), NetworkModel::connectx6());
        Inspector { store, qp }
    }

    fn word(&self, offset: u64) -> u64 {
        let raw = self.qp.read(self.store.region().rkey(), offset, 8).unwrap();
        u64::from_le_bytes(raw.try_into().unwrap())
    }

    fn next_id(&self) -> u64 {
        self.word(ID_COUNTER_OFFSET)
    }

    /// The overflow area `v` routes to, by group; `None` for a vector of
    /// the wrong dimensionality.
    fn area_of(&self, v: &[f32]) -> Option<(u32, ClusterLocation)> {
        let p = self
            .store
            .meta()
            .classify_with_beam(v, self.store.config().fanout())
            .ok()?;
        let loc = *self.store.directory().location(p).unwrap();
        Some((loc.group, loc))
    }

    /// `group:used=..,recs=..,skipped=..,fnv=..` of one overflow area.
    fn area(&self, group: u32, loc: &ClusterLocation) -> String {
        let rkey = self.store.region().rkey();
        let bytes = self
            .qp
            .read(rkey, loc.overflow_off, loc.overflow_len)
            .unwrap();
        let used = u64::from_le_bytes(bytes[..8].try_into().unwrap());
        let (records, skipped) = parse_overflow_detailed(&bytes, self.store.dim())
            .expect("an overflow area must always parse");
        let mut h = FNV_BASIS;
        fnv(&mut h, &bytes);
        format!(
            "{group}:used={used},recs={},skipped={skipped},fnv={h:016x}",
            records.len()
        )
    }

    /// Every nonzero version slot, `partition:version`.
    fn versions(&self) -> String {
        let slots: Vec<String> = (0..self.store.partitions() as u32)
            .filter_map(|p| {
                let v = self.word(self.store.directory().version_slot_off(p).unwrap());
                (v != 0).then(|| format!("{p}:{v}"))
            })
            .collect();
        if slots.is_empty() {
            "-".into()
        } else {
            slots.join(",")
        }
    }
}

fn loads(node: &ComputeNode) -> Vec<u64> {
    node.heatmap().snapshot().iter().map(|h| h.loads).collect()
}

fn counters(node: &ComputeNode) -> [u64; 3] {
    let t = node.telemetry();
    [
        metrics::INSERTS.counter(t, &[]).get(),
        metrics::INSERT_OVERFLOW.counter(t, &[]).get(),
        metrics::DELETES.counter(t, &[]).get(),
    ]
}

/// What the clock charges for a counter delta, in picoseconds: every
/// round trip, work request, payload byte (an atomic moves 8) and dropped
/// attempt at the model's integer rates. Nothing else moves a writer's
/// clock.
fn price(m: &NetworkModel, d: &StatsSnapshot) -> u64 {
    let bytes = d.bytes_read + d.bytes_written + 8 * d.atomics;
    d.round_trips * m.base_rtt_ps()
        + d.work_requests * m.per_wr_ps()
        + bytes * m.ps_per_byte()
        + d.faults * m.timeout_ps()
}

/// Runs `op` on `writer` with doorbell `cut.0` cut after `cut.1` work
/// requests, or undisturbed. Returns its ledger row and how many verb
/// attempts were dropped: none means the op never reached the cut.
fn record(
    store: &VectorStore,
    writer: &ComputeNode,
    queries: &Dataset,
    head: &str,
    op: &Op,
    cut: Option<(u32, u32)>,
) -> (String, u64) {
    let inspector = Inspector::new(store);
    let qp = writer.queue_pair();
    let id0 = inspector.next_id();
    let stats0 = qp.stats().snapshot();
    let clock0 = qp.clock().now_ps();
    let counters0 = counters(writer);
    qp.cut_nth(cut);
    let (result, ids) = run(writer, op);
    qp.cut_nth(None);
    let delta = qp.stats().snapshot() - stats0;
    let vt = qp.clock().now_ps() - clock0;
    assert_eq!(
        vt,
        price(qp.model(), &delta),
        "{head} {} cut={cut:?}: the clock is not its counters",
        op.label
    );
    let vt = ps_to_us(vt);
    let counted = counters(writer);
    let id1 = inspector.next_id();
    for id in &ids {
        assert!(
            (id0..id1).contains(&u64::from(*id)),
            "{head} {}: id {id} outside the range {id0}..{id1} the op allocated",
            op.label
        );
    }

    let areas: BTreeMap<u32, ClusterLocation> = op
        .vectors()
        .iter()
        .filter_map(|v| inspector.area_of(v))
        .collect();
    let areas: Vec<String> = areas
        .iter()
        .map(|(g, loc)| inspector.area(*g, loc))
        .collect();

    // What the op dropped from the writer's cache is what its next batch
    // has to fetch again: the cache holds every cluster.
    let loads0 = loads(writer);
    let (answers, _) = writer.query_batch(queries, K, EF).unwrap();
    let reloaded: Vec<String> = loads(writer)
        .iter()
        .zip(&loads0)
        .enumerate()
        .filter(|(_, (now, before))| now > before)
        .map(|(p, _)| p.to_string())
        .collect();
    let fresh = connect(store);
    let (truth, _) = fresh.query_batch(queries, K, EF).unwrap();
    let health = match fresh.health_report() {
        Ok(_) => "ok",
        Err(Error::Corrupt(_)) => "corrupt",
        Err(e) => panic!("{head} {}: health report failed: {e}", op.label),
    };
    let (writer_ids, fresh_ids) = (hash_ids(&answers), hash_ids(&truth));
    assert_eq!(
        writer_ids, fresh_ids,
        "{head} {} cut={cut:?}: the writer hides what a fresh node reads",
        op.label
    );

    let row =
        format!(
        "{head} op={} cut={} result={result} trips={} atomics={} wrs={} doorbells={} written={} \
         faults={} vt={vt:.3} counted={}/{}/{} next_id={id1} areas={} versions={} reloaded={} \
         health={health} writer={writer_ids:016x} fresh={fresh_ids:016x}",
        op.label,
        cut.map_or("-".into(), |(d, i)| format!("{d}.{i}")),
        delta.round_trips,
        delta.atomics,
        delta.work_requests,
        delta.doorbell_batches,
        delta.bytes_written,
        delta.faults,
        counted[0] - counters0[0],
        counted[1] - counters0[1],
        counted[2] - counters0[2],
        if areas.is_empty() { "-".into() } else { areas.join(";") },
        inspector.versions(),
        if reloaded.is_empty() { "-".into() } else { reloaded.join(",") },
    );
    (row, delta.faults)
}

/// Candidate vectors beside the queries, by the overflow area they route
/// to, and the four areas holding the most of them.
struct Pool {
    by_area: BTreeMap<u32, Vec<Vec<f32>>>,
    chosen: [u32; 4],
}

impl Pool {
    fn new(store: &VectorStore, queries: &Dataset) -> Self {
        let inspector = Inspector::new(store);
        let candidates = gen::perturbed_queries(queries, 800, 0.004, 0x1ED6E9).unwrap();
        let mut by_area: BTreeMap<u32, Vec<Vec<f32>>> = BTreeMap::new();
        for v in candidates.iter() {
            let (group, _) = inspector.area_of(v).unwrap();
            by_area.entry(group).or_default().push(v.to_vec());
        }
        let mut ranked: Vec<(usize, u32)> = by_area.iter().map(|(g, vs)| (vs.len(), *g)).collect();
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        assert!(
            ranked.len() >= 4 && ranked[3].0 >= 16,
            "too few candidates per area: {ranked:?}"
        );
        let chosen = [ranked[0].1, ranked[1].1, ranked[2].1, ranked[3].1];
        Pool { by_area, chosen }
    }

    /// The next `n` unused candidates of area `which` (0 = X .. 3 = W).
    fn take(&mut self, which: usize, n: usize) -> Vec<Vec<f32>> {
        let list = self.by_area.get_mut(&self.chosen[which]).unwrap();
        assert!(list.len() >= n, "area {which} ran out of candidates");
        list.drain(..n).collect()
    }
}

fn batch(label: &'static str, rows: Vec<Vec<f32>>) -> Op {
    Op {
        label,
        call: Call::Batch(Dataset::from_rows(&rows).unwrap()),
    }
}

fn insert(label: &'static str, v: Vec<f32>) -> Op {
    Op {
        label,
        call: Call::Insert(v),
    }
}

#[test]
fn write_path_ledger_matches_the_golden() {
    let data = gen::sift_like(1_500, 0x1ED6E5).unwrap();
    let queries = gen::perturbed_queries(&data, QUERIES, 0.02, 0x1ED6E6).unwrap();
    let mut out = String::new();

    for wire in [QuantizeMode::Off, QuantizeMode::Sq8] {
        let config = config(wire);
        let store = VectorStore::build(data.clone(), &config).unwrap();
        let head = format!("wire={}", wire.as_str());
        let writer = connect(&store);
        let (answers, _) = writer.query_batch(&queries, 1, EF).unwrap();

        let mut pool = Pool::new(&store, &queries);
        let (x, y, z, w) = (0, 1, 2, 3);
        let inspector = Inspector::new(&store);
        // A base vector a query sits on, in area X.
        let base_victim = answers
            .iter()
            .map(|r| r[0].id)
            .find(|&id| {
                (id as usize) < data.len()
                    && inspector.area_of(data.get(id as usize)).unwrap().0 == pool.chosen[x]
            })
            .expect("no query sits on a base vector of area X");
        let x0 = pool.take(x, 1).remove(0);
        // The id the first insert of the script is given.
        let x0_id = store.base_len() as u32;

        let ops = vec![
            insert("insert:x", x0.clone()),
            insert("insert:y", pool.take(y, 1).remove(0)),
            batch("insert_batch[1]:x", pool.take(x, 1)),
            batch(
                "insert_batch[8]:xyz",
                [pool.take(x, 3), pool.take(y, 3), pool.take(z, 2)].concat(),
            ),
            batch(
                "insert_batch[10]:yzw",
                [pool.take(y, 2), pool.take(z, 3), pool.take(w, 5)].concat(),
            ),
            Op {
                label: "delete:base",
                call: Call::Delete(data.get(base_victim as usize).to_vec(), base_victim),
            },
            Op {
                label: "delete:inserted",
                call: Call::Delete(x0.clone(), x0_id),
            },
            batch(
                "insert_batch[5]:fills-x",
                [pool.take(x, 4), pool.take(z, 1)].concat(),
            ),
            insert("insert:full-x", pool.take(x, 1).remove(0)),
            batch("insert_batch[2]:full-x", pool.take(x, 2)),
            Op {
                label: "delete:full-x",
                call: Call::Delete(x0.clone(), x0_id),
            },
            insert("insert:wrong-dim", vec![1.0, 2.0]),
            Op {
                label: "insert_batch:wrong-dim",
                call: Call::Batch(gen::uniform(64, 3, 0.0, 1.0, 1).unwrap()),
            },
            Op {
                label: "delete:wrong-dim",
                call: Call::Delete(vec![1.0, 2.0], x0_id),
            },
            Op {
                label: "insert_batch:empty",
                call: Call::Batch(Dataset::new(data.dim())),
            },
            insert("insert:w", pool.take(w, 1).remove(0)),
        ];

        // The script, undisturbed, on one writer; what the store held
        // before each op is kept for the cuts.
        writer.query_batch(&queries, K, EF).unwrap();
        let mut before = Vec::with_capacity(ops.len());
        for op in &ops {
            let mut snapshot = Vec::new();
            write_snapshot(&store, &mut snapshot).unwrap();
            before.push(snapshot);
            let (row, _) = record(&store, &writer, &queries, &head, op, None);
            writeln!(out, "{row}").unwrap();
        }

        // A crash at every cut of every op: doorbell 0, 1, .. and in each
        // work request 0, 1, .. up to its length, until a cut past the
        // doorbell's end cuts nothing; the first doorbell the op never
        // posts ends the op's rows.
        for (op, snapshot) in ops.iter().zip(&before) {
            'doorbells: for d in 0.. {
                for i in 0.. {
                    assert!(i < 64, "{}: a doorbell of 64 work requests?", op.label);
                    let store = read_snapshot(&snapshot[..], &config).unwrap();
                    let writer = connect(&store);
                    writer.query_batch(&queries, K, EF).unwrap();
                    let cut = Some((d, i));
                    let (row, dropped) = record(&store, &writer, &queries, &head, op, cut);
                    match (dropped, i) {
                        (0, 0) => break 'doorbells,
                        (0, _) => break,
                        _ => writeln!(out, "{row}").unwrap(),
                    }
                }
            }
        }
    }

    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/write_path_ledger.txt"
    );
    if std::env::var("BLESS").is_ok() {
        std::fs::write(golden_path, &out).unwrap();
    }
    let golden =
        std::fs::read_to_string(golden_path).expect("golden file missing; regenerate with BLESS=1");
    if out != golden {
        let moved: Vec<String> = out
            .lines()
            .zip(golden.lines())
            .filter(|(got, want)| got != want)
            .take(12)
            .map(|(got, want)| format!("  got:  {got}\n  want: {want}"))
            .collect();
        panic!(
            "write-path ledger drifted from tests/golden/write_path_ledger.txt \
             ({} vs {} rows); first moved rows:\n{}",
            out.lines().count(),
            golden.lines().count(),
            moved.join("\n")
        );
    }
}
