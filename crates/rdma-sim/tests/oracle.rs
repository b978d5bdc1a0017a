//! The oracle for the seven public verbs: random sequences of plain and
//! doorbelled posts — doorbell limit 1 to 8, fault drops inside and past
//! the retransmission budget, cuts after a prefix of a post's work
//! requests, writes and atomics mixed in one doorbell, the odd
//! out-of-bounds or misaligned request — against a shadow that shares no
//! code with the crate: a byte array per region, the clock summed in
//! integer picoseconds from the closed form `base_rtt + wrs * per_wr +
//! bytes * ps_per_byte`, and every [`StatsSnapshot`] field moved by
//! hand. After every call the returned bytes or old values, what a cut
//! prefix landed, each region, the whole snapshot and the virtual clock
//! must match it.

use proptest::prelude::*;
use rdma_sim::{
    Error, MemoryNode, NetworkModel, QueuePair, ReadCause, ReadReq, Scatter, StatsSnapshot,
    WriteReq, DOORBELL_SIZE_BUCKETS, READ_CAUSES,
};

/// Bytes per region; the oracle registers two.
const REGION: u64 = 256;

/// SplitMix64: the call stream, drawn from one proptest seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }

    /// A `(region, offset, len)` of at most `max` bytes, out of bounds
    /// when `bad`.
    fn span(&mut self, max: u64, bad: bool) -> (usize, u64, u64) {
        let region = self.below(2) as usize;
        let len = self.below(max + 1) + u64::from(bad);
        let offset = if bad {
            REGION - len + 1 + self.below(8)
        } else {
            self.below(REGION - len + 1)
        };
        (region, offset, len)
    }

    /// An 8-byte slot offset, misaligned when `bad`.
    fn slot(&mut self, bad: bool) -> u64 {
        8 * self.below(REGION / 8) + if bad { 1 + self.below(7) } else { 0 }
    }

    fn bytes(&mut self, len: u64) -> Vec<u8> {
        (0..len).map(|_| self.below(256) as u8).collect()
    }
}

/// One work request as the shadow sees it: what it charges and what it
/// does — a read's bytes and cause, a write's payload, an atomic's
/// operands — by region index.
#[derive(Clone)]
enum Wr {
    Read(ReadCause, u64),
    Write(usize, u64, Vec<u8>),
    Faa(usize, u64, u64),
    Cas(usize, u64, u64, u64),
}

impl Wr {
    /// The same request for the queue pair.
    fn req(&self, rkeys: &[u32]) -> WriteReq {
        match *self {
            Wr::Write(ri, offset, ref data) => WriteReq::new(rkeys[ri], offset, data.clone()),
            Wr::Faa(ri, offset, add) => WriteReq::Faa(rkeys[ri], offset, add),
            Wr::Cas(ri, offset, expected, new) => WriteReq::Cas(rkeys[ri], offset, expected, new),
            Wr::Read(..) => unreachable!("a doorbell of writes and atomics"),
        }
    }
}

/// How a call ended, in a form the shadow predicts.
#[derive(Debug, PartialEq)]
enum End {
    Done,
    Dropped(&'static str, u32),
    Refused,
}

fn end<T>(got: &Result<T, Error>) -> End {
    match got {
        Ok(_) => End::Done,
        Err(Error::RetriesExhausted { verb, attempts }) => End::Dropped(verb, *attempts),
        Err(Error::OutOfBounds { .. } | Error::Misaligned { .. }) => End::Refused,
        Err(e) => panic!("unexpected error {e}"),
    }
}

/// What the shadow predicts of one post: how it ends, how many of its
/// work requests executed, and the old value of each atomic among them.
struct Post {
    end: End,
    ran: usize,
    old: Vec<u64>,
}

struct Shadow {
    regions: Vec<Vec<u8>>,
    model: NetworkModel,
    retry_limit: u32,
    armed: u32,
    /// The armed cut: posts to let through, work requests the next runs.
    cut: Option<(u32, u32)>,
    picos: u64,
    stats: StatsSnapshot,
}

impl Shadow {
    /// The bytes at `offset`, none for a span out of bounds.
    fn slice(&self, region: usize, offset: u64, len: u64) -> &[u8] {
        let at = offset as usize..(offset + len) as usize;
        self.regions[region].get(at).unwrap_or_default()
    }

    fn word(&self, region: usize, offset: u64) -> u64 {
        u64::from_le_bytes(self.slice(region, offset, 8).try_into().unwrap())
    }

    fn put(&mut self, region: usize, offset: u64, bytes: &[u8]) {
        let at = offset as usize;
        self.regions[region][at..at + bytes.len()].copy_from_slice(bytes);
    }

    /// A post of `wrs` named `verb`: none of it when a request is `bad`;
    /// a timeout and a fault per dropped attempt; then, unless it was
    /// dropped for good, the executed prefix — all of it, or as much as
    /// an armed cut lets run — applied in request order, its doorbell,
    /// and per doorbell-limit chunk one trip — to the read cause with
    /// the most bytes in the chunk, ties to the lowest index — and its
    /// cost; a cut post then pays one more timeout and fault.
    fn post(&mut self, verb: &'static str, doorbell: bool, bad: bool, wrs: &[Wr]) -> Post {
        let done = |end, ran, old| Post { end, ran, old };
        if bad {
            return done(End::Refused, 0, Vec::new());
        }
        if wrs.is_empty() {
            return done(End::Done, 0, Vec::new());
        }
        let dropped = self.armed.min(self.retry_limit + 1);
        self.armed -= dropped;
        for _ in 0..dropped {
            self.stats.faults += 1;
            self.picos += self.model.base_rtt_ps();
        }
        if dropped > self.retry_limit {
            return done(End::Dropped(verb, dropped), 0, Vec::new());
        }
        let cut = match self.cut {
            Some((0, at)) => {
                self.cut = None;
                (at as usize <= wrs.len()).then_some(at as usize)
            }
            Some((skip, at)) => {
                self.cut = Some((skip - 1, at));
                None
            }
            None => None,
        };
        let run = &wrs[..cut.unwrap_or(wrs.len())];
        let mut old = Vec::new();
        for wr in run {
            match *wr {
                Wr::Read(..) => {}
                Wr::Write(ri, offset, ref data) => self.put(ri, offset, data),
                Wr::Faa(ri, offset, _) | Wr::Cas(ri, offset, ..) => {
                    let v = self.word(ri, offset);
                    let new = match *wr {
                        Wr::Faa(.., add) => v.wrapping_add(add),
                        Wr::Cas(.., expected, new) if v == expected => new,
                        _ => v,
                    };
                    old.push(v);
                    self.put(ri, offset, &new.to_le_bytes());
                }
            }
        }
        if doorbell && !run.is_empty() {
            self.stats.doorbell_batches += 1;
            let bucket = (0..DOORBELL_SIZE_BUCKETS)
                .find(|&i| run.len() <= 1 << i)
                .unwrap_or(DOORBELL_SIZE_BUCKETS - 1);
            self.stats.doorbell_size_buckets[bucket] += 1;
        }
        for chunk in run.chunks(self.model.doorbell_limit()) {
            let (mut reqs, mut bytes) = (0, 0);
            let mut per_cause = [(0u64, 0u64); READ_CAUSES];
            for wr in chunk {
                reqs += 1;
                self.stats.work_requests += 1;
                match *wr {
                    Wr::Read(cause, len) => {
                        bytes += len;
                        self.stats.bytes_read += len;
                        self.stats.cause_wrs[cause.index()] += 1;
                        self.stats.cause_bytes[cause.index()] += len;
                        per_cause[cause.index()].0 += 1;
                        per_cause[cause.index()].1 += len;
                    }
                    Wr::Write(_, _, ref data) => {
                        bytes += data.len() as u64;
                        self.stats.bytes_written += data.len() as u64;
                    }
                    Wr::Faa(..) | Wr::Cas(..) => {
                        bytes += 8;
                        self.stats.atomics += 1;
                    }
                }
            }
            self.stats.round_trips += 1;
            let mut dominant: Option<(usize, u64)> = None;
            for (i, &(wrs, b)) in per_cause.iter().enumerate() {
                if wrs > 0 && dominant.is_none_or(|(_, best)| b > best) {
                    dominant = Some((i, b));
                }
            }
            if let Some((i, _)) = dominant {
                self.stats.cause_trips[i] += 1;
            }
            let m = self.model;
            self.picos += m.base_rtt_ps() + reqs * m.per_wr_ps() + bytes * m.ps_per_byte();
        }
        match cut {
            Some(ran) => {
                self.stats.faults += 1;
                self.picos += self.model.base_rtt_ps();
                done(End::Dropped(verb, 1), ran, old)
            }
            None => done(End::Done, wrs.len(), old),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn seven_verbs_match_a_shadow_model(
        seed in any::<u64>(),
        limit in 1usize..9,
        retries in 0u32..4,
        calls in 1usize..64,
    ) {
        let node = MemoryNode::new("oracle");
        let rkeys: Vec<u32> =
            (0..2).map(|_| node.register(REGION as usize).unwrap().rkey()).collect();
        let model = NetworkModel::connectx6().with_doorbell_limit(limit).unwrap();
        let (qp, probe) = (QueuePair::connect(&node, model), QueuePair::connect(&node, model));
        qp.set_retry_limit(retries);
        let mut rng = Rng(seed);
        let mut shadow = Shadow {
            regions: vec![vec![0; REGION as usize]; 2],
            model,
            retry_limit: retries,
            armed: 0,
            cut: None,
            picos: 0,
            stats: StatsSnapshot::default(),
        };
        for _ in 0..calls {
            if rng.below(3) == 0 {
                let drops = rng.below(u64::from(retries) + 3) as u32;
                qp.fail_next(drops);
                shadow.armed = drops;
            }
            if rng.below(4) == 0 {
                let (skip, at) = (rng.below(3) as u32, rng.below(6) as u32);
                qp.cut_nth(Some((skip, at)));
                shadow.cut = Some((skip, at));
            }
            let bad = rng.below(16) == 0;
            let before = qp.stats().snapshot();
            let (got, want) = match rng.below(9) {
                0 | 1 => {
                    let (ri, offset, len) = rng.span(64, bad);
                    // A plain read, or one with a cause: a one-request doorbell.
                    let (got, want) = if rng.below(2) == 0 {
                        let got = qp.read(rkeys[ri], offset, len);
                        (got, shadow.post("read", false, bad, &[Wr::Read(ReadCause::Other, len)]))
                    } else {
                        let cause = ReadCause::ALL[rng.below(READ_CAUSES as u64) as usize];
                        let req = ReadReq::new(rkeys[ri], offset, len).with_cause(cause);
                        let got = qp.read_doorbell(&[req]).map(|mut out| out.remove(0));
                        (got, shadow.post("read_doorbell", true, bad, &[Wr::Read(cause, len)]))
                    };
                    if let Ok(bytes) = &got {
                        prop_assert_eq!(&bytes[..], shadow.slice(ri, offset, len));
                    }
                    (end(&got), want)
                }
                2 => {
                    let (ri, offset, len) = rng.span(64, bad);
                    let cause = ReadCause::ALL[rng.below(READ_CAUSES as u64) as usize];
                    let req = ReadReq::new(rkeys[ri], offset, len).with_cause(cause);
                    let at = rng.below(len + 1);
                    let (mut head, mut tail) = (vec![1; rng.below(3) as usize], vec![2; 1]);
                    let (head0, tail0) = (head.clone(), tail.clone());
                    let into = Scatter::cut(&mut head, &mut tail, at, len);
                    let got = qp.read_doorbell_into(&[req], &mut [into]);
                    let want = shadow.post("read_doorbell", true, bad, &[Wr::Read(cause, len)]);
                    // A read lands when it executed, even in a post cut after it.
                    let (mut head1, mut tail1) = (head0, tail0);
                    if want.ran == 1 {
                        let bytes = shadow.slice(ri, offset, len);
                        head1.extend_from_slice(&bytes[..at as usize]);
                        tail1.extend_from_slice(&bytes[at as usize..]);
                    }
                    prop_assert_eq!((head, tail), (head1, tail1));
                    (end(&got), want)
                }
                3 | 4 => {
                    let n = rng.below(20);
                    let bad_at = if bad { Some(rng.below(n.max(1))) } else { None };
                    let mut spans = Vec::new();
                    let mut reqs = Vec::new();
                    for i in 0..n {
                        let (ri, offset, len) = rng.span(48, bad_at == Some(i));
                        let cause = ReadCause::ALL[rng.below(READ_CAUSES as u64) as usize];
                        spans.push((ri, offset, len));
                        reqs.push(ReadReq::new(rkeys[ri], offset, len).with_cause(cause));
                    }
                    let bad = bad && n > 0;
                    let wrs: Vec<Wr> = reqs.iter().map(|r| Wr::Read(r.cause, r.len)).collect();
                    let wanted: Vec<Vec<u8>> =
                        spans.iter().map(|&(ri, o, l)| shadow.slice(ri, o, l).to_vec()).collect();
                    let (got, landed) = if rng.below(2) == 0 {
                        let got = qp.read_doorbell(&reqs);
                        if let Ok(out) = &got {
                            prop_assert_eq!(out, &wanted);
                        }
                        (got.map(drop), None)
                    } else {
                        let cuts: Vec<u64> = reqs.iter().map(|r| rng.below(r.len + 1)).collect();
                        let mut bufs: Vec<(Vec<u8>, Vec<u8>)> =
                            (0..n).map(|i| (vec![3; i as usize % 3], Vec::new())).collect();
                        let bufs0 = bufs.clone();
                        let mut into: Vec<Scatter<'_>> = bufs
                            .iter_mut()
                            .zip(&reqs)
                            .zip(&cuts)
                            .map(|(((h, t), r), &at)| Scatter::cut(h, t, at, r.len))
                            .collect();
                        let got = qp.read_doorbell_into(&reqs, &mut into);
                        drop(into);
                        (got, Some((bufs, bufs0, cuts)))
                    };
                    let want = shadow.post("read_doorbell", true, bad, &wrs);
                    if let Some((bufs, mut want_bufs, cuts)) = landed {
                        // The reads that executed landed, and only those.
                        let landed = want_bufs.iter_mut().zip(&wanted).zip(&cuts).take(want.ran);
                        for (((h, t), bytes), &at) in landed {
                            h.extend_from_slice(&bytes[..at as usize]);
                            t.extend_from_slice(&bytes[at as usize..]);
                        }
                        prop_assert_eq!(bufs, want_bufs);
                    }
                    (end(&got), want)
                }
                5 => {
                    let (ri, offset, len) = rng.span(32, bad);
                    let data = rng.bytes(len);
                    let got = qp.write(rkeys[ri], offset, &data);
                    let want = shadow.post("write", false, bad, &[Wr::Write(ri, offset, data)]);
                    (end(&got), want)
                }
                6 => {
                    let n = rng.below(20);
                    let bad_at = if bad { Some(rng.below(n.max(1))) } else { None };
                    let wrs: Vec<Wr> = (0..n)
                        .map(|i| {
                            let (bad, ri) = (bad_at == Some(i), rng.below(2) as usize);
                            match rng.below(3) {
                                0 => {
                                    let (ri, offset, len) = rng.span(32, bad);
                                    Wr::Write(ri, offset, rng.bytes(len))
                                }
                                1 => Wr::Faa(ri, rng.slot(bad), rng.below(u64::MAX)),
                                _ => {
                                    let offset = rng.slot(bad);
                                    let now = if bad { 0 } else { shadow.word(ri, offset) };
                                    let expected = if rng.below(2) == 0 { now } else { rng.below(4) };
                                    Wr::Cas(ri, offset, expected, rng.below(1 << 20))
                                }
                            }
                        })
                        .collect();
                    let reqs: Vec<WriteReq> = wrs.iter().map(|wr| wr.req(&rkeys)).collect();
                    let got = qp.doorbell(&reqs);
                    let want = shadow.post("doorbell", true, bad && n > 0, &wrs);
                    if let Ok(old) = &got {
                        prop_assert_eq!(old, &want.old);
                    }
                    (end(&got), want)
                }
                kind => {
                    let (ri, offset) = (rng.below(2) as usize, rng.slot(bad));
                    let (verb, wr, got) = if kind == 7 {
                        let now = if bad { 0 } else { shadow.word(ri, offset) };
                        let expected = if rng.below(2) == 0 { now } else { rng.below(4) };
                        let new = rng.below(1 << 20);
                        let got = qp.cas(rkeys[ri], offset, expected, new);
                        ("cas", Wr::Cas(ri, offset, expected, new), got)
                    } else {
                        let add = rng.below(u64::MAX);
                        ("faa", Wr::Faa(ri, offset, add), qp.faa(rkeys[ri], offset, add))
                    };
                    let want = shadow.post(verb, false, bad, &[wr]);
                    if let Ok(old) = &got {
                        prop_assert_eq!(old, &want.old[0]);
                    }
                    (end(&got), want)
                }
            };
            prop_assert_eq!(&got, &want.end);
            for (ri, &rkey) in rkeys.iter().enumerate() {
                prop_assert_eq!(probe.read(rkey, 0, REGION).unwrap(), shadow.regions[ri].clone());
            }
            let after = qp.stats().snapshot();
            prop_assert_eq!(after, shadow.stats);
            prop_assert_eq!(qp.clock().now_ps(), shadow.picos);
            if matches!(want.end, End::Dropped(..)) && want.ran == 0 {
                // Nothing executed: every counter but the faults stands still.
                prop_assert_eq!(StatsSnapshot { faults: after.faults, ..before }, after);
            }
        }
    }
}
