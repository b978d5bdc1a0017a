//! Fixed in-process sweeps over the `vecsim` kernels. They are the
//! `vecsim.*` layer metrics and, stored with every result, say how fast
//! the machine that produced it was.

use std::hint::black_box;
use std::time::Instant;

use vecsim::quantize::SqParams;
use vecsim::{gen, l2_sq, TopK};

use crate::json::Json;

const DIM: usize = 128;
const ROWS: usize = 1024;
const SWEEPS: usize = 40;
const REPEATS: usize = 5;
const PUSHES: usize = 200_000;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    pub l2_ns_per_dim: f64,
    pub sq_ns_per_code: f64,
    pub topk_push_ns: f64,
}

/// Median over `REPEATS` timings of `work`, in nanoseconds per `units`.
fn median_ns(units: usize, mut work: impl FnMut()) -> f64 {
    let mut ns: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            work();
            t.elapsed().as_secs_f64() * 1e9 / units as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[REPEATS / 2]
}

pub fn calibrate() -> Calibration {
    let rows = gen::sift_like(ROWS, 0xCA11).expect("non-empty dataset");
    let query = rows.get(0).to_vec();

    let l2_ns_per_dim = median_ns(SWEEPS * ROWS * DIM, || {
        for _ in 0..SWEEPS {
            let mut acc = 0.0f32;
            for row in rows.iter() {
                acc += l2_sq(black_box(&query), row);
            }
            black_box(acc);
        }
    });

    let params = SqParams::train(DIM, rows.iter()).expect("rows share one dimension");
    let codes: Vec<Vec<u8>> = rows.iter().map(|row| params.encode(row)).collect();
    let sq_ns_per_code = median_ns(SWEEPS * ROWS * DIM, || {
        for _ in 0..SWEEPS {
            let mut acc = 0.0f32;
            for code in &codes {
                acc += params.asymmetric_l2(black_box(&query), code);
            }
            black_box(acc);
        }
    });

    // Distances in a scrambled order, so pushes both enter and miss the heap.
    let dists: Vec<f32> = (0..PUSHES as u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 8) as f32)
        .collect();
    let topk_push_ns = median_ns(PUSHES, || {
        let mut top = TopK::new(crate::workload::K);
        for (i, &d) in dists.iter().enumerate() {
            top.push(i as u32, black_box(d));
        }
        black_box(top.into_sorted_vec());
    });

    Calibration {
        l2_ns_per_dim,
        sq_ns_per_code,
        topk_push_ns,
    }
}

impl Calibration {
    pub fn to_json(self) -> Json {
        Json::obj([
            ("vecsim.l2_ns_per_dim", Json::Num(self.l2_ns_per_dim)),
            ("vecsim.sq_ns_per_code", Json::Num(self.sq_ns_per_code)),
            ("vecsim.topk_push_ns", Json::Num(self.topk_push_ns)),
        ])
    }
}
