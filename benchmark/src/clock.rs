//! Time as the un-traced run measures it: the CPU time the process
//! spent, scaled by how fast the machine was at that moment.
//!
//! The sandbox this runs in is a few cores of a shared host. Other
//! tenants take the CPU away for milliseconds at a time (wall time grows,
//! CPU time does not) and slow it down for seconds to minutes (both
//! grow). Pinned to one CPU an undisturbed process's CPU time *is* its
//! wall time, so the first kind of noise is removed by reading the CPU
//! clock. The second kind is removed by a *reference kernel*: a fixed
//! piece of work owned by the benchmark (it calls nothing of the program
//! under test, so no change to the program can move it), run every few
//! tens of milliseconds between the measured operations. A measured time
//! is multiplied by `NOMINAL_MS / reference time around that moment`: it
//! reads as milliseconds on a machine on which the kernel takes exactly
//! `NOMINAL_MS`, which is what this sandbox does in a quiet hour.

use std::hint::black_box;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process (all its threads, ended ones too) has used.
fn cpu_s() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable on Linux");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// What one timed operation cost on both clocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lap {
    pub wall_ms: f64,
    pub cpu_ms: f64,
}

pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu: cpu_s(),
        }
    }

    pub fn lap(&self) -> Lap {
        Lap {
            cpu_ms: (cpu_s() - self.cpu) * 1e3,
            wall_ms: self.wall.elapsed().as_secs_f64() * 1e3,
        }
    }
}

/// What the reference kernel takes on this sandbox when nobody disturbs it.
pub const NOMINAL_MS: f64 = 1.6;
/// The kernel runs when at least this long has passed since it last did,
/// so it costs about a twentieth of a run.
const EVERY_MS: f64 = 40.0;
/// A moment's speed is the median kernel time within this many seconds
/// of it, and of never fewer than `NEAREST` runs.
const WINDOW_S: f64 = 0.5;
const NEAREST: usize = 5;

const DIM: usize = 128;
const HOT_ROWS: usize = 2_048;
const HOT_GATHERS: usize = 10_000;
const COPY_BYTES: usize = 256 << 10;
const COPIES: usize = 20;
const COLD_ROWS: usize = 32_768;
const COLD_GATHERS: usize = 1_500;

/// The reference kernel: what a batch does most, at a size that takes
/// under two milliseconds. Squared distances to rows drawn at random
/// from a table (a graph walk) and block copies (a fetch, a
/// materialize), in two parts so that it slows down with the core *and*
/// with the memory behind it, as the program does:
///
/// - the hot part fits the L2 cache (1.5 MB) and is run once untimed
///   before it is timed, so it always hits;
/// - the cold part draws new rows every time from a 16 MB table, four
///   times the L2 cache, so it always misses.
///
/// Either way what the work before it left in the caches does not decide
/// its time.
struct Kernel {
    hot: Vec<f32>,
    order: Vec<u32>,
    src: Vec<u8>,
    dst: Vec<u8>,
    cold: Vec<f32>,
    rng: u32,
}

fn xorshift(x: &mut u32) -> u32 {
    *x ^= *x << 13;
    *x ^= *x >> 17;
    *x ^= *x << 5;
    *x
}

fn gather(table: &[f32], rows: impl Iterator<Item = u32>) {
    let (query, mut sum) = (&table[..DIM], 0.0f32);
    for row in rows {
        let at = row as usize * DIM;
        sum += query
            .iter()
            .zip(&table[at..at + DIM])
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>();
    }
    black_box(sum);
}

impl Kernel {
    fn new() -> Kernel {
        let mut rng = 0x9E37_79B9u32;
        let table =
            |rows: usize| -> Vec<f32> { (0..rows * DIM).map(|i| (i % 977) as f32).collect() };
        Kernel {
            hot: table(HOT_ROWS),
            cold: table(COLD_ROWS),
            order: (0..HOT_GATHERS)
                .map(|_| xorshift(&mut rng) % HOT_ROWS as u32)
                .collect(),
            src: vec![7; COPY_BYTES],
            dst: vec![0; COPY_BYTES],
            rng,
        }
    }

    fn hot_pass(&mut self) {
        gather(&self.hot, self.order.iter().copied());
        for _ in 0..COPIES {
            self.dst.copy_from_slice(black_box(&self.src));
            black_box(&mut self.dst);
        }
    }

    /// CPU milliseconds of one cold and one hot pass.
    fn run(&mut self) -> f64 {
        self.hot_pass();
        let watch = Stopwatch::start();
        self.hot_pass();
        let rng = &mut self.rng;
        gather(
            &self.cold,
            (0..COLD_GATHERS).map(|_| xorshift(rng) % COLD_ROWS as u32),
        );
        watch.lap().cpu_ms
    }
}

/// The run's record of how fast the machine was, and the clock every
/// measured operation is stamped with.
pub struct Pace {
    kernel: Kernel,
    epoch: Instant,
    /// (seconds since `epoch`, kernel CPU ms), in time order.
    pub samples: Vec<(f64, f64)>,
}

impl Pace {
    pub fn new() -> Pace {
        let mut kernel = Kernel::new();
        kernel.run(); // page its buffers in
        Pace {
            kernel,
            epoch: Instant::now(),
            samples: Vec::new(),
        }
    }

    /// Seconds since the pace was created.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Runs the kernel `times` times now.
    pub fn sample(&mut self, times: usize) {
        for _ in 0..times {
            let ms = self.kernel.run();
            self.samples.push((self.now(), ms));
        }
    }

    /// Runs the kernel once if it has not run for `EVERY_MS`. Call it
    /// between measured operations.
    pub fn tick(&mut self) {
        let due = self
            .samples
            .last()
            .is_none_or(|&(at, _)| (self.now() - at) * 1e3 >= EVERY_MS);
        if due {
            self.sample(1);
        }
    }

    /// What a time measured at `at` is multiplied by: above 1 when the
    /// machine was faster than nominal, below 1 when it was slower.
    pub fn scale_at(&self, at: f64) -> f64 {
        scale_at(&self.samples, at)
    }

    /// The same for work that ran between the samples of `range` (the
    /// kernel cannot run inside a set-up, only before and after it).
    pub fn scale_over(&self, range: std::ops::RangeFrom<usize>) -> f64 {
        let ms: Vec<f64> = self.samples[range].iter().map(|s| s.1).collect();
        NOMINAL_MS / crate::stats::median(&ms)
    }
}

fn scale_at(samples: &[(f64, f64)], at: f64) -> f64 {
    assert!(!samples.is_empty(), "the reference kernel never ran");
    // Samples are in time order: widen [lo, hi) around `at` to the
    // window, then to the nearest few.
    let mut lo = samples.partition_point(|&(t, _)| t < at - WINDOW_S);
    let mut hi = samples.partition_point(|&(t, _)| t <= at + WINDOW_S);
    while hi - lo < NEAREST.min(samples.len()) {
        let before = lo.checked_sub(1).map(|i| at - samples[i].0);
        let after = samples.get(hi).map(|s| s.0 - at);
        match (before, after) {
            (Some(b), Some(a)) if b <= a => lo -= 1,
            (_, Some(_)) => hi += 1,
            (Some(_), None) => lo -= 1,
            (None, None) => unreachable!("fewer samples than asked for"),
        }
    }
    let near: Vec<f64> = samples[lo..hi].iter().map(|s| s.1).collect();
    NOMINAL_MS / crate::stats::median(&near)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_costs_cpu_time_and_laps_nest() {
        // Other tests run in this process at the same time, so the process
        // CPU clock can only be held to what is true whoever else runs.
        let mut kernel = Kernel::new();
        let outer = Stopwatch::start();
        let inside = kernel.run();
        let outside = outer.lap();
        assert!(inside > 0.0 && inside <= outside.cpu_ms);
        assert!(outside.wall_ms > 0.0);
    }

    #[test]
    fn scale_is_nominal_over_the_median_of_nearby_samples() {
        // A machine at nominal speed for two seconds, then at half speed.
        let (fast, slow) = (NOMINAL_MS, 2.0 * NOMINAL_MS);
        let samples: Vec<(f64, f64)> = (0..100)
            .map(|i| f64::from(i) * 0.04)
            .map(|t| (t, if t < 2.0 { fast } else { slow }))
            .collect();
        assert_eq!(scale_at(&samples, 1.0), 1.0);
        assert_eq!(scale_at(&samples, 3.0), 0.5);
        // One outlier in the window does not move the median.
        let mut spiked = samples.clone();
        spiked[25].1 = 50.0;
        assert_eq!(scale_at(&spiked, 1.0), 1.0);
        // Outside the sampled span the nearest few stand in.
        assert_eq!(scale_at(&samples, -10.0), 1.0);
        assert_eq!(scale_at(&samples, 99.0), 0.5);
        // Sparse samples: the nearest five, three of them slow.
        let sparse = [0.0, 5.0, 10.0, 15.0, 20.0].map(|t| (t, if t < 10.0 { fast } else { slow }));
        assert_eq!(scale_at(&sparse, 10.0), 0.5);
        assert_eq!(scale_at(&sparse[..2], 1.0), 1.0);
    }
}
