//! A fixed reference kernel that gauges how fast the host runs right now.
//!
//! On a shared host the same code runs up to 1.8x slower for seconds to
//! minutes at a time, because other tenants contend for the physical
//! cores and caches. A run times this kernel between its passes and
//! scales its figures by how far the kernel's fastest time sits from
//! [`REFERENCE_KERNEL_S`]. The kernel is the benchmark's own code and
//! never calls the simulator, so a change to the simulator moves the
//! scaled figures exactly as it moves the raw ones.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's fastest time on an undisturbed 2.1 GHz Xeon vCPU (the
/// host the README's figures come from). Scaled figures read as host
/// seconds on that machine.
pub const REFERENCE_KERNEL_S: f64 = 400e-6;

/// Kernel runs made between two passes.
pub const RUNS_PER_GAUGE: usize = 40;

/// Host seconds of the fastest of `runs` runs of the kernel.
pub fn fastest_kernel_s(runs: usize) -> f64 {
    (0..runs)
        .map(|_| {
            let start = Instant::now();
            black_box(kernel(black_box(0x5EED)));
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Sorting, a floating-point dependency chain and hash-map updates on a
/// cache-resident working set: the kinds of work the simulator's event
/// loop and cost model do.
fn kernel(seed: u64) -> u64 {
    let mut x = seed;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut v: Vec<u64> = (0..1 << 14).map(|_| next()).collect();
    v.sort_unstable();
    let mut f = 1.0f64;
    for i in 1..1 << 13 {
        f += (i as f64).sqrt().ln() / (f + 1.0);
    }
    let mut m: HashMap<u64, u64> = HashMap::new();
    for i in 0..1 << 12 {
        *m.entry(next() & 0x7FF).or_default() += i;
    }
    v[v.len() / 2] ^ f.to_bits() ^ m.values().sum::<u64>()
}
