//! The host-speed reference: a fixed computation owned by the benchmark.
//!
//! On a shared host a core's speed drifts by 10–30% from one minute to
//! the next with other tenants' load, and every timing in a run moves
//! with it: between runs of the same code a minute apart, even the
//! fastest warm `deep_batch` batch of a run took 1.40 s in one and
//! 1.95 s in another. The reference kernel — dependent random
//! read-modify-writes over a table the size of a core's cache and one
//! the size of a last-level cache slice — is timed between the program's
//! operations throughout a run, when the program runs no thread. Across
//! runs its median tracks the run's wall times (correlation 0.7 to 0.98
//! between run medians, on a 2-vCPU Xeon guest), so the end-to-end wall
//! times are reported divided by the run's speed index, the kernel's
//! median over [`NOMINAL_MS`]: a wall time at the speed of a quiet host.
//! In trial sets that cut the spread of run medians by half or more.
//! The kernel is not program code, so a change to the program moves
//! every normalized figure by as much as it moves the raw one.

use crate::stats::median;
use std::time::Instant;

/// Kernel time, in ms, that counts as speed index 1: about its time on
/// an idle 2.0 GHz Xeon (Sapphire Rapids) core.
pub const NOMINAL_MS: f64 = 66.0;

/// Table sizes in words (32 KiB and 4 MiB) and dependent steps over each.
const TABLES: [(usize, usize); 2] = [(1 << 12, 32_000_000), (1 << 19, 12_000_000)];

/// The reference kernel and its samples in one run.
#[derive(Debug)]
pub struct HostSpeed {
    tables: Vec<Vec<u64>>,
    samples_ms: Vec<f64>,
}

impl Default for HostSpeed {
    fn default() -> HostSpeed {
        HostSpeed {
            tables: TABLES.iter().map(|&(words, _)| vec![1; words]).collect(),
            samples_ms: Vec::new(),
        }
    }
}

impl HostSpeed {
    /// Times the kernel once: the geometric mean of its time over each
    /// table, in ms.
    pub fn sample(&mut self) {
        let mut product = 1.0;
        for (table, &(_, steps)) in self.tables.iter_mut().zip(&TABLES) {
            product *= walk_ms(table, steps, self.samples_ms.len() as u64);
        }
        self.samples_ms.push(product.sqrt());
    }

    /// The kernel's samples, in ms.
    pub fn samples_ms(&self) -> &[f64] {
        &self.samples_ms
    }

    /// The run's speed index: the kernel's median time over
    /// [`NOMINAL_MS`]; above 1 on a host slower than nominal.
    pub fn index(&self) -> f64 {
        median(&self.samples_ms) / NOMINAL_MS
    }
}

/// Times `steps` dependent random read-modify-writes over `table`
/// (whose length is a power of two), in ms.
fn walk_ms(table: &mut [u64], steps: usize, seed: u64) -> f64 {
    let mask = table.len() - 1;
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut acc = 0u64;
    let t0 = Instant::now();
    for _ in 0..steps {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        let i = (x >> 20) as usize & mask;
        acc = acc.wrapping_add(table[i]);
        table[(i ^ acc as usize) & mask] = acc;
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64() * 1e3
}
