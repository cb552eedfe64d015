//! Feature-gated phase-traffic profiling (`--features profile`).
//!
//! When the `profile` feature is enabled, the query hot path counts
//! tokens moved, buckets touched, and bytes traversed per phase
//! (Task 2 marker rewrites, Task 3 prep, the dispersal round scans,
//! and the merge/writeback passes) into process-global atomic
//! counters; the batch runner in
//! [`QueryEngine`](crate::engine::QueryEngine) snapshots them into
//! [`BatchStats::profile`](crate::engine::BatchStats) per batch. When
//! the feature is
//! off, every recording hook is an empty `#[inline(always)]` function
//! and the whole layer compiles to nothing — the hot loops carry zero
//! overhead, which is why these counters live here and not in
//! [`QueryStats`](crate::token::QueryStats) (whose values are part of
//! the pooled-vs-solo byte-identity contract).
//!
//! Byte counts are traffic *estimates* from the known element widths
//! of the arenas each phase streams (`u32` positions/bucket entries,
//! `u16` marks, `(u32, u32)` move pairs), not hardware counters: they
//! exist to rank phases and spot bandwidth regressions, not to match
//! `perf stat`.
//!
//! Counters are process-global: profiling two engines concurrently
//! merges their traffic into whichever batch snapshots first. Profile
//! one batch at a time.

/// Traffic counters for one execution phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Tokens the phase relocated (marker rewrites, dispersal moves,
    /// merge landings).
    pub tokens_moved: u64,
    /// Buckets / groups the phase visited (counting-sort rows, `t × t`
    /// group cells, merge groups).
    pub buckets_touched: u64,
    /// Estimated bytes streamed through the phase's arenas.
    pub bytes_traversed: u64,
}

impl PhaseProfile {
    /// Element-wise sum.
    pub fn absorb(&mut self, other: &PhaseProfile) {
        self.tokens_moved += other.tokens_moved;
        self.buckets_touched += other.buckets_touched;
        self.bytes_traversed += other.bytes_traversed;
    }
}

/// Phase breakdown of one batch's hot-path traffic.
///
/// All-zero unless the crate is built with `--features profile`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteProfile {
    /// Task 2 marker rewrites and `M*` hops (§6, recursion spine).
    pub task2: PhaseProfile,
    /// Task 3 prep: counting-sort token partitioning into `(part,
    /// mark)` buckets.
    pub task3: PhaseProfile,
    /// The §6.1 dispersal round scans (token selection + moves).
    pub disperse: PhaseProfile,
    /// The §6.3 merge: dummy pairing, fallback escorts, writeback.
    pub merge: PhaseProfile,
}

impl RouteProfile {
    /// Total traffic across all phases.
    pub fn total(&self) -> PhaseProfile {
        let mut t = self.task2;
        t.absorb(&self.task3);
        t.absorb(&self.disperse);
        t.absorb(&self.merge);
        t
    }

    /// Whether any counter is non-zero (false when the `profile`
    /// feature is off or nothing ran).
    pub fn is_empty(&self) -> bool {
        *self == RouteProfile::default()
    }
}

/// An execution phase of the query hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Task 2 recursion spine (marker rewrites, `M*` hops).
    Task2,
    /// Task 3 prep (counting-sort partitioning).
    Task3,
    /// Dispersal round scans.
    Disperse,
    /// Merge / writeback.
    Merge,
}

#[cfg(feature = "profile")]
mod counters {
    use std::sync::atomic::AtomicU64;
    // [tokens, buckets, bytes] per phase, indexed by `Phase as usize`.
    pub static CELLS: [[AtomicU64; 3]; 4] = {
        #[allow(clippy::declare_interior_mutable_const)]
        const Z: AtomicU64 = AtomicU64::new(0);
        [[Z; 3], [Z; 3], [Z; 3], [Z; 3]]
    };
}

/// Records phase traffic. A no-op (and fully compiled out) unless the
/// `profile` feature is on.
#[inline(always)]
#[allow(unused_variables)]
pub(crate) fn record(phase: Phase, tokens: u64, buckets: u64, bytes: u64) {
    #[cfg(feature = "profile")]
    {
        use std::sync::atomic::Ordering;
        let row = &counters::CELLS[phase as usize];
        row[0].fetch_add(tokens, Ordering::Relaxed);
        row[1].fetch_add(buckets, Ordering::Relaxed);
        row[2].fetch_add(bytes, Ordering::Relaxed);
    }
}

/// Resets the global counters (called at batch start).
pub(crate) fn reset() {
    #[cfg(feature = "profile")]
    {
        use std::sync::atomic::Ordering;
        for row in &counters::CELLS {
            for cell in row {
                cell.store(0, Ordering::Relaxed);
            }
        }
    }
}

/// Snapshots the global counters into a [`RouteProfile`]. Always
/// all-zero when the `profile` feature is off.
pub(crate) fn take() -> RouteProfile {
    #[cfg(feature = "profile")]
    {
        use std::sync::atomic::Ordering;
        let read = |p: usize| PhaseProfile {
            tokens_moved: counters::CELLS[p][0].load(Ordering::Relaxed),
            buckets_touched: counters::CELLS[p][1].load(Ordering::Relaxed),
            bytes_traversed: counters::CELLS[p][2].load(Ordering::Relaxed),
        };
        RouteProfile {
            task2: read(Phase::Task2 as usize),
            task3: read(Phase::Task3 as usize),
            disperse: read(Phase::Disperse as usize),
            merge: read(Phase::Merge as usize),
        }
    }
    #[cfg(not(feature = "profile"))]
    RouteProfile::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_defaults_are_empty_and_absorb_sums() {
        let mut p = PhaseProfile::default();
        p.absorb(&PhaseProfile { tokens_moved: 2, buckets_touched: 3, bytes_traversed: 4 });
        assert_eq!(p.tokens_moved, 2);
        let r = RouteProfile { task2: p, ..RouteProfile::default() };
        assert!(!r.is_empty());
        assert_eq!(r.total().bytes_traversed, 4);
        assert!(RouteProfile::default().is_empty());
    }
}
