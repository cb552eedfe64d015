//! The hash-map movement-cost oracle the dense `FlatMoveCost` is
//! checked against (`tests/property.rs`, `tests/overflow_bounds.rs`).

use expander_graphs::Path;
use std::collections::HashMap;

/// Measured movement cost accumulator: `max edge load × max hops`,
/// keyed by normalized vertex pairs.
#[derive(Debug, Default)]
pub struct MoveCost {
    edge_load: HashMap<(u32, u32), u64>,
    max_hops: u64,
}

impl MoveCost {
    /// An empty accumulator.
    pub fn new() -> Self {
        MoveCost::default()
    }

    /// Charges `times` traversals of `p`.
    pub fn add(&mut self, p: &Path, times: u64) {
        if p.hops() == 0 || times == 0 {
            return;
        }
        for e in p.edges() {
            *self.edge_load.entry(e).or_insert(0) += times;
        }
        self.max_hops = self.max_hops.max(p.hops() as u64);
    }

    /// The accumulated `congestion × dilation` bound.
    pub fn cost(&self) -> u64 {
        let c = self.edge_load.values().copied().max().unwrap_or(0);
        c * self.max_hops
    }
}

#[test]
fn move_cost_accumulates() {
    let mut mc = MoveCost::new();
    mc.add(&Path::new(vec![0, 1, 2]), 2);
    mc.add(&Path::new(vec![3, 1]), 1);
    // Edge (0,1) load 2, (1,2) load 2, (1,3) load 1; hops max 2.
    assert_eq!(mc.cost(), 4);
}
