//! The charged round ledger.
//!
//! Every operation of the routing engine charges CONGEST rounds here,
//! labeled by phase, so experiments can report totals and breakdowns
//! (e.g. preprocessing vs query, shuffler vs sorting).

use std::collections::BTreeMap;
use std::fmt;

/// Accumulates charged CONGEST rounds by phase label.
///
/// # Example
///
/// ```
/// use congest_sim::RoundLedger;
///
/// let mut ledger = RoundLedger::new();
/// ledger.charge("shuffler", 120);
/// ledger.charge("sorting", 45);
/// ledger.charge("shuffler", 30);
/// assert_eq!(ledger.total(), 195);
/// assert_eq!(ledger.phase("shuffler"), 150);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundLedger {
    total: u64,
    by_phase: BTreeMap<String, u64>,
}

impl RoundLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        RoundLedger::default()
    }

    /// Charges `rounds` to `phase`.
    pub fn charge(&mut self, phase: &str, rounds: u64) {
        if rounds == 0 {
            return;
        }
        self.total += rounds;
        // Only a phase's *first* charge allocates its key; the query
        // hot path charges the same few phases thousands of times.
        if let Some(slot) = self.by_phase.get_mut(phase) {
            *slot += rounds;
        } else {
            self.by_phase.insert(phase.to_owned(), rounds);
        }
    }

    /// Total charged rounds.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Rounds charged to `phase` (0 if unknown).
    pub fn phase(&self, phase: &str) -> u64 {
        self.by_phase.get(phase).copied().unwrap_or(0)
    }

    /// Iterates over `(phase, rounds)` in lexicographic phase order.
    pub fn breakdown(&self) -> impl Iterator<Item = (&str, u64)> {
        self.by_phase.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Adds all of `other`'s charges into `self`.
    pub fn merge(&mut self, other: &RoundLedger) {
        for (phase, rounds) in other.breakdown() {
            self.charge(phase, rounds);
        }
    }
}

impl fmt::Display for RoundLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "total rounds: {}", self.total)?;
        for (phase, rounds) in self.breakdown() {
            writeln!(f, "  {phase}: {rounds}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::RoundLedger;

    #[test]
    fn charges_accumulate_per_phase() {
        let mut l = RoundLedger::new();
        l.charge("a", 5);
        l.charge("b", 7);
        l.charge("a", 3);
        assert_eq!(l.total(), 15);
        assert_eq!(l.phase("a"), 8);
        assert_eq!(l.phase("b"), 7);
        assert_eq!(l.phase("missing"), 0);
    }

    #[test]
    fn zero_charges_are_dropped() {
        let mut l = RoundLedger::new();
        l.charge("a", 0);
        assert_eq!(l.total(), 0);
        assert_eq!(l.breakdown().count(), 0);
    }

    #[test]
    fn merge_combines_ledgers() {
        let mut a = RoundLedger::new();
        a.charge("x", 1);
        let mut b = RoundLedger::new();
        b.charge("x", 2);
        b.charge("y", 3);
        a.merge(&b);
        assert_eq!(a.total(), 6);
        assert_eq!(a.phase("x"), 3);
        assert_eq!(a.phase("y"), 3);
    }

    #[test]
    fn display_is_nonempty() {
        let mut l = RoundLedger::new();
        l.charge("phase", 9);
        let s = format!("{l}");
        assert!(s.contains("phase: 9"));
    }
}
