//! The window proof's inputs, kept current where they change.
//!
//! [`crate::machine::CfmMachine::run`] may run the next slots as one
//! proven window only if no in-flight operation is busy (draining,
//! sleeping off a backoff, or holding a fault-pinned ATT entry), the
//! window is at least 2 slots wide, and no block offset is a *hazard*:
//! claimed by two or more distinct processors with a writer among them.
//! [`WindowProof`] answers the busy and hazard questions in O(1) from
//! running counters that the machine updates at the few points where an
//! input changes — issue, restart, backoff, delivery, the ATT expiry
//! sweep and restore — instead of re-deriving them by a scan per attempt.
//! The width takes one pass over the in-flight operations, made only
//! once the machine is not busy. None of the updates sits on the fused
//! access kernel.
//!
//! Which claims are counted is the machine's rule (see
//! `docs/performance.md` §4): every in-flight operation claims its offset
//! (as a writer unless it is a plain read), and an ATT entry claims its
//! offset as a writer only once it has outlived its owner's delivery. An
//! entry whose owner is still in flight adds nothing the owner's own
//! writer claim does not already say.

use crate::{BlockOffset, Cycle, ProcId};

/// The claims on one block offset. "One distinct claimant" is decided
/// exactly from the power sums of `x = p + 1` over the claims: by
/// Cauchy–Schwarz, `count · Σx² == (Σx)²` iff every claim carries the
/// same `x`. An offset holds a few claims per processor at most, so both
/// products stay below 2^64 while `count · n < 2^32` — for every machine
/// whose `b²`-entry ATTs fit in memory. (Debug builds trap an overflow;
/// 128-bit products measurably slow the issue path.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Claims {
    count: u32,
    writers: u32,
    sum: u64,
    sum_sq: u64,
}

impl Claims {
    fn hazardous(&self) -> bool {
        self.writers > 0 && u64::from(self.count) * self.sum_sq != self.sum * self.sum
    }
}

/// The incremental state behind O(1) window refusals.
#[derive(Debug, Clone)]
pub(crate) struct WindowProof {
    /// Claims per block offset (grown on demand).
    claims: Vec<Claims>,
    /// Offsets whose claims are hazardous.
    hazards: usize,
    /// In-flight operations in their drain, as counted by the last
    /// delivery pass (no operation enters its drain between passes).
    pub(crate) draining: usize,
    /// In-flight operations holding a fault-pinned ATT entry.
    pub(crate) held: usize,
    /// The largest `sleep_until` any operation has set. An operation
    /// sleeps until then and cannot complete while asleep, so
    /// `now < sleep_max` iff some in-flight operation is sleeping.
    sleep_max: Cycle,
}

impl WindowProof {
    /// Empty state for a machine of `offsets` block offsets.
    pub(crate) fn new(offsets: usize) -> Self {
        WindowProof {
            claims: vec![Claims::default(); offsets],
            hazards: 0,
            draining: 0,
            held: 0,
            sleep_max: 0,
        }
    }

    fn update(&mut self, offset: BlockOffset, f: impl FnOnce(&mut Claims)) {
        if offset >= self.claims.len() {
            self.claims.resize(offset + 1, Claims::default());
        }
        let c = &mut self.claims[offset];
        let before = c.hazardous();
        f(c);
        match (before, c.hazardous()) {
            (false, true) => self.hazards += 1,
            (true, false) => self.hazards -= 1,
            _ => {}
        }
    }

    /// Processor `p` claims `offset`, as a writer if `writes`.
    pub(crate) fn claim(&mut self, offset: BlockOffset, p: ProcId, writes: bool) {
        let x = p as u64 + 1;
        self.update(offset, |c| {
            c.count += 1;
            c.writers += u32::from(writes);
            c.sum += x;
            c.sum_sq += x * x;
        });
    }

    /// Withdraw one claim made by [`Self::claim`] with the same arguments.
    pub(crate) fn release(&mut self, offset: BlockOffset, p: ProcId, writes: bool) {
        let x = p as u64 + 1;
        self.update(offset, |c| {
            c.count -= 1;
            c.writers -= u32::from(writes);
            c.sum -= x;
            c.sum_sq -= x * x;
        });
    }

    /// An operation sleeps off a restart or backoff until slot `until`.
    pub(crate) fn sleeps_until(&mut self, until: Cycle) {
        self.sleep_max = self.sleep_max.max(until);
    }

    /// Whether some offset is a hazard.
    pub(crate) fn hazardous(&self) -> bool {
        self.hazards > 0
    }

    /// Whether an in-flight operation is draining, sleeping at slot
    /// `now`, or holding a fault-pinned ATT entry.
    pub(crate) fn busy(&self, now: Cycle) -> bool {
        self.draining > 0 || self.held > 0 || now < self.sleep_max
    }

    /// The counters and the claimed offsets, for an audit's report.
    #[cfg(any(debug_assertions, test))]
    pub(crate) fn summary(&self) -> String {
        let claimed: Vec<_> = (self.claims.iter().enumerate())
            .filter(|(_, c)| c.count > 0)
            .map(|(o, c)| (o, c.count, c.writers))
            .collect();
        format!(
            "{{hazards {}, draining {}, held {}, sleep_max {}, \
             (offset, claims, writers) {claimed:?}}}",
            self.hazards, self.draining, self.held, self.sleep_max
        )
    }

    /// Whether two states agree on everything the window decision reads
    /// at slot `now` (the sleep horizon is compared by what it decides:
    /// a delivered operation's past `sleep_until` may linger in it).
    #[cfg(any(debug_assertions, test))]
    pub(crate) fn agrees(&self, other: &WindowProof, now: Cycle) -> bool {
        let len = self.claims.len().max(other.claims.len());
        let claims = |s: &WindowProof, i: usize| s.claims.get(i).copied().unwrap_or_default();
        (0..len).all(|i| claims(self, i) == claims(other, i))
            && (self.hazards, self.draining, self.held)
                == (other.hazards, other.draining, other.held)
            && (now < self.sleep_max) == (now < other.sleep_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_writer_among_distinct_claimants_is_a_hazard() {
        let mut w = WindowProof::new(4);
        w.claim(1, 0, false);
        w.claim(1, 3, false);
        assert!(!w.hazardous(), "two readers share an offset safely");
        w.claim(1, 3, true);
        assert!(w.hazardous(), "a writer among two claimants");
        w.release(1, 3, true);
        assert!(!w.hazardous());
        w.release(1, 3, false);
        w.claim(1, 0, true);
        w.claim(1, 0, true);
        assert!(!w.hazardous(), "one processor's claims never collide");
        w.claim(2, 2, true);
        w.claim(2, 1, false);
        assert!(w.hazardous());
        w.release(2, 1, false);
        assert!(!w.hazardous());
        assert_eq!(w.hazards, 0);
    }

    #[test]
    fn equal_sums_of_different_claimants_are_told_apart() {
        // x = 1, 3 and x = 2, 2 share Σx = 4; Σx² (10 vs 8) separates them.
        let mut w = WindowProof::new(1);
        w.claim(0, 0, true);
        w.claim(0, 2, false);
        assert!(w.hazardous());
        let mut w = WindowProof::new(1);
        w.claim(0, 1, true);
        w.claim(0, 1, false);
        assert!(!w.hazardous());
    }
}
