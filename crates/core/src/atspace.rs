//! The address–time space and its mutually exclusive partition (§3.1.1–2).
//!
//! The CFM adds a *time* dimension to the memory address: the bank number
//! is not part of the request but is selected by the time slot in which
//! each word is accessed. With `b = c · n` banks, at time slot `t`
//! processor `p` may inject an address into bank
//!
//! ```text
//! bank(t, p) = (t + c · p) mod b
//! ```
//!
//! (Table 3.1 is the `n = 4, c = 2` instance; Fig 3.3 is the `c = 1`
//! instance `(t + p) mod 4`.) Because `bank(t, ·)` is injective for every
//! `t`, the per-slot bank assignments of distinct processors are disjoint:
//! the AT-space is partitioned into `n` mutually exclusive subsets and no
//! memory conflict can ever occur.

use std::fmt;

use crate::config::CfmConfig;
use crate::trace::{TraceEvent, TraceSink};
use crate::{BankId, Cycle, ProcId};

/// A witness that two processors reach the same bank in the same slot —
/// the event the AT-space partition makes impossible for valid
/// configurations. Produced by the invariant hooks below and consumed by
/// `cfm-verify`'s schedule checker, which reports it verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConflictWitness {
    /// The colliding time slot.
    pub slot: Cycle,
    /// First processor (the one that claimed the bank earlier in the
    /// per-slot scan).
    pub proc_a: ProcId,
    /// Second processor.
    pub proc_b: ProcId,
    /// The bank both processors reach.
    pub bank: BankId,
}

impl fmt::Display for ConflictWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "slot {}: processors {} and {} both reach bank {}",
            self.slot, self.proc_a, self.proc_b, self.bank
        )
    }
}

/// A witness that `proc_for` fails to invert `bank_for`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundTripWitness {
    /// The slot at which inversion fails.
    pub slot: Cycle,
    /// The processor whose assignment does not round-trip.
    pub proc: ProcId,
    /// The bank `bank_for` assigned.
    pub bank: BankId,
    /// What `proc_for` returned instead of `Some(proc)`.
    pub got: Option<ProcId>,
}

impl fmt::Display for RoundTripWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "slot {}: bank_for({}, p{}) = bank {} but proc_for returned {:?}",
            self.slot, self.slot, self.proc, self.bank, self.got
        )
    }
}

/// The AT-space schedule for one CFM configuration.
#[derive(Debug, Clone, Copy)]
pub struct AtSpace {
    banks: usize,
    bank_cycle: u32,
}

impl AtSpace {
    /// The schedule derived from a configuration.
    pub fn new(config: &CfmConfig) -> Self {
        AtSpace {
            banks: config.banks(),
            bank_cycle: config.bank_cycle(),
        }
    }

    /// Number of banks `b` (equals the number of slots in a period).
    #[inline]
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// The bank into which processor `p` may inject an address at slot `t`:
    /// `(t + c·p) mod b`.
    #[inline]
    pub fn bank_for(&self, slot: Cycle, p: ProcId) -> BankId {
        debug_assert!(p * (self.bank_cycle as usize) < self.banks);
        ((slot as usize).wrapping_add(self.bank_cycle as usize * p)) % self.banks
    }

    /// [`Self::bank_for`] with the routing decision recorded as a
    /// [`TraceEvent::Route`] — the schedule-level hook of the trace
    /// layer. Analyses replay these events to re-validate injectivity
    /// and bank busy spacing against the *executed* schedule.
    pub fn route_traced<S: TraceSink + ?Sized>(
        &self,
        slot: Cycle,
        p: ProcId,
        sink: &mut S,
    ) -> BankId {
        let bank = self.bank_for(slot, p);
        sink.record(TraceEvent::Route {
            slot,
            proc: p,
            bank,
        });
        bank
    }

    /// Inverse mapping: which processor (if any) owns the *address path* to
    /// bank `k` at slot `t`. With `b = c·n`, bank `k` is reachable at slot
    /// `t` iff `(k − t) mod b` is a multiple of `c`; the owner is then
    /// `(k − t)/c mod n`.
    pub fn proc_for(&self, slot: Cycle, bank: BankId) -> Option<ProcId> {
        let c = self.bank_cycle as usize;
        let diff = (bank + self.banks - (slot as usize % self.banks)) % self.banks;
        if diff.is_multiple_of(c) {
            Some(diff / c)
        } else {
            None
        }
    }

    /// The slot (within a period) at which processor `p` can begin a block
    /// access that starts at bank `k`, if any.
    pub fn slot_for(&self, p: ProcId, bank: BankId) -> Option<Cycle> {
        let c = self.bank_cycle as usize;
        let t = (bank + self.banks - (c * p) % self.banks) % self.banks;
        if self.bank_for(t as Cycle, p) == bank {
            Some(t as Cycle)
        } else {
            None
        }
    }

    /// Invariant hook: prove `bank_for(slot, ·)` injective over the first
    /// `processors` processors, or return the colliding pair.
    ///
    /// For every valid configuration (`b = c·n`) this can never fail —
    /// `cfm-verify` calls it exhaustively over a full period to turn that
    /// "can never" into a machine-checked fact per configuration.
    pub fn check_slot_injective(
        &self,
        processors: usize,
        slot: Cycle,
    ) -> Result<(), ConflictWitness> {
        let mut owner: Vec<Option<ProcId>> = vec![None; self.banks];
        for p in 0..processors {
            // Evaluate the schedule formula directly: unlike `bank_for`,
            // the hook must accept out-of-range processor counts — that
            // is exactly the misconfiguration it exists to witness.
            let bank = ((slot as usize).wrapping_add(self.bank_cycle as usize * p)) % self.banks;
            if let Some(earlier) = owner[bank] {
                return Err(ConflictWitness {
                    slot,
                    proc_a: earlier,
                    proc_b: p,
                    bank,
                });
            }
            owner[bank] = Some(p);
        }
        Ok(())
    }

    /// Invariant hook: [`Self::check_slot_injective`] over every slot of
    /// one AT-space period (the schedule is periodic with period `b`, so
    /// this is exhaustive for all time).
    pub fn check_period_injective(&self, processors: usize) -> Result<(), ConflictWitness> {
        for slot in 0..self.banks as Cycle {
            self.check_slot_injective(processors, slot)?;
        }
        Ok(())
    }

    /// Invariant hook: prove `proc_for` inverts `bank_for` for every
    /// (slot, processor) pair in one period, or return the failing pair.
    pub fn check_round_trip(&self, processors: usize) -> Result<(), RoundTripWitness> {
        for slot in 0..self.banks as Cycle {
            for proc in 0..processors {
                let bank = self.bank_for(slot, proc);
                let got = self.proc_for(slot, bank);
                if got != Some(proc) {
                    return Err(RoundTripWitness {
                        slot,
                        proc,
                        bank,
                        got,
                    });
                }
            }
        }
        Ok(())
    }

    /// Invariant hook: the schedule really is periodic with period `b`
    /// (so the per-period checks above cover all time). Checks a window
    /// of `periods` extra periods.
    pub fn check_periodicity(&self, processors: usize, periods: u32) -> bool {
        (0..self.banks as Cycle).all(|t| {
            (1..=periods as Cycle).all(|k| {
                (0..processors)
                    .all(|p| self.bank_for(t, p) == self.bank_for(t + k * self.banks as Cycle, p))
            })
        })
    }

    /// The full address-path connection table of Table 3.1: for each slot
    /// in one period, `table[slot][bank] = Some(p)` if processor `p`'s
    /// address path is connected to `bank`.
    pub fn connection_table(&self, processors: usize) -> Vec<Vec<Option<ProcId>>> {
        (0..self.banks as Cycle)
            .map(|t| {
                let mut row = vec![None; self.banks];
                for p in 0..processors {
                    row[self.bank_for(t, p)] = Some(p);
                }
                row
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space(n: usize, c: u32) -> AtSpace {
        AtSpace::new(&CfmConfig::new(n, c, 16).unwrap())
    }

    #[test]
    fn fig_3_3_partition() {
        // Fig 3.3: at slot t, processor p accesses bank (t + p) mod 4.
        let s = space(4, 1);
        for t in 0..4u64 {
            for p in 0..4 {
                assert_eq!(s.bank_for(t, p), ((t as usize) + p) % 4);
            }
        }
    }

    #[test]
    fn table_3_1_address_paths() {
        // Table 3.1: n = 4, c = 2, b = 8; at slot t, processor p drives the
        // address of bank (t + 2p) mod 8.
        let s = space(4, 2);
        assert_eq!(s.bank_for(0, 0), 0);
        assert_eq!(s.bank_for(0, 1), 2);
        assert_eq!(s.bank_for(0, 2), 4);
        assert_eq!(s.bank_for(0, 3), 6);
        assert_eq!(s.bank_for(2, 3), 0); // slot 2: P3 reaches bank 0
        assert_eq!(s.bank_for(7, 0), 7);
    }

    #[test]
    fn per_slot_assignment_is_injective() {
        for (n, c) in [(4, 1), (4, 2), (8, 1), (8, 4), (16, 2), (3, 3)] {
            let s = space(n, c);
            for t in 0..(2 * s.banks()) as Cycle {
                let mut seen = vec![false; s.banks()];
                for p in 0..n {
                    let k = s.bank_for(t, p);
                    assert!(!seen[k], "conflict at t={t}, n={n}, c={c}");
                    seen[k] = true;
                }
            }
        }
    }

    #[test]
    fn proc_for_inverts_bank_for() {
        for (n, c) in [(4, 1), (4, 2), (8, 2), (5, 3)] {
            let s = space(n, c);
            for t in 0..s.banks() as Cycle {
                for p in 0..n {
                    assert_eq!(s.proc_for(t, s.bank_for(t, p)), Some(p));
                }
            }
        }
    }

    #[test]
    fn unreachable_banks_have_no_owner() {
        // With c = 2 only every other bank is address-connected per slot.
        let s = space(4, 2);
        let owned: usize = (0..8).filter(|&k| s.proc_for(0, k).is_some()).count();
        assert_eq!(owned, 4);
        assert_eq!(s.proc_for(0, 1), None);
    }

    #[test]
    fn slot_for_schedules_start_bank() {
        let s = space(4, 2);
        for p in 0..4 {
            for k in 0..8 {
                if let Some(t) = s.slot_for(p, k) {
                    assert_eq!(s.bank_for(t, p), k);
                }
            }
        }
    }

    #[test]
    fn invariant_hooks_pass_for_valid_configs() {
        for (n, c) in [(1, 1), (4, 1), (4, 2), (8, 4), (16, 2), (5, 3)] {
            let s = space(n, c);
            assert_eq!(s.check_period_injective(n), Ok(()));
            assert_eq!(s.check_round_trip(n), Ok(()));
            assert!(s.check_periodicity(n, 3));
        }
    }

    #[test]
    fn injectivity_hook_names_the_colliding_pair() {
        // Over-subscribing the schedule (more processors than partitions)
        // must produce a witness naming the first collision: with c = 1,
        // b = 4, processor 4 wraps onto processor 0's partition.
        let s = space(4, 1);
        let w = s.check_slot_injective(5, 0).unwrap_err();
        assert_eq!(
            w,
            ConflictWitness {
                slot: 0,
                proc_a: 0,
                proc_b: 4,
                bank: 0
            }
        );
        assert_eq!(
            w.to_string(),
            "slot 0: processors 0 and 4 both reach bank 0"
        );
    }

    #[test]
    fn connection_table_matches_paper_table_3_1() {
        let s = space(4, 2);
        let tbl = s.connection_table(4);
        // Slot 0: P0@B0 P1@B2 P2@B4 P3@B6.
        assert_eq!(tbl[0][0], Some(0));
        assert_eq!(tbl[0][2], Some(1));
        assert_eq!(tbl[0][4], Some(2));
        assert_eq!(tbl[0][6], Some(3));
        assert_eq!(tbl[0][1], None);
        // Slot 2: P3@B0 P0@B2 P1@B4 P2@B6.
        assert_eq!(tbl[2][0], Some(3));
        assert_eq!(tbl[2][2], Some(0));
    }
}
