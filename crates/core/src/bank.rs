//! Memory banks (§3.1.1, §3.1.3).
//!
//! A bank stores one [`crate::Word`] per block offset; an access
//! takes `c` CPU cycles; banks cooperate in a pipelined fashion on block
//! accesses (Fig 3.6): the address is injected into one bank per slot
//! (shifted between the banks' MARs rather than re-sent by the processor),
//! and the data word of each bank appears on the return path `c − 1` slots
//! after its injection.
//!
//! The simulator applies the *value* effect of an injection at injection
//! time (conflict freedom guarantees no other processor can observe the
//! bank in between) and accounts for the `c − 1` pipeline drain purely in
//! completion timing, which reproduces the paper's `β = b + c − 1`.

use crate::trace::{TraceEvent, TraceSink};
use crate::{BankId, BlockOffset, Cycle, ProcId, Word};

/// Struct-of-arrays bank storage: every physical bank's words (and
/// writer-id stamps, for the tear checker) in two contiguous
/// allocations, **offset-major** — `words[offset * banks + bank]` — so
/// one logical *block* is one contiguous slice. The fused access kernel
/// streams these arrays directly instead of chasing one heap
/// allocation per bank; the per-bank
/// injection bookkeeping ([`Bank::note_injection`]'s counterpart) is a
/// third dense array.
#[derive(Debug, Clone)]
pub struct BankArray {
    words: Vec<Word>,
    /// Writer-id stamp per word, same offset-major layout as `words`.
    stamps: Vec<u64>,
    /// Cycle of each bank's most recent injection, used to assert that no
    /// two injections land on the same bank in the same cycle.
    last_injection: Vec<Option<u64>>,
    banks: usize,
    offsets: usize,
}

impl BankArray {
    /// Storage for `banks` physical banks of `offsets` block offsets
    /// each, zero-initialised (words and stamps alike).
    pub fn new(banks: usize, offsets: usize) -> Self {
        BankArray {
            words: vec![0; banks * offsets],
            stamps: vec![0; banks * offsets],
            last_injection: vec![None; banks],
            banks,
            offsets,
        }
    }

    /// Number of physical banks.
    #[inline]
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// Number of block offsets per bank.
    #[inline]
    pub fn offsets(&self) -> usize {
        self.offsets
    }

    #[inline]
    fn idx(&self, bank: usize, offset: BlockOffset) -> usize {
        debug_assert!(bank < self.banks && offset < self.offsets);
        offset * self.banks + bank
    }

    /// Read the word at (`bank`, `offset`).
    #[inline]
    pub fn read(&self, bank: usize, offset: BlockOffset) -> Word {
        self.words[self.idx(bank, offset)]
    }

    /// Write the word at (`bank`, `offset`).
    #[inline]
    pub fn write(&mut self, bank: usize, offset: BlockOffset, word: Word) {
        let i = self.idx(bank, offset);
        self.words[i] = word;
    }

    /// The writer-id stamp at (`bank`, `offset`).
    #[inline]
    pub fn writer(&self, bank: usize, offset: BlockOffset) -> u64 {
        self.stamps[self.idx(bank, offset)]
    }

    /// Stamp the writer id at (`bank`, `offset`).
    #[inline]
    pub fn stamp(&mut self, bank: usize, offset: BlockOffset, id: u64) {
        let i = self.idx(bank, offset);
        self.stamps[i] = id;
    }

    /// Copy one bank's words and stamps onto another (spare-bank remap).
    pub fn copy_bank(&mut self, from: usize, to: usize) {
        for o in 0..self.offsets {
            let src = self.idx(from, o);
            let dst = self.idx(to, o);
            self.words[dst] = self.words[src];
            self.stamps[dst] = self.stamps[src];
        }
    }

    /// [`Self::read`] with the word-level access recorded as a
    /// [`TraceEvent::BankAccess`]. `bank` is the *logical* bank id the
    /// trace analyses see; `phys` indexes the storage.
    #[allow(clippy::too_many_arguments)] // the trace context is wide
    pub fn read_traced<S: TraceSink + ?Sized>(
        &self,
        phys: usize,
        offset: BlockOffset,
        slot: Cycle,
        bank: BankId,
        proc: ProcId,
        op_id: u64,
        sink: &mut S,
    ) -> Word {
        let word = self.read(phys, offset);
        sink.record(TraceEvent::BankAccess {
            slot,
            proc,
            bank,
            offset,
            op_id,
            write: false,
            word,
        });
        word
    }

    /// [`Self::write`] with the word-level access recorded as a
    /// [`TraceEvent::BankAccess`].
    #[allow(clippy::too_many_arguments)] // the trace context is wide
    pub fn write_traced<S: TraceSink + ?Sized>(
        &mut self,
        phys: usize,
        offset: BlockOffset,
        word: Word,
        slot: Cycle,
        bank: BankId,
        proc: ProcId,
        op_id: u64,
        sink: &mut S,
    ) {
        self.write(phys, offset, word);
        sink.record(TraceEvent::BankAccess {
            slot,
            proc,
            bank,
            offset,
            op_id,
            write: true,
            word,
        });
    }

    /// Record an injection into `bank` at `cycle`; returns `false` (a
    /// detected conflict) if another injection already hit this bank this
    /// cycle — impossible under the CFM schedule, so the machine counts
    /// any `false` as an invariant violation.
    #[inline]
    pub fn note_injection(&mut self, bank: usize, cycle: u64) -> bool {
        if self.last_injection[bank] == Some(cycle) {
            return false;
        }
        self.last_injection[bank] = Some(cycle);
        true
    }
}

/// One memory bank: a word store indexed by block offset plus busy
/// bookkeeping used by the conflict-freedom invariant check.
#[derive(Debug, Clone)]
pub struct Bank {
    words: Vec<Word>,
    /// Cycle of the most recent injection, used to assert that no two
    /// injections land on the same bank in the same cycle.
    last_injection: Option<u64>,
}

impl Bank {
    /// A bank with `offsets` block offsets, zero-initialised.
    pub fn new(offsets: usize) -> Self {
        Bank {
            words: vec![0; offsets],
            last_injection: None,
        }
    }

    /// Number of block offsets.
    #[inline]
    pub fn offsets(&self) -> usize {
        self.words.len()
    }

    /// Read the word at `offset`.
    #[inline]
    pub fn read(&self, offset: BlockOffset) -> Word {
        self.words[offset]
    }

    /// Write the word at `offset`.
    #[inline]
    pub fn write(&mut self, offset: BlockOffset, word: Word) {
        self.words[offset] = word;
    }

    /// [`Self::read`] with the word-level access recorded as a
    /// [`TraceEvent::BankAccess`]. `bank`/`proc`/`op_id` identify the
    /// access for the trace analyses; the bank itself does not need
    /// them.
    #[allow(clippy::too_many_arguments)] // the trace context is wide
    pub fn read_traced(
        &self,
        offset: BlockOffset,
        slot: Cycle,
        bank: BankId,
        proc: ProcId,
        op_id: u64,
        sink: &mut dyn TraceSink,
    ) -> Word {
        let word = self.read(offset);
        sink.record(TraceEvent::BankAccess {
            slot,
            proc,
            bank,
            offset,
            op_id,
            write: false,
            word,
        });
        word
    }

    /// [`Self::write`] with the word-level access recorded as a
    /// [`TraceEvent::BankAccess`].
    #[allow(clippy::too_many_arguments)] // the trace context is wide
    pub fn write_traced(
        &mut self,
        offset: BlockOffset,
        word: Word,
        slot: Cycle,
        bank: BankId,
        proc: ProcId,
        op_id: u64,
        sink: &mut dyn TraceSink,
    ) {
        self.write(offset, word);
        sink.record(TraceEvent::BankAccess {
            slot,
            proc,
            bank,
            offset,
            op_id,
            write: true,
            word,
        });
    }

    /// Record an injection at `cycle`; returns `false` (a detected
    /// conflict) if another injection already hit this bank this cycle —
    /// which the CFM schedule makes impossible, so the machine counts any
    /// `false` as an invariant violation.
    pub fn note_injection(&mut self, cycle: u64) -> bool {
        if self.last_injection == Some(cycle) {
            return false;
        }
        self.last_injection = Some(cycle);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut b = Bank::new(8);
        assert_eq!(b.read(3), 0);
        b.write(3, 42);
        assert_eq!(b.read(3), 42);
        assert_eq!(b.offsets(), 8);
    }

    #[test]
    fn injection_conflict_detected() {
        let mut b = Bank::new(1);
        assert!(b.note_injection(5));
        assert!(!b.note_injection(5)); // same cycle → conflict
        assert!(b.note_injection(6));
    }

    #[test]
    fn bank_array_roundtrip_and_copy() {
        let mut a = BankArray::new(4, 8);
        assert_eq!((a.banks(), a.offsets()), (4, 8));
        a.write(2, 3, 42);
        a.stamp(2, 3, 7);
        assert_eq!(a.read(2, 3), 42);
        assert_eq!(a.writer(2, 3), 7);
        assert_eq!(a.read(1, 3), 0);
        a.copy_bank(2, 1);
        assert_eq!(a.read(1, 3), 42);
        assert_eq!(a.writer(1, 3), 7);
        assert!(a.note_injection(2, 5));
        assert!(!a.note_injection(2, 5)); // same cycle → conflict
        assert!(a.note_injection(2, 6));
        assert!(a.note_injection(3, 6)); // other bank, same cycle: fine
    }
}
