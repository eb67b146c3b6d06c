//! Output checks shared by every workload.
//!
//! Every block the benchmark writes is *stamped*: word `i` of the write
//! with tag `T` is `(T << 8) | i`, and `T = seq · offsets + offset` for
//! a per-run write sequence number `seq ≥ 1`. A block read back is then
//! checkable in O(words) with no history kept: it must be the initial
//! zero block or carry one tag in every word, that tag must name the
//! offset it was read from, and its sequence number must have been
//! handed out already. A block mixing two writes — a violation of the
//! paper's block atomicity under address tracking — fails.

use cfm_core::op::{Completion, OpKind, Operation, Outcome};
use cfm_core::Word;

/// Hands out write stamps and checks blocks read back.
#[derive(Debug, Clone)]
pub struct Ledger {
    offsets: usize,
    banks: usize,
    next_seq: u64,
}

impl Ledger {
    /// A ledger for a memory of `offsets` blocks of `banks` words.
    pub fn new(offsets: usize, banks: usize) -> Self {
        assert!(banks <= 256, "word index must fit the stamp's low byte");
        Ledger {
            offsets,
            banks,
            next_seq: 1,
        }
    }

    /// The next write tag for `offset`.
    pub fn next_tag(&mut self, offset: usize) -> u64 {
        let tag = self.next_seq * self.offsets as u64 + offset as u64;
        self.next_seq += 1;
        tag
    }

    /// The block a write with `tag` stores.
    pub fn block(&self, tag: u64) -> Vec<Word> {
        (0..self.banks as u64).map(|i| (tag << 8) | i).collect()
    }

    /// `op` with its payload replaced by a fresh stamp (reads pass
    /// through unchanged).
    pub fn stamp(&mut self, op: Operation) -> Operation {
        match op {
            Operation::Write { offset, .. } => {
                let tag = self.next_tag(offset);
                Operation::write(offset, self.block(tag))
            }
            Operation::Swap { offset, .. } => {
                let tag = self.next_tag(offset);
                Operation::swap(offset, self.block(tag))
            }
            other => other,
        }
    }

    /// The tag of a block read from `offset` (0 for the initial zero
    /// block), or why the block is not one whole write to that offset.
    pub fn check_block(&self, offset: usize, data: &[Word]) -> Result<u64, String> {
        if data.len() != self.banks {
            return Err(format!(
                "block of {} words, want {}",
                data.len(),
                self.banks
            ));
        }
        if data.iter().all(|&w| w == 0) {
            return Ok(0);
        }
        let tag = data[0] >> 8;
        if let Some(i) = (0..data.len()).find(|&i| data[i] != (tag << 8) | i as u64) {
            return Err(format!(
                "block at offset {offset} mixes writes: word 0 has tag {tag}, word {i} is {:#x}",
                data[i]
            ));
        }
        let (seq, at) = (
            tag / self.offsets as u64,
            (tag % self.offsets as u64) as usize,
        );
        if at != offset || seq == 0 || seq >= self.next_seq {
            return Err(format!(
                "block at offset {offset} carries tag {tag}, which no write to it stored"
            ));
        }
        Ok(tag)
    }

    /// Check one completion against the request that produced it: kind
    /// and offset match, it finished without a fault, it is not torn,
    /// and any data it returns is one whole write. Returns the tag read
    /// (reads and swaps) or `None` (writes).
    pub fn check_completion(
        &self,
        c: &Completion,
        kind: OpKind,
        offset: usize,
    ) -> Result<Option<u64>, String> {
        if c.kind != kind || c.offset != offset {
            return Err(format!(
                "completion {:?}@{} answers request {kind:?}@{offset}",
                c.kind, c.offset
            ));
        }
        if c.torn {
            return Err(format!("torn {kind:?} at offset {offset}"));
        }
        match (c.outcome, kind) {
            (Outcome::Completed, _) | (Outcome::Overwritten, OpKind::Write) => {}
            (other, _) => return Err(format!("{kind:?} at offset {offset} ended {other:?}")),
        }
        match kind {
            OpKind::Read | OpKind::Swap | OpKind::Rmw => {
                let data = c
                    .data
                    .as_deref()
                    .ok_or_else(|| format!("{kind:?} at offset {offset} returned no data"))?;
                self.check_block(offset, data).map(Some)
            }
            OpKind::Write => Ok(None),
        }
    }
}

/// Exactly-once bookkeeping for dense request ids.
#[derive(Debug, Default, Clone)]
pub struct SeenSet {
    bits: Vec<u64>,
}

impl SeenSet {
    /// Mark `id`; false if it was already marked.
    pub fn mark(&mut self, id: u64) -> bool {
        let (word, bit) = ((id / 64) as usize, id % 64);
        if self.bits.len() <= word {
            self.bits.resize(word + 1, 0);
        }
        let fresh = self.bits[word] & (1 << bit) == 0;
        self.bits[word] |= 1 << bit;
        fresh
    }
}

/// Failed checks of one run: a count plus the first few messages.
#[derive(Debug, Default, Clone)]
pub struct Failures {
    /// Operations (or whole-run invariants) that failed a check.
    pub count: u64,
    /// The first messages, for the report.
    pub messages: Vec<String>,
}

impl Failures {
    /// Record one failure.
    pub fn add(&mut self, message: String) {
        self.count += 1;
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }

    /// Record a failure unless `ok`.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.add(message());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamped_blocks_check_and_mixed_blocks_fail() {
        let mut l = Ledger::new(64, 16);
        let a = l.next_tag(5);
        let b = l.next_tag(5);
        assert_eq!(l.check_block(5, &l.block(a)), Ok(a));
        assert_eq!(l.check_block(5, &[0; 16]), Ok(0));
        let mut mixed = l.block(a);
        mixed[9..].copy_from_slice(&l.block(b)[9..]);
        assert!(l.check_block(5, &mixed).is_err());
        assert!(l.check_block(6, &l.block(a)).is_err(), "wrong offset");
        let future = l.block(l.clone().next_tag(5));
        assert!(l.check_block(5, &future).is_err(), "never written");
    }

    #[test]
    fn seen_set_flags_duplicates() {
        let mut s = SeenSet::default();
        assert!(s.mark(3));
        assert!(s.mark(700));
        assert!(!s.mark(3));
    }
}
