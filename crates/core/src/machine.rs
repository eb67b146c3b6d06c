//! The slot-stepped CFM machine (§3.1, Chapter 4).
//!
//! [`CfmMachine`] ties together the AT-space schedule, the synchronous
//! interconnect, the pipelined memory banks and the per-bank Address
//! Tracking Tables. It is a deterministic state machine: [`CfmMachine::step`]
//! simulates one CPU cycle (= one time slot); all state observable between
//! steps is exact at cycle granularity.
//!
//! Timing model (Fig 3.6): an operation issued between steps begins its
//! first word access in the very next simulated cycle — block accesses
//! start at any slot with no alignment stall. It injects into one bank per
//! cycle following the AT-space rotation `bank(t, p) = (t + c·p) mod b`;
//! the `c − 1` cycle pipeline drain of the last bank is accounted in the
//! completion timestamp, giving the paper's `β = b + c − 1` end-to-end.
//!
//! The machine verifies the central claim of the paper every cycle: **no
//! two processors ever inject into the same bank in the same slot**
//! ([`crate::stats::Stats::bank_conflicts`] stays 0). It also runs a
//! block-version checker (writer-id stamps per word) that detects torn
//! reads — which the ATT provably prevents, and which reappear the moment
//! tracking is disabled (the Fig 4.1 ablation).

use std::collections::VecDeque;

use crate::atspace::AtSpace;
use crate::att::{Att, Entry, PriorityMode, TrackKind, WriteVerdict};
use crate::bank::BankArray;
use crate::config::{CfmConfig, Engine};
use crate::fault::{BankMap, FaultKind, FaultPlan, FaultState, RetireAction, MASKED_WRITER};
use crate::op::{
    BlockTransform, Completion, IssueError, OpKind, Operation, Outcome, PendingOp, StallError,
};
use crate::snapshot::{AttState, InFlightState, MachineSnapshot, SnapshotError};
use crate::stats::Stats;
use crate::trace::{MemoryTrace, MergeAction, NullSink, TraceEvent, TraceSink};
use crate::window::WindowProof;
use crate::{BankId, BlockOffset, Cycle, ProcId, Word};

/// Bounded retry budget against a transiently erroring bank; past it the
/// operation is abandoned with [`Outcome::TransientFault`].
const MAX_FAULT_RETRIES: u32 = 8;

/// Exponential slot-backoff cap: retry `a` sleeps `2^min(a, CAP)` slots.
const FAULT_BACKOFF_CAP: u32 = 6;

/// Bit pattern XORed into the word a suppressed retry lets through — the
/// "missed retry" seeded fault corrupts data exactly like an undetected
/// bank error would.
const CORRUPT_MASK: Word = 0xDEAD_BEEF_DEAD_BEEF;

/// The ATT entry kind a write phase of `kind` inserts: swaps and RMWs
/// arbitrate as swap writes (§4.2.1), plain writes as writes.
fn track_kind(kind: OpKind) -> TrackKind {
    if matches!(kind, OpKind::Swap | OpKind::Rmw) {
        TrackKind::SwapWrite
    } else {
        TrackKind::Write
    }
}

/// Phase of an in-flight operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Sweeping banks reading words (plain read, or swap's read phase).
    Read,
    /// Sweeping banks writing words (plain write, or swap's write phase).
    Write,
    /// All word accesses done; waiting for the bank pipeline to drain.
    Drain,
}

/// An operation in flight on one processor's AT-space subset.
#[derive(Debug, Clone)]
struct InFlight {
    kind: OpKind,
    offset: BlockOffset,
    write_data: Box<[Word]>,
    /// For RMWs: the transform computing the write data from the block
    /// read (applied between phases, pipelined as §4.2.1 describes).
    transform: Option<BlockTransform>,
    phase: Phase,
    /// Banks already accessed in the current phase.
    visited: usize,
    /// Whether the current write phase has updated bank 0 (tie-break).
    bank0_updated: bool,
    read_buf: Box<[Word]>,
    observed_writers: Box<[u64]>,
    issued_at: Cycle,
    restarts: u32,
    /// Phase restarts forced by transient bank errors (bounded by
    /// [`MAX_FAULT_RETRIES`], each backed off exponentially).
    fault_retries: u32,
    /// Unique id stamped on written words for the tear checker.
    op_id: u64,
    /// Cycle at which the drained completion is delivered.
    completes_at: Cycle,
    /// After a write restart, stay off the banks until the blocking ATT
    /// entry has expired — immediate re-insertion would ping-pong with
    /// the blocker's own restarts (see [`crate::att::WriteVerdict`]).
    sleep_until: Cycle,
    /// The `(bank, inserted_at)` of an ATT entry pinned by a fault-
    /// stalled partial write (see [`Att::hold`]); released when the
    /// resumed phase re-inserts, or on abandonment/completion.
    held_entry: Option<(BankId, Cycle)>,
    outcome: Outcome,
    /// Last slot at which the operation made observable progress (issue,
    /// access, restart, …) — the stall diagnosis of
    /// [`crate::op::StallError`].
    last_progress: Cycle,
}

/// Accesses an operation of `kind` has left, its final one included,
/// `visited` accesses into `phase`.
fn accesses_left(kind: OpKind, phase: Phase, visited: usize, b: usize) -> u64 {
    match (kind, phase) {
        (_, Phase::Drain) => 0,
        (OpKind::Swap | OpKind::Rmw, Phase::Read) => (2 * b - visited) as u64,
        _ => (b - visited) as u64,
    }
}

/// Whether ATT entry `e` belongs to the operation still in flight on its
/// processor: same offset, inserted no earlier than that operation's
/// issue. Such an entry claims nothing of its own — its owner already
/// claims the offset as a writer — so [`WindowProof`] counts an entry
/// only once it outlives its owner's delivery.
fn owned(inflight: &[Option<InFlight>], e: &Entry) -> bool {
    inflight
        .get(e.proc)
        .and_then(Option::as_ref)
        .is_some_and(|op| op.offset == e.offset && op.issued_at <= e.inserted_at)
}

/// Why [`CfmMachine::run`] stepped a slot on its own instead of running
/// a proven window — one count per refused attempt, under the first
/// reason that applied, in the order the fields are listed. `fault`,
/// `op_busy` and `hazard` are decided in O(1) from state the machine
/// keeps current as it runs, `short` by one pass over the in-flight
/// operations (see `docs/performance.md` §4). Read with
/// [`CfmMachine::window_refusals`]; kept out of [`Stats`] (like
/// [`CfmMachine::parallel_slots`]) so stats stay byte-identical across
/// engines. The sequential engine never attempts a window and counts
/// nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowRefusals {
    /// A seeded fault hook was armed or the fault plan was not idle
    /// (events still to fire, a transient error not yet repaired, or a
    /// response fault pending).
    pub fault: u64,
    /// An in-flight operation was draining, sleeping off a backoff, or
    /// holding a fault-pinned ATT entry.
    pub op_busy: u64,
    /// The window would have been shorter than 2 slots: an operation
    /// was one access from entering its drain, or the caller's cycle
    /// budget had fewer than 2 slots left.
    pub short: u64,
    /// An offset collision: two or more processors claim one offset —
    /// by an in-flight operation or an ATT entry (live or held) — and
    /// one of the claims writes.
    pub hazard: u64,
}

/// Why the windowed engine's per-slot pass sent an access down the
/// checked path instead of the fused kernel — one count per access,
/// under the first reason that applied, in the order the fields are
/// listed. Read with [`CfmMachine::access_fallbacks`]; kept out of
/// [`Stats`] and out of snapshots, like [`WindowRefusals`]. The
/// sequential engine checks every access and counts nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessFallbacks {
    /// A seeded fault hook was armed: every access of the slot is
    /// checked, since the hooks perturb accesses the probe does not
    /// model.
    pub seeded: u64,
    /// A transient error was latched on the routed bank.
    pub transient: u64,
    /// The operation held a fault-pinned ATT entry.
    pub held: u64,
    /// Another processor's ATT entry (live or held) arbitrated the same
    /// offset in the routed bank.
    pub contended: u64,
    /// Slots in which fused and checked accesses mixed — the slots a
    /// whole-slot proof would have run entirely on the checked path.
    pub mixed_slots: u64,
}

/// A set of processor ids, one bit each, visited in ascending order —
/// processor order is the order every slot commits its accesses in.
#[derive(Debug, Clone, Default)]
struct ProcSet {
    words: Vec<u64>,
}

impl ProcSet {
    fn new(n: usize) -> Self {
        ProcSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    fn insert(&mut self, p: ProcId) {
        self.words[p / 64] |= 1 << (p % 64);
    }

    fn remove(&mut self, p: ProcId) {
        self.words[p / 64] &= !(1 << (p % 64));
    }

    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    fn iter(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(i, &w)| members(i, w))
    }
}

/// The processors in word `i` of a [`ProcSet`], ascending. The word is
/// passed by value, so a caller walking a set word by word may mutate
/// the set (and the machine that owns it) as it goes.
fn members(i: usize, mut word: u64) -> impl Iterator<Item = ProcId> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            i * 64 + bit
        })
    })
}

/// The cycle-accurate conflict-free memory machine.
#[derive(Debug, Clone)]
pub struct CfmMachine {
    config: CfmConfig,
    space: AtSpace,
    /// Struct-of-arrays bank storage: words, writer-id stamps (for the
    /// tear checker) and injection bookkeeping in contiguous dense
    /// arrays — see [`BankArray`].
    banks: BankArray,
    atts: Vec<Att>,
    /// In-flight operation of each processor.
    inflight: Vec<Option<InFlight>>,
    /// The processors with an operation in flight — exactly those whose
    /// `inflight` slot is occupied — so per-slot work walks the live
    /// operations rather than all `n` slots.
    live: ProcSet,
    done: Vec<VecDeque<Completion>>,
    /// Processors whose `done` queue may hold completions [`Self::run`]
    /// has not collected: a clear bit means an empty queue.
    undrained: ProcSet,
    /// Recycled block-sized buffers (`read_buf`, `observed_writers`,
    /// RMW `write_data`) — completions return their buffers here and
    /// issues draw from here, so the steady-state hot path performs no
    /// buffer allocation.
    buf_pool: Vec<Box<[u64]>>,
    cycle: Cycle,
    next_op_id: u64,
    stats: Stats,
    att_enabled: bool,
    mode: PriorityMode,
    /// Event log, recorded while [`CfmMachine::enable_trace`] is active.
    trace: Option<MemoryTrace>,
    /// Fault injection: number of upcoming ATT insertions to silently
    /// drop (the "dropped ATT merge" seeded fault of the trace
    /// self-tests — a detector that cannot see this fault proves
    /// nothing).
    att_insert_drops: u64,
    /// Live fault-plan state, consulted every slot.
    fault_state: FaultState,
    /// Logical→physical bank table; identity until a permanent bank
    /// failure remaps a bank onto a spare (or masks it).
    bank_map: BankMap,
    /// Seeded-fault hook: number of upcoming transient-fault retries to
    /// suppress — the access proceeds with a corrupted word, as an
    /// undetected bank error would.
    retry_suppressions: u64,
    /// Seeded-fault hook: skip the data copy of the next remap, losing
    /// every committed write on the retired bank.
    skip_remap_copy: bool,
    /// Slots executed by the fused access kernel, single proven slots and
    /// window slots alike (deliberately *not* in [`Stats`]: stats must
    /// stay byte-identical across engines).
    parallel_slots: u64,
    /// Slots executed inside proven windows — the runtime window proof
    /// showed a whole run of slots conflict-free (kept out of [`Stats`],
    /// like [`Self::parallel_slots`]).
    dynamic_slots: u64,
    /// Number of proven windows dispatched.
    dynamic_windows: u64,
    /// The window proof's inputs — per-offset claims and busy
    /// operations — kept current where they change, so a window
    /// attempt is refused without a scan.
    proof: WindowProof,
    /// Why window attempts were refused (kept out of [`Stats`], like
    /// [`Self::parallel_slots`]).
    window_refusals: WindowRefusals,
    /// Why per-slot accesses took the checked path (kept out of
    /// [`Stats`], like [`Self::parallel_slots`]).
    access_fallbacks: AccessFallbacks,
    /// A lower bound on the first slot at which an ATT expiry sweep can
    /// drop a live entry: inserts lower it, a sweep recomputes it, and
    /// slots before it skip the sweep.
    expiry_due: Cycle,
}

/// Staged construction of a [`CfmMachine`] — the single entry point for
/// every pre-run configuration knob (shared-memory size, address
/// tracking, priority mode, fault plan, tracing, seeded test faults).
///
/// Obtained from [`CfmMachine::builder`]; consumed by
/// [`CfmMachineBuilder::build`]:
///
/// ```
/// use cfm_core::config::CfmConfig;
/// use cfm_core::machine::CfmMachine;
///
/// let cfg = CfmConfig::new(4, 1, 16).unwrap();
/// let m = CfmMachine::builder(cfg).offsets(64).trace(true).build();
/// assert_eq!(m.offsets(), 64);
/// assert!(m.trace().is_some());
/// ```
///
/// Seeded fault hooks live behind the [`crate::testing::Injector`]
/// facade, reachable here through [`CfmMachineBuilder::inject`] and at
/// runtime through [`CfmMachine::injector`].
pub struct CfmMachineBuilder {
    config: CfmConfig,
    offsets: usize,
    att_enabled: bool,
    mode: PriorityMode,
    fault_plan: Option<FaultPlan>,
    trace: bool,
    seeds: Vec<InjectorSeed>,
}

/// A deferred [`crate::testing::Injector`] closure queued by
/// [`CfmMachineBuilder::inject`], applied after construction.
type InjectorSeed = Box<dyn FnOnce(&mut crate::testing::Injector<'_>)>;

impl CfmMachineBuilder {
    /// Number of block offsets of shared memory (blocks per bank). The
    /// default equals the bank count; most callers set it explicitly.
    pub fn offsets(mut self, offsets: usize) -> Self {
        self.offsets = offsets;
        self
    }

    /// Enable or disable address tracking. Disabling reproduces the
    /// Fig 4.1 inconsistency (torn blocks under same-block races); the
    /// default is enabled.
    pub fn tracking(mut self, enabled: bool) -> Self {
        self.att_enabled = enabled;
        self
    }

    /// Select the ATT priority mode: the default
    /// [`PriorityMode::EarliestWins`] is the swap-capable mode of §4.2.1;
    /// [`PriorityMode::LatestWins`] is the plain-write mode of §4.1.2.
    pub fn priority(mut self, mode: PriorityMode) -> Self {
        self.mode = mode;
        self
    }

    /// Install a [`FaultPlan`] before the machine runs. Events whose slot
    /// has already passed fire on the first step. (To replace the plan on
    /// a machine that is already running, go through
    /// [`crate::testing::Injector::fault_plan`].)
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Record a [`MemoryTrace`] from the first step (default off). The
    /// trace is read with [`CfmMachine::trace`] and taken with
    /// [`CfmMachine::take_trace`] / [`CfmMachine::drain_trace`].
    pub fn trace(mut self, enabled: bool) -> Self {
        self.trace = enabled;
        self
    }

    /// Seed test faults through the [`crate::testing::Injector`] facade
    /// before the machine is handed back:
    ///
    /// ```
    /// use cfm_core::config::CfmConfig;
    /// use cfm_core::machine::CfmMachine;
    ///
    /// let cfg = CfmConfig::new(4, 1, 16).unwrap();
    /// let m = CfmMachine::builder(cfg)
    ///     .offsets(8)
    ///     .inject(|inj| {
    ///         inj.drop_att_inserts(1);
    ///     })
    ///     .build();
    /// # let _ = m;
    /// ```
    pub fn inject(
        mut self,
        seed: impl FnOnce(&mut crate::testing::Injector<'_>) + 'static,
    ) -> Self {
        self.seeds.push(Box::new(seed));
        self
    }

    /// Construct the machine.
    pub fn build(self) -> CfmMachine {
        let mut machine =
            CfmMachine::construct(self.config, self.offsets, self.att_enabled, self.mode);
        if let Some(plan) = self.fault_plan {
            machine.install_fault_plan(plan);
        }
        if self.trace {
            machine.start_trace();
        }
        for seed in self.seeds {
            let mut injector = machine.injector();
            seed(&mut injector);
        }
        machine
    }
}

impl CfmMachine {
    /// Start building a machine for `config` — see [`CfmMachineBuilder`]
    /// for the available knobs. Defaults: `offsets = config.banks()`,
    /// address tracking enabled, [`PriorityMode::EarliestWins`], no fault
    /// plan, tracing off.
    pub fn builder(config: CfmConfig) -> CfmMachineBuilder {
        CfmMachineBuilder {
            offsets: config.banks(),
            config,
            att_enabled: true,
            mode: PriorityMode::EarliestWins,
            fault_plan: None,
            trace: false,
            seeds: Vec::new(),
        }
    }

    /// The constructor behind the builder and snapshot restore.
    fn construct(config: CfmConfig, offsets: usize, att_enabled: bool, mode: PriorityMode) -> Self {
        let b = config.banks();
        // Banks and writer stamps are *physical* (spares included); the
        // schedule, the ATTs and every trace event stay *logical*.
        let physical = config.total_banks();
        let n = config.processors();
        CfmMachine {
            space: AtSpace::new(&config),
            banks: BankArray::new(physical, offsets),
            atts: (0..b).map(|_| Att::with_offsets(b, offsets)).collect(),
            inflight: vec![None; n],
            live: ProcSet::new(n),
            done: vec![VecDeque::new(); n],
            undrained: ProcSet::new(n),
            buf_pool: Vec::new(),
            cycle: 0,
            next_op_id: 1,
            stats: Stats::default(),
            att_enabled,
            mode,
            trace: None,
            att_insert_drops: 0,
            fault_state: FaultState::new(FaultPlan::empty(), b, config.processors()),
            bank_map: BankMap::new(b, config.spares()),
            retry_suppressions: 0,
            skip_remap_copy: false,
            parallel_slots: 0,
            dynamic_slots: 0,
            dynamic_windows: 0,
            proof: WindowProof::new(offsets),
            window_refusals: WindowRefusals::default(),
            access_fallbacks: AccessFallbacks::default(),
            expiry_due: 0,
            config,
        }
    }

    /// Install a fault plan, replacing any previous plan and its
    /// progress — the path behind the builder and the
    /// [`crate::testing::Injector`] facade. Events whose slot has already
    /// passed fire on the next step.
    pub(crate) fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_state = FaultState::new(plan, self.config.banks(), self.config.processors());
    }

    /// The logical→physical bank table (identity until a permanent bank
    /// failure degrades the machine).
    pub fn bank_map(&self) -> &BankMap {
        &self.bank_map
    }

    /// Start recording a [`MemoryTrace`] (idempotent; an active trace
    /// keeps accumulating) — the path behind the builder, wrappers, and
    /// [`Self::drain_trace`].
    pub(crate) fn start_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(MemoryTrace::new());
        }
    }

    /// The trace recorded so far, if tracing is enabled.
    pub fn trace(&self) -> Option<&MemoryTrace> {
        self.trace.as_ref()
    }

    /// Stop tracing and take the recorded trace.
    pub fn take_trace(&mut self) -> Option<MemoryTrace> {
        self.trace.take()
    }

    /// Take the trace recorded so far and immediately keep tracing —
    /// bounds trace memory in long soaks that only sample events
    /// periodically. Returns `None` (and does not start tracing) if
    /// tracing was never enabled.
    pub fn drain_trace(&mut self) -> Option<MemoryTrace> {
        let drained = self.trace.take();
        if drained.is_some() {
            self.start_trace();
        }
        drained
    }

    /// Discard the events recorded so far and keep tracing — unlike
    /// [`Self::drain_trace`] the trace buffer keeps its capacity, so a
    /// long-running traced workload that only bounds memory (without
    /// wanting the events) pays no allocation or page-fault churn
    /// refilling a fresh buffer. No-op if tracing is off.
    pub fn discard_trace(&mut self) {
        if let Some(t) = self.trace.as_mut() {
            t.clear();
        }
    }

    /// Seeded-fault facade over the machine's test hooks — see
    /// [`crate::testing::Injector`]. Also reachable at build time through
    /// [`CfmMachineBuilder::inject`].
    pub fn injector(&mut self) -> crate::testing::Injector<'_> {
        crate::testing::Injector::new(self)
    }

    pub(crate) fn seed_bank_alias(&mut self, logical: BankId, physical: usize) {
        self.bank_map.inject_alias(logical, physical);
    }

    pub(crate) fn seed_retry_suppression(&mut self, count: u64) {
        self.retry_suppressions = count;
    }

    pub(crate) fn seed_remap_copy_skip(&mut self) {
        self.skip_remap_copy = true;
    }

    pub(crate) fn seed_att_insert_drops(&mut self, count: u64) {
        self.att_insert_drops = count;
    }

    /// Record an event into the trace if tracing is enabled — used by
    /// wrappers (slot sharing) that annotate the inner machine's trace
    /// with their own scheduling decisions.
    pub(crate) fn record_event(&mut self, event: TraceEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.record(event);
        }
    }

    /// The machine's configuration.
    pub fn config(&self) -> &CfmConfig {
        &self.config
    }

    /// The next cycle to be simulated.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Slots executed by the fused access kernel — proven single slots
    /// plus every window slot (always 0 under [`Engine::Sequential`];
    /// slots the plan hands back to the sequential fallback are not
    /// counted). Kept out of [`Stats`] so stats stay byte-identical
    /// across engines.
    pub fn parallel_slots(&self) -> u64 {
        self.parallel_slots
    }

    /// Always 0: the machine's one window proof is the runtime one
    /// counted by [`Self::dynamic_slots`]. Kept only because the
    /// perfbench core workloads still read it; goes with that read.
    pub fn static_slots(&self) -> u64 {
        0
    }

    /// Always 0, like [`Self::static_slots`] and for the same reason.
    pub fn static_windows(&self) -> u64 {
        0
    }

    /// Slots executed inside proven windows: the runtime window proof
    /// showed a whole run of slots conflict-free — against the ATT
    /// entries, the fault plan and the in-flight set — and
    /// executed it without per-access ATT checks. Kept out of [`Stats`]
    /// like [`Self::parallel_slots`] (a subset of which these are).
    pub fn dynamic_slots(&self) -> u64 {
        self.dynamic_slots
    }

    /// Number of proven windows dispatched.
    pub fn dynamic_windows(&self) -> u64 {
        self.dynamic_windows
    }

    /// Why [`Self::run`] fell back to single slots instead of a proven
    /// window, counted per reason (see [`WindowRefusals`]). Diagnostic
    /// only: not carried by snapshots, so a restored machine starts
    /// from zero.
    pub fn window_refusals(&self) -> WindowRefusals {
        self.window_refusals
    }

    /// Why the windowed engine's per-slot pass checked an access instead
    /// of running it through the fused kernel, counted per reason (see
    /// [`AccessFallbacks`]). Diagnostic only: not carried by snapshots,
    /// so a restored machine starts from zero.
    pub fn access_fallbacks(&self) -> AccessFallbacks {
        self.access_fallbacks
    }

    /// Number of block offsets per bank.
    pub fn offsets(&self) -> usize {
        self.banks.offsets()
    }

    /// A zeroed block-sized buffer, recycled from [`Self::buf_pool`] when
    /// one is available.
    fn take_buf(&mut self) -> Box<[u64]> {
        match self.buf_pool.pop() {
            Some(mut buf) => {
                buf.fill(0);
                buf
            }
            None => vec![0; self.config.banks()].into_boxed_slice(),
        }
    }

    /// Return a block-sized buffer to the pool for reuse.
    #[inline]
    fn recycle_buf(&mut self, buf: Box<[u64]>) {
        debug_assert_eq!(buf.len(), self.config.banks());
        self.buf_pool.push(buf);
    }

    /// Whether processor `p` has an operation in flight.
    pub fn is_busy(&self, p: ProcId) -> bool {
        self.inflight[p].is_some()
    }

    /// Whether every processor is idle.
    pub fn is_idle(&self) -> bool {
        self.live.is_empty()
    }

    /// Read a block directly (debug/test access, not a timed operation).
    /// Follows the bank map: remapped words come from their spare bank,
    /// masked words read as 0.
    pub fn peek_block(&self, offset: BlockOffset) -> Vec<Word> {
        (0..self.config.banks())
            .map(|k| match self.bank_map.phys(k) {
                Some(ph) => self.banks.read(ph, offset),
                None => 0,
            })
            .collect()
    }

    /// Write a block directly (initialisation, not a timed operation).
    /// Follows the bank map; words of masked banks are dropped.
    pub fn poke_block(&mut self, offset: BlockOffset, words: &[Word]) {
        assert_eq!(words.len(), self.config.banks());
        for (k, &w) in words.iter().enumerate() {
            if let Some(ph) = self.bank_map.phys(k) {
                self.banks.write(ph, offset, w);
            }
        }
    }

    /// Snapshot every in-flight operation with its owning processor —
    /// the stall diagnostics [`crate::program::Runner`] attaches to
    /// [`crate::program::RunOutcome::BudgetExhausted`].
    pub fn pending_ops(&self) -> Vec<(ProcId, PendingOp)> {
        self.inflight
            .iter()
            .enumerate()
            .filter_map(|(p, slot)| {
                slot.as_ref().map(|op| {
                    (
                        p,
                        PendingOp {
                            kind: op.kind,
                            offset: op.offset,
                            issued_at: op.issued_at,
                            restarts: op.restarts,
                            last_progress: op.last_progress,
                        },
                    )
                })
            })
            .collect()
    }

    /// Issue a block operation on processor `p`. The first word access
    /// happens in the next simulated cycle — no alignment stall.
    pub fn issue(&mut self, p: ProcId, op: Operation) -> Result<(), IssueError> {
        let b = self.config.banks();
        if p >= self.config.processors() {
            return Err(IssueError::NoSuchProcessor);
        }
        if op.offset() >= self.offsets() {
            return Err(IssueError::NoSuchBlock);
        }
        if self.is_busy(p) {
            return Err(IssueError::Busy);
        }
        let (kind, offset, write_data, transform) = match op {
            Operation::Read { offset } => {
                (OpKind::Read, offset, Vec::new().into_boxed_slice(), None)
            }
            Operation::Write { offset, data } => {
                if data.len() != b {
                    return Err(IssueError::WrongBlockLength {
                        got: data.len(),
                        want: b,
                    });
                }
                (OpKind::Write, offset, data, None)
            }
            Operation::Swap { offset, data } => {
                if data.len() != b {
                    return Err(IssueError::WrongBlockLength {
                        got: data.len(),
                        want: b,
                    });
                }
                (OpKind::Swap, offset, data, None)
            }
            Operation::Rmw { offset, transform } => {
                if let Some(len) = transform.pattern_len() {
                    if len != b {
                        return Err(IssueError::WrongBlockLength { got: len, want: b });
                    }
                }
                // Pre-size the write buffer so the read→write transition
                // applies the transform into it without allocating.
                (OpKind::Rmw, offset, self.take_buf(), Some(transform))
            }
        };
        let phase = match kind {
            OpKind::Write => Phase::Write,
            _ => Phase::Read,
        };
        let op_id = self.next_op_id;
        self.next_op_id += 1;
        let read_buf = self.take_buf();
        let observed_writers = self.take_buf();
        self.proof.claim(offset, p, kind != OpKind::Read);
        self.inflight[p] = Some(InFlight {
            kind,
            offset,
            write_data,
            transform,
            phase,
            visited: 0,
            bank0_updated: false,
            read_buf,
            observed_writers,
            issued_at: self.cycle,
            restarts: 0,
            fault_retries: 0,
            op_id,
            completes_at: 0,
            sleep_until: 0,
            held_entry: None,
            outcome: Outcome::Completed,
            last_progress: self.cycle,
        });
        self.live.insert(p);
        self.stats.issued += 1;
        if let Some(t) = self.trace.as_mut() {
            t.record(TraceEvent::Issue {
                slot: self.cycle,
                proc: p,
                op_id,
                kind,
                offset,
            });
        }
        Ok(())
    }

    /// Take the oldest undelivered completion for processor `p`.
    pub fn poll(&mut self, p: ProcId) -> Option<Completion> {
        self.done[p].pop_front()
    }

    /// Simulate one CPU cycle (one time slot).
    ///
    /// Under the windowed engine ([`Engine::Windowed`], the default) the
    /// slot is one pass over the in-flight processors, in processor
    /// order, choosing per access: an access the O(1) hazard probe finds
    /// clean runs through the fused access kernel proven windows use,
    /// every other access through the checked path the sequential engine
    /// runs — byte-identical traces, stats and completions (see
    /// `docs/performance.md`). Proven multi-slot windows run only from
    /// [`Self::run`].
    pub fn step(&mut self) {
        let now = self.cycle;
        // Move the trace out of `self` so the hooks can borrow it as a
        // sink while the rest of the machine stays mutably accessible;
        // `NullSink` keeps the untraced path allocation-free.
        let mut active = self.trace.take();
        self.step_prologue(now, &mut active);
        match active.as_mut() {
            Some(trace) => self.step_procs(now, trace),
            None => self.step_procs(now, &mut NullSink),
        }
        self.step_epilogue(now, &mut active);
        self.trace = active;
        self.cycle += 1;
        self.stats.cycles += 1;
    }

    /// ATT expiry and fault-plan activation for slot `now` — shared by
    /// both engines.
    fn step_prologue(&mut self, now: Cycle, active: &mut Option<MemoryTrace>) {
        let mut null = NullSink;
        let sink: &mut dyn TraceSink = match active.as_mut() {
            Some(t) => t,
            None => &mut null,
        };
        // Sweep only once some entry can be due: an earlier sweep drops
        // nothing and records nothing.
        if now >= self.expiry_due {
            self.expiry_due =
                expire_atts(&mut self.atts, now, &self.inflight, &mut self.proof, sink);
        } else {
            debug_assert!(
                self.atts
                    .iter()
                    .filter_map(Att::next_expiry)
                    .all(|due| due > now),
                "skipped the ATT sweep with an entry due at slot {now}"
            );
        }
        // Activate fault-plan events due this slot. Permanent failures
        // reconfigure the bank map online; transient and response faults
        // latch in the fault state and strike at the access/delivery
        // points below.
        for kind in self.fault_state.advance(now) {
            self.stats.faults_injected += 1;
            match kind {
                FaultKind::DroppedResponse { .. } | FaultKind::CorruptedResponse { .. } => {}
                _ => sink.record(TraceEvent::Fault {
                    slot: now,
                    fault: kind,
                }),
            }
            if let FaultKind::PermanentBankFailure { bank } = kind {
                self.retire_bank(bank, now, sink);
            }
        }
    }

    /// Every in-flight processor's access at slot `now`, in processor
    /// order. The sequential engine checks every access
    /// ([`Self::step_proc`]). The windowed engine probes each access
    /// first and runs it through the fused kernel ([`Kernel::access`])
    /// when the probe finds it clean: no transient error on the routed
    /// bank `k`, no held ATT entry, and no other processor's entry for
    /// the offset in ATT `k`. A clean probe guarantees what the checked
    /// path would find — no retry, no read conflict, a `Proceed` write
    /// verdict — so both paths make the same events, bank commits and
    /// ATT inserts.
    ///
    /// Probing the live state at each processor's turn is sound: an
    /// earlier access in the same slot inserts only into its own bank's
    /// ATT (never `k`: the slot's banks are a permutation), and a
    /// restart or abandonment only removes entries.
    fn step_procs<S: TraceSink + ?Sized>(&mut self, now: Cycle, sink: &mut S) {
        let windowed = self.config.engine() == Engine::Windowed;
        let (b, c) = (self.config.banks(), self.config.bank_cycle() as usize);
        let first = (now % b as u64) as usize;
        // Seeded-fault hooks perturb individual accesses in ways the
        // probe does not model: the checked path takes those slots.
        let seeded = self.att_insert_drops > 0 || self.retry_suppressions > 0;
        let (mut fused, mut checked) = (0u64, 0u64);
        for i in 0..self.live.words.len() {
            for p in members(i, self.live.words[i]) {
                if windowed {
                    let op = self.inflight[p]
                        .as_ref()
                        .expect("live processors are in flight");
                    if op.phase == Phase::Drain || now < op.sleep_until {
                        continue;
                    }
                    // `bank(t, p) = (t + c·p) mod b`, and `c·p < b`.
                    let k = first + c * p;
                    let k = if k >= b { k - b } else { k };
                    let fallbacks = &mut self.access_fallbacks;
                    let reason = if seeded {
                        Some(&mut fallbacks.seeded)
                    } else if self.fault_state.transient_fault(now, k) {
                        Some(&mut fallbacks.transient)
                    } else if op.held_entry.is_some() {
                        Some(&mut fallbacks.held)
                    } else if self.att_enabled && self.atts[k].contended_by_other(op.offset, p) {
                        Some(&mut fallbacks.contended)
                    } else {
                        None
                    };
                    let Some(count) = reason else {
                        let (mut kernel, inflight, _) = self.kernel();
                        let op = inflight[p].as_mut().expect("live processors are in flight");
                        kernel.access(op, p, k, now, sink);
                        fused += 1;
                        continue;
                    };
                    *count += 1;
                    checked += 1;
                }
                self.step_proc(p, now, sink);
            }
        }
        if fused > 0 {
            if checked == 0 {
                self.parallel_slots += 1;
            } else {
                self.access_fallbacks.mixed_slots += 1;
            }
        }
    }

    /// Processor `p`'s access at slot `now` on the checked path — the
    /// sequential engine's per-access semantics, which the fused kernel
    /// must match: route, transient-fault retry, bank access, the ATT
    /// comparison and the restart, abort or backoff it decides.
    fn step_proc<S: TraceSink + ?Sized>(&mut self, p: ProcId, now: Cycle, sink: &mut S) {
        let b = self.config.banks();
        let Some(mut op) = self.inflight[p].take() else {
            return;
        };
        if op.phase == Phase::Drain || now < op.sleep_until {
            self.inflight[p] = Some(op);
            return;
        }
        let k = self.space.route_traced(now, p, sink);
        // Transient bank error: the access fails before injecting.
        // Retry with exponential slot-backoff, bounded; a suppressed
        // retry (seeded fault) proceeds with a corrupted word.
        let corrupt_mask: Word = if self.fault_state.transient_fault(now, k) {
            if self.retry_suppressions > 0 {
                self.retry_suppressions -= 1;
                CORRUPT_MASK
            } else {
                self.transient_retry(&mut op, p, k, now, sink);
                self.inflight[p] = Some(op);
                return;
            }
        } else {
            0
        };
        // The physical bank serving logical bank `k`; a masked bank
        // (dead, no spare) skips the word access — that word of the
        // block is lost in spare-less degraded mode.
        let phys = self.bank_map.phys(k);
        if let Some(ph) = phys {
            if !self.banks.note_injection(ph, now) {
                // Impossible under the AT-space schedule; recorded, not fatal.
                self.stats.bank_conflicts += 1;
            }
            self.stats.word_accesses += 1;
        } else {
            self.stats.masked_accesses += 1;
        }
        op.last_progress = now;
        match op.phase {
            Phase::Read => {
                let conflict = self
                    .att_enabled
                    .then(|| self.atts[k].read_conflict(op.offset, p, now))
                    .flatten();
                if let Some(blocker) = conflict {
                    // Restart the read from the next bank; for a swap,
                    // the whole operation restarts (Fig 4.6a).
                    sink.record(TraceEvent::AttMerge {
                        slot: now,
                        bank: k,
                        proc: p,
                        op_id: op.op_id,
                        offset: op.offset,
                        blocker_proc: blocker.proc,
                        blocker_inserted_at: blocker.inserted_at,
                        action: MergeAction::ReadRestart,
                    });
                    self.stats.wasted_word_accesses += op.visited as u64 + 1;
                    if matches!(op.kind, OpKind::Swap | OpKind::Rmw) {
                        self.stats.swap_restarts += 1;
                    } else {
                        self.stats.read_restarts += 1;
                    }
                    op.restarts += 1;
                    op.visited = 0;
                    self.proof.sleeps_until(op.sleep_until);
                } else {
                    match phys {
                        Some(ph) => {
                            op.read_buf[k] = self
                                .banks
                                .read_traced(ph, op.offset, now, k, p, op.op_id, sink)
                                ^ corrupt_mask;
                            op.observed_writers[k] = self.banks.writer(ph, op.offset);
                        }
                        None => {
                            op.read_buf[k] = 0;
                            op.observed_writers[k] = MASKED_WRITER;
                        }
                    }
                    op.visited += 1;
                    if op.visited == b {
                        if matches!(op.kind, OpKind::Swap | OpKind::Rmw) {
                            // §4.2.1: the modification is computed in a
                            // pipelined fashion, so the write phase
                            // starts with no extra delay.
                            if let Some(t) = &op.transform {
                                t.apply_into(&op.read_buf, &mut op.write_data);
                            }
                            op.phase = Phase::Write;
                            op.visited = 0;
                            op.bank0_updated = false;
                        } else {
                            op.phase = Phase::Drain;
                            op.completes_at = now + self.config.bank_cycle() as u64 - 1;
                        }
                    }
                }
            }
            Phase::Write => {
                if op.visited == 0 && self.att_enabled {
                    // A resumed fault-stalled phase re-protects itself
                    // with a fresh entry; the held one is released.
                    if let Some((bank, at)) = op.held_entry.take() {
                        self.atts[bank].remove_traced(op.offset, p, at, now, bank, sink);
                        self.proof.held -= 1;
                    }
                    if self.att_insert_drops > 0 {
                        self.att_insert_drops -= 1;
                    } else {
                        self.atts[k].insert_traced(
                            Entry {
                                offset: op.offset,
                                kind: track_kind(op.kind),
                                proc: p,
                                inserted_at: now,
                            },
                            k,
                            op.op_id,
                            sink,
                        );
                        // The entry expires `b` slots on.
                        self.expiry_due = self.expiry_due.min(now + b as u64);
                    }
                }
                let verdict = if self.att_enabled {
                    self.atts[k].write_verdict(
                        self.mode,
                        op.offset,
                        p,
                        now,
                        op.visited as u64,
                        op.bank0_updated,
                        // Write-phase accesses are consecutive, so the
                        // phase began `visited` cycles ago.
                        now - op.visited as u64,
                    )
                } else {
                    WriteVerdict::Proceed
                };
                match verdict {
                    WriteVerdict::Proceed => {
                        if let Some(ph) = phys {
                            self.banks.write_traced(
                                ph,
                                op.offset,
                                op.write_data[k] ^ corrupt_mask,
                                now,
                                k,
                                p,
                                op.op_id,
                                sink,
                            );
                            self.banks.stamp(ph, op.offset, op.op_id);
                        }
                        op.bank0_updated |= k == 0;
                        op.visited += 1;
                        if op.visited == b {
                            op.phase = Phase::Drain;
                            op.completes_at = now + self.config.bank_cycle() as u64 - 1;
                        }
                    }
                    WriteVerdict::Abort { blocker } => {
                        sink.record(TraceEvent::AttMerge {
                            slot: now,
                            bank: k,
                            proc: p,
                            op_id: op.op_id,
                            offset: op.offset,
                            blocker_proc: blocker.proc,
                            blocker_inserted_at: blocker.inserted_at,
                            action: MergeAction::WriteAbort,
                        });
                        self.stats.wasted_word_accesses += op.visited as u64 + 1;
                        self.stats.write_aborts += 1;
                        op.outcome = Outcome::Overwritten;
                        op.phase = Phase::Drain;
                        op.completes_at = now;
                    }
                    WriteVerdict::Restart { blocker } => {
                        sink.record(TraceEvent::AttMerge {
                            slot: now,
                            bank: k,
                            proc: p,
                            op_id: op.op_id,
                            offset: op.offset,
                            blocker_proc: blocker.proc,
                            blocker_inserted_at: blocker.inserted_at,
                            action: MergeAction::WriteRestart,
                        });
                        self.stats.wasted_word_accesses += op.visited as u64 + 1;
                        op.restarts += 1;
                        // Withdraw our own entry: a backed-off write is
                        // no longer a competitor, and its stale entry
                        // would otherwise keep killing other writers
                        // (3-writer livelock; see att.rs docs).
                        let phase_start = now - op.visited as u64;
                        let start_bank = self.space.bank_for(phase_start, p);
                        self.atts[start_bank].remove_traced(
                            op.offset,
                            p,
                            phase_start,
                            now,
                            start_bank,
                            sink,
                        );
                        op.visited = 0;
                        op.bank0_updated = false;
                        // Back off until the blocker's entry expires
                        // (one full ATT lifetime after its insertion).
                        op.sleep_until = blocker.inserted_at + b as u64;
                        if matches!(op.kind, OpKind::Swap | OpKind::Rmw) {
                            self.stats.swap_restarts += 1;
                            op.phase = Phase::Read;
                        } else {
                            self.stats.write_restarts += 1;
                        }
                        self.proof.sleeps_until(op.sleep_until);
                    }
                }
            }
            Phase::Drain => unreachable!(),
        }
        self.inflight[p] = Some(op);
    }

    /// Whether `op`, delivered by processor `p` at slot `now`, leaves the
    /// ATT entry of its last write phase live behind it. Only a phase
    /// whose final access (or latest-wins abort) fell less than `b` slots
    /// ago can: an entry lives `b` slots. With `c = 1` every completed
    /// write leaves its entry for one more slot.
    fn entry_survives(&self, p: ProcId, op: &InFlight, now: Cycle) -> bool {
        if op.kind == OpKind::Read || !self.att_enabled {
            return false;
        }
        let b = self.config.banks();
        let (last, visited) = (op.last_progress, op.visited as u64);
        // A response fault moves `last_progress` and delays delivery by
        // `b` slots, which the entry never outlives.
        let inserted_at = match op.outcome {
            // The phase's `b`-th access, delivered in its own slot (so
            // `c = 1`): the phase began `b − 1` slots ago.
            Outcome::Completed if now == last => now + 1 - b as u64,
            // A latest-wins abort `visited` accesses into the phase.
            Outcome::Overwritten if now - last + visited < b as u64 => last - visited,
            _ => return false,
        };
        self.atts[self.space.bank_for(inserted_at, p)].has_entry(op.offset, p, inserted_at)
    }

    /// Deliver completions whose pipeline has drained by the end of this
    /// cycle, freeing the processor for a back-to-back issue — shared by
    /// both engines. The pass also counts the operations left draining,
    /// for the window proof.
    fn step_epilogue(&mut self, now: Cycle, active: &mut Option<MemoryTrace>) {
        let b = self.config.banks();
        let mut null = NullSink;
        let sink: &mut dyn TraceSink = match active.as_mut() {
            Some(t) => t,
            None => &mut null,
        };
        let mut draining = 0;
        for i in 0..self.live.words.len() {
            for p in members(i, self.live.words[i]) {
                let Some(op) = &self.inflight[p] else {
                    unreachable!("live processors are in flight")
                };
                if op.phase != Phase::Drain {
                    continue;
                }
                if op.completes_at > now {
                    draining += 1;
                    continue;
                }
                // Response-path fault: the completion is not delivered —
                // ECC detects the loss/corruption and the buffered
                // response is retransmitted one AT-space period later
                // (the banks are untouched, so non-idempotent RMWs are
                // never re-executed).
                if let Some(kind) = self.fault_state.take_response_fault(p) {
                    match kind {
                        FaultKind::DroppedResponse { .. } => self.stats.dropped_responses += 1,
                        FaultKind::CorruptedResponse { .. } => self.stats.corrupted_responses += 1,
                        _ => {}
                    }
                    sink.record(TraceEvent::Fault {
                        slot: now,
                        fault: kind,
                    });
                    let op = self.inflight[p].as_mut().expect("checked above");
                    op.completes_at = now + b as u64;
                    op.restarts += 1;
                    op.last_progress = now;
                    draining += 1;
                    continue;
                }
                let mut op = self.inflight[p].take().expect("checked above");
                self.live.remove(p);
                // Defensive: no delivered operation may leave a pinned
                // ATT entry behind (reachable only if the seeded
                // insert-drop hook swallowed the resume re-insert).
                if let Some((bank, at)) = op.held_entry.take() {
                    self.atts[bank].remove_traced(op.offset, p, at, now, bank, sink);
                    self.proof.held -= 1;
                }
                // The operation's claim passes to the ATT entry it leaves
                // behind (both claim the offset as writer `p`), until the
                // expiry sweep drops that entry; otherwise it ends here.
                if !self.entry_survives(p, &op, now) {
                    self.proof.release(op.offset, p, op.kind != OpKind::Read);
                }
                let torn = if matches!(op.kind, OpKind::Read | OpKind::Swap | OpKind::Rmw)
                    && op.outcome == Outcome::Completed
                {
                    // Masked-bank words carry the sentinel writer stamp:
                    // they are lost, not torn, and must not mix into the
                    // distinct-writers scan (allocation-free: torn iff two
                    // non-masked stamps differ).
                    let mut stamps = op.observed_writers.iter().filter(|w| **w != MASKED_WRITER);
                    match stamps.next() {
                        Some(first) => stamps.any(|w| w != first),
                        None => false,
                    }
                } else {
                    false
                };
                // Reads hand their buffer to the completion; every other
                // buffer goes back to the pool for the next issue.
                let data = match op.kind {
                    OpKind::Read | OpKind::Swap | OpKind::Rmw => Some(op.read_buf),
                    OpKind::Write => {
                        self.recycle_buf(op.read_buf);
                        None
                    }
                };
                self.recycle_buf(op.observed_writers);
                if !op.write_data.is_empty() {
                    self.recycle_buf(op.write_data);
                }
                if torn {
                    self.stats.torn_reads += 1;
                }
                self.stats.completed += 1;
                sink.record(TraceEvent::Complete {
                    slot: now,
                    proc: p,
                    op_id: op.op_id,
                    kind: op.kind,
                    offset: op.offset,
                    issued_at: op.issued_at,
                    restarts: op.restarts,
                    completed: op.outcome == Outcome::Completed,
                    torn,
                });
                self.undrained.insert(p);
                self.done[p].push_back(Completion {
                    proc: p,
                    kind: op.kind,
                    offset: op.offset,
                    data,
                    issued_at: op.issued_at,
                    completed_at: op.completes_at,
                    restarts: op.restarts,
                    outcome: op.outcome,
                    torn,
                });
            }
        }
        self.proof.draining = draining;
    }

    /// Online graceful degradation for a permanent bank failure: remap
    /// the logical bank onto a spare (copying its committed words) or,
    /// with no spare left, mask it.
    fn retire_bank(&mut self, logical: BankId, now: Cycle, sink: &mut dyn TraceSink) {
        match self.bank_map.retire(logical) {
            RetireAction::Remapped { old, new } => {
                if self.skip_remap_copy {
                    self.skip_remap_copy = false;
                } else {
                    self.banks.copy_bank(old, new);
                }
                self.stats.bank_remaps += 1;
                sink.record(TraceEvent::BankRemap {
                    slot: now,
                    bank: logical,
                    old_phys: old,
                    new_phys: Some(new),
                });
            }
            RetireAction::Masked { old } => {
                self.stats.banks_masked += 1;
                sink.record(TraceEvent::BankRemap {
                    slot: now,
                    bank: logical,
                    old_phys: old,
                    new_phys: None,
                });
            }
            RetireAction::AlreadyDead => {}
        }
    }

    /// A transient bank error hit `op`'s injection into logical bank `k`:
    /// restart the phase with exponential slot-backoff, or — past the
    /// bounded retry budget — abandon the operation with
    /// [`Outcome::TransientFault`].
    ///
    /// A fault mid-write-phase leaves a *partially committed* block in
    /// memory, so the op's ATT entry must not be withdrawn (as an
    /// ATT-forced restart would) — it is **held** ([`Att::hold`]): it
    /// keeps arbitrating past its normal lifetime so concurrent readers
    /// restart and later writers defer instead of observing the torn
    /// block. For the same reason a faulted swap/RMW write phase does
    /// *not* re-read: the pre-image it computed its modification from
    /// was partially overwritten by its own aborted sweep, and re-reading
    /// would re-apply the RMW. The resumed phase rewrites the whole block
    /// from the cached `write_data` — idempotent, because the held entry
    /// kept every competitor off the block.
    fn transient_retry<S: TraceSink + ?Sized>(
        &mut self,
        op: &mut InFlight,
        p: ProcId,
        k: BankId,
        now: Cycle,
        sink: &mut S,
    ) {
        op.last_progress = now;
        op.fault_retries += 1;
        self.stats.fault_retries += 1;
        self.stats.wasted_word_accesses += op.visited as u64;
        if op.phase == Phase::Write && op.visited > 0 && self.att_enabled {
            let phase_start = now - op.visited as u64;
            let start_bank = self.space.bank_for(phase_start, p);
            self.atts[start_bank].hold(op.offset, p, phase_start);
            if op.held_entry.replace((start_bank, phase_start)).is_none() {
                self.proof.held += 1;
            }
        }
        if op.fault_retries > MAX_FAULT_RETRIES {
            self.stats.fault_aborts += 1;
            op.outcome = Outcome::TransientFault;
            op.phase = Phase::Drain;
            op.completes_at = now;
            // The abandoned block stays torn; release the held entry so
            // the loss becomes observable instead of wedging the offset.
            if let Some((bank, at)) = op.held_entry.take() {
                self.atts[bank].remove_traced(op.offset, p, at, now, bank, sink);
                self.proof.held -= 1;
            }
            return;
        }
        let backoff = 1u64 << op.fault_retries.min(FAULT_BACKOFF_CAP);
        sink.record(TraceEvent::FaultRetry {
            slot: now,
            proc: p,
            op_id: op.op_id,
            bank: k,
            attempt: op.fault_retries,
            backoff,
        });
        op.restarts += 1;
        op.visited = 0;
        op.bank0_updated = false;
        op.sleep_until = now + backoff;
        self.proof.sleeps_until(op.sleep_until);
    }

    /// Issue one operation and run it to completion (single-op driver
    /// for tests and examples; other processors must be idle or their
    /// completions are delivered to their queues as usual).
    ///
    /// # Panics
    /// If the processor is busy or the operation fails to complete
    /// within a generous budget (see [`Self::try_execute`] for the
    /// non-panicking form).
    pub fn execute(&mut self, p: ProcId, op: Operation) -> Completion {
        match self.try_execute(p, op) {
            Ok(c) => c,
            Err(stall) => panic!("{stall}"),
        }
    }

    /// [`Self::execute`] returning a typed [`StallError`] instead of
    /// panicking when the operation fails to complete within a generous
    /// budget. The error carries the pending operation, the owning
    /// processor, and the last slot at which the machine made observable
    /// progress on it.
    pub fn try_execute(
        &mut self,
        p: ProcId,
        op: Operation,
    ) -> Result<Completion, StallError<Operation>> {
        self.issue(p, op).expect("processor accepted operation");
        const BUDGET: u64 = 1_000_000;
        for _ in 0..BUDGET {
            self.step();
            if let Some(c) = self.poll(p) {
                return Ok(c);
            }
        }
        // Stalled. Reconstruct the operation for the diagnostic from its
        // in-flight state (present by construction: a delivered completion
        // would have been polled above) — the completing path never clones.
        let f = self.inflight[p]
            .as_ref()
            .expect("stalled operation is still in flight");
        let last_progress = f.last_progress;
        let op = match f.kind {
            OpKind::Read => Operation::Read { offset: f.offset },
            OpKind::Write => Operation::Write {
                offset: f.offset,
                data: f.write_data.clone(),
            },
            OpKind::Swap => Operation::Swap {
                offset: f.offset,
                data: f.write_data.clone(),
            },
            OpKind::Rmw => Operation::Rmw {
                offset: f.offset,
                transform: f.transform.clone().expect("an RMW keeps its transform"),
            },
        };
        Err(StallError {
            op,
            proc: p,
            last_progress,
            waited: BUDGET,
        })
    }

    /// Attempt the next slots as one proven window — the machine's only
    /// window proof. The `fault`, `op_busy` and `hazard` refusals are
    /// decided in O(1) from [`WindowProof`], the state the machine keeps
    /// current where the proof's inputs change; the width is one pass
    /// over the in-flight operations, made only once none is busy. Proves a
    /// window of `w` slots conflict-free at runtime, for any program,
    /// analyzable or not. Returns the slots executed (0 = refused or
    /// nothing in flight; the caller falls back to [`Self::step`]), and
    /// counts each refusal under its reason ([`WindowRefusals`]).
    ///
    /// Soundness: with every in-flight operation mid-phase (not
    /// draining, sleeping, or holding an ATT entry), the fault state
    /// and seeded hooks quiescent, and the width stopping strictly
    /// before any final access, the only remaining hazards are offset
    /// collisions — a foreign ATT entry (in *any* bank: an operation
    /// sweeps all `b` ATTs across a window) or two in-flight
    /// operations interested in the same offset with a writer among
    /// them. Those interests are **time-invariant inside the window**:
    /// entries only expire, and the only inserts are the in-flight
    /// writers' own, each on an offset proved exclusive to its
    /// processor. A hazard-free proof therefore guarantees what the
    /// sequential loop would discover slot by slot — every
    /// `read_conflict` is `None`, every write verdict is `Proceed` — so
    /// the whole window commits without a single per-access check.
    ///
    /// The incremental state counts an ATT entry only once it outlives
    /// its owner's delivery: while the owner is in flight, its own
    /// writer claim on the offset says everything the entry would. In
    /// debug builds every attempt first audits that state against a full
    /// scan of the ATTs and in-flight operations
    /// ([`Self::check_window_proof`]).
    fn try_step_window(&mut self, budget: u64) -> u64 {
        if self.config.engine() != Engine::Windowed {
            return 0;
        }
        #[cfg(debug_assertions)]
        if let Err(e) = self.check_window_proof() {
            panic!("window proof out of sync at slot {}: {e}", self.cycle);
        }
        if self.att_insert_drops > 0
            || self.retry_suppressions > 0
            || !self.fault_state.is_idle(self.cycle)
        {
            self.window_refusals.fault += 1;
            return 0;
        }
        if self.proof.busy(self.cycle) {
            self.window_refusals.op_busy += 1;
            return 0;
        }
        let b = self.config.banks();
        let mut min_remaining = u64::MAX;
        for p in self.live.iter() {
            let op = self.inflight[p]
                .as_ref()
                .expect("live processors are in flight");
            min_remaining = min_remaining.min(accesses_left(op.kind, op.phase, op.visited, b));
        }
        if min_remaining == u64::MAX {
            return 0;
        }
        // The window stops before the first final access.
        let w = (min_remaining - 1).min(budget);
        if w < 2 {
            // A 1-slot window saves nothing over the ordinary step.
            self.window_refusals.short += 1;
            return 0;
        }
        if self.proof.hazardous() {
            self.window_refusals.hazard += 1;
            return 0;
        }
        self.step_window(w);
        w
    }

    /// [`WindowProof`] rebuilt from scratch: every
    /// in-flight operation's claim and busy state, and a
    /// writer claim for every ATT entry (live or held) its owner no
    /// longer covers — what restore installs and what the debug audit
    /// compares against.
    fn rebuilt_proof(&self) -> WindowProof {
        let mut proof = WindowProof::new(self.offsets());
        for p in self.live.iter() {
            let op = self.inflight[p]
                .as_ref()
                .expect("live processors are in flight");
            proof.claim(op.offset, p, op.kind != OpKind::Read);
            proof.draining += usize::from(op.phase == Phase::Drain);
            proof.held += usize::from(op.held_entry.is_some());
            proof.sleeps_until(op.sleep_until);
        }
        for att in &self.atts {
            for e in att.entries().chain(att.held_entries()) {
                if !owned(&self.inflight, e) {
                    proof.claim(e.offset, e.proc, true);
                }
            }
        }
        proof
    }

    /// Audit the window proof's incremental state (debug and unit-test
    /// builds only): the state equals the same state rebuilt from
    /// scratch, and its hazard verdict equals a full scan of every ATT
    /// entry (live and held) and every in-flight operation. Holds at
    /// every step boundary; [`Self::run`] asserts it before each window
    /// attempt. Returns what disagreed.
    #[cfg(any(debug_assertions, test))]
    pub fn check_window_proof(&self) -> Result<(), String> {
        let rebuilt = self.rebuilt_proof();
        if !self.proof.agrees(&rebuilt, self.cycle) {
            return Err(format!(
                "incremental state {} differs from the rebuilt {}",
                self.proof.summary(),
                rebuilt.summary()
            ));
        }
        let scan = self.hazard_scan();
        if scan != self.proof.hazardous() {
            return Err(format!(
                "full scan says hazard = {scan}, the incremental state {}",
                self.proof.hazardous()
            ));
        }
        Ok(())
    }

    /// The full hazard scan the incremental state replaces: an offset is
    /// hazardous iff two or more distinct processors claim it — through
    /// an ATT entry (live or held, always a writer) or an in-flight
    /// operation (a writer unless a plain read) — and one claim writes.
    #[cfg(any(debug_assertions, test))]
    fn hazard_scan(&self) -> bool {
        const MANY: ProcId = ProcId::MAX;
        let mut seen = std::collections::HashMap::<BlockOffset, (ProcId, bool)>::new();
        let entries = self
            .atts
            .iter()
            .flat_map(|a| a.entries().chain(a.held_entries()))
            .map(|e| (e.offset, e.proc, true));
        let ops = self.live.iter().map(|p| {
            let op = self.inflight[p]
                .as_ref()
                .expect("live processors are in flight");
            (op.offset, p, op.kind != OpKind::Read)
        });
        entries.chain(ops).any(|(offset, p, writes)| {
            let (owner, writer) = seen.entry(offset).or_insert((p, false));
            if *owner != p {
                *owner = MANY;
            }
            *writer |= writes;
            *owner == MANY && *writer
        })
    }

    /// Execute `w` consecutive slots of a proven window.
    ///
    /// [`Self::try_step_window`] proved the window inert: no operation
    /// completes, restarts, sleeps, or meets any ATT verdict other than
    /// an implicit `Proceed` inside it, and no offset is both written
    /// and observed by different processors. The window runs as one fused pass per slot
    /// ([`Self::window_inline`]).
    fn step_window(&mut self, w: u64) {
        let mut active = self.trace.take();
        match active.as_mut() {
            Some(trace) => self.window_inline(w, trace),
            None => self.window_inline(w, &mut NullSink),
        }
        self.trace = active;
        self.cycle += w;
        self.stats.cycles += w;
        self.parallel_slots += w;
        self.dynamic_slots += w;
        self.dynamic_windows += 1;
    }

    /// The machine state the fused access kernel mutates, borrowed apart
    /// from the in-flight table so a slot can walk the operations while
    /// it commits their accesses, and from the window proof, which only
    /// the expiry sweep between a window's slots updates.
    fn kernel(&mut self) -> (Kernel<'_>, &mut [Option<InFlight>], &mut WindowProof) {
        let CfmMachine {
            config,
            banks,
            atts,
            inflight,
            stats,
            att_enabled,
            bank_map,
            expiry_due,
            proof,
            ..
        } = self;
        let kernel = Kernel {
            atts,
            banks,
            bank_map,
            stats,
            expiry_due,
            att_enabled: *att_enabled,
            banks_per_block: config.banks(),
            bank_cycle: u64::from(config.bank_cycle()),
        };
        (kernel, inflight, proof)
    }

    /// Run `w` slots of a proven window: one pass per slot against the
    /// live banks — ATT expiry (on slots where an entry can be due, as in
    /// [`Self::step_prologue`], withdrawing the claims of entries that
    /// outlived their owners), then
    /// every in-flight operation's access, in processor order, through
    /// the fused access kernel ([`Kernel::access`]).
    ///
    /// The window proof discharged every per-access check, and the width
    /// stops before any operation's final access, so no operation enters
    /// its drain inside a window. Reading the live banks is sound because
    /// no offset is both written and observed by different processors,
    /// so every read sees what the sequential engine's read sees.
    fn window_inline<S: TraceSink + ?Sized>(&mut self, w: u64, sink: &mut S) {
        let b = self.config.banks();
        let c = self.config.bank_cycle() as usize;
        let now = self.cycle;
        let (mut kernel, inflight, proof) = self.kernel();
        for t in now..now + w {
            if t >= *kernel.expiry_due {
                *kernel.expiry_due = expire_atts(kernel.atts, t, inflight, proof, sink);
            }
            // The dense zip over every slot, not the live set: in-window
            // most processors are live, and the zip's incremental bank
            // walk beats a bitset walk's per-member bank computation.
            for ((p, slot), k) in inflight.iter_mut().enumerate().zip(slot_banks(t, b, c)) {
                if let Some(op) = slot.as_mut() {
                    kernel.access(op, p, k, t, sink);
                    debug_assert!(
                        op.phase != Phase::Drain,
                        "a window stops before every final access"
                    );
                }
            }
        }
    }

    /// Step until every processor is idle (or `max_cycles` elapse).
    /// Completions arrive in delivery order; [`RunReport::outcome`] says
    /// whether the machine went idle or the budget ran out with
    /// operations still in flight.
    pub fn run(&mut self, max_cycles: u64) -> RunReport {
        let mut completions = Vec::new();
        let mut used = 0u64;
        while used < max_cycles {
            if self.is_idle() {
                break;
            }
            // Under the windowed engine, run whole windows proven at
            // runtime (see `try_step_window`); any slot the proof does not cover
            // falls back to the ordinary per-slot step.
            let advanced = self.try_step_window(max_cycles - used);
            if advanced == 0 {
                self.step();
                used += 1;
            } else {
                used += advanced;
            }
            // Collect in processor order, as delivered since the last
            // pass (or queued before the run).
            for i in 0..self.undrained.words.len() {
                let word = std::mem::take(&mut self.undrained.words[i]);
                for p in members(i, word) {
                    completions.extend(self.done[p].drain(..));
                }
            }
        }
        let outcome = if self.is_idle() {
            RunStatus::Idle
        } else {
            RunStatus::CycleBudgetExhausted {
                pending: self.pending_ops(),
            }
        };
        RunReport {
            completions,
            outcome,
        }
    }
}

/// Checkpoint/restore — the machine side of [`crate::snapshot`]. The
/// snapshot types live there; the code lives here because it reads and
/// rebuilds the module-private `InFlight` and `Phase` state.
impl CfmMachine {
    /// Whether the machine is *quiescent*: no operation in flight and
    /// every ATT arbitration window — live and held entries alike —
    /// empty. This is the precondition for a cross-shape
    /// [`MachineSnapshot::restore_into`]. Strictly stronger than
    /// [`Self::is_idle`]: ATT entries outlive the operations that
    /// inserted them by up to `b − 1` slots, so an idle machine may
    /// still carry live arbitration state. Undelivered completions do
    /// not block quiescence (they are at rest and restore verbatim).
    pub fn is_quiescent(&self) -> bool {
        self.is_idle()
            && self
                .atts
                .iter()
                .all(|a| a.entries().next().is_none() && a.held_entries().is_empty())
    }

    /// Drive the machine to quiescence: step until in-flight operations
    /// complete *and* the ATT windows they armed expire. Returns `true`
    /// once [`Self::is_quiescent`] holds, `false` if `max_cycles` slots
    /// pass first (e.g. an operation is starved by an adversarial fault
    /// plan). Completions produced while draining queue for
    /// [`Self::poll`] as usual — quiescing loses nothing.
    pub fn quiesce(&mut self, max_cycles: u64) -> bool {
        for _ in 0..max_cycles {
            if self.is_quiescent() {
                return true;
            }
            self.step();
        }
        self.is_quiescent()
    }

    /// Capture the complete machine state into a [`MachineSnapshot`]:
    /// the committed memory image and writer stamps (physical banks,
    /// spares included), every ATT entry (held ones too), in-flight
    /// operations, undelivered completions, statistics and the live
    /// fault state. Checkpointing happens at a step
    /// boundary and does not perturb the machine — `checkpoint` then
    /// [`MachineSnapshot::restore`] continues byte-identically to the
    /// uninterrupted run.
    ///
    /// The recorded trace is *not* captured (a snapshot is machine
    /// state, not history): take it with [`Self::drain_trace`] before
    /// checkpointing; the restored machine resumes tracing (empty) if
    /// tracing was on.
    pub fn checkpoint(&self) -> MachineSnapshot {
        let offsets = self.offsets();
        let n = self.config.processors();
        let (fault_next, transient_until, pending_responses) = self.fault_state.snapshot_parts();
        let (map, free_spares) = self.bank_map.parts();
        let atts = self
            .atts
            .iter()
            .map(|a| {
                let mut live: Vec<Entry> = a.entries().copied().collect();
                live.reverse(); // store oldest first; restore re-inserts in order
                AttState {
                    live,
                    held: a.held_entries().to_vec(),
                }
            })
            .collect();
        let inflight = self
            .inflight
            .iter()
            .map(|slot| {
                slot.as_ref().map(|op| InFlightState {
                    kind: op.kind,
                    offset: op.offset,
                    write_data: op.write_data.to_vec(),
                    transform: op.transform.clone(),
                    phase: match op.phase {
                        Phase::Read => 0,
                        Phase::Write => 1,
                        Phase::Drain => 2,
                    },
                    visited: op.visited,
                    bank0_updated: op.bank0_updated,
                    read_buf: op.read_buf.to_vec(),
                    observed_writers: op.observed_writers.to_vec(),
                    issued_at: op.issued_at,
                    restarts: op.restarts,
                    fault_retries: op.fault_retries,
                    op_id: op.op_id,
                    completes_at: op.completes_at,
                    sleep_until: op.sleep_until,
                    held_entry: op.held_entry,
                    outcome: op.outcome,
                    last_progress: op.last_progress,
                })
            })
            .collect();
        MachineSnapshot {
            processors: n,
            bank_cycle: self.config.bank_cycle(),
            word_width: self.config.word_width(),
            spares: self.config.spares(),
            engine: self.config.engine(),
            offsets,
            att_enabled: self.att_enabled,
            mode: self.mode,
            tracing: self.trace.is_some(),
            cycle: self.cycle,
            next_op_id: self.next_op_id,
            stats: self.stats,
            parallel_slots: self.parallel_slots,
            dynamic_slots: self.dynamic_slots,
            dynamic_windows: self.dynamic_windows,
            att_insert_drops: self.att_insert_drops,
            retry_suppressions: self.retry_suppressions,
            skip_remap_copy: self.skip_remap_copy,
            bank_words: (0..self.banks.banks())
                .map(|ph| (0..offsets).map(|o| self.banks.read(ph, o)).collect())
                .collect(),
            writer_ids: (0..self.banks.banks())
                .map(|ph| (0..offsets).map(|o| self.banks.writer(ph, o)).collect())
                .collect(),
            map: map.to_vec(),
            free_spares: free_spares.to_vec(),
            atts,
            plan_seed: self.fault_state.plan().seed(),
            plan_events: self.fault_state.plan().events().to_vec(),
            fault_next,
            transient_until: transient_until.to_vec(),
            pending_responses: pending_responses
                .iter()
                .map(|q| q.iter().copied().collect())
                .collect(),
            inflight,
            done: self
                .done
                .iter()
                .map(|q| q.iter().cloned().collect())
                .collect(),
        }
    }

    /// The restore engine behind [`MachineSnapshot::restore_into`].
    pub(crate) fn restore_impl(
        s: &MachineSnapshot,
        target: CfmConfig,
    ) -> Result<CfmMachine, SnapshotError> {
        Self::validate_snapshot(s)?;
        let same_shape = target.processors() == s.processors
            && target.bank_cycle() == s.bank_cycle
            && target.spares() == s.spares;
        if same_shape {
            Self::restore_same_shape(s, target)
        } else {
            Self::restore_cross_shape(s, target)
        }
    }

    /// Structural consistency of a decoded snapshot: every dimension
    /// agrees with the recorded shape. The byte codec cannot enforce
    /// these cross-field facts, so restore checks them before touching
    /// any state.
    fn validate_snapshot(s: &MachineSnapshot) -> Result<(), SnapshotError> {
        let b = s.bank_cycle as usize * s.processors;
        let physical = b + s.spares;
        let bad = |what: &'static str| Err(SnapshotError::Malformed { what });
        if s.atts.len() != b {
            return bad("ATT count");
        }
        if s.map.len() != b || s.map.iter().flatten().any(|&p| p >= physical) {
            return bad("bank map");
        }
        if s.free_spares.iter().any(|&p| p >= physical) {
            return bad("free spare index");
        }
        if s.bank_words.len() != physical || s.writer_ids.len() != physical {
            return bad("bank image shape");
        }
        if s.bank_words.iter().any(|r| r.len() != s.offsets)
            || s.writer_ids.iter().any(|r| r.len() != s.offsets)
        {
            return bad("bank row length");
        }
        if s.transient_until.len() != b {
            return bad("transient latches");
        }
        if s.inflight.len() != s.processors
            || s.done.len() != s.processors
            || s.pending_responses.len() != s.processors
        {
            return bad("per-processor state");
        }
        for op in s.inflight.iter().flatten() {
            // Reads carry no write data; everything else owns a full block.
            let wd_ok = op.write_data.is_empty() || op.write_data.len() == b;
            if !wd_ok || op.read_buf.len() != b || op.observed_writers.len() != b {
                return bad("in-flight buffers");
            }
        }
        Ok(())
    }

    /// Same shape (processors, bank cycle, spares): verbatim restore.
    /// The engine may differ.
    fn restore_same_shape(
        s: &MachineSnapshot,
        target: CfmConfig,
    ) -> Result<CfmMachine, SnapshotError> {
        // Prove the carried map injective *before* building the machine:
        // an aliased map is a typed refusal, never a silent alias.
        let physical = target.total_banks();
        let bank_map = BankMap::from_parts(s.map.clone(), s.free_spares.clone(), physical);
        bank_map.check_injective()?;
        let mut m = CfmMachine::construct(target, s.offsets, s.att_enabled, s.mode);
        for (ph, row) in s.bank_words.iter().enumerate() {
            for (o, w) in row.iter().enumerate() {
                m.banks.write(ph, o, *w);
            }
        }
        for (ph, row) in s.writer_ids.iter().enumerate() {
            for (o, id) in row.iter().enumerate() {
                m.banks.stamp(ph, o, *id);
            }
        }
        m.bank_map = bank_map;
        for (att, st) in m.atts.iter_mut().zip(&s.atts) {
            for e in &st.live {
                att.insert(*e);
            }
            for e in &st.held {
                att.restore_held(*e);
            }
        }
        m.fault_state = FaultState::from_parts(
            FaultPlan::from_parts(s.plan_seed, s.plan_events.clone()),
            s.fault_next,
            s.transient_until.clone(),
            s.pending_responses
                .iter()
                .map(|q| q.iter().copied().collect())
                .collect(),
        );
        for (p, slot) in s.inflight.iter().enumerate() {
            if let Some(op) = slot {
                m.inflight[p] = Some(InFlight {
                    kind: op.kind,
                    offset: op.offset,
                    write_data: op.write_data.clone().into_boxed_slice(),
                    transform: op.transform.clone(),
                    phase: match op.phase {
                        0 => Phase::Read,
                        1 => Phase::Write,
                        _ => Phase::Drain,
                    },
                    visited: op.visited,
                    bank0_updated: op.bank0_updated,
                    read_buf: op.read_buf.clone().into_boxed_slice(),
                    observed_writers: op.observed_writers.clone().into_boxed_slice(),
                    issued_at: op.issued_at,
                    restarts: op.restarts,
                    fault_retries: op.fault_retries,
                    op_id: op.op_id,
                    completes_at: op.completes_at,
                    sleep_until: op.sleep_until,
                    held_entry: op.held_entry,
                    outcome: op.outcome,
                    last_progress: op.last_progress,
                });
                m.live.insert(p);
            }
        }
        // The window proof's state is derived, not carried: rebuild it.
        m.proof = m.rebuilt_proof();
        for (p, (q, src)) in m.done.iter_mut().zip(&s.done).enumerate() {
            q.extend(src.iter().cloned());
            if !q.is_empty() {
                m.undrained.insert(p);
            }
        }
        Self::restore_counters(&mut m, s);
        if s.tracing {
            m.start_trace();
        }
        Ok(m)
    }

    /// Different shape (more banks and/or spares, possibly a different
    /// processor count): requires a quiescent snapshot, materialises the
    /// logical memory image onto fresh healthy hardware.
    fn restore_cross_shape(
        s: &MachineSnapshot,
        target: CfmConfig,
    ) -> Result<CfmMachine, SnapshotError> {
        let b_src = s.atts.len();
        let b_tgt = target.banks();
        let n_tgt = target.processors();
        if b_tgt < b_src {
            return Err(SnapshotError::ShrinkingShape {
                what: "banks",
                snapshot: b_src,
                target: b_tgt,
            });
        }
        // Quiescence: ATT entries and in-flight sweeps are functions of
        // the bank count and cannot cross a shape change.
        for (bank, st) in s.atts.iter().enumerate() {
            if let Some(e) = st.live.first().or_else(|| st.held.first()) {
                return Err(SnapshotError::ShapeIncompatibleAtt {
                    bank,
                    proc: e.proc,
                    offset: e.offset,
                });
            }
        }
        for (p, slot) in s.inflight.iter().enumerate() {
            if slot.is_some() {
                return Err(SnapshotError::ShapeIncompatibleOp { proc: p });
            }
        }
        // Fewer processors is tolerable only if the dropped processors
        // hold no undelivered state.
        for (p, q) in s.done.iter().enumerate() {
            if p >= n_tgt && !q.is_empty() {
                return Err(SnapshotError::ShrinkingShape {
                    what: "processors",
                    snapshot: s.processors,
                    target: n_tgt,
                });
            }
        }
        for (p, q) in s.pending_responses.iter().enumerate() {
            if p >= n_tgt && !q.is_empty() {
                return Err(SnapshotError::ShrinkingShape {
                    what: "processors",
                    snapshot: s.processors,
                    target: n_tgt,
                });
            }
        }
        // Prove the *source* map injective before reading through it —
        // materialising through an aliased map would merge two logical
        // banks' words.
        let src_map = BankMap::from_parts(s.map.clone(), s.free_spares.clone(), b_src + s.spares);
        src_map.check_injective()?;
        let mut m = CfmMachine::construct(target, s.offsets, s.att_enabled, s.mode);
        for logical in 0..b_src {
            match src_map.phys(logical) {
                Some(phys) => {
                    for o in 0..s.offsets {
                        m.banks.write(logical, o, s.bank_words[phys][o]);
                        m.banks.stamp(logical, o, s.writer_ids[phys][o]);
                    }
                }
                None => {
                    // Masked bank: its words were lost on the source.
                    // The target bank is healthy again, but the stamps
                    // say MASKED_WRITER so a pre-loss block reads as
                    // "lost word", not as a tear.
                    for o in 0..s.offsets {
                        m.banks.stamp(logical, o, MASKED_WRITER);
                    }
                }
            }
        }
        // New logical banks (b_src..b_tgt) hold words that never
        // existed in the snapshot: stamp them MASKED_WRITER so a read
        // of a pre-migration block sees them as absent, not as a second
        // writer tearing the block. The fresh identity BankMap comes
        // from `construct` — evacuation semantics: masks and remaps
        // never carry onto new hardware.
        for logical in b_src..b_tgt {
            for o in 0..s.offsets {
                m.banks.stamp(logical, o, MASKED_WRITER);
            }
        }
        let mut transient = s.transient_until.clone();
        transient.resize(b_tgt, None);
        let mut pending: Vec<VecDeque<FaultKind>> = s
            .pending_responses
            .iter()
            .take(n_tgt)
            .map(|q| q.iter().copied().collect())
            .collect();
        pending.resize(n_tgt, VecDeque::new());
        m.fault_state = FaultState::from_parts(
            FaultPlan::from_parts(s.plan_seed, s.plan_events.clone()),
            s.fault_next,
            transient,
            pending,
        );
        for (p, q) in s.done.iter().enumerate().take(n_tgt) {
            m.done[p].extend(q.iter().cloned());
            if !q.is_empty() {
                m.undrained.insert(p);
            }
        }
        Self::restore_counters(&mut m, s);
        if s.tracing {
            m.start_trace();
        }
        Ok(m)
    }

    /// The shape-independent scalar state both restore paths carry.
    fn restore_counters(m: &mut CfmMachine, s: &MachineSnapshot) {
        m.cycle = s.cycle;
        m.next_op_id = s.next_op_id;
        m.stats = s.stats;
        m.parallel_slots = s.parallel_slots;
        m.dynamic_slots = s.dynamic_slots;
        m.dynamic_windows = s.dynamic_windows;
        m.att_insert_drops = s.att_insert_drops;
        m.retry_suppressions = s.retry_suppressions;
        m.skip_remap_copy = s.skip_remap_copy;
    }
}

/// Typed result of [`CfmMachine::run`] — the completions delivered plus
/// how the run ended, aligned with [`crate::program::RunOutcome`] at the
/// program layer.
#[must_use = "check `outcome` (or call `expect_idle`) — a budget-exhausted \
              run leaves operations in flight"]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Completions in delivery order (poll order per slot).
    pub completions: Vec<Completion>,
    /// How the run ended.
    pub outcome: RunStatus,
}

/// How a [`CfmMachine::run`] call ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// Every processor went idle within the cycle budget.
    Idle,
    /// The cycle budget elapsed with operations still in flight;
    /// `pending` snapshots them with their owning processors.
    CycleBudgetExhausted {
        /// The in-flight operations and their owners at cutoff.
        pending: Vec<(ProcId, PendingOp)>,
    },
}

impl RunReport {
    /// Whether the machine went idle within the budget.
    pub fn is_idle(&self) -> bool {
        matches!(self.outcome, RunStatus::Idle)
    }

    /// The completions, asserting the machine went idle. Panics with the
    /// pending owners if the cycle budget was exhausted — the typed
    /// replacement for `run_until_idle(..).unwrap()`.
    pub fn expect_idle(self) -> Vec<Completion> {
        match self.outcome {
            RunStatus::Idle => self.completions,
            RunStatus::CycleBudgetExhausted { pending } => {
                let owners: Vec<_> = pending
                    .iter()
                    .map(|(p, op)| format!("p{p}:{:?}@{}", op.kind, op.offset))
                    .collect();
                panic!(
                    "cycle budget exhausted with {} op(s) pending: [{}]",
                    pending.len(),
                    owners.join(", ")
                )
            }
        }
    }

    /// The completions regardless of outcome — for callers that only
    /// want whatever finished within the budget.
    pub fn into_completions(self) -> Vec<Completion> {
        self.completions
    }

    /// The pending owners if the budget ran out, empty when idle.
    pub fn pending(&self) -> &[(ProcId, PendingOp)] {
        match &self.outcome {
            RunStatus::Idle => &[],
            RunStatus::CycleBudgetExhausted { pending } => pending,
        }
    }
}

/// Expire the ATT entries due at slot `t`, withdrawing from `proof` the
/// claim of each that outlived its owner's delivery (an entry whose owner
/// is still in flight was never counted). Returns the new expiry horizon.
fn expire_atts<S: TraceSink + ?Sized>(
    atts: &mut [Att],
    t: Cycle,
    inflight: &[Option<InFlight>],
    proof: &mut WindowProof,
    sink: &mut S,
) -> Cycle {
    for (k, att) in atts.iter_mut().enumerate() {
        att.expire_traced(t, k, sink, |e| {
            if !owned(inflight, e) {
                proof.release(e.offset, e.proc, true);
            }
        });
    }
    expiry_horizon(atts)
}

/// The first slot at which an expiry sweep over `atts` drops a live
/// entry (`Cycle::MAX` while every queue is empty).
fn expiry_horizon(atts: &[Att]) -> Cycle {
    atts.iter()
        .filter_map(Att::next_expiry)
        .min()
        .unwrap_or(Cycle::MAX)
}

/// The banks processors `0, 1, …` inject into at slot `t` under the
/// AT-space schedule `bank(t, p) = (t + c·p) mod b`, advanced
/// incrementally (`+c` per processor) instead of a `%` per access.
fn slot_banks(t: Cycle, b: usize, c: usize) -> impl Iterator<Item = BankId> {
    std::iter::successors(Some((t % b as u64) as usize), move |&k| {
        Some(if k + c >= b { k + c - b } else { k + c })
    })
}

/// The machine state one proven word access touches (see
/// [`CfmMachine::kernel`]).
struct Kernel<'a> {
    atts: &'a mut [Att],
    banks: &'a mut BankArray,
    bank_map: &'a BankMap,
    stats: &'a mut Stats,
    /// The machine's ATT expiry horizon, lowered by every insert.
    expiry_due: &'a mut Cycle,
    att_enabled: bool,
    /// Banks `b`: the accesses in one phase of a block operation.
    banks_per_block: usize,
    /// Bank cycle `c`: a final access drains `c − 1` slots later.
    bank_cycle: u64,
}

impl Kernel<'_> {
    /// The fused access kernel shared by the per-slot pass's clean
    /// accesses ([`CfmMachine::step_procs`]) and proven windows
    /// ([`CfmMachine::window_inline`]): processor `p`'s operation
    /// injects into logical bank `k` at slot `t` — the injection check,
    /// the bank read or write plus writer stamp, the ATT insert at a
    /// write phase's first access, and the phase machine (read → write
    /// for swaps and RMWs, final access → drain) — emitting trace events
    /// in the sequential engine's exact order.
    ///
    /// This is [`CfmMachine::step_procs`] minus every per-access check
    /// the caller's proof discharged: no read conflict, write verdict,
    /// transient fault, backoff or seeded fault can strike the access.
    #[inline(always)]
    fn access<S: TraceSink + ?Sized>(
        &mut self,
        op: &mut InFlight,
        p: ProcId,
        k: BankId,
        t: Cycle,
        sink: &mut S,
    ) {
        let b = self.banks_per_block;
        sink.record(TraceEvent::Route {
            slot: t,
            proc: p,
            bank: k,
        });
        let phys = self.bank_map.phys(k);
        match phys {
            Some(ph) => {
                if !self.banks.note_injection(ph, t) {
                    // Impossible under the AT-space schedule; recorded,
                    // not fatal.
                    self.stats.bank_conflicts += 1;
                }
                self.stats.word_accesses += 1;
            }
            None => self.stats.masked_accesses += 1,
        }
        op.last_progress = t;
        match op.phase {
            Phase::Read => {
                match phys {
                    Some(ph) => {
                        op.read_buf[k] = self
                            .banks
                            .read_traced(ph, op.offset, t, k, p, op.op_id, sink);
                        op.observed_writers[k] = self.banks.writer(ph, op.offset);
                    }
                    None => {
                        op.read_buf[k] = 0;
                        op.observed_writers[k] = MASKED_WRITER;
                    }
                }
                op.visited += 1;
                if op.visited == b {
                    if matches!(op.kind, OpKind::Swap | OpKind::Rmw) {
                        // §4.2.1: the modification is computed in a
                        // pipelined fashion, so the write phase starts
                        // with no extra delay.
                        if let Some(tr) = &op.transform {
                            tr.apply_into(&op.read_buf, &mut op.write_data);
                        }
                        op.phase = Phase::Write;
                        op.visited = 0;
                        op.bank0_updated = false;
                    } else {
                        op.phase = Phase::Drain;
                        op.completes_at = t + self.bank_cycle - 1;
                    }
                }
            }
            Phase::Write => {
                if op.visited == 0 && self.att_enabled {
                    self.atts[k].insert_traced(
                        Entry {
                            offset: op.offset,
                            kind: track_kind(op.kind),
                            proc: p,
                            inserted_at: t,
                        },
                        k,
                        op.op_id,
                        sink,
                    );
                    // The entry expires `b` slots on.
                    *self.expiry_due = (*self.expiry_due).min(t + b as u64);
                }
                if let Some(ph) = phys {
                    self.banks.write_traced(
                        ph,
                        op.offset,
                        op.write_data[k],
                        t,
                        k,
                        p,
                        op.op_id,
                        sink,
                    );
                    self.banks.stamp(ph, op.offset, op.op_id);
                }
                op.bank0_updated |= k == 0;
                op.visited += 1;
                if op.visited == b {
                    op.phase = Phase::Drain;
                    op.completes_at = t + self.bank_cycle - 1;
                }
            }
            Phase::Drain => unreachable!("draining operations make no access"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(n: usize, c: u32, offsets: usize) -> CfmMachine {
        CfmMachine::builder(CfmConfig::new(n, c, 16).unwrap())
            .offsets(offsets)
            .build()
    }

    #[test]
    fn single_read_takes_beta_cycles() {
        // β = b + c − 1; n=4, c=2 → b=8, β=9 (Table 3.3's 8-bank row).
        let mut m = machine(4, 2, 16);
        m.issue(0, Operation::read(3)).unwrap();
        let done = m.run(100).expect_idle();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].latency(), 9);
        assert_eq!(done[0].outcome, Outcome::Completed);
    }

    #[test]
    fn single_write_then_read_roundtrip() {
        let mut m = machine(4, 1, 16);
        let data: Vec<Word> = vec![10, 20, 30, 40];
        m.issue(2, Operation::write(5, data.clone())).unwrap();
        m.run(100).expect_idle();
        assert_eq!(m.peek_block(5), data);
        m.issue(1, Operation::read(5)).unwrap();
        let done = m.run(100).expect_idle();
        assert_eq!(done[0].data.as_deref(), Some(&data[..]));
        assert!(!done[0].torn);
    }

    #[test]
    fn block_access_starts_at_any_slot_without_stall() {
        // Issue at three different phases of the period; latency is always β.
        for skew in 0..4u64 {
            let mut m = machine(4, 1, 8);
            for _ in 0..skew {
                m.step();
            }
            m.issue(3, Operation::read(0)).unwrap();
            let done = m.run(100).expect_idle();
            assert_eq!(done[0].latency(), 4, "skew {skew}");
        }
    }

    #[test]
    fn all_processors_concurrently_zero_conflicts() {
        // Every processor reads a different block simultaneously: all
        // complete in exactly β with zero bank conflicts (the headline
        // conflict-freedom claim).
        let mut m = machine(8, 2, 32);
        for p in 0..8 {
            m.issue(p, Operation::read(p)).unwrap();
        }
        let done = m.run(200).expect_idle();
        assert_eq!(done.len(), 8);
        for c in &done {
            assert_eq!(c.latency(), m.config().block_access_time());
        }
        assert_eq!(m.stats().bank_conflicts, 0);
    }

    #[test]
    fn same_block_concurrent_reads_all_complete() {
        let mut m = machine(4, 1, 8);
        m.poke_block(2, &[7, 7, 7, 7]);
        for p in 0..4 {
            m.issue(p, Operation::read(2)).unwrap();
        }
        let done = m.run(100).expect_idle();
        for c in done {
            assert_eq!(c.data.as_deref(), Some(&[7, 7, 7, 7][..]));
            assert_eq!(c.restarts, 0);
        }
    }

    #[test]
    fn busy_processor_rejects_second_issue() {
        let mut m = machine(4, 1, 8);
        m.issue(0, Operation::read(0)).unwrap();
        assert_eq!(m.issue(0, Operation::read(1)), Err(IssueError::Busy));
    }

    #[test]
    fn issue_validation() {
        let mut m = machine(4, 1, 8);
        assert_eq!(
            m.issue(9, Operation::read(0)),
            Err(IssueError::NoSuchProcessor)
        );
        assert_eq!(
            m.issue(0, Operation::read(99)),
            Err(IssueError::NoSuchBlock)
        );
        assert_eq!(
            m.issue(0, Operation::write(0, vec![1, 2])),
            Err(IssueError::WrongBlockLength { got: 2, want: 4 })
        );
    }

    #[test]
    fn swap_returns_old_block_and_installs_new() {
        let mut m = machine(4, 1, 8);
        m.poke_block(3, &[1, 2, 3, 4]);
        m.issue(0, Operation::swap(3, vec![9, 9, 9, 9])).unwrap();
        let done = m.run(100).expect_idle();
        assert_eq!(done[0].data.as_deref(), Some(&[1, 2, 3, 4][..]));
        assert_eq!(done[0].latency(), m.config().swap_access_time());
        assert_eq!(m.peek_block(3), vec![9, 9, 9, 9]);
    }

    #[test]
    fn back_to_back_issues_have_no_gap() {
        let mut m = machine(4, 1, 8);
        m.issue(0, Operation::read(0)).unwrap();
        let first = m.run(100).expect_idle().remove(0);
        m.issue(0, Operation::read(1)).unwrap();
        let second = m.run(100).expect_idle().remove(0);
        assert_eq!(second.issued_at, first.completed_at + 1);
    }

    #[test]
    fn concurrent_same_block_writes_one_winner_no_tear() {
        // Two processors write the same block simultaneously: exactly one
        // version survives intact (Fig 4.4's guarantee).
        let mut m = machine(4, 1, 8);
        m.issue(0, Operation::write(5, vec![1, 1, 1, 1])).unwrap();
        m.issue(2, Operation::write(5, vec![2, 2, 2, 2])).unwrap();
        m.run(100).expect_idle();
        let block = m.peek_block(5);
        assert!(
            block == vec![1, 1, 1, 1] || block == vec![2, 2, 2, 2],
            "torn block: {block:?}"
        );
    }

    #[test]
    fn fig_4_3_exact_timeline() {
        // Fig 4.3, §4.1.2 (latest-wins): m = 8 banks, c = 1. Processor 1
        // issues write a at slot 0 (first bank 1); processor 3 issues
        // write b at slot 1 (first bank 4). At slot 3, a reaches bank 4,
        // finds b's entry among its first n entries (b was issued later)
        // and aborts; b completes untouched.
        let cfg = CfmConfig::new(8, 1, 16).unwrap();
        let mut m = CfmMachine::builder(cfg)
            .offsets(8)
            .priority(PriorityMode::LatestWins)
            .build();
        m.issue(1, Operation::write(5, vec![0xA; 8])).unwrap();
        m.step(); // slot 0: a starts in bank 1
        m.issue(3, Operation::write(5, vec![0xB; 8])).unwrap();
        let done = m.run(100).expect_idle();
        let a = done.iter().find(|c| c.proc == 1).unwrap();
        let b = done.iter().find(|c| c.proc == 3).unwrap();
        assert_eq!(a.outcome, Outcome::Overwritten, "a must be aborted");
        assert_eq!(b.outcome, Outcome::Completed);
        // a aborted at slot 3 — after three word accesses.
        assert_eq!(a.completed_at, 3);
        assert_eq!(m.peek_block(5), vec![0xB; 8]);
    }

    #[test]
    fn fig_4_4_simultaneous_writes_bank0_tiebreak() {
        // Fig 4.4: writes c (processor 1, first bank 1) and d (processor
        // 5, first bank 5) issued in the same slot. d updates bank 0 at
        // slot 3; at slot 4, c detects d in its first four entries and
        // aborts, while d (having updated bank 0) compares only three
        // entries and proceeds.
        let cfg = CfmConfig::new(8, 1, 16).unwrap();
        let mut m = CfmMachine::builder(cfg)
            .offsets(8)
            .priority(PriorityMode::LatestWins)
            .build();
        m.issue(1, Operation::write(5, vec![0xC; 8])).unwrap();
        m.issue(5, Operation::write(5, vec![0xD; 8])).unwrap();
        let done = m.run(100).expect_idle();
        let c = done.iter().find(|x| x.proc == 1).unwrap();
        let d = done.iter().find(|x| x.proc == 5).unwrap();
        assert_eq!(c.outcome, Outcome::Overwritten, "c must lose the tie");
        assert_eq!(c.completed_at, 4, "c aborts at slot 4 (bank 5)");
        assert_eq!(d.outcome, Outcome::Completed);
        assert_eq!(m.peek_block(5), vec![0xD; 8]);
    }

    #[test]
    fn fig_4_5_read_restart_timeline() {
        // Fig 4.5: read e (processor 1, first bank 1) and write f
        // (processor 3, first bank 3) issued in the same slot. e reaches
        // bank 3 at slot 2, detects f's entry, restarts, and returns the
        // all-new block.
        let cfg = CfmConfig::new(8, 1, 16).unwrap();
        let mut m = CfmMachine::builder(cfg)
            .offsets(8)
            .priority(PriorityMode::LatestWins)
            .build();
        m.poke_block(5, &[0; 8]);
        m.issue(3, Operation::write(5, vec![0xF; 8])).unwrap();
        m.issue(1, Operation::read(5)).unwrap();
        let done = m.run(100).expect_idle();
        let e = done.iter().find(|x| x.kind == OpKind::Read).unwrap();
        assert!(e.restarts >= 1, "e must restart at bank 3");
        assert_eq!(
            e.data.as_deref().unwrap(),
            &[0xF; 8],
            "restarted read must deliver a single (new) version"
        );
        assert!(!e.torn);
    }

    #[test]
    fn att_disabled_produces_torn_blocks() {
        // Fig 4.1: without address tracking, staggered same-block writes
        // interleave and the block ends up torn.
        let cfg = CfmConfig::new(4, 1, 16).unwrap();
        let mut m = CfmMachine::builder(cfg).offsets(8).tracking(false).build();
        m.issue(0, Operation::write(5, vec![1, 1, 1, 1])).unwrap();
        m.step(); // processor 1 starts one slot later, offset start bank
        m.issue(1, Operation::write(5, vec![2, 2, 2, 2])).unwrap();
        m.run(100).expect_idle();
        let block = m.peek_block(5);
        assert!(
            block != vec![1, 1, 1, 1] && block != vec![2, 2, 2, 2],
            "expected a torn block, got {block:?}"
        );
    }

    #[test]
    fn att_disabled_read_tear_detected() {
        // A read overlapping a write with tracking off observes two
        // versions; the checker flags it.
        let cfg = CfmConfig::new(4, 1, 16).unwrap();
        let mut m = CfmMachine::builder(cfg).offsets(8).tracking(false).build();
        m.poke_block(5, &[0, 0, 0, 0]);
        // Writer p1 starts at bank 1 and reaches bank 0 last (cycle 3);
        // reader p0 starts at bank 0 (cycle 0, old word) and then trails
        // one bank behind the writer (new words) — a classic tear.
        m.issue(1, Operation::write(5, vec![9, 9, 9, 9])).unwrap();
        m.issue(0, Operation::read(5)).unwrap();
        let done = m.run(100).expect_idle();
        let read = done.iter().find(|c| c.kind == OpKind::Read).unwrap();
        assert!(read.torn, "read should have observed a tear");
        assert!(m.stats().torn_reads >= 1);
    }

    #[test]
    fn att_enabled_reads_never_torn() {
        // Same interleaving as above with tracking on: the read restarts
        // and returns a single version.
        let mut m = machine(4, 1, 8);
        m.poke_block(5, &[0, 0, 0, 0]);
        m.issue(1, Operation::write(5, vec![9, 9, 9, 9])).unwrap();
        m.issue(0, Operation::read(5)).unwrap();
        let done = m.run(100).expect_idle();
        let read = done.iter().find(|c| c.kind == OpKind::Read).unwrap();
        assert!(!read.torn);
        let data = read.data.as_deref().unwrap();
        assert!(
            data == [0, 0, 0, 0] || data == [9, 9, 9, 9],
            "mixed versions: {data:?}"
        );
        assert_eq!(m.stats().torn_reads, 0);
    }

    #[test]
    fn swap_swap_conflict_is_serialized() {
        // Two concurrent swaps on one block: outcomes equal one of the two
        // sequential orders (Fig 4.6a/b) — exactly one sees the other's
        // value or the initial value consistently.
        let mut m = machine(4, 1, 8);
        m.poke_block(5, &[0, 0, 0, 0]);
        m.issue(0, Operation::swap(5, vec![1, 1, 1, 1])).unwrap();
        m.issue(2, Operation::swap(5, vec![2, 2, 2, 2])).unwrap();
        let done = m.run(1000).expect_idle();
        let mut olds: Vec<Vec<Word>> = done
            .iter()
            .map(|c| c.data.as_deref().unwrap().to_vec())
            .collect();
        olds.sort();
        let fin = m.peek_block(5);
        // Serial order A;B: olds {0…, A's data}, final B's data.
        let ok = (olds == vec![vec![0; 4], vec![1; 4]] && fin == vec![2; 4])
            || (olds == vec![vec![0; 4], vec![2; 4]] && fin == vec![1; 4]);
        assert!(ok, "olds {olds:?}, final {fin:?} is not a serial outcome");
        assert_eq!(m.stats().torn_reads, 0);
    }

    #[test]
    fn raw_fetch_and_add_is_atomic_across_processors() {
        // §4.2.1's read-modify-write on the uncached machine: concurrent
        // fetch-and-adds never lose an increment.
        let mut m = machine(4, 1, 8);
        for round in 0..5 {
            for p in 0..4 {
                m.issue(p, Operation::fetch_add(2, 0, 1)).unwrap();
            }
            let done = m.run(100_000).expect_idle();
            assert_eq!(done.len(), 4, "round {round}");
        }
        assert_eq!(m.peek_block(2)[0], 20);
        assert_eq!(m.stats().torn_reads, 0);
    }

    #[test]
    fn raw_rmw_returns_old_block_and_times_like_swap() {
        let mut m = machine(4, 2, 8);
        m.poke_block(1, &[5, 0, 0, 0, 0, 0, 0, 0]);
        m.issue(0, Operation::fetch_add(1, 0, 10)).unwrap();
        let done = m.run(1_000).expect_idle();
        assert_eq!(done[0].data.as_deref().unwrap()[0], 5); // old value
        assert_eq!(done[0].latency(), m.config().swap_access_time());
        assert_eq!(m.peek_block(1)[0], 15);
    }

    #[test]
    fn raw_multiple_test_and_set_all_or_nothing() {
        use crate::op::BlockTransform;
        let mut m = machine(4, 1, 8);
        m.poke_block(0, &[0b0101, 0, 0, 0]);
        // Disjoint pattern succeeds.
        m.issue(
            0,
            Operation::Rmw {
                offset: 0,
                transform: BlockTransform::MultipleTestAndSet {
                    pattern: vec![0b1010, 0, 0, 1].into_boxed_slice(),
                },
            },
        )
        .unwrap();
        m.run(1_000).expect_idle();
        assert_eq!(m.peek_block(0), vec![0b1111, 0, 0, 1]);
        // Overlapping pattern fails atomically: block unchanged, old
        // value returned for the caller to inspect.
        m.issue(
            1,
            Operation::Rmw {
                offset: 0,
                transform: BlockTransform::MultipleTestAndSet {
                    pattern: vec![0b0100, 0, 0, 0].into_boxed_slice(),
                },
            },
        )
        .unwrap();
        let done = m.run(1_000).expect_idle();
        assert_eq!(done[0].data.as_deref().unwrap()[0], 0b1111);
        assert_eq!(m.peek_block(0), vec![0b1111, 0, 0, 1]);
    }

    #[test]
    fn rmw_pattern_length_validated() {
        use crate::op::BlockTransform;
        let mut m = machine(4, 1, 8);
        assert_eq!(
            m.issue(
                0,
                Operation::Rmw {
                    offset: 0,
                    transform: BlockTransform::MultipleTestAndSet {
                        pattern: vec![1, 2].into_boxed_slice(),
                    },
                },
            ),
            Err(IssueError::WrongBlockLength { got: 2, want: 4 })
        );
    }

    #[test]
    fn stats_count_basic_run() {
        let mut m = machine(4, 1, 8);
        m.issue(0, Operation::read(0)).unwrap();
        m.run(100).expect_idle();
        assert_eq!(m.stats().issued, 1);
        assert_eq!(m.stats().completed, 1);
        assert_eq!(m.stats().word_accesses, 4);
        assert_eq!(m.stats().efficiency(), 1.0);
    }

    #[test]
    fn run_reports_budget_exhaustion_with_pending_owners() {
        let mut m = machine(4, 2, 8);
        m.issue(0, Operation::read(0)).unwrap();
        let report = m.run(3);
        assert!(!report.is_idle());
        let pending = report.pending();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].0, 0);
        assert_eq!(pending[0].1.offset, 0);
    }

    #[test]
    #[should_panic(expected = "cycle budget exhausted")]
    fn expect_idle_panics_naming_pending_owners() {
        let mut m = machine(4, 2, 8);
        m.issue(1, Operation::read(2)).unwrap();
        let _ = m.run(2).expect_idle();
    }

    use crate::fault::{FaultKind, FaultPlan};

    #[test]
    fn transient_fault_recovers_with_backoff() {
        let mut m = machine(4, 1, 8);
        m.injector().fault_plan(FaultPlan::single(
            1,
            FaultKind::TransientBankError {
                bank: 2,
                repair_slot: 8,
            },
        ));
        m.issue(0, Operation::write(3, vec![5, 6, 7, 8])).unwrap();
        let done = m.run(1_000).expect_idle();
        assert_eq!(done[0].outcome, Outcome::Completed);
        assert!(m.stats().fault_retries >= 1, "the fault window was hit");
        assert_eq!(m.stats().fault_aborts, 0);
        assert_eq!(m.peek_block(3), vec![5, 6, 7, 8], "recovered write intact");
        assert!(
            done[0].latency() > m.config().block_access_time(),
            "backoff must cost slots"
        );
    }

    #[test]
    fn exhausted_retries_surface_typed_transient_fault() {
        let mut m = machine(4, 1, 8);
        // A repair slot far beyond the bounded retry budget: every
        // backed-off retry still lands in the fault window.
        m.injector().fault_plan(FaultPlan::single(
            0,
            FaultKind::TransientBankError {
                bank: 1,
                repair_slot: 1_000_000,
            },
        ));
        m.issue(2, Operation::read(0)).unwrap();
        let done = m.run(5_000).expect_idle();
        assert_eq!(done[0].outcome, Outcome::TransientFault);
        assert_eq!(m.stats().fault_aborts, 1);
        assert!(m.stats().fault_retries >= 8);
    }

    #[test]
    fn permanent_failure_remaps_onto_spare_preserving_data() {
        let cfg = CfmConfig::new(4, 1, 16).unwrap().with_spares(1).unwrap();
        let mut m = CfmMachine::builder(cfg).offsets(8).build();
        m.poke_block(2, &[11, 22, 33, 44]);
        m.injector().fault_plan(FaultPlan::single(
            3,
            FaultKind::PermanentBankFailure { bank: 1 },
        ));
        m.issue(0, Operation::read(2)).unwrap();
        for _ in 0..20 {
            m.step();
        }
        assert_eq!(m.stats().bank_remaps, 1);
        assert!(m.bank_map().is_degraded());
        assert_eq!(m.bank_map().phys(1), Some(4), "bank 1 now on the spare");
        assert_eq!(m.bank_map().check_injective(), Ok(()));
        assert_eq!(
            m.peek_block(2),
            vec![11, 22, 33, 44],
            "committed words survive the remap"
        );
        // A fresh read over the degraded machine still round-trips.
        let c = m.execute(2, Operation::read(2));
        assert_eq!(c.data.as_deref(), Some(&[11, 22, 33, 44][..]));
        assert!(!c.torn);
    }

    #[test]
    fn spareless_failure_masks_the_bank_without_tearing() {
        let mut m = machine(4, 1, 8);
        m.poke_block(5, &[1, 2, 3, 4]);
        m.injector().fault_plan(FaultPlan::single(
            0,
            FaultKind::PermanentBankFailure { bank: 2 },
        ));
        m.step();
        assert_eq!(m.stats().banks_masked, 1);
        assert!(m.bank_map().is_masked(2));
        assert_eq!(m.peek_block(5), vec![1, 2, 0, 4], "word 2 is lost");
        let c = m.execute(0, Operation::read(5));
        assert_eq!(c.data.as_deref(), Some(&[1, 2, 0, 4][..]));
        assert!(!c.torn, "a lost word is not a tear");
        assert!(m.stats().masked_accesses >= 1);
    }

    #[test]
    fn dropped_response_is_retransmitted_one_period_later() {
        let mut m = machine(4, 1, 8);
        m.injector()
            .fault_plan(FaultPlan::single(0, FaultKind::DroppedResponse { proc: 0 }));
        m.issue(0, Operation::read(1)).unwrap();
        let done = m.run(100).expect_idle();
        let beta = m.config().block_access_time();
        let banks = m.config().banks() as u64;
        assert_eq!(done[0].latency(), beta + banks, "delayed by one period");
        assert_eq!(done[0].restarts, 1);
        assert_eq!(m.stats().dropped_responses, 1);
    }

    #[test]
    fn suppressed_retry_commits_a_corrupted_word() {
        // The "missed retry" seeded fault: the transient window covers
        // exactly the slot where the write sweep hits bank 3; with the
        // retry suppressed, the erroring bank stores a corrupted word.
        let mut m = machine(4, 1, 8);
        m.injector().fault_plan(FaultPlan::single(
            3,
            FaultKind::TransientBankError {
                bank: 3,
                repair_slot: 4,
            },
        ));
        m.injector().suppress_retries(1);
        m.issue(0, Operation::write(6, vec![9, 9, 9, 9])).unwrap();
        m.run(100).expect_idle();
        let block = m.peek_block(6);
        assert_eq!(&block[..3], &[9, 9, 9]);
        assert_ne!(block[3], 9, "the suppressed retry corrupted word 3");
        assert_eq!(m.stats().fault_retries, 0, "no retry was taken");
    }

    #[test]
    fn remap_copy_skip_loses_committed_writes() {
        let cfg = CfmConfig::new(4, 1, 16).unwrap().with_spares(1).unwrap();
        let mut m = CfmMachine::builder(cfg).offsets(8).build();
        m.poke_block(0, &[7, 7, 7, 7]);
        m.injector().skip_remap_copy();
        m.injector().fault_plan(FaultPlan::single(
            1,
            FaultKind::PermanentBankFailure { bank: 2 },
        ));
        m.step();
        m.step();
        let block = m.peek_block(0);
        assert_eq!(block, vec![7, 7, 0, 7], "the skipped copy lost word 2");
    }

    #[test]
    fn pending_ops_snapshot_names_the_owner() {
        let mut m = machine(4, 2, 8);
        m.issue(1, Operation::swap(3, vec![0; 8])).unwrap();
        m.step();
        let pending = m.pending_ops();
        assert_eq!(pending.len(), 1);
        let (proc, op) = &pending[0];
        assert_eq!(*proc, 1);
        assert_eq!(op.kind, OpKind::Swap);
        assert_eq!(op.offset, 3);
        assert_eq!(op.issued_at, 0);
    }

    /// Drive one machine through a mixed disjoint-block workload and
    /// return everything externally observable: completions, stats,
    /// final memory image, and the full trace.
    fn drive_disjoint(engine: Engine) -> (Vec<Completion>, Stats, Vec<Vec<Word>>, MemoryTrace) {
        let cfg = CfmConfig::new(8, 2, 16).unwrap().with_engine(engine);
        let b = cfg.banks();
        let mut m = CfmMachine::builder(cfg).offsets(32).build();
        m.start_trace();
        for o in 0..8 {
            m.poke_block(o, &vec![o as Word + 1; b]);
        }
        let mut completions = Vec::new();
        for round in 0..5u64 {
            for p in 0..8usize {
                let op = match (p + round as usize) % 4 {
                    0 => Operation::read((p + round as usize) % 8),
                    1 => Operation::write(p, vec![round * 100 + p as u64; b]),
                    2 => Operation::swap(p, vec![round + 7 * p as u64; b]),
                    _ => Operation::fetch_add(p, p % b, round + 1),
                };
                m.issue(p, op).unwrap();
            }
            completions.extend(m.run(10_000).expect_idle());
        }
        if engine == Engine::Windowed {
            assert!(m.parallel_slots() > 0, "the fused kernel really engaged");
        }
        let image = (0..8).map(|o| m.peek_block(o)).collect();
        let trace = m.take_trace().unwrap();
        (completions, *m.stats(), image, trace)
    }

    #[test]
    fn parallel_engine_is_byte_identical_on_disjoint_workload() {
        let seq = drive_disjoint(Engine::Sequential);
        let par = drive_disjoint(Engine::Windowed);
        assert_eq!(seq.0, par.0, "completions");
        assert_eq!(seq.1, par.1, "stats");
        assert_eq!(seq.2, par.2, "memory");
        assert_eq!(seq.3, par.3, "trace");
    }

    /// Same-block contention (every processor swaps block 0) forces ATT
    /// arbitration — hazardous accesses the per-slot pass must send down
    /// the checked path without observable difference.
    fn drive_contended(engine: Engine) -> (Vec<Completion>, Stats, Vec<Word>, MemoryTrace) {
        let cfg = CfmConfig::new(4, 1, 16).unwrap().with_engine(engine);
        let b = cfg.banks();
        let mut m = CfmMachine::builder(cfg).offsets(8).build();
        m.start_trace();
        let mut completions = Vec::new();
        for round in 0..4u64 {
            for p in 0..4usize {
                m.issue(p, Operation::swap(0, vec![round * 10 + p as u64; b]))
                    .unwrap();
            }
            completions.extend(m.run(10_000).expect_idle());
        }
        (
            completions,
            *m.stats(),
            m.peek_block(0),
            m.take_trace().unwrap(),
        )
    }

    #[test]
    fn parallel_engine_matches_sequential_under_contention() {
        let seq = drive_contended(Engine::Sequential);
        let par = drive_contended(Engine::Windowed);
        assert_eq!(seq.0, par.0, "completions");
        assert_eq!(seq.1, par.1, "stats");
        assert_eq!(seq.2, par.2, "memory");
        assert_eq!(seq.3, par.3, "trace");
        assert!(seq.1.swap_restarts > 0, "workload really contends");
    }

    #[test]
    fn parallel_engine_matches_sequential_under_faults() {
        let run = |engine: Engine| {
            let cfg = CfmConfig::new(4, 1, 16)
                .unwrap()
                .with_spares(1)
                .unwrap()
                .with_engine(engine);
            let b = cfg.banks();
            let mut m = CfmMachine::builder(cfg).offsets(8).build();
            m.start_trace();
            m.injector().fault_plan(FaultPlan::generate(
                11,
                &crate::fault::PlanParams {
                    banks: b,
                    processors: 4,
                    horizon: 48,
                    permanent: 1,
                    transient: 3,
                    max_repair: 4,
                    responses: 2,
                    stuck: 0,
                },
            ));
            let mut completions = Vec::new();
            for round in 0..6u64 {
                for p in 0..4usize {
                    let op = if (p + round as usize).is_multiple_of(2) {
                        Operation::read(p)
                    } else {
                        Operation::write(p, vec![round + p as u64; b])
                    };
                    m.issue(p, op).unwrap();
                }
                completions.extend(m.run(10_000).expect_idle());
            }
            (completions, *m.stats(), m.take_trace().unwrap())
        };
        let seq = run(Engine::Sequential);
        let par = run(Engine::Windowed);
        assert_eq!(seq.0, par.0, "completions");
        assert_eq!(seq.1, par.1, "stats");
        assert_eq!(seq.2, par.2, "trace");
        assert!(seq.1.faults_injected > 0, "plan really injects");
    }

    #[test]
    fn dynamic_window_dispatch_is_byte_identical_and_counted() {
        // Rotating per-round offsets — disjoint within every round but
        // not expressible as a static residue-class footprint: the
        // runtime window proof covers each round anyway. The windowed run
        // must produce byte-identical completions, stats and memory
        // while executing most slots as proven windows.
        let n = 4;
        let offsets = 8;
        let run = |engine: Engine| {
            let cfg = CfmConfig::new(n, 1, 16).unwrap().with_engine(engine);
            let b = cfg.banks();
            let mut m = CfmMachine::builder(cfg).offsets(offsets).build();
            let mut completions = Vec::new();
            for round in 1..5u64 {
                let at = |p: usize| (p + round as usize) % offsets;
                for p in 0..n {
                    m.issue(p, Operation::write(at(p), vec![round; b])).unwrap();
                }
                completions.extend(m.run(10_000).expect_idle());
                for p in 0..n {
                    // Swaps cover the in-window read→write transition.
                    m.issue(p, Operation::swap(at(p), vec![round ^ 0xFF; b]))
                        .unwrap();
                }
                completions.extend(m.run(10_000).expect_idle());
                for p in 0..n {
                    m.issue(p, Operation::read(at(p))).unwrap();
                }
                completions.extend(m.run(10_000).expect_idle());
            }
            let memory: Vec<_> = (0..offsets).map(|o| m.peek_block(o)).collect();
            (
                completions,
                *m.stats(),
                memory,
                m.dynamic_slots(),
                m.dynamic_windows(),
            )
        };
        let seq = run(Engine::Sequential);
        let par = run(Engine::Windowed);
        assert_eq!(seq.0, par.0, "completions");
        assert_eq!(seq.1, par.1, "stats");
        assert_eq!(seq.2, par.2, "memory");
        assert_eq!(seq.3, 0, "sequential engine takes no windows");
        assert!(par.3 > 0, "dynamic windows executed slots");
        assert!(par.4 > 0, "dynamic windows dispatched");
    }

    #[test]
    fn contended_offsets_fall_back_from_dynamic_windows() {
        // Every processor hammers the same offset: the window proof must
        // refuse the multi-writer window and the per-slot path must
        // keep the run byte-identical to sequential.
        let n = 4;
        let run = |engine: Engine| {
            let cfg = CfmConfig::new(n, 1, 16).unwrap().with_engine(engine);
            let b = cfg.banks();
            let mut m = CfmMachine::builder(cfg).offsets(8).build();
            let mut completions = Vec::new();
            for round in 1..4u64 {
                for p in 0..n {
                    m.issue(p, Operation::write(3, vec![round + p as u64; b]))
                        .unwrap();
                }
                completions.extend(m.run(10_000).expect_idle());
            }
            let memory: Vec<_> = (0..8).map(|o| m.peek_block(o)).collect();
            (completions, *m.stats(), memory)
        };
        let seq = run(Engine::Sequential);
        let par = run(Engine::Windowed);
        assert_eq!(seq.0, par.0, "completions");
        assert_eq!(seq.1, par.1, "stats");
        assert_eq!(seq.2, par.2, "memory");
    }

    #[test]
    fn window_refusals_count_each_reason() {
        let cfg = CfmConfig::new(4, 1, 16).unwrap();
        let b = cfg.banks();
        // Every processor writes one block: the window proof refuses.
        let mut m = CfmMachine::builder(cfg).offsets(8).build();
        for p in 0..4 {
            m.issue(p, Operation::write(3, vec![p as u64; b])).unwrap();
        }
        m.run(10_000).expect_idle();
        let r = m.window_refusals();
        assert!(r.hazard > 0, "contended machine counts hazards: {r:?}");
        assert_eq!(r.fault, 0, "{r:?}");

        // Disjoint blocks, but a fault plan is pending (the failure is
        // far in the future): every attempt is refused for the fault.
        let plan = FaultPlan::single(1_000, FaultKind::PermanentBankFailure { bank: 1 });
        let mut m = CfmMachine::builder(cfg).offsets(8).fault_plan(plan).build();
        for p in 0..4 {
            m.issue(p, Operation::write(p, vec![p as u64; b])).unwrap();
        }
        m.run(10_000).expect_idle();
        let r = m.window_refusals();
        assert!(r.fault > 0, "faulted machine counts faults: {r:?}");
        assert_eq!((r.hazard, r.op_busy, r.short), (0, 0, 0), "{r:?}");
        assert_eq!(m.dynamic_slots(), 0);

        // A seeded hook refuses for the same reason.
        let mut m = CfmMachine::builder(cfg)
            .offsets(8)
            .inject(|inj| {
                inj.drop_att_inserts(1);
            })
            .build();
        m.issue(0, Operation::read(0)).unwrap();
        m.run(10_000).expect_idle();
        assert!(m.window_refusals().fault > 0);

        // A one-slot budget is too short; a draining op (c = 2 leaves
        // one drain slot after the final access) is busy.
        let cfg2 = CfmConfig::new(2, 2, 16).unwrap();
        let mut m = CfmMachine::builder(cfg2).offsets(4).build();
        m.issue(0, Operation::read(0)).unwrap();
        let _ = m.run(1);
        assert_eq!(m.window_refusals().short, 1);
        m.run(10_000).expect_idle();
        let r = m.window_refusals();
        assert!(r.op_busy > 0, "{r:?}");
        assert!(m.dynamic_slots() > 0, "the read's middle ran as a window");

        // The reference stepper never attempts a window.
        let mut m = CfmMachine::builder(cfg.with_engine(Engine::Sequential))
            .offsets(8)
            .build();
        for p in 0..4 {
            m.issue(p, Operation::write(3, vec![p as u64; b])).unwrap();
        }
        m.run(10_000).expect_idle();
        assert_eq!(m.window_refusals(), WindowRefusals::default());
    }

    #[test]
    fn access_fallbacks_count_each_reason() {
        let cfg = CfmConfig::new(4, 1, 16).unwrap();
        let b = cfg.banks();
        // Two writers of one block next to two disjoint readers: the
        // writers' accesses meet each other's ATT entries and take the
        // checked path while the readers stay fused in the same slots.
        let mut m = CfmMachine::builder(cfg).offsets(8).build();
        m.issue(0, Operation::write(3, vec![1; b])).unwrap();
        m.issue(1, Operation::read(5)).unwrap();
        m.issue(2, Operation::write(3, vec![2; b])).unwrap();
        m.issue(3, Operation::read(6)).unwrap();
        while !m.is_idle() {
            m.step();
        }
        let f = m.access_fallbacks();
        assert!(f.contended > 0 && f.mixed_slots > 0, "{f:?}");
        assert_eq!((f.seeded, f.transient, f.held), (0, 0, 0), "{f:?}");

        // A transient error on bank 2 at slots 2–3 strikes p0's write
        // mid-phase: the entry is held, and the resumed accesses (after
        // the backoff, on healthy banks) are checked for the held entry.
        let plan = FaultPlan::single(
            2,
            FaultKind::TransientBankError {
                bank: 2,
                repair_slot: 4,
            },
        );
        let mut m = CfmMachine::builder(cfg).offsets(8).fault_plan(plan).build();
        m.issue(0, Operation::write(0, vec![7; b])).unwrap();
        while !m.is_idle() {
            m.step();
        }
        let f = m.access_fallbacks();
        assert!(f.transient > 0 && f.held > 0, "{f:?}");
        assert_eq!(m.peek_block(0), vec![7; b]);

        // A seeded hook sends every access down the checked path.
        let mut m = CfmMachine::builder(cfg)
            .offsets(8)
            .inject(|inj| {
                inj.drop_att_inserts(1);
            })
            .build();
        m.issue(0, Operation::read(0)).unwrap();
        m.step();
        assert_eq!(m.access_fallbacks().seeded, 1);
        assert_eq!(m.parallel_slots(), 0);

        // The reference stepper checks every access and counts nothing.
        let mut m = CfmMachine::builder(cfg.with_engine(Engine::Sequential))
            .offsets(8)
            .build();
        for p in 0..4 {
            m.issue(p, Operation::write(3, vec![p as u64; b])).unwrap();
        }
        m.run(10_000).expect_idle();
        assert_eq!(m.access_fallbacks(), AccessFallbacks::default());
    }

    /// `run()` collects completions only on passes that follow a
    /// delivery — yet it must still return, in processor order, the ones
    /// queued before it started: by direct `step()` calls or carried by
    /// a same-shape restore.
    #[test]
    fn run_returns_completions_queued_before_it() {
        for engine in [Engine::Sequential, Engine::Windowed] {
            for restore in [false, true] {
                let cfg = CfmConfig::new(4, 1, 16).unwrap().with_engine(engine);
                let mut m = CfmMachine::builder(cfg).offsets(8).build();
                m.issue(3, Operation::read(3)).unwrap();
                m.step();
                m.issue(0, Operation::read(0)).unwrap();
                for _ in 0..3 {
                    m.step();
                }
                // p3's read was delivered at slot 3 and waits in its
                // queue; p0's read makes its final access at slot 4.
                assert!(!m.is_busy(3) && m.is_busy(0));
                if restore {
                    m = m.checkpoint().restore().unwrap();
                }
                let procs: Vec<ProcId> = m.run(100).expect_idle().iter().map(|c| c.proc).collect();
                // The first pass collects both queues in processor order.
                assert_eq!(procs, [0, 3], "{engine:?}, restore = {restore}");
                assert!(m.poll(0).is_none() && m.poll(3).is_none());
                // Polled completions are not returned twice.
                m.issue(1, Operation::read(1)).unwrap();
                m.step();
                m.issue(2, Operation::read(2)).unwrap();
                while m.poll(1).is_none() {
                    m.step();
                }
                let procs: Vec<ProcId> = m.run(100).expect_idle().iter().map(|c| c.proc).collect();
                assert_eq!(procs, [2], "{engine:?}, restore = {restore}");
            }
        }
    }

    /// Step `m` slot by slot until it is quiescent, auditing the window
    /// proof's incremental state at every step boundary.
    fn step_audited(m: &mut CfmMachine) {
        while !m.is_quiescent() {
            m.step();
            m.check_window_proof().unwrap();
        }
    }

    /// With `c = 1` a write is delivered in the slot of its final access,
    /// while the ATT entry it inserted `b − 1` slots earlier lives one
    /// slot more: the delivery hands the writer's claim to that entry,
    /// and the next expiry sweep withdraws it.
    #[test]
    fn entry_outliving_its_c1_writer_is_claimed_until_it_expires() {
        let mut m = machine(4, 1, 8);
        m.issue(0, Operation::write(3, vec![1; 4])).unwrap();
        let done = m.run(100).expect_idle();
        assert_eq!(done[0].completed_at, 3);
        assert!(!m.is_quiescent(), "the entry outlives its writer");
        m.check_window_proof().unwrap();
        assert!(!m.proof.hazardous(), "one claimant alone is no hazard");
        m.issue(1, Operation::read(3)).unwrap();
        assert!(m.proof.hazardous(), "the read collides with the entry");
        m.check_window_proof().unwrap();
        // The first attempt is refused on the entry the window's first
        // slot would have swept; the rest of the read runs as a window.
        let windowed = m.dynamic_slots();
        m.run(100).expect_idle();
        assert_eq!(m.window_refusals().hazard, 1);
        assert_eq!(m.dynamic_slots() - windowed, 2);
        assert!(!m.proof.hazardous());
        step_audited(&mut m);
    }

    /// A fault-stalled write holds its entry: the machine is busy until
    /// the resumed phase releases it.
    #[test]
    fn held_entry_keeps_the_machine_busy_until_released() {
        let mut m = machine(4, 1, 8);
        m.injector().fault_plan(FaultPlan::single(
            1,
            FaultKind::TransientBankError {
                bank: 2,
                repair_slot: 8,
            },
        ));
        m.issue(0, Operation::write(3, vec![5, 6, 7, 8])).unwrap();
        let mut held_slots = 0;
        while !m.is_idle() {
            m.step();
            m.check_window_proof().unwrap();
            if m.proof.held == 1 {
                assert!(m.proof.busy(m.cycle()), "a held entry is busy");
                held_slots += 1;
            }
        }
        assert!(held_slots > 0, "the write held its entry");
        assert_eq!(m.proof.held, 0, "released on resume");
        step_audited(&mut m);
        assert_eq!(m.peek_block(3), vec![5, 6, 7, 8]);
    }

    /// A restarting writer withdraws its own entry: the entry was never
    /// counted (its owner is in flight), so the claims stay exact.
    #[test]
    fn restart_removes_an_uncounted_entry() {
        for mode in [PriorityMode::EarliestWins, PriorityMode::LatestWins] {
            let cfg = CfmConfig::new(4, 1, 16).unwrap();
            let mut m = CfmMachine::builder(cfg).offsets(8).priority(mode).build();
            m.issue(0, Operation::write(3, vec![1; 4])).unwrap();
            m.issue(1, Operation::write(3, vec![2; 4])).unwrap();
            m.issue(2, Operation::read(3)).unwrap();
            m.check_window_proof().unwrap();
            assert!(m.proof.hazardous());
            while !m.is_idle() {
                m.step();
                m.check_window_proof().unwrap();
            }
            let s = m.stats();
            assert!(
                s.write_restarts + s.write_aborts > 0 && s.read_restarts > 0,
                "{mode:?}: {s:?}"
            );
            step_audited(&mut m);
            assert!(!m.proof.hazardous());
        }
    }
}
