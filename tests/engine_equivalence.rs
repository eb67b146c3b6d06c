//! Engine equivalence: the windowed engine (the default), whose proven
//! windows and proven single slots run through one fused access kernel,
//! must be observationally *byte-identical* to the sequential reference
//! engine:
//! same completions, same stats, same memory, same trace event stream,
//! for any machine shape, workload, and fault plan. The property tests
//! sample that space; the pinned-digest tests freeze fixed workloads'
//! traces so silent drift in any engine (or in the event shapes the
//! analyses depend on) fails loudly.

use cfm_verify::analyze::summarize;
use conflict_free_memory::core::config::{CfmConfig, Engine};
use conflict_free_memory::core::fault::{FaultKind, FaultPlan, PlanParams};
use conflict_free_memory::core::machine::CfmMachine;
use conflict_free_memory::core::op::{Completion, Operation};
use conflict_free_memory::core::snapshot::MachineSnapshot;
use conflict_free_memory::core::spec::{OffsetExpr, OpPattern, OpSpec, ProgramSpec};
use conflict_free_memory::core::stats::Stats;
use conflict_free_memory::core::trace::TraceEvent;
use proptest::prelude::*;

/// Drive one machine through the script (issuing round-robin across
/// processors, draining whenever the next issuer is busy) and return
/// everything externally observable. Each script word packs one issue:
/// low byte selects the op kind, the next byte the block offset, the
/// rest the written value.
fn drive(
    engine: Engine,
    n: usize,
    c: u32,
    offsets: usize,
    script: &[u64],
    fault_seed: Option<u64>,
) -> (Vec<Completion>, Stats, Vec<TraceEvent>) {
    let cfg = CfmConfig::new(n, c, 16)
        .unwrap()
        .with_spares(1)
        .unwrap()
        .with_engine(engine);
    let b = cfg.banks();
    let mut m = CfmMachine::builder(cfg)
        .offsets(offsets)
        .trace(true)
        .build();
    if let Some(seed) = fault_seed {
        m.injector().fault_plan(FaultPlan::generate(
            seed,
            &PlanParams {
                banks: b,
                processors: n,
                horizon: 64,
                permanent: 1,
                transient: 2,
                max_repair: 4,
                responses: 1,
                stuck: 0,
            },
        ));
    }
    let mut completions = Vec::new();
    for (i, &word) in script.iter().enumerate() {
        let p = i % n;
        if m.is_busy(p) {
            completions.extend(m.run(200_000).expect_idle());
        }
        let offset = (word >> 8) as usize % offsets;
        let val = word >> 16;
        let op = match word % 4 {
            0 => Operation::read(offset),
            1 => Operation::write(offset, vec![val; b]),
            2 => Operation::swap(offset, vec![val ^ 0xA5A5; b]),
            _ => Operation::fetch_add(offset, val as usize % b, val | 1),
        };
        m.issue(p, op).unwrap();
    }
    completions.extend(m.run(200_000).expect_idle());
    (
        completions,
        *m.stats(),
        m.take_trace().unwrap().into_events(),
    )
}

proptest! {
    /// Random `(n, c, program, fault plan)` → both engines
    /// produce identical completion streams, statistics, and traces.
    /// `fault_sel` past the seed range means "no fault plan".
    #[test]
    fn parallel_engine_is_equivalent_to_sequential(
        n in 2usize..9,
        c in 1u32..3,
        script in proptest::collection::vec(0u64..u64::MAX, 1..40),
        fault_sel in 0u64..2_000,
    ) {
        let fault_seed = (fault_sel < 1_000).then_some(fault_sel);
        let seq = drive(Engine::Sequential, n, c, 8, &script, fault_seed);
        let par = drive(Engine::Windowed, n, c, 8, &script, fault_seed);
        prop_assert_eq!(&seq.0, &par.0, "completions diverged");
        prop_assert_eq!(&seq.1, &par.1, "stats diverged");
        prop_assert_eq!(&seq.2, &par.2, "traces diverged");
    }
}

/// Decode packed words into an analyzable program spec (round-robin
/// across processors; see `tests/static_analysis.rs` for the scheme).
fn decode_program(n: usize, rounds: usize, words: &[u64], offsets: usize) -> ProgramSpec {
    let mut spec = ProgramSpec::uniform("equiv", n, rounds, Vec::new());
    spec.ops = vec![Vec::new(); n];
    for (i, &word) in words.iter().enumerate() {
        let pattern = match word % 4 {
            0 => OpPattern::Read,
            1 => OpPattern::Write,
            2 => OpPattern::Swap,
            _ => OpPattern::FetchAdd,
        };
        let base = (word >> 2) as usize % offsets;
        let offset = if (word >> 7) & 1 == 0 {
            OffsetExpr::Const(base)
        } else {
            OffsetExpr::ProcLinear {
                base,
                stride: (word >> 5) as usize % 3,
            }
        };
        spec.ops[i % n].push(OpSpec::new(pattern, offset));
    }
    spec
}

/// Drive one machine through an instantiated program spec, under an
/// optional generated fault plan.
fn drive_spec(
    engine: Engine,
    n: usize,
    c: u32,
    offsets: usize,
    spec: &ProgramSpec,
    fault_seed: Option<u64>,
) -> (Vec<Completion>, Stats, Vec<TraceEvent>) {
    let cfg = CfmConfig::new(n, c, 16)
        .unwrap()
        .with_spares(1)
        .unwrap()
        .with_engine(engine);
    let b = cfg.banks();
    let mut m = CfmMachine::builder(cfg)
        .offsets(offsets)
        .trace(true)
        .build();
    if let Some(seed) = fault_seed {
        m.injector().fault_plan(FaultPlan::generate(
            seed,
            &PlanParams {
                banks: b,
                processors: n,
                horizon: 64,
                permanent: 1,
                transient: 2,
                max_repair: 4,
                responses: 1,
                stuck: 0,
            },
        ));
    }
    let mut scripts: Vec<std::collections::VecDeque<_>> = (0..n)
        .map(|p| spec.instantiate(p, b, offsets).into())
        .collect();
    let mut completions = Vec::new();
    while scripts.iter().any(|s| !s.is_empty()) {
        for (p, script) in scripts.iter_mut().enumerate() {
            if !m.is_busy(p) {
                if let Some(op) = script.pop_front() {
                    m.issue(p, op).unwrap();
                }
            }
        }
        completions.extend(m.run(200_000).expect_idle());
    }
    (
        completions,
        *m.stats(),
        m.take_trace().unwrap().into_events(),
    )
}

proptest! {
    /// A program the analyzer proves (a summary exists) runs on the
    /// windowed engine — under the machine's runtime hazard scan, with
    /// or without a fault plan — byte-identical to the sequential
    /// engine, full trace included. `fault_sel` past the seed range
    /// means "no fault plan".
    #[test]
    fn summary_armed_engine_is_equivalent_to_sequential(
        n in 2usize..7,
        c in 1u32..3,
        rounds in 1usize..3,
        words in proptest::collection::vec(0u64..u64::MAX, 2..20),
        fault_sel in 0u64..2_000,
    ) {
        let spec = decode_program(n, rounds, &words, 8);
        if summarize(&spec, n, c, 8).is_err() {
            // Unsummarizable programs are the existing property's domain.
            return Ok(());
        }
        let fault_seed = (fault_sel < 1_000).then_some(fault_sel);
        let seq = drive_spec(Engine::Sequential, n, c, 8, &spec, fault_seed);
        let par = drive_spec(Engine::Windowed, n, c, 8, &spec, fault_seed);
        prop_assert_eq!(&seq.0, &par.0, "completions diverged");
        prop_assert_eq!(&seq.1, &par.1, "stats diverged");
        prop_assert_eq!(&seq.2, &par.2, "traces diverged");
    }
}

/// Everything [`drive_windowed`] observes about one run: completions,
/// stats, the full memory image, the trace digest, and the
/// `(dynamic_slots, dynamic_windows)` counters.
type WindowedRun = (Vec<Completion>, Stats, Vec<Vec<u64>>, u64, (u64, u64));

/// Drive one machine through the script with a *bounded* cycle budget
/// per `run` call — small budgets cap the dynamic window width, so the
/// sample space covers every window size from "barely engages" to "the
/// whole phase in one handoff". Halfway through the script the machine
/// is round-tripped through the full snapshot byte codec (trace drained
/// and concatenated across the seam), which lands mid-phase — in-flight
/// operations and the window counters must survive restore and the
/// resumed run must stay byte-identical. Returns completions, stats,
/// the full memory image, the trace digest, and the dynamic-window
/// counters.
fn drive_windowed(
    engine: Engine,
    n: usize,
    c: u32,
    offsets: usize,
    script: &[u64],
    fault_seed: Option<u64>,
    budget: u64,
) -> WindowedRun {
    let cfg = CfmConfig::new(n, c, 16)
        .unwrap()
        .with_spares(1)
        .unwrap()
        .with_engine(engine);
    let b = cfg.banks();
    let mut m = CfmMachine::builder(cfg)
        .offsets(offsets)
        .trace(true)
        .build();
    if let Some(seed) = fault_seed {
        m.injector().fault_plan(FaultPlan::generate(
            seed,
            &PlanParams {
                banks: b,
                processors: n,
                horizon: 64,
                permanent: 1,
                transient: 2,
                max_repair: 4,
                responses: 1,
                stuck: 0,
            },
        ));
    }
    let mut completions = Vec::new();
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut guard = 0u32;
    for (i, &word) in script.iter().enumerate() {
        let p = i % n;
        while m.is_busy(p) {
            completions.extend(m.run(budget).completions);
            guard += 1;
            assert!(guard < 1_000_000, "machine failed to make progress");
        }
        if i == script.len() / 2 {
            if let Some(tr) = m.drain_trace() {
                events.extend(tr.into_events());
            }
            let bytes = m.checkpoint().to_bytes();
            m = MachineSnapshot::from_bytes(&bytes)
                .expect("snapshot decodes")
                .restore()
                .expect("same-shape snapshot restores");
        }
        let offset = (word >> 8) as usize % offsets;
        let val = word >> 16;
        let op = match word % 4 {
            0 => Operation::read(offset),
            1 => Operation::write(offset, vec![val; b]),
            2 => Operation::swap(offset, vec![val ^ 0xA5A5; b]),
            _ => Operation::fetch_add(offset, val as usize % b, val | 1),
        };
        m.issue(p, op).unwrap();
    }
    while !m.is_idle() {
        completions.extend(m.run(budget).completions);
        guard += 1;
        assert!(guard < 1_000_000, "machine failed to make progress");
    }
    let memory = (0..offsets).map(|o| m.peek_block(o)).collect();
    events.extend(m.take_trace().unwrap().into_events());
    (
        completions,
        *m.stats(),
        memory,
        trace_digest(&events),
        (m.dynamic_slots(), m.dynamic_windows()),
    )
}

proptest! {
    /// Random `(n, c, window-size cap, program, fault plan)` →
    /// the window path (every window proven by the runtime hazard scan)
    /// must be byte-identical to the
    /// sequential engine — completions, stats, the full memory image
    /// and the trace digest — through a mid-run snapshot/restore
    /// round-trip. `fault_sel` past the seed range means "no fault
    /// plan".
    #[test]
    fn dynamic_window_engine_is_equivalent_to_sequential(
        n in 2usize..9,
        c in 1u32..3,
        budget in 2u64..96,
        script in proptest::collection::vec(0u64..u64::MAX, 1..32),
        fault_sel in 0u64..2_000,
    ) {
        let fault_seed = (fault_sel < 1_000).then_some(fault_sel);
        let seq = drive_windowed(Engine::Sequential, n, c, 8, &script, fault_seed, budget);
        let par = drive_windowed(Engine::Windowed, n, c, 8, &script, fault_seed, budget);
        prop_assert_eq!(&seq.0, &par.0, "completions diverged");
        prop_assert_eq!(&seq.1, &par.1, "stats diverged");
        prop_assert_eq!(&seq.2, &par.2, "memory diverged");
        prop_assert_eq!(seq.3, par.3, "trace digests diverged");
        prop_assert_eq!(seq.4, (0, 0), "sequential engine takes no windows");
    }
}

/// FNV-1a over the debug rendering of every trace event — a stable,
/// dependency-free byte digest of the trace stream.
fn trace_digest(events: &[TraceEvent]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for e in events {
        for byte in format!("{e:?}\n").as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x1_0000_0000_01b3);
        }
    }
    hash
}

/// The fixed workload for the pinned regression: every op kind, some
/// same-block contention (hazard → sequential fallback), plus a seeded
/// fault plan.
fn pinned_script() -> Vec<u64> {
    (0..32u64)
        .map(|i| (i % 4) | ((i % 5) << 8) | ((i.wrapping_mul(0x9E37_79B9) | 1) << 16))
        .collect()
}

/// Frozen observables of [`pinned_parallel_trace_bytes`] — re-pin only on
/// a deliberate engine or trace-shape change (the failure message prints
/// the new values).
const PINNED_LEN: usize = 540;
const PINNED_DIGEST: u64 = 0x5db1_f1b3_d7b5_cfbd;

/// Byte-pinned trace regression: the windowed engine's trace for a fixed
/// workload — digest and length frozen. If this fails, either an engine
/// changed observable behaviour or a [`TraceEvent`] shape changed; both
/// must be deliberate.
#[test]
fn pinned_parallel_trace_bytes() {
    let seq = drive(Engine::Sequential, 4, 1, 8, &pinned_script(), Some(7));
    let par = drive(Engine::Windowed, 4, 1, 8, &pinned_script(), Some(7));
    assert_eq!(seq.2, par.2, "engines diverged on the pinned workload");
    let digest = trace_digest(&par.2);
    assert_eq!(
        (par.2.len(), digest),
        (PINNED_LEN, PINNED_DIGEST),
        "pinned trace drifted: len {}, digest {:#018x}",
        par.2.len(),
        digest,
    );
}

/// The workload family [`drive_default`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Script-chosen offsets: contention and hazards included.
    Random,
    /// Processor `p` in round `r` works on block `(p + r) mod offsets`:
    /// disjoint within a round, not expressible as a static footprint,
    /// so windows are proven by the runtime hazard scan.
    Disjoint,
    /// Processor `p` works on block `p` — the shape the analyzer proves
    /// statically; the runtime hazard scan proves its windows too.
    OwnBlock,
}

/// A fault [`drive_default`] installs on logical bank `bank` (taken
/// modulo `b`) at the given slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// A permanent failure on a machine with no spares: the bank is
    /// masked for the rest of the run.
    Mask(usize),
    /// A permanent failure on a machine with one spare: the bank is
    /// remapped onto it.
    Remap(usize),
    /// A transient error repaired 6 slots later.
    Transient(usize),
}

/// Everything [`drive_default`] observes: completions, stats, the memory
/// image, the trace (empty when untraced), and the
/// `(dynamic_slots, parallel_slots)` kernel counters.
type DefaultRun = (
    Vec<Completion>,
    Stats,
    Vec<Vec<u64>>,
    Vec<TraceEvent>,
    (u64, u64),
);

/// Drive a machine built from the *default* configuration (`reference =
/// false`) or the same configuration with the sequential reference
/// engine selected explicitly (`reference = true`) through the script.
/// Issues go round-robin; whenever the next issuer is busy the machine
/// runs with at most `budget` slots per `run` call. `fault` installs one
/// [`Fault`] at the given slot.
#[allow(clippy::too_many_arguments)] // the workload is wide
fn drive_default(
    reference: bool,
    n: usize,
    c: u32,
    mode: Mode,
    traced: bool,
    fault: Option<(u64, Fault)>,
    budget: u64,
    script: &[u64],
) -> DefaultRun {
    let offsets = 8;
    let mut cfg = CfmConfig::new(n, c, 16).unwrap();
    if reference {
        cfg = cfg.with_engine(Engine::Sequential);
    }
    if let Some((_, Fault::Remap(_))) = fault {
        cfg = cfg.with_spares(1).unwrap();
    }
    let b = cfg.banks();
    let mut builder = CfmMachine::builder(cfg).offsets(offsets).trace(traced);
    if let Some((at, f)) = fault {
        let kind = match f {
            Fault::Mask(bank) | Fault::Remap(bank) => {
                FaultKind::PermanentBankFailure { bank: bank % b }
            }
            Fault::Transient(bank) => FaultKind::TransientBankError {
                bank: bank % b,
                repair_slot: at + 6,
            },
        };
        builder = builder.fault_plan(FaultPlan::single(at, kind));
    }
    let mut m = builder.build();
    let mut completions = Vec::new();
    for (i, &word) in script.iter().enumerate() {
        let p = i % n;
        while m.is_busy(p) {
            completions.extend(m.run(budget).completions);
        }
        let offset = match mode {
            Mode::Random => (word >> 8) as usize % offsets,
            Mode::Disjoint => (p + i / n) % offsets,
            Mode::OwnBlock => p,
        };
        let val = word >> 16;
        let op = match word % 4 {
            0 => Operation::read(offset),
            1 => Operation::write(offset, vec![val; b]),
            2 => Operation::swap(offset, vec![val ^ 0xA5A5; b]),
            _ => Operation::fetch_add(offset, val as usize % b, val | 1),
        };
        m.issue(p, op).unwrap();
    }
    while !m.is_idle() {
        completions.extend(m.run(budget).completions);
    }
    let memory = (0..offsets).map(|o| m.peek_block(o)).collect();
    let events = m.take_trace().map(|t| t.into_events()).unwrap_or_default();
    (
        completions,
        *m.stats(),
        memory,
        events,
        (m.dynamic_slots(), m.parallel_slots()),
    )
}

proptest! {
    /// Random `(n, c ∈ {1, 2, 4}, workload family, traced?, fault?,
    /// window-size cap, program)` → the default configuration is
    /// byte-identical to the sequential reference engine: completions,
    /// stats, memory image and trace. Swaps and RMWs cross from their
    /// read phase to their write phase inside windows; a permanent
    /// failure masks a bank (no spare) or remaps it onto a spare for the
    /// windows after it, and windows resume once a transient error is
    /// repaired. The disjoint and own-block families must actually run
    /// windows when fault-free, so the property cannot pass by never
    /// reaching the fused kernel.
    #[test]
    fn default_engine_is_equivalent_to_sequential(
        n in 3usize..6,
        c_sel in 0usize..3,
        mode_sel in 0usize..3,
        traced in 0u8..2,
        fault_sel in 0usize..64,
        budget in 2u64..96,
        script in proptest::collection::vec(0u64..u64::MAX, 1..40),
    ) {
        let c = [1, 2, 4][c_sel];
        let mode = [Mode::Random, Mode::Disjoint, Mode::OwnBlock][mode_sel];
        let traced = traced == 1;
        // Half the cases install a fault early in the run.
        let fault = (fault_sel < 32).then(|| {
            let f = [Fault::Mask, Fault::Remap, Fault::Transient][fault_sel % 3](fault_sel);
            (fault_sel as u64, f)
        });
        let seq = drive_default(true, n, c, mode, traced, fault, budget, &script);
        let def = drive_default(false, n, c, mode, traced, fault, budget, &script);
        prop_assert_eq!(&seq.0, &def.0, "completions diverged");
        prop_assert_eq!(&seq.1, &def.1, "stats diverged");
        prop_assert_eq!(&seq.2, &def.2, "memory diverged");
        prop_assert_eq!(&seq.3, &def.3, "traces diverged");
        prop_assert_eq!(seq.4, (0, 0), "the reference engine takes no windows");
        if let Some((at, f)) = fault {
            let fired = match f {
                Fault::Mask(_) => seq.1.banks_masked,
                Fault::Remap(_) => seq.1.bank_remaps,
                Fault::Transient(_) => seq.1.faults_injected,
            };
            prop_assert!(fired == 1 || seq.1.cycles <= at);
        }
        if mode != Mode::Random && fault.is_none() {
            prop_assert!(def.4 .0 > 0, "{:?} run took no window", mode);
        }
        // Windows stop before every final access, so the fused kernel
        // must also have run proven single slots — the path that makes
        // the drain transition.
        let (dynamic, kernel) = def.4;
        prop_assert!(
            kernel > dynamic,
            "{:?}: no proven single slot ran ({} kernel slots, {} in windows)",
            mode,
            kernel,
            dynamic
        );
    }
}

/// The fused kernel on a degraded or recovered bank map: a fault fires at
/// slot 1, before any window can run (a pending fault refuses windows),
/// so every window of the run executes after it — over a masked bank, a
/// bank remapped onto a spare, or a repaired transient error — and must
/// stay byte-identical to the sequential engine.
#[test]
fn fused_windows_run_after_faults() {
    let script = pinned_script();
    for c in [1, 2] {
        for fault in [Fault::Mask(3), Fault::Remap(3), Fault::Transient(3)] {
            let f = Some((1, fault));
            let seq = drive_default(true, 4, c, Mode::Disjoint, true, f, 64, &script);
            let def = drive_default(false, 4, c, Mode::Disjoint, true, f, 64, &script);
            assert_eq!(seq.0, def.0, "completions, c = {c}, {fault:?}");
            assert_eq!(seq.1, def.1, "stats, c = {c}, {fault:?}");
            assert_eq!(seq.2, def.2, "memory, c = {c}, {fault:?}");
            assert_eq!(seq.3, def.3, "trace, c = {c}, {fault:?}");
            let fired = match fault {
                Fault::Mask(_) => def.1.banks_masked,
                Fault::Remap(_) => def.1.bank_remaps,
                Fault::Transient(_) => def.1.faults_injected,
            };
            assert_eq!(fired, 1, "c = {c}: {fault:?} fired");
            assert!(def.4 .0 > 0, "c = {c}: no window ran after {fault:?}");
        }
    }
}

/// Every processor swaps or fetch-adds its own block, all issued in the
/// same slot: each window starts in the read phase and runs through the
/// read → write transition, so the fused kernel applies the transforms
/// and inserts the write phase's ATT entry mid-window.
#[test]
fn fused_windows_cross_read_to_write() {
    for c in [1, 2, 4] {
        let n = 4;
        let run = |engine: Option<Engine>| {
            let mut cfg = CfmConfig::new(n, c, 16).unwrap();
            if let Some(e) = engine {
                cfg = cfg.with_engine(e);
            }
            let b = cfg.banks();
            let mut m = CfmMachine::builder(cfg).offsets(8).trace(true).build();
            let mut completions = Vec::new();
            for round in 0..6u64 {
                for p in 0..n {
                    let op = if (p as u64 + round).is_multiple_of(2) {
                        Operation::swap(p, vec![round * 10 + p as u64; b])
                    } else {
                        Operation::fetch_add(p, (p + round as usize) % b, round + 1)
                    };
                    m.issue(p, op).unwrap();
                }
                completions.extend(m.run(10_000).expect_idle());
            }
            let memory: Vec<_> = (0..8).map(|o| m.peek_block(o)).collect();
            (
                completions,
                *m.stats(),
                memory,
                m.take_trace().unwrap().into_events(),
                (m.dynamic_slots(), m.dynamic_windows()),
            )
        };
        let seq = run(Some(Engine::Sequential));
        let def = run(None);
        assert_eq!(seq.0, def.0, "completions, c = {c}");
        assert_eq!(seq.1, def.1, "stats, c = {c}");
        assert_eq!(seq.2, def.2, "memory, c = {c}");
        assert_eq!(seq.3, def.3, "trace, c = {c}");
        let (slots, windows) = def.4;
        let b = n as u64 * c as u64;
        assert!(windows > 0, "c = {c}: no window ran");
        assert!(
            slots / windows > b,
            "c = {c}: windows ({slots} slots / {windows}) never crossed read → write"
        );
    }
}

/// A known ATT defect, reproduced on purpose: with n = 4, c = 1, two
/// same-block writes issued at slot 0, a third at slot 1 and a read at
/// slot 3, the read returns a torn block `[1, 1, 1, 2]`. The default
/// engine must reproduce it byte for byte — the windowed engine neither
/// hides nor changes the defect. The fix changes arbitration timing, so
/// it will update the expected block here deliberately.
#[test]
fn torn_read_repro_is_identical_across_engines() {
    let run = |engine: Option<Engine>| {
        let mut cfg = CfmConfig::new(4, 1, 16).unwrap();
        if let Some(e) = engine {
            cfg = cfg.with_engine(e);
        }
        let mut m = CfmMachine::builder(cfg).offsets(4).trace(true).build();
        m.issue(2, Operation::write(0, vec![1; 4])).unwrap();
        m.issue(3, Operation::write(0, vec![2; 4])).unwrap();
        m.step();
        m.issue(0, Operation::write(0, vec![3; 4])).unwrap();
        m.step();
        m.step();
        m.issue(1, Operation::read(0)).unwrap();
        let completions = m.run(10_000).expect_idle();
        (
            completions,
            *m.stats(),
            m.peek_block(0),
            m.take_trace().unwrap().into_events(),
        )
    };
    let seq = run(Some(Engine::Sequential));
    let def = run(None);
    assert_eq!(seq.0, def.0, "completions diverged");
    assert_eq!(seq.1, def.1, "stats diverged");
    assert_eq!(seq.2, def.2, "memory diverged");
    assert_eq!(seq.3, def.3, "traces diverged");
    let read = def
        .0
        .iter()
        .find(|c| c.proc == 1)
        .expect("the read completes");
    assert_eq!(read.data.as_deref(), Some(&[1, 1, 1, 2][..]));
    assert!(read.torn);
    assert_eq!(def.1.torn_reads, 1);
}

/// Frozen observables of [`pinned_single_lane_trace_bytes`] — re-pin
/// only on a deliberate engine or trace-shape change (the failure
/// message prints the new values).
const PINNED_SINGLE_LANE_LEN: usize = 849;
const PINNED_SINGLE_LANE_DIGEST: u64 = 0x528b_2c6a_f6c7_25cc;

/// Byte-pinned trace regression for the default (windowed) engine: a
/// fixed disjoint workload of every op kind on `c = 2`, with a bank
/// masked by a spare-less permanent failure part-way through, so the
/// fused window kernel runs both before and after the bank is masked.
#[test]
fn pinned_single_lane_trace_bytes() {
    let script = pinned_script();
    let seq = drive_default(
        true,
        4,
        2,
        Mode::Disjoint,
        true,
        Some((40, Fault::Mask(5))),
        64,
        &script,
    );
    let def = drive_default(
        false,
        4,
        2,
        Mode::Disjoint,
        true,
        Some((40, Fault::Mask(5))),
        64,
        &script,
    );
    assert_eq!(seq.3, def.3, "engines diverged on the pinned workload");
    assert_eq!(def.1.banks_masked, 1, "the bank was masked");
    assert!(def.4 .0 > 0, "the fused kernel ran");
    let digest = trace_digest(&def.3);
    assert_eq!(
        (def.3.len(), digest),
        (PINNED_SINGLE_LANE_LEN, PINNED_SINGLE_LANE_DIGEST),
        "pinned single-lane trace drifted: len {}, digest {:#018x}",
        def.3.len(),
        digest,
    );
}
