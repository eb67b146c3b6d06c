//! The window proof's incremental state: `CfmMachine::run` refuses a
//! window attempt in O(1) from per-offset claims and busy-operation
//! counts it keeps current as the machine runs. Here
//! `run` is driven with small cycle budgets over disjoint, hot-block and
//! mixed read/write/swap/RMW workloads — both bank cycles, both ATT
//! priority modes, address tracking on and off, generated fault plans,
//! and a same-shape checkpoint/restore mid-run — and after every call
//! the state must equal a full scan of the ATTs and in-flight
//! operations (`CfmMachine::check_window_proof`).
//!
//! The audit exists only in builds with debug assertions (the release
//! window decision never scans); run these in release with
//! `CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true`.
#![cfg(debug_assertions)]

use conflict_free_memory::core::att::PriorityMode;
use conflict_free_memory::core::config::CfmConfig;
use conflict_free_memory::core::fault::{FaultPlan, PlanParams};
use conflict_free_memory::core::machine::{CfmMachine, WindowRefusals};
use conflict_free_memory::core::op::Operation;
use proptest::prelude::*;

/// Blocks every processor of the hot-block and mixed workloads contends
/// on.
const HOT_BLOCKS: usize = 2;

/// Which processors touch which blocks.
#[derive(Debug, Clone, Copy)]
enum Workload {
    /// Every processor on a block of its own.
    Disjoint,
    /// Even processors write or swap a hot block; odd ones write and
    /// read a block of their own.
    HotBlock,
    /// Every processor reads, writes, swaps or RMWs a hot block.
    Mixed,
}

/// One run's shape.
#[derive(Debug, Clone, Copy)]
struct Shape {
    n: usize,
    c: u32,
    mode: PriorityMode,
    tracking: bool,
    workload: Workload,
    budget: u64,
}

fn audit(m: &CfmMachine, at: &str) -> Result<(), String> {
    m.check_window_proof()
        .map_err(|e| format!("{at}, slot {}: {e}", m.cycle()))
}

/// Issue the script round-robin, running the machine `budget` slots at a
/// time whenever the next issuer is busy; checkpoint and restore once,
/// after `restore_at` issues; finally drain to quiescence. The window
/// proof is audited after every issue, `run` call and restore. Returns
/// the refusals and window slots counted since the restore (or start).
fn drive(
    shape: Shape,
    script: &[u64],
    fault_seed: Option<u64>,
    restore_at: usize,
) -> Result<(WindowRefusals, u64), String> {
    let Shape {
        n,
        c,
        mode,
        tracking,
        workload,
        budget,
    } = shape;
    let cfg = CfmConfig::new(n, c, 16).unwrap().with_spares(1).unwrap();
    let b = cfg.banks();
    let mut m = CfmMachine::builder(cfg)
        .offsets(HOT_BLOCKS + n)
        .tracking(tracking)
        .priority(mode)
        .build();
    if let Some(seed) = fault_seed {
        m.injector().fault_plan(FaultPlan::generate(
            seed,
            &PlanParams {
                banks: b,
                processors: n,
                horizon: 96,
                permanent: 1,
                transient: 2,
                max_repair: 4,
                responses: 1,
                stuck: 0,
            },
        ));
    }
    // Latest-wins arbitration is the plain-write mode (§4.1.2).
    let plain = mode == PriorityMode::LatestWins;
    let mut slots = 0u64;
    for (i, &word) in script.iter().enumerate() {
        let p = i % n;
        while m.is_busy(p) {
            let _ = m.run(budget);
            audit(&m, "after run")?;
            slots += budget;
            prop_assert!(slots < 100_000, "the script did not drain");
        }
        if i == restore_at {
            m = m.checkpoint().restore().unwrap();
            audit(&m, "after restore")?;
        }
        let val = word >> 16;
        let hot = (word >> 8) as usize % HOT_BLOCKS;
        let own = HOT_BLOCKS + p;
        let op = match workload {
            Workload::Disjoint if word % 2 == 0 => Operation::write(own, vec![val; b]),
            Workload::Disjoint => Operation::read(own),
            Workload::HotBlock if p % 2 == 1 && word % 2 == 0 => {
                Operation::write(own, vec![val; b])
            }
            Workload::HotBlock if p % 2 == 1 => Operation::read(own),
            Workload::HotBlock if plain || word % 2 == 0 => Operation::write(hot, vec![val; b]),
            Workload::HotBlock => Operation::swap(hot, vec![val ^ 0xA5A5; b]),
            Workload::Mixed => match word % 4 {
                0 => Operation::read(hot),
                1 => Operation::write(hot, vec![val; b]),
                _ if plain => Operation::write(hot, vec![val; b]),
                2 => Operation::swap(hot, vec![val ^ 0xA5A5; b]),
                _ => Operation::fetch_add(hot, val as usize % b, 1),
            },
        };
        m.issue(p, op).unwrap();
        audit(&m, "after issue")?;
    }
    while !m.is_quiescent() {
        let _ = m.run(budget);
        if m.is_idle() {
            m.step();
        }
        audit(&m, "draining")?;
        slots += budget;
        prop_assert!(slots < 100_000, "the machine did not quiesce");
    }
    Ok((m.window_refusals(), m.dynamic_slots()))
}

proptest! {
    /// Random shape, script, fault plan and restore point: the window
    /// proof's incremental state equals the full scan after every
    /// `run` call. `fault_sel` past the seed range means "no fault plan";
    /// `restore_at` past the script means "no restore".
    #[test]
    fn incremental_window_proof_matches_the_full_scan(
        n in 2usize..7,
        c in 1u32..3,
        latest_wins in 0u8..2,
        untracked in 0u8..4,
        workload in 0u8..3,
        budget in 1u64..6,
        script in proptest::collection::vec(0u64..u64::MAX, 1..40),
        fault_sel in 0u64..2_000,
        restore_at in 0usize..60,
    ) {
        let shape = Shape {
            n,
            c,
            mode: if latest_wins == 1 {
                PriorityMode::LatestWins
            } else {
                PriorityMode::EarliestWins
            },
            // Tracking off in one case of four.
            tracking: untracked != 0,
            workload: [Workload::Disjoint, Workload::HotBlock, Workload::Mixed]
                [usize::from(workload)],
            budget,
        };
        let fault_seed = (fault_sel < 1_000).then_some(fault_sel);
        drive(shape, &script, fault_seed, restore_at)?;
    }
}

/// Every workload, mode and bank cycle on one fixed script, with and
/// without faults and with a restore mid-run — and not vacuously: the
/// fault-free contended runs meet hazards, and the fault-free disjoint
/// ones run windows.
#[test]
fn incremental_window_proof_holds_on_fixed_scripts() {
    let script: Vec<u64> = (0..48u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i << 8))
        .collect();
    for workload in [Workload::Disjoint, Workload::HotBlock, Workload::Mixed] {
        for mode in [PriorityMode::EarliestWins, PriorityMode::LatestWins] {
            for c in [1, 2] {
                for fault_seed in [None, Some(7)] {
                    let shape = Shape {
                        n: 5,
                        c,
                        mode,
                        tracking: true,
                        workload,
                        budget: 3,
                    };
                    let (refusals, window_slots) = drive(shape, &script, fault_seed, 20).unwrap();
                    let at = format!("{workload:?}, {mode:?}, c = {c}, faults {fault_seed:?}");
                    if fault_seed.is_none() {
                        match workload {
                            Workload::Disjoint => assert!(window_slots > 0, "{at}: no window ran"),
                            _ => assert!(refusals.hazard > 0, "{at}: no hazard: {refusals:?}"),
                        }
                    }
                }
            }
        }
    }
}
