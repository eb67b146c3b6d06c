//! Core-engine throughput: sequential vs windowed slot engine.
//!
//! Soaks a steady disjoint-block workload (every processor continuously
//! re-issuing reads/writes of its own block — the conflict-free case the
//! windowed engine proves once per window) and a contended one (half the
//! processors on four hot blocks) on a grid of machine shapes × engines
//! × variants (plain / traced / faulted / dynamic-window / hot-block),
//! and records simulated slots per wall-clock second into
//! `BENCH_core.json`.
//!
//! The report includes `host_cpus` *and* `host_free_cores` (detected
//! from the 1-minute load average) so a reader can tell a loaded host's
//! numbers apart: both engines run on one thread, and a busy host
//! slows them alike (see `docs/performance.md` for how to read them).
//!
//! `--smoke` shrinks the slot budget for CI.

use std::io::Write as _;
use std::time::Instant;

use cfm_bench::print_table;
use cfm_core::config::{CfmConfig, Engine};
use cfm_core::fault::{FaultPlan, PlanParams};
use cfm_core::machine::{AccessFallbacks, CfmMachine, WindowRefusals};
use cfm_core::op::Operation;

const WORD_WIDTH: u32 = 16;
const SPARES: usize = 1;

/// Hot blocks the even processors share on the `hot-block` variant.
const HOT_BLOCKS: usize = 4;

/// Machine shapes exercised: small / medium / large (single-cluster).
const SHAPES: [(usize, u32); 3] = [(16, 1), (64, 1), (256, 1)];

/// Engine grid: the sequential reference stepper and the windowed
/// engine (the default).
const ENGINES: [(&str, Engine); 2] = [
    ("sequential", Engine::Sequential),
    ("windowed", Engine::Windowed),
];

/// `plain`, `traced` and `faulted` issue a fixed per-processor block;
/// `dynamic-window` rotates every processor's block each generation —
/// disjoint at runtime but *not* expressible as a residue-class
/// footprint (`NotPeriodic` programs). The runtime hazard scan proves
/// both shapes; `dynamic_fraction` shows how many slots it covered.
/// `hot-block` makes the even processors write or swap one of
/// [`HOT_BLOCKS`] shared blocks while the odd ones keep their own: ATT
/// arbitration runs every slot, so slots mix fused and checked
/// accesses (`access_fallbacks` says why each access was checked).
const VARIANTS: [&str; 5] = ["plain", "traced", "faulted", "dynamic-window", "hot-block"];

struct Measured {
    shape: (usize, u32),
    variant: &'static str,
    engine: &'static str,
    slots: u64,
    wall_s: f64,
    parallel_slots: u64,
    dynamic_slots: u64,
    dynamic_windows: u64,
    refusals: WindowRefusals,
    fallbacks: AccessFallbacks,
}

struct Counters {
    slots: u64,
    wall_s: f64,
    parallel_slots: u64,
    dynamic_slots: u64,
    dynamic_windows: u64,
    refusals: WindowRefusals,
    fallbacks: AccessFallbacks,
}

/// Cores actually free right now: logical CPUs minus the 1-minute load
/// average (clamped to at least 1) — tells a loaded host's numbers
/// apart on a shared machine.
fn detect_free_cores(host_cpus: usize) -> usize {
    let load1 = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .next()
                .and_then(|t| t.parse::<f64>().ok())
        })
        .unwrap_or(0.0);
    ((host_cpus as f64 - load1).floor().max(1.0)) as usize
}

fn run_one((n, c): (usize, u32), engine: Engine, variant: &str, slot_budget: u64) -> Counters {
    let cfg = CfmConfig::new(n, c, WORD_WIDTH)
        .and_then(|cfg| cfg.with_spares(SPARES))
        .expect("valid bench config")
        .with_engine(engine);
    let b = cfg.banks();
    let mut m = CfmMachine::builder(cfg)
        .offsets(n)
        .trace(variant == "traced")
        .build();
    if variant == "faulted" {
        m.injector().fault_plan(FaultPlan::generate(
            42,
            &PlanParams {
                banks: b,
                processors: n,
                horizon: slot_budget.max(4) / 2,
                permanent: 1,
                transient: 4,
                max_repair: 8,
                responses: 2,
                stuck: 0,
            },
        ));
    }
    let mut write_next = vec![true; n];
    let mut round = 0usize;
    let mut last_discard = 0u64;
    let start = Instant::now();
    while m.cycle() < slot_budget {
        for (p, next) in write_next.iter_mut().enumerate() {
            if !m.is_busy(p) {
                // Each processor hammers its own block (or, on the
                // dynamic-window variant, a block rotating every
                // generation): disjoint offsets, so the windows stay
                // hazard-free and the engine's batched path engages —
                // the engine's best case. On the hot-block variant the
                // even processors write or swap a hot block (rotating
                // every generation) and the odd ones keep their own:
                // the per-slot path's mixed case.
                let hot = variant == "hot-block" && p.is_multiple_of(2);
                let offset = if variant == "dynamic-window" {
                    (p + round) % n
                } else if hot {
                    (p / 2 + round) % HOT_BLOCKS
                } else if variant == "hot-block" {
                    HOT_BLOCKS + p / 2
                } else {
                    p
                };
                let op = if *next {
                    Operation::write(offset, vec![m.cycle() + p as u64; b])
                } else if hot {
                    Operation::swap(offset, vec![m.cycle() + p as u64; b])
                } else {
                    Operation::read(offset)
                };
                *next = !*next;
                let _ = m.issue(p, op);
            }
        }
        round = round.wrapping_add(1);
        // Window dispatch engages inside `run()`, never `step()`: drain
        // the issued batch to idle (or the budget) in proven windows,
        // falling back to per-slot stepping wherever the preconditions
        // fail (e.g. under active faults).
        let _ = m.run(slot_budget - m.cycle());
        // Bound trace memory: the events are the cost being measured,
        // not the analysis, so discard them periodically — keeping the
        // buffer's capacity, so the measurement is the recording cost,
        // not allocator/page-fault churn. Cycle deltas, not multiples:
        // window dispatch advances the cycle in jumps.
        if variant == "traced" && m.cycle() >= last_discard + 2048 {
            m.discard_trace();
            last_discard = m.cycle();
        }
    }
    Counters {
        slots: m.cycle(),
        wall_s: start.elapsed().as_secs_f64(),
        parallel_slots: m.parallel_slots(),
        dynamic_slots: m.dynamic_slots(),
        dynamic_windows: m.dynamic_windows(),
        refusals: m.window_refusals(),
        fallbacks: m.access_fallbacks(),
    }
}

fn json_report(
    measured: &[Measured],
    host_cpus: usize,
    host_free_cores: usize,
    slot_budget: u64,
    smoke: bool,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"bench_core\",\n");
    out.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    out.push_str(&format!("  \"host_free_cores\": {host_free_cores},\n"));
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"slot_budget\": {slot_budget},\n"));
    out.push_str(
        "  \"note\": \"Honest numbers for the host recorded in host_cpus/host_free_cores \
         (logical CPUs minus 1-min load average at bench start); both engines run on one \
         thread. dynamic_fraction is the share of slots executed inside windows proven \
         by the runtime hazard scan. window_refusals counts, per reason, the run() steps \
         that fell back to a single slot instead of a window; access_fallbacks counts, \
         per reason, the single-slot accesses that took the checked path instead of \
         the fused kernel. See docs/performance.md.\",\n",
    );
    out.push_str("  \"runs\": [\n");
    for (i, m) in measured.iter().enumerate() {
        let rate = m.slots as f64 / m.wall_s;
        let seq_rate = measured
            .iter()
            .find(|s| s.shape == m.shape && s.variant == m.variant && s.engine == "sequential")
            .map(|s| s.slots as f64 / s.wall_s)
            .unwrap_or(rate);
        out.push_str(&format!(
            "    {{\"n\": {}, \"c\": {}, \"variant\": \"{}\", \"engine\": \"{}\", \
             \"slots\": {}, \"wall_time_s\": {:.4}, \"slots_per_s\": {:.0}, \
             \"speedup_vs_seq\": {:.3}, \"parallel_slots\": {}, \"parallel_fraction\": {:.3}, \
             \"dynamic_slots\": {}, \"dynamic_fraction\": {:.3}, \"dynamic_windows\": {}, \
             \"window_refusals\": {{\"fault\": {}, \"op_busy\": {}, \"short\": {}, \"hazard\": {}}}, \
             \"access_fallbacks\": {{\"seeded\": {}, \"transient\": {}, \"held\": {}, \
             \"contended\": {}, \"mixed_slots\": {}}}}}{}\n",
            m.shape.0,
            m.shape.1,
            m.variant,
            m.engine,
            m.slots,
            m.wall_s,
            rate,
            rate / seq_rate,
            m.parallel_slots,
            m.parallel_slots as f64 / m.slots.max(1) as f64,
            m.dynamic_slots,
            m.dynamic_slots as f64 / m.slots.max(1) as f64,
            m.dynamic_windows,
            m.refusals.fault,
            m.refusals.op_busy,
            m.refusals.short,
            m.refusals.hazard,
            m.fallbacks.seeded,
            m.fallbacks.transient,
            m.fallbacks.held,
            m.fallbacks.contended,
            m.fallbacks.mixed_slots,
            if i + 1 == measured.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"build\": \"{}\"\n",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    ));
    out.push_str("}\n");
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let slot_budget: u64 = if smoke { 512 } else { 6000 };
    let host_cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let host_free_cores = detect_free_cores(host_cpus);

    let mut measured = Vec::new();
    for shape in SHAPES {
        for variant in VARIANTS {
            for (name, engine) in ENGINES {
                let c = run_one(shape, engine, variant, slot_budget);
                measured.push(Measured {
                    shape,
                    variant,
                    engine: name,
                    slots: c.slots,
                    wall_s: c.wall_s,
                    parallel_slots: c.parallel_slots,
                    dynamic_slots: c.dynamic_slots,
                    dynamic_windows: c.dynamic_windows,
                    refusals: c.refusals,
                    fallbacks: c.fallbacks,
                });
            }
        }
    }

    let rows: Vec<Vec<String>> = measured
        .iter()
        .map(|m| {
            let rate = m.slots as f64 / m.wall_s;
            let seq_rate = measured
                .iter()
                .find(|s| s.shape == m.shape && s.variant == m.variant && s.engine == "sequential")
                .map(|s| s.slots as f64 / s.wall_s)
                .unwrap_or(rate);
            vec![
                format!("n={} c={}", m.shape.0, m.shape.1),
                m.variant.to_string(),
                m.engine.to_string(),
                format!("{rate:.0}"),
                format!("{:.3}", rate / seq_rate),
                format!("{:.3}", m.parallel_slots as f64 / m.slots.max(1) as f64),
                format!("{:.3}", m.dynamic_slots as f64 / m.slots.max(1) as f64),
            ]
        })
        .collect();
    print_table(
        &format!("Core engine throughput (host_cpus = {host_cpus}, free = {host_free_cores})"),
        &[
            "Shape",
            "Variant",
            "Engine",
            "Slots/s",
            "vs seq",
            "par fraction",
            "dyn fraction",
        ],
        &rows,
    );

    let json = json_report(&measured, host_cpus, host_free_cores, slot_budget, smoke);
    match std::fs::File::create("BENCH_core.json").and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("wrote BENCH_core.json"),
        Err(e) => println!("could not write BENCH_core.json: {e}"),
    }
}
