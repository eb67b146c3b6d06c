//! `core-disjoint` and `core-contended`: a bare [`CfmMachine`] with the
//! default configuration, n = 64, c = 1, 64 block offsets.
//!
//! The benchmark issues one operation to every (idle) processor, then
//! calls `run()` until the machine is idle — one *batch*. A *rep* is a
//! fresh machine running the seed's fixed sequence of
//! [`BATCHES_PER_REP`] batches, so every rep's simulated statistics are
//! identical for a seed; the run repeats reps until its time is up and
//! checks that they are.

use std::time::{Duration, Instant};

use cfm_core::config::CfmConfig;
use cfm_core::machine::CfmMachine;
use cfm_core::op::{OpKind, Operation};
use cfm_core::stats::Stats;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::check::{Failures, Ledger};
use crate::host;
use crate::stats::{median, ratio, Metrics, Segmented};
use crate::trace::Tracer;
use crate::{Params, RunResult, SEGMENTS};

/// Processors (and banks, c = 1).
pub const PROCESSORS: usize = 64;
/// Shared-memory blocks.
pub const OFFSETS: usize = 64;
/// Batches per rep: 64 write/read rounds.
pub const BATCHES_PER_REP: usize = 128;
/// Hot blocks shared by the contending half on `core-contended`.
const HOT_BLOCKS: usize = 4;
/// Set-ups (build plus warm-up) per run; their median is `setup_s`.
const SETUP_REPS: usize = 9;
/// Batches a set-up runs to warm up.
const WARMUP_BATCHES: usize = 64;
/// Batch latencies stored per segment (a segment sees a few thousand).
const LATENCY_SAMPLES: usize = 8192;
/// Slot budget of one `run()`: far above any batch's need, so running
/// out is a failure, not a cut-off.
const RUN_BUDGET: u64 = 1_000_000;

/// One planned operation of a batch (payloads are stamped at issue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planned {
    /// Read, write or swap.
    pub kind: OpKind,
    /// Block offset.
    pub offset: usize,
    /// Whether a read must return exactly this processor's last write.
    pub exact: bool,
}

/// The seed's batches: `batches[k][p]` is processor `p`'s operation in
/// batch `k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Every batch of one rep.
    pub batches: Vec<Vec<Planned>>,
}

/// The operations of one rep for `seed`.
///
/// `core-disjoint`: in round `r` (batches `2r`, `2r + 1`) processor `p`
/// writes then reads block `perm[(p + r) mod n]`, `perm` a seeded
/// permutation — disjoint across processors in every batch, yet no
/// static footprint describes them.
///
/// `core-contended`: the even half of the processors write or swap
/// (seeded coin flip) one of [`HOT_BLOCKS`] seeded hot blocks, picked
/// per operation; the odd half alternate write/read on a block of
/// their own.
pub fn plan(contended: bool, seed: u64) -> Plan {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut perm: Vec<usize> = (0..OFFSETS).collect();
    shuffle(&mut perm, &mut rng);
    // Even processors contend, odd ones own a block each: which
    // processors contend sets the arbitration order (ties break by
    // processor id), so it stays fixed and the seed varies the blocks
    // and every per-operation choice.
    let hot_proc = |p: usize| p.is_multiple_of(2);
    let own = |p: usize| perm[HOT_BLOCKS + p / 2];
    let batches = (0..BATCHES_PER_REP)
        .map(|k| {
            let write = k % 2 == 0;
            let alternate = |offset| Planned {
                kind: if write { OpKind::Write } else { OpKind::Read },
                offset,
                exact: !write,
            };
            (0..PROCESSORS)
                .map(|p| {
                    if !contended {
                        alternate(perm[(p + k / 2) % OFFSETS])
                    } else if hot_proc(p) {
                        Planned {
                            kind: if rng.gen_bool(0.5) {
                                OpKind::Write
                            } else {
                                OpKind::Swap
                            },
                            offset: perm[rng.gen_range(0..HOT_BLOCKS)],
                            exact: false,
                        }
                    } else {
                        alternate(own(p))
                    }
                })
                .collect()
        })
        .collect();
    Plan { batches }
}

fn shuffle<T>(v: &mut [T], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
}

fn config() -> CfmConfig {
    CfmConfig::new(PROCESSORS, 1, 32).expect("valid core benchmark shape")
}

/// Simulated statistics of one rep — identical for every rep of a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepStats {
    /// The machine's counters.
    pub stats: Stats,
    /// Slots run by the parallel pipeline.
    pub parallel_slots: u64,
    /// Slots inside statically proven windows.
    pub static_slots: u64,
    /// Statically proven windows.
    pub static_windows: u64,
    /// Slots inside dynamically proven windows.
    pub dynamic_slots: u64,
    /// Dynamically proven windows.
    pub dynamic_windows: u64,
}

impl RepStats {
    fn of(m: &CfmMachine) -> Self {
        RepStats {
            stats: *m.stats(),
            parallel_slots: m.parallel_slots(),
            static_slots: m.static_slots(),
            static_windows: m.static_windows(),
            dynamic_slots: m.dynamic_slots(),
            dynamic_windows: m.dynamic_windows(),
        }
    }

    /// Operations one rep completes.
    pub fn ops(&self) -> u64 {
        self.stats.completed
    }

    /// Simulated slots per 1,000 operations.
    pub fn slots_per_kop(&self) -> f64 {
        ratio(self.stats.cycles as f64 * 1000.0, self.ops() as f64)
    }

    /// ATT-forced restarts per 1,000 operations.
    pub fn restarts_per_kop(&self) -> f64 {
        let s = &self.stats;
        let restarts = s.read_restarts + s.write_restarts + s.swap_restarts;
        ratio(restarts as f64 * 1000.0, self.ops() as f64)
    }
}

/// Per-batch timings a rep reports to the measuring loop.
struct BatchTimes {
    /// Batch end, latency (ns) and slots simulated.
    batches: Vec<(Instant, u64, u64)>,
}

/// Run the first `batches` batches of the plan on a fresh machine,
/// checking every completion.
fn run_rep(
    plan: &Plan,
    batches: usize,
    tracer: &mut Tracer,
    failures: &mut Failures,
) -> (RepStats, BatchTimes) {
    let cfg = config();
    let banks = cfg.banks();
    let mut m = CfmMachine::builder(cfg).offsets(OFFSETS).build();
    let mut ledger = Ledger::new(OFFSETS, banks);
    let mut last_write = vec![0u64; PROCESSORS];
    let mut written = vec![0u64; PROCESSORS];
    let mut answered = [false; PROCESSORS];
    let mut times = BatchTimes {
        batches: Vec::with_capacity(plan.batches.len()),
    };
    for batch in plan.batches.iter().take(batches) {
        let start = Instant::now();
        let cycle0 = m.cycle();
        tracer.begin("client.batch", 0);
        for (p, planned) in batch.iter().enumerate() {
            let op = match planned.kind {
                OpKind::Read => Operation::read(planned.offset),
                OpKind::Write | OpKind::Swap | OpKind::Rmw => {
                    let tag = ledger.next_tag(planned.offset);
                    written[p] = tag;
                    let block = ledger.block(tag);
                    if planned.kind == OpKind::Swap {
                        Operation::swap(planned.offset, block)
                    } else {
                        Operation::write(planned.offset, block)
                    }
                }
            };
            tracer.begin("core.issue", p as u64);
            let issued = m.issue(p, op);
            tracer.end();
            if let Err(e) = issued {
                failures.add(format!("issue on p{p} refused: {e:?}"));
            }
        }
        tracer.begin("core.run", 0);
        let report = m.run(RUN_BUDGET);
        tracer.end();
        if !report.is_idle() {
            failures.add(format!("run() left {} ops pending", report.pending().len()));
        }
        answered.fill(false);
        for c in &report.completions {
            let p = c.proc;
            let planned = batch[p];
            if std::mem::replace(&mut answered[p], true) {
                failures.add(format!("p{p} completed twice in one batch"));
                continue;
            }
            match ledger.check_completion(c, planned.kind, planned.offset) {
                Err(e) => failures.add(e),
                Ok(Some(tag)) if planned.exact && tag != last_write[p] => failures.add(format!(
                    "p{p} read tag {tag} at offset {}, its last write was {}",
                    planned.offset, last_write[p]
                )),
                Ok(_) => {}
            }
            if planned.kind != OpKind::Read {
                last_write[p] = written[p];
            }
        }
        if let Some(p) = answered.iter().position(|a| !a) {
            failures.add(format!("p{p} got no completion in its batch"));
        }
        tracer.end();
        let end = Instant::now();
        let latency = end.duration_since(start).as_nanos() as u64;
        times.batches.push((end, latency, m.cycle() - cycle0));
    }
    let rep = RepStats::of(&m);
    failures.check(rep.stats.bank_conflicts == 0, || {
        format!("{} bank conflicts", rep.stats.bank_conflicts)
    });
    failures.check(rep.stats.torn_reads == 0, || {
        format!("{} torn reads", rep.stats.torn_reads)
    });
    (rep, times)
}

/// What one timed stretch of reps measured.
struct Stretch {
    ops_per_s: f64,
    slots_per_s: f64,
    p50_us: f64,
    p99_us: f64,
    ops: u64,
    slots: u64,
    cpu_ns: u64,
}

/// Repeat reps for `budget`, comparing each rep's statistics with
/// `reference` (the first rep's, if not yet set).
fn measure(
    plan: &Plan,
    budget: Duration,
    reference: &mut Option<RepStats>,
    tracer: &mut Tracer,
    failures: &mut Failures,
) -> Stretch {
    let seg_len = budget.as_secs_f64() / SEGMENTS as f64;
    let mut ops_seg = [0u64; SEGMENTS];
    let mut slots_seg = [0u64; SEGMENTS];
    let mut latency = Segmented::new(SEGMENTS, LATENCY_SAMPLES);
    let (mut ops, mut slots) = (0u64, 0u64);
    let cpu0 = host::process_cpu_ns();
    let start = Instant::now();
    while start.elapsed() < budget {
        let (rep, times) = run_rep(plan, BATCHES_PER_REP, tracer, failures);
        match reference {
            None => *reference = Some(rep),
            Some(r) if *r != rep => failures.add(format!(
                "simulated statistics differ between reps of one seed: {:?} vs {:?}",
                rep.stats, r.stats
            )),
            Some(_) => {}
        }
        for (end, ns, batch_slots) in times.batches {
            let seg = (end.duration_since(start).as_secs_f64() / seg_len) as usize;
            if seg < SEGMENTS {
                ops_seg[seg] += PROCESSORS as u64;
                slots_seg[seg] += batch_slots;
                latency.push(seg, ns as f64 / 1000.0);
            }
            ops += PROCESSORS as u64;
            slots += batch_slots;
        }
    }
    let mut ops_rates: Vec<f64> = ops_seg.iter().map(|&o| o as f64 / seg_len).collect();
    let mut slot_rates: Vec<f64> = slots_seg.iter().map(|&s| s as f64 / seg_len).collect();
    Stretch {
        ops_per_s: median(&mut ops_rates),
        slots_per_s: median(&mut slot_rates),
        p50_us: latency.median_of(0.50, 1),
        p99_us: latency.median_of(0.99, 100),
        ops,
        slots,
        cpu_ns: host::process_cpu_ns() - cpu0,
    }
}

/// Run `core-disjoint` (`contended = false`) or `core-contended`.
pub fn run(contended: bool, params: &Params) -> RunResult {
    let plan = plan(contended, params.seed);
    let mut failures = Failures::default();
    let mut untraced = Tracer::new(false);

    // Set-up: build the machine and warm it up, several times.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut attempted = 0;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let (warm, _) = run_rep(&plan, WARMUP_BATCHES, &mut untraced, &mut failures);
        setups.push(t.elapsed().as_secs_f64());
        attempted += warm.stats.issued;
    }
    let mut reference = None;
    let mut metrics = Metrics::default();
    let budget = Duration::from_secs_f64(params.seconds);

    let mut tracer = Tracer::new(params.trace);
    if !params.trace {
        let s = measure(&plan, budget, &mut reference, &mut untraced, &mut failures);
        let reference = reference.expect("a run measures at least one rep");
        attempted += s.ops;
        metrics.set("setup_s", median(&mut setups), "s");
        metrics.set("ops_per_s", s.ops_per_s, "1/s");
        metrics.set("slots_per_s", s.slots_per_s, "1/s");
        metrics.set("sim_slots_per_kop", reference.slots_per_kop(), "slot/kop");
        metrics.set("p50_us", s.p50_us, "us");
        metrics.set("p99_us", s.p99_us, "us");
        metrics.set(
            "cpu_ms_per_kop",
            s.cpu_ns as f64 / 1e6 / (s.ops as f64 / 1e3),
            "ms",
        );
        metrics.set("peak_rss_mib", host::peak_rss_mib(), "MiB");
    } else {
        // Half untraced, half traced: the difference is the overhead.
        let half = budget / 2;
        let base = measure(&plan, half, &mut reference, &mut untraced, &mut failures);
        let s = measure(&plan, half, &mut reference, &mut tracer, &mut failures);
        let reference = reference.expect("a run measures at least one rep");
        attempted += base.ops + s.ops;
        let (issue, run) = (tracer.agg("core.issue"), tracer.agg("core.run"));
        let r = &reference;
        let windowed = r.static_slots + r.dynamic_slots;
        let cycles = r.stats.cycles as f64;
        metrics.set(
            "core.run_ns_per_slot",
            ratio(run.total_ns as f64, s.slots as f64),
            "ns",
        );
        metrics.set(
            "core.issue_ns",
            ratio(issue.total_ns as f64, issue.count as f64),
            "ns",
        );
        metrics.set(
            "core.window_fraction",
            ratio(windowed as f64, cycles),
            "fraction",
        );
        metrics.set(
            "core.mean_window_slots",
            ratio(
                windowed as f64,
                (r.static_windows + r.dynamic_windows) as f64,
            ),
            "slot",
        );
        metrics.set(
            "core.parallel_fraction",
            ratio(r.parallel_slots as f64, cycles),
            "fraction",
        );
        metrics.set("core.restarts_per_kop", r.restarts_per_kop(), "count");
        metrics.set(
            "core.write_aborts_per_kop",
            ratio(r.stats.write_aborts as f64 * 1000.0, r.ops() as f64),
            "count",
        );
        metrics.set(
            "core.useful_word_fraction",
            r.stats.efficiency(),
            "fraction",
        );
        metrics.set(
            "core.bank_conflicts",
            r.stats.bank_conflicts as f64,
            "count",
        );
        metrics.set(
            "trace.overhead_fraction",
            1.0 - ratio(s.ops_per_s, base.ops_per_s),
            "fraction",
        );
        for layer in ["core", "client"] {
            metrics.set(
                crate::self_metric(layer),
                tracer.layer_self_ns(layer) as f64 / s.ops as f64,
                "ns",
            );
        }
    }
    RunResult {
        metrics,
        attempted,
        failures,
        tracer,
        connections: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep_stats(contended: bool, seed: u64) -> RepStats {
        let mut failures = Failures::default();
        let plan = plan(contended, seed);
        let (rep, _) = run_rep(
            &plan,
            BATCHES_PER_REP,
            &mut Tracer::new(false),
            &mut failures,
        );
        assert_eq!(failures.count, 0, "{:?}", failures.messages);
        rep
    }

    #[test]
    fn simulated_statistics_repeat_exactly_for_a_seed() {
        for contended in [false, true] {
            let (a, b) = (rep_stats(contended, 11), rep_stats(contended, 11));
            assert_eq!(a, b);
            assert_eq!(a.slots_per_kop(), b.slots_per_kop());
            assert_eq!(a.restarts_per_kop(), b.restarts_per_kop());
            assert_eq!(a.stats.efficiency(), b.stats.efficiency());
        }
    }

    #[test]
    fn contended_statistics_depend_on_the_seed() {
        let (a, b) = (rep_stats(true, 11), rep_stats(true, 12));
        assert_ne!(
            (
                a.slots_per_kop(),
                a.restarts_per_kop(),
                a.stats.efficiency()
            ),
            (
                b.slots_per_kop(),
                b.restarts_per_kop(),
                b.stats.efficiency()
            )
        );
        assert!(a.restarts_per_kop() > 0.0, "the hot blocks must contend");
    }

    #[test]
    fn disjoint_timing_does_not_depend_on_the_addresses() {
        // Conflict freedom: with disjoint blocks every access takes the
        // same slots whatever the seed permutes, so only the payloads
        // differ between seeds.
        let (a, b) = (rep_stats(false, 11), rep_stats(false, 12));
        assert_ne!(plan(false, 11), plan(false, 12));
        assert_eq!(a, b);
        assert_eq!(a.restarts_per_kop(), 0.0);
    }
}
