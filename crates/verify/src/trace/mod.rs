//! `cfm-verify trace` — dynamic analyses over real simulator executions.
//!
//! Where [`crate::schedule`] proves properties of the *abstract* AT-space
//! and [`crate::coherence`] model-checks the protocol *model*, this
//! module closes the remaining gap: it runs the actual machines with the
//! structured event layer ([`cfm_core::trace`]) enabled and re-derives
//! the paper's guarantees from the observed traces —
//!
//! * [`hb`] — a vector-clock **happens-before race detector** (program
//!   order + ATT arbitration edges, word-order uniformity as the
//!   no-overlap defence) and the **per-bank busy-time auditor** that
//!   re-validates the static spacing theorem against observed injections;
//! * [`linearize`] — an exhaustive **linearizability checker** for
//!   `swap`/read-modify-write histories and the lock/unlock protocol
//!   built on them, against the sequential block spec;
//! * a **network cross-check** replaying every routed injection through
//!   the synchronous omega's physical switch states;
//! * the **static lock-order analysis** of
//!   [`resource_binding::lockorder`] over the binding crate's
//!   acquisition disciplines;
//! * seeded-fault **self-tests** (a dropped ATT insert, a reordered
//!   write-back, an inverted lock order, a tampered history) proving
//!   every detector can fail.

pub mod hb;
pub mod linearize;
pub mod workloads;

use std::ops::RangeInclusive;

use cfm_core::config::{CfmConfig, Engine};
use cfm_core::machine::CfmMachine;
use cfm_core::op::Operation;
use cfm_core::trace::{MemoryTrace, TraceEvent};
use cfm_net::sync_omega::SyncOmega;
use resource_binding::lockorder::LockOrderGraph;

use crate::report::Check;

/// Which configurations the trace sweep executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpec {
    /// Processor counts.
    pub n: RangeInclusive<usize>,
    /// Bank cycle times.
    pub c: RangeInclusive<u32>,
    /// Slot-sharing degrees exercised by the sharing pass.
    pub sharers: Vec<usize>,
    /// Slot engine the core-machine workloads run under (`--engine`):
    /// the dynamic analyses consume real traces, so running the sweep
    /// with [`Engine::Windowed`] re-derives the paper's guarantees from
    /// the fused kernel's executions.
    pub engine: Engine,
}

impl Default for TraceSpec {
    /// The acceptance sweep: every `(n, c)` the schedule verifier proves.
    fn default() -> Self {
        TraceSpec {
            n: 2..=16,
            c: 1..=4,
            sharers: vec![2],
            engine: Engine::Sequential,
        }
    }
}

/// Run the full trace suite: the per-config sweep, the fixed
/// linearizability/lock/cache/binding passes, and (when `self_test`)
/// the seeded-fault self-tests.
pub fn verify(spec: &TraceSpec, self_test: bool) -> Vec<Check> {
    let mut checks = Vec::new();
    for n in spec.n.clone() {
        for c in spec.c.clone() {
            checks.extend(verify_config(n, c, spec.engine));
        }
    }
    checks.extend(fixed_passes(&spec.sharers));
    if self_test {
        checks.extend(self_tests());
    }
    checks
}

/// The per-configuration dynamic checks: race freedom of the contention
/// workload, the bank busy-time audit, and (where an omega network of
/// that size exists) the physical-route cross-check — all over a trace
/// produced by the requested slot `engine`.
pub fn verify_config(n: usize, c: u32, engine: Engine) -> Vec<Check> {
    let mut checks = Vec::new();
    let cfg = CfmConfig::new(n, c, 16).expect("valid sweep config");
    let banks = cfg.banks();
    let subject = format!(
        "core: n={n} c={c} b={banks} engine={}",
        crate::chaos::engine_label(engine)
    );
    let (events, history) = workloads::core_contention(n, c, engine);
    let analysis = hb::analyze(&events);

    let races = hb::find_races(&analysis);
    checks.push(if races.is_empty() {
        Check::pass(
            "trace/race-freedom",
            &subject,
            format!(
                "{} ops, {} events: every same-block pair ordered or word-uniform",
                analysis.ops.len(),
                analysis.events
            ),
        )
        .with_metric("events", analysis.events as u64)
        .with_metric("ops", analysis.ops.len() as u64)
        .with_metric("races", 0)
    } else {
        let first = &races[0];
        Check::fail(
            "trace/race-freedom",
            &subject,
            first.summary.clone(),
            first.lines.clone(),
        )
        .with_metric("races", races.len() as u64)
    });

    checks.push(match hb::audit_bank_spacing(&events, banks, c as u64) {
        Ok(routes) => Check::pass(
            "trace/bank-spacing",
            &subject,
            format!("{routes} injections on the c={c} lattice, schedule-conformant"),
        )
        .with_metric("routes", routes),
        Err(witness) => Check::fail(
            "trace/bank-spacing",
            &subject,
            "observed injections violate the spacing theorem",
            witness,
        ),
    });

    // With c = 1 and a power-of-two bank count the omega network is the
    // physical realisation of the schedule: replay every injection
    // through the switch states.
    if c == 1 && banks.is_power_of_two() && banks >= 2 {
        checks.push(net_cross_check(&events, banks, &history));
    }
    checks
}

/// Replay every [`TraceEvent::Route`] through the synchronous omega's
/// precomputed switch states and demand the physical walk lands on the
/// scheduled bank.
fn net_cross_check(events: &[TraceEvent], banks: usize, history: &[linearize::HistOp]) -> Check {
    let subject = format!("net: ports={banks} (c=1)");
    let net = SyncOmega::new(banks);
    let mut walked = MemoryTrace::new();
    let mut routes = 0u64;
    for ev in events {
        if let TraceEvent::Route { slot, proc, bank } = ev {
            routes += 1;
            let out = net.walk_route_traced(*slot, *proc, &mut walked);
            if out != *bank {
                return Check::fail(
                    "trace/net-route",
                    &subject,
                    "physical switch walk disagrees with the AT-space schedule",
                    vec![format!(
                        "slot {slot} proc {proc}: schedule bank {bank}, switches deliver {out}"
                    )],
                );
            }
        }
    }
    Check::pass(
        "trace/net-route",
        &subject,
        format!(
            "{routes} injections re-walked through the switch states ({} ops)",
            history.len()
        ),
    )
    .with_metric("routes", routes)
}

/// The fixed-size passes: linearizability of the swap contest, of the
/// lock protocol, and of the cache counter; slot-sharing trace
/// consistency; and the binding crate's static lock-order discipline.
pub fn fixed_passes(sharers: &[usize]) -> Vec<Check> {
    let mut checks = Vec::new();

    // Core: exhaustive linearizability of an overlapping swap/RMW/read
    // contest.
    let (history, banks) = workloads::core_swap_contest(3);
    let subject = format!("core: swap-contest n=3 ops={}", history.len());
    checks.push(
        match linearize::check_linearizable(&workloads::zero_memory(), &history, banks) {
            Ok(ok) => Check::pass(
                "trace/linearizability",
                &subject,
                "history linearizes against the sequential block spec",
            )
            .with_metric("states", ok.states)
            .with_metric("ops", history.len() as u64),
            Err(w) => Check::fail(
                "trace/linearizability",
                &subject,
                "history is not linearizable",
                vec![w],
            ),
        },
    );

    // Core: the lock/unlock protocol built on swap — mutual exclusion of
    // the observed critical sections plus race freedom of the spin
    // traffic underneath.
    checks.push(lock_pass(4, 2, 3));

    // Core: slot-sharing trace consistency for each requested degree.
    for &s in sharers {
        checks.push(slot_share_pass(4, s));
    }

    // Cache: the fetch-and-add atomicity contest, re-checked offline.
    checks.push(cache_pass(4, 3));

    // Binding: the static acquisition-order discipline.
    checks.push(lock_order_pass());

    checks
}

/// Mutual exclusion + linearizability-of-locking from the spin-lock
/// ledger, and race freedom of the machine trace underneath it.
fn lock_pass(n: usize, rounds: u64, hold: u64) -> Check {
    let run = workloads::lock_contest(n, rounds, hold);
    let subject = format!("core: lock-contest n={n} rounds={rounds}");
    let expected = n as u64 * rounds;
    if run.entries != expected {
        return Check::fail(
            "trace/linearizability",
            &subject,
            format!(
                "{} critical sections completed, expected {expected}",
                run.entries
            ),
            vec![],
        );
    }
    if run.max_inside > 1 {
        return Check::fail(
            "trace/linearizability",
            &subject,
            "mutual exclusion violated",
            vec![format!(
                "{} processors inside simultaneously",
                run.max_inside
            )],
        );
    }
    let mut log = run.log.clone();
    log.sort_unstable();
    for pair in log.windows(2) {
        if pair[0].1 > pair[1].0 {
            return Check::fail(
                "trace/linearizability",
                &subject,
                "critical sections overlap in time",
                vec![format!(
                    "proc {} [{}, {}] overlaps proc {} [{}, {}]",
                    pair[0].2, pair[0].0, pair[0].1, pair[1].2, pair[1].0, pair[1].1
                )],
            );
        }
    }
    let analysis = hb::analyze(&run.events);
    let races = hb::find_races(&analysis);
    if let Some(first) = races.first() {
        return Check::fail(
            "trace/race-freedom",
            &subject,
            first.summary.clone(),
            first.lines.clone(),
        )
        .with_metric("races", races.len() as u64);
    }
    Check::pass(
        "trace/linearizability",
        &subject,
        format!(
            "{expected} lock hand-offs serialize; spin traffic race-free ({} events)",
            analysis.events
        ),
    )
    .with_metric("events", analysis.events as u64)
    .with_metric("races", 0)
    .with_metric("entries", expected)
}

/// Every [`TraceEvent::SlotLaunch`] must match the oldest outstanding
/// [`TraceEvent::SlotEnqueue`] of the same partition (FIFO), with the
/// recorded wait equal to the slot difference.
fn slot_share_pass(slots: usize, sharers: usize) -> Check {
    let events = workloads::slot_share_run(slots, sharers);
    let subject = format!("core: slot-sharing n={slots} sharers={sharers}");
    let mut queues: Vec<std::collections::VecDeque<(usize, u64)>> =
        vec![std::collections::VecDeque::new(); slots];
    let mut launches = 0u64;
    for ev in &events {
        match ev {
            TraceEvent::SlotEnqueue {
                slot,
                sharer,
                partition,
            } => queues[*partition].push_back((*sharer, *slot)),
            TraceEvent::SlotLaunch {
                slot,
                sharer,
                partition,
                waited,
            } => {
                launches += 1;
                let Some((head, enqueued)) = queues[*partition].pop_front() else {
                    return Check::fail(
                        "trace/slot-sharing",
                        &subject,
                        "launch without a queued operation",
                        vec![format!(
                            "sharer {sharer} launched on empty partition {partition}"
                        )],
                    );
                };
                if head != *sharer || *waited != slot - enqueued {
                    return Check::fail(
                        "trace/slot-sharing",
                        &subject,
                        "launch order or wait accounting diverges from FIFO",
                        vec![format!(
                            "partition {partition}: launched sharer {sharer} (waited {waited}), \
                             queue head was sharer {head} enqueued at {enqueued}"
                        )],
                    );
                }
            }
            _ => {}
        }
    }
    Check::pass(
        "trace/slot-sharing",
        &subject,
        format!("{launches} launches FIFO per partition with exact wait accounting"),
    )
    .with_metric("launches", launches)
}

/// The cache counter contest: final value must equal the add count and
/// the observed old-value history must linearize.
fn cache_pass(n: usize, adds: usize) -> Check {
    let run = workloads::cache_counter_contest(n, adds);
    let subject = format!("cache: fetch-add n={n} adds={adds}");
    let expected = (n * adds) as u64;
    if run.final_value != expected {
        return Check::fail(
            "trace/linearizability",
            &subject,
            format!("counter ended at {}, expected {expected}", run.final_value),
            vec![],
        );
    }
    match linearize::check_linearizable(&workloads::zero_memory(), &run.history, run.banks) {
        Ok(ok) => Check::pass(
            "trace/linearizability",
            &subject,
            format!("{expected} atomic increments linearize; counter exact"),
        )
        .with_metric("states", ok.states)
        .with_metric("ops", run.history.len() as u64),
        Err(w) => Check::fail(
            "trace/linearizability",
            &subject,
            "fetch-add history is not linearizable",
            vec![w],
        ),
    }
}

/// The binding crate's acquisition disciplines, checked statically: the
/// ordered philosophers, a sorted multi-region bind (what the
/// multiple-test-and-set acquisition amounts to), and a pipeline chain.
fn lock_order_pass() -> Check {
    let mut g = LockOrderGraph::new();
    for i in 0..5usize {
        g.add_ordered_sequence(&format!("phil-{i}"), &[i, (i + 1) % 5]);
    }
    g.add_ordered_sequence("region-rw", &[1, 3, 4]);
    g.add_ordered_sequence("linda-in-out", &[2, 4]);
    for k in 0..3usize {
        g.add_sequence(&format!("pipe-{k}"), &[k, k + 1]);
    }
    let subject = "binding: ordered-discipline (philosophers+regions+pipeline)";
    let cycles = g.find_cycles();
    if let Some(c) = cycles.first() {
        return Check::fail(
            "trace/lock-order",
            subject,
            "acquisition graph has a cycle — ordering discipline broken",
            vec![c.path()],
        )
        .with_metric("cycles", cycles.len() as u64);
    }
    Check::pass(
        "trace/lock-order",
        subject,
        format!(
            "{} locks, {} held→acquired edges, no cycle: discipline certified",
            g.locks().count(),
            g.edge_count()
        ),
    )
    .with_metric("edges", g.edge_count() as u64)
    .with_metric("cycles", 0)
}

/// Seeded-fault self-tests: each check passes iff the corresponding
/// detector catches a deliberately injected fault.
pub fn self_tests() -> Vec<Check> {
    vec![
        dropped_merge_self_test(),
        reordered_writeback_self_test(),
        lock_cycle_self_test(),
        tampered_history_self_test(),
    ]
}

/// Drop a writer's ATT insertion: its write phase goes untracked, an
/// overlapping reader tears, and the race detector must say so.
fn dropped_merge_self_test() -> Check {
    let cfg = CfmConfig::new(4, 1, 16).expect("valid config");
    let banks = cfg.banks();
    let mut m = CfmMachine::builder(cfg)
        .offsets(8)
        .trace(true)
        .inject(|inj| {
            inj.drop_att_inserts(1);
        })
        .build();
    m.issue(0, Operation::write(0, vec![7; banks]))
        .expect("idle processor accepts");
    m.issue(1, Operation::read(0))
        .expect("idle processor accepts");
    for _ in 0..10_000 {
        if m.is_idle() {
            break;
        }
        m.step();
    }
    let events = m.take_trace().expect("tracing was enabled").into_events();
    let races = hb::find_races(&hb::analyze(&events));
    let subject = "core: n=4 c=1, first ATT insert dropped";
    if races.is_empty() {
        Check::fail(
            "self-test/trace-dropped-merge",
            subject,
            "untracked write raced a reader but the detector saw nothing — it is vacuous",
            vec!["expected at least one race witness".into()],
        )
    } else {
        Check::pass(
            "self-test/trace-dropped-merge",
            subject,
            format!("detector caught the untracked write: {}", races[0].summary),
        )
        .with_metric("races", races.len() as u64)
    }
}

/// Tamper a clean trace by swapping the bank-0 write-back slots of two
/// sequential writers: word order turns mixed on one bank and the
/// detector must flag the pair.
fn reordered_writeback_self_test() -> Check {
    let cfg = CfmConfig::new(4, 1, 16).expect("valid config");
    let banks = cfg.banks();
    let mut m = CfmMachine::builder(cfg).offsets(8).trace(true).build();
    let a = m.execute(0, Operation::write(0, vec![11; banks]));
    // Let processor 0's ATT entry age out so the second write is merged
    // with nothing — the two writes are word-uniform, not HB-ordered.
    for _ in 0..2 * banks {
        m.step();
    }
    let b = m.execute(1, Operation::write(0, vec![22; banks]));
    let mut events = m.take_trace().expect("tracing was enabled").into_events();

    // Find the two ops' bank-0 write-backs and swap the slot stamps.
    let backs: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| {
            matches!(
                e,
                TraceEvent::BankAccess {
                    bank: 0,
                    write: true,
                    ..
                }
            )
        })
        .map(|(i, _)| i)
        .collect();
    let (ia, ib) = match backs.as_slice() {
        [x, y] => (*x, *y),
        _ => {
            return Check::fail(
                "self-test/trace-reordered-writeback",
                "core: n=4 c=1",
                "trace did not contain both write-backs to tamper",
                vec![format!(
                    "ops completed at {} and {}",
                    a.completed_at, b.completed_at
                )],
            )
        }
    };
    let (sa, sb) = (events[ia].slot(), events[ib].slot());
    for (idx, slot) in [(ia, sb), (ib, sa)] {
        if let TraceEvent::BankAccess { slot: s, .. } = &mut events[idx] {
            *s = slot;
        }
    }
    let races = hb::find_races(&hb::analyze(&events));
    let subject = "core: n=4 c=1, bank-0 write-backs swapped";
    if races.is_empty() {
        Check::fail(
            "self-test/trace-reordered-writeback",
            subject,
            "reordered write-back not detected — the word-order check is vacuous",
            vec!["expected a mixed-order race witness".into()],
        )
    } else {
        Check::pass(
            "self-test/trace-reordered-writeback",
            subject,
            format!("detector caught the reordering: {}", races[0].summary),
        )
        .with_metric("races", races.len() as u64)
    }
}

/// The unordered dining philosophers: each grabs the left fork then the
/// right, closing the classic cycle the analyzer must report.
fn lock_cycle_self_test() -> Check {
    let mut g = LockOrderGraph::new();
    for i in 0..5usize {
        g.add_sequence(&format!("phil-{i}"), &[i, (i + 1) % 5]);
    }
    let cycles = g.find_cycles();
    let subject = "binding: unordered philosophers (5 forks)";
    match cycles.first() {
        Some(c) if c.locks == vec![0, 1, 2, 3, 4] => Check::pass(
            "self-test/trace-lock-cycle",
            subject,
            format!("analyzer reported the cycle: {}", c.path()),
        )
        .with_metric("cycles", cycles.len() as u64),
        Some(c) => Check::fail(
            "self-test/trace-lock-cycle",
            subject,
            "a cycle was found but not the philosophers' ring",
            vec![c.path()],
        ),
        None => Check::fail(
            "self-test/trace-lock-cycle",
            subject,
            "inverted lock order not detected — the analyzer is vacuous",
            vec!["expected the 0→1→2→3→4→0 fork cycle".into()],
        ),
    }
}

/// Corrupt one response in a real swap history: the linearizability
/// oracle must reject it.
fn tampered_history_self_test() -> Check {
    let (mut history, banks) = workloads::core_swap_contest(2);
    let subject = "core: swap-contest n=2, one response corrupted";
    let Some(victim) = history.iter_mut().find(|h| h.response.is_some()) else {
        return Check::fail(
            "self-test/trace-linearizability",
            subject,
            "history had no response to corrupt",
            vec![],
        );
    };
    if let Some(resp) = victim.response.as_mut() {
        resp[0] = resp[0].wrapping_add(1_000_000);
    }
    match linearize::check_linearizable(&workloads::zero_memory(), &history, banks) {
        Err(w) => Check::pass(
            "self-test/trace-linearizability",
            subject,
            "oracle rejected the corrupted history",
        )
        .with_metric("ops", history.len() as u64)
        .with_metric("witness_len", w.len() as u64),
        Ok(_) => Check::fail(
            "self-test/trace-linearizability",
            subject,
            "corrupted history accepted — the oracle is vacuous",
            vec!["expected a no-linearization witness".into()],
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Status;

    #[test]
    fn one_config_passes_cleanly() {
        for check in verify_config(4, 2, Engine::Sequential) {
            assert_eq!(
                check.status,
                Status::Pass,
                "{}: {}",
                check.name,
                check.detail
            );
        }
    }

    #[test]
    fn parallel_engine_traces_pass_the_same_analyses() {
        for check in verify_config(4, 1, Engine::Windowed) {
            assert_eq!(
                check.status,
                Status::Pass,
                "{}: {}",
                check.name,
                check.detail
            );
        }
    }

    #[test]
    fn fixed_passes_are_green() {
        for check in fixed_passes(&[2]) {
            assert_eq!(
                check.status,
                Status::Pass,
                "{}: {}",
                check.name,
                check.detail
            );
        }
    }

    #[test]
    fn all_self_tests_catch_their_faults() {
        for check in self_tests() {
            assert_eq!(
                check.status,
                Status::Pass,
                "{} ({}): {}",
                check.name,
                check.subject,
                check.detail
            );
        }
    }

    #[test]
    fn every_crate_has_a_workload() {
        let mut checks = verify_config(4, 1, Engine::Sequential);
        checks.extend(fixed_passes(&[2]));
        for prefix in ["core:", "net:", "cache:", "binding:"] {
            assert!(
                checks
                    .iter()
                    .any(|c| c.name.starts_with("trace/") && c.subject.starts_with(prefix)),
                "no trace workload exercises {prefix}"
            );
        }
    }
}
