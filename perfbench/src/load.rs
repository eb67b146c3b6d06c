//! The client: the tenant-mix generator and the closed- and open-loop
//! phases shared by `serve-mixed` and `edge-wire`.
//!
//! A [`Target`] is one way to reach the service — in-process tickets or
//! wire connections. The [`Client`] owns everything it knows
//! about its requests (intended send time, what was asked, what came
//! back) and checks every response: exactly one per request id, from
//! the tenant that sent it, and for reads a whole block one write
//! stored (see [`crate::check`]).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use cfm_core::config::CfmConfig;
use cfm_core::op::{OpKind, Operation};
use cfm_serve::{Criticality, Response, ServiceConfig, TenantSpec};
use cfm_workloads::tenants::{adversarial_mix, TenantTraffic};

use crate::check::{Failures, Ledger, SeenSet};
use crate::stats::{ratio, Segmented};
use crate::trace::{ns_between, Tracer};
use crate::SEGMENTS;

/// Processor lanes of the served machine.
pub const PROCESSORS: usize = 16;
/// Shared-memory blocks of the served machine.
pub const OFFSETS: usize = 64;
/// Closed-loop in-flight window. At most one tenant's share of it can
/// wait in that tenant's queue (capacity 64), so the closed loop is
/// never refused.
pub const WINDOW: usize = 64;
/// Per-bank budget of each neighbour tenant, in operations per budget
/// window (32 slots): the three neighbours together may take 24 of
/// the ~32 issue slots a window offers, so the QoS budget path engages
/// under saturation and the probe keeps headroom.
pub const NEIGHBOUR_BANK_BUDGET: u32 = 8;
/// Operations a fresh service runs closed-loop before it counts as set
/// up.
pub const WARMUP_OPS: u64 = 4096;
/// Open-loop latencies stored per segment.
const LATENCY_SAMPLES: usize = 1 << 14;
/// How long a phase waits for its last responses before declaring them
/// lost.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// The served machine's configuration: the default engine, no summary.
pub fn machine_config() -> CfmConfig {
    CfmConfig::new(PROCESSORS, 1, 32).expect("valid served machine shape")
}

/// The `adversarial_mix` roster as a service configuration: the probe
/// is latency-critical, each neighbour carries a per-bank budget.
pub fn service_config() -> ServiceConfig {
    adversarial_mix(OFFSETS)
        .iter()
        .fold(ServiceConfig::new(machine_config(), OFFSETS), |cfg, t| {
            let spec = TenantSpec::new(t.name);
            cfg.with_tenant(if t.critical {
                spec.criticality(Criticality::LatencyCritical)
            } else {
                spec.bank_budget(NEIGHBOUR_BANK_BUDGET)
            })
        })
}

/// The latency-critical tenant's id.
pub fn probe_tenant() -> usize {
    adversarial_mix(OFFSETS)
        .iter()
        .position(|t| t.critical)
        .expect("the mix has a probe")
}

/// The request generator: tenants take turns, each offering the next
/// operation of its seeded `adversarial_mix` profile (a bursty tenant
/// in its idle phase passes its turn). Write payloads are replaced by
/// [`Ledger`] stamps so reads can be checked.
#[derive(Debug)]
pub struct Mix {
    traffic: Vec<TenantTraffic>,
    turn: usize,
    ledger: Ledger,
}

impl Mix {
    /// The mix for `seed` over blocks of `banks` words.
    pub fn new(banks: usize, seed: u64) -> Self {
        let traffic = adversarial_mix(OFFSETS)
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let tenant_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64;
                TenantTraffic::new(t.profile, OFFSETS, banks, tenant_seed)
            })
            .collect();
        Mix {
            traffic,
            turn: 0,
            ledger: Ledger::new(OFFSETS, banks),
        }
    }

    /// The next request: its tenant and stamped operation.
    pub fn next_request(&mut self) -> (usize, Operation) {
        loop {
            let tenant = self.turn;
            self.turn = (self.turn + 1) % self.traffic.len();
            if let Some(op) = self.traffic[tenant].tick() {
                return (tenant, self.ledger.stamp(op));
            }
        }
    }

    /// The ledger the stamps came from.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }
}

/// How a request ended, as a target reports it.
#[derive(Debug)]
pub enum Done {
    /// Fulfilled.
    Response(u64, Response),
    /// Refused with typed backpressure (queue full, overloaded, shed).
    Refused(u64),
    /// Lost or answered with an error: a failed check.
    Lost(u64, String),
}

/// One way of reaching the service.
pub trait Target {
    /// Send request `id`. Returns its end if it ended at once
    /// (refused, or an error).
    fn submit(&mut self, id: u64, tenant: usize, op: Operation, tr: &mut Tracer) -> Option<Done>;
    /// Collect whatever has ended, without blocking.
    fn poll(&mut self, done: &mut Vec<Done>, tr: &mut Tracer);
    /// Collect at least one ended request, blocking until one ends;
    /// returns with nothing only after `deadline` or when nothing is
    /// outstanding.
    fn wait(&mut self, done: &mut Vec<Done>, deadline: Instant, tr: &mut Tracer);
}

/// What the client remembers about a request in flight.
#[derive(Debug, Clone, Copy)]
struct Sent {
    tenant: usize,
    kind: OpKind,
    offset: usize,
    intended: Instant,
    start: Instant,
    end: Instant,
}

/// When a phase stops submitting.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// After this many requests.
    Ops(u64),
    /// After this long.
    Time(Duration),
}

/// Everything one phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Requests sent (or refused at submit).
    pub attempted: u64,
    /// Requests fulfilled.
    pub completed: u64,
    /// Requests refused with backpressure.
    pub refused: u64,
    /// Open loop: refused or slower than the latency limit.
    pub misses: u64,
    /// Length of one of the [`SEGMENTS`] segments.
    pub seg_len: Duration,
    /// Completions per segment (by completion time).
    pub completed_per_seg: Vec<u64>,
    /// Latency from the intended send time (µs), by intended segment.
    pub latency_us: Segmented,
    /// The probe tenant's latency (µs).
    pub probe_us: Vec<f64>,
    /// How late the generator sent (µs).
    pub gen_lag_us: Vec<f64>,
    /// Host time inside the submit call (ns).
    pub submit_ns: Vec<f64>,
    /// `Response.queued_ns` (µs).
    pub queued_us: Vec<f64>,
    /// `total_ns − queued_ns` (µs).
    pub exec_us: Vec<f64>,
    /// `completed_at − issued_at` (slots).
    pub exec_slots: Vec<f64>,
    /// Client-observed latency from the submit call's return minus
    /// `total_ns` (µs), floored at 0.
    pub pickup_us: Vec<f64>,
    /// Round trip from the start of sending minus `total_ns` (µs).
    pub overhead_us: Vec<f64>,
    /// Per segment: summed stage times and summed client-observed
    /// latency (ns), for the additivity check.
    pub additivity: Vec<(f64, f64)>,
    /// Process CPU time over the phase.
    pub cpu_ns: u64,
    /// The client thread's CPU time over the phase.
    pub client_cpu_ns: u64,
}

impl Phase {
    /// Median over segments of the completion rate.
    pub fn ops_per_s(&self) -> f64 {
        let mut rates: Vec<f64> = self
            .completed_per_seg
            .iter()
            .map(|&c| c as f64 / self.seg_len.as_secs_f64())
            .collect();
        crate::stats::median(&mut rates)
    }

    /// Median over segments of (stage sum ÷ observed latency).
    pub fn additivity_ratio(&self) -> f64 {
        let mut ratios: Vec<f64> = self
            .additivity
            .iter()
            .filter(|(_, observed)| *observed > 0.0)
            .map(|(stages, observed)| stages / observed)
            .collect();
        crate::stats::median(&mut ratios)
    }
}

/// Runs phases against one target; see the module docs.
pub struct Client<'a, T: Target> {
    /// Span recorder, switched on for traced phases only.
    pub tracer: &'a mut Tracer,
    target: &'a mut T,
    failures: &'a mut Failures,
    mix: &'a mut Mix,
    /// Whether the target is the wire edge (names the last stage).
    wire: bool,
    /// Next request id; ids are dense per client.
    next_id: u64,
    /// Ids already answered.
    seen: SeenSet,
    inflight: HashMap<u64, Sent>,
    done: Vec<Done>,
    probe: usize,
}

impl<'a, T: Target> Client<'a, T> {
    /// A client over `target`.
    pub fn new(
        target: &'a mut T,
        mix: &'a mut Mix,
        tracer: &'a mut Tracer,
        failures: &'a mut Failures,
        wire: bool,
    ) -> Self {
        Client {
            target,
            tracer,
            failures,
            mix,
            wire,
            next_id: 0,
            seen: SeenSet::default(),
            inflight: HashMap::new(),
            done: Vec::new(),
            probe: probe_tenant(),
        }
    }

    /// Closed loop: keep `window` requests in flight until `limit`,
    /// then collect the rest.
    pub fn closed(&mut self, window: usize, limit: Limit) -> Phase {
        let budget = match limit {
            Limit::Time(d) => d,
            Limit::Ops(_) => Duration::from_secs(3600),
        };
        let mut phase = self.begin_phase(budget);
        let start = Instant::now();
        let deadline = start + budget;
        loop {
            let now = Instant::now();
            let sent_all = matches!(limit, Limit::Ops(n) if phase.attempted >= n);
            if now >= deadline || sent_all {
                break;
            }
            while self.inflight.len() < window
                && !matches!(limit, Limit::Ops(n) if phase.attempted >= n)
            {
                self.send(Instant::now(), start, &mut phase);
            }
            self.target
                .wait(&mut self.done, Instant::now() + DRAIN_TIMEOUT, self.tracer);
            self.settle(start, None, &mut phase);
        }
        self.finish(start, None, &mut phase);
        phase
    }

    /// Open loop: send at `rate` per second on a fixed schedule for
    /// `budget`, timing each request from when it was due, then collect
    /// the rest. Requests slower than `limit_us` or refused are misses.
    pub fn open(&mut self, rate: f64, budget: Duration, limit_us: f64) -> Phase {
        let mut phase = self.begin_phase(budget);
        let start = Instant::now();
        let deadline = start + budget;
        let interval = Duration::from_secs_f64(1.0 / rate);
        let mut due = start;
        while due < deadline {
            let now = Instant::now();
            let mut progress = false;
            // Every request whose time has come is sent now, stamped
            // with when it was due: a stall is charged to every request
            // scheduled behind it.
            while due <= now && due < deadline {
                self.send(due, start, &mut phase);
                due += interval;
                progress = true;
            }
            self.target.poll(&mut self.done, self.tracer);
            progress |= !self.done.is_empty();
            self.settle(start, Some(limit_us), &mut phase);
            if !progress {
                let idle = due.saturating_duration_since(Instant::now());
                if idle > Duration::from_micros(300) {
                    std::thread::sleep(idle - Duration::from_micros(200));
                } else {
                    std::thread::yield_now();
                }
            }
        }
        self.finish(start, Some(limit_us), &mut phase);
        phase
    }

    fn begin_phase(&mut self, budget: Duration) -> Phase {
        Phase {
            seg_len: budget / SEGMENTS as u32,
            completed_per_seg: vec![0; SEGMENTS],
            latency_us: Segmented::new(SEGMENTS, LATENCY_SAMPLES),
            additivity: vec![(0.0, 0.0); SEGMENTS],
            cpu_ns: crate::host::process_cpu_ns(),
            client_cpu_ns: crate::host::thread_cpu_ns(),
            ..Phase::default()
        }
    }

    /// Collect every outstanding request, then close the phase's books.
    fn finish(&mut self, start: Instant, limit_us: Option<f64>, phase: &mut Phase) {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while !self.inflight.is_empty() && Instant::now() < deadline {
            self.target.wait(&mut self.done, deadline, self.tracer);
            self.settle(start, limit_us, phase);
        }
        for (id, _) in self.inflight.drain() {
            self.failures.add(format!("request {id} never answered"));
        }
        phase.cpu_ns = crate::host::process_cpu_ns() - phase.cpu_ns;
        phase.client_cpu_ns = crate::host::thread_cpu_ns() - phase.client_cpu_ns;
    }

    fn send(&mut self, intended: Instant, phase_start: Instant, phase: &mut Phase) {
        let id = self.next_id;
        self.next_id += 1;
        self.tracer.begin("client.gen", id);
        let (tenant, op) = self.mix.next_request();
        self.tracer.end();
        let (kind, offset) = (op.kind(), op.offset());
        let start = Instant::now();
        let immediate = self.target.submit(id, tenant, op, self.tracer);
        let end = Instant::now();
        phase.attempted += 1;
        phase
            .gen_lag_us
            .push(ns_between(intended, start) as f64 / 1e3);
        if self.tracer.enabled() {
            phase.submit_ns.push(ns_between(start, end) as f64);
        }
        self.inflight.insert(
            id,
            Sent {
                tenant,
                kind,
                offset,
                intended,
                start,
                end,
            },
        );
        if let Some(d) = immediate {
            self.done.push(d);
            self.settle(phase_start, None, phase);
        }
    }

    /// Check and account every ended request in `self.done`.
    fn settle(&mut self, phase_start: Instant, limit_us: Option<f64>, phase: &mut Phase) {
        if self.done.is_empty() {
            return;
        }
        let observed = Instant::now();
        let seg_of = |t: Instant| {
            let seg = ns_between(phase_start, t) as f64 / phase.seg_len.as_nanos().max(1) as f64;
            (seg as usize).min(SEGMENTS)
        };
        for d in std::mem::take(&mut self.done) {
            let id = match &d {
                Done::Response(id, _) | Done::Refused(id) | Done::Lost(id, _) => *id,
            };
            let Some(sent) = self.inflight.remove(&id) else {
                let why = if self.seen.mark(id) {
                    "unknown"
                } else {
                    "answered twice"
                };
                self.failures
                    .add(format!("response for request {id}: {why}"));
                continue;
            };
            self.seen.mark(id);
            let response = match d {
                Done::Response(_, r) => r,
                Done::Refused(_) => {
                    phase.refused += 1;
                    phase.misses += u64::from(limit_us.is_some());
                    continue;
                }
                Done::Lost(_, why) => {
                    self.failures.add(format!("request {id}: {why}"));
                    continue;
                }
            };
            let c = &response.completion;
            if response.tenant != sent.tenant {
                self.failures.add(format!(
                    "request {id} of tenant {} answered for tenant {}",
                    sent.tenant, response.tenant
                ));
            }
            if let Err(e) = self
                .mix
                .ledger()
                .check_completion(c, sent.kind, sent.offset)
            {
                self.failures.add(format!("request {id}: {e}"));
            }
            phase.completed += 1;
            if let Some(n) = phase.completed_per_seg.get_mut(seg_of(observed)) {
                *n += 1;
            }
            let Some(limit_us) = limit_us else {
                continue;
            };
            // Open loop: latency, stage split and the traced spans.
            let latency_us = ns_between(sent.intended, observed) as f64 / 1e3;
            phase.misses += u64::from(latency_us > limit_us);
            let seg = seg_of(sent.intended);
            phase.latency_us.push(seg, latency_us);
            if sent.tenant == self.probe {
                phase.probe_us.push(latency_us);
            }
            if !self.tracer.enabled() {
                continue;
            }
            let total = Duration::from_nanos(response.total_ns);
            let queued = Duration::from_nanos(response.queued_ns.min(response.total_ns));
            let observed_ns = ns_between(sent.start, observed) as f64;
            let submit_ns = ns_between(sent.start, sent.end) as f64;
            // What the client saw beyond the service's own stamps.
            let residual_ns =
                (ns_between(sent.end, observed) as f64 - total.as_nanos() as f64).max(0.0);
            phase.queued_us.push(queued.as_nanos() as f64 / 1e3);
            phase.exec_us.push((total - queued).as_nanos() as f64 / 1e3);
            phase
                .exec_slots
                .push(c.completed_at.saturating_sub(c.issued_at) as f64);
            phase.pickup_us.push(residual_ns / 1e3);
            phase.overhead_us.push((submit_ns + residual_ns) / 1e3);
            if let Some(a) = phase.additivity.get_mut(seg) {
                a.0 += submit_ns + total.as_nanos() as f64 + residual_ns;
                a.1 += observed_ns;
            }
            let issued = sent.end + queued;
            let fulfilled = sent.end + total;
            let last = if self.wire {
                "edge.return"
            } else {
                "serve.pickup"
            };
            self.tracer.record_request(
                "client.request",
                id,
                sent.intended,
                observed,
                &[
                    ("client.gen_lag", sent.intended, sent.start),
                    ("client.send", sent.start, sent.end),
                    ("serve.queued", sent.end, issued),
                    ("serve.exec", issued, fulfilled),
                    (last, fulfilled, observed),
                ],
            );
        }
    }
}

/// Fraction `part / whole`, 0 when nothing was attempted.
pub fn fraction(part: u64, whole: u64) -> f64 {
    ratio(part as f64, whole as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A target that answers every request after a fixed service time
    /// and stalls the client once, inside one submit call.
    struct SleepyStub {
        stall_at: u64,
        stall: Duration,
        service: Duration,
        queue: VecDeque<(u64, Instant, usize, Operation)>,
    }

    impl SleepyStub {
        fn respond(&mut self, done: &mut Vec<Done>) {
            let now = Instant::now();
            while self.queue.front().is_some_and(|(_, at, _, _)| *at <= now) {
                let (id, _, tenant, op) = self.queue.pop_front().expect("front exists");
                let completion = cfm_core::op::Completion {
                    proc: 0,
                    kind: op.kind(),
                    offset: op.offset(),
                    data: (op.kind() == OpKind::Read).then(|| vec![0; 16].into_boxed_slice()),
                    issued_at: 0,
                    completed_at: 1,
                    restarts: 0,
                    outcome: cfm_core::op::Outcome::Completed,
                    torn: false,
                };
                done.push(Done::Response(
                    id,
                    Response {
                        tenant,
                        completion,
                        queued_ns: 0,
                        total_ns: 1,
                    },
                ));
            }
        }
    }

    impl Target for SleepyStub {
        fn submit(
            &mut self,
            id: u64,
            tenant: usize,
            op: Operation,
            _: &mut Tracer,
        ) -> Option<Done> {
            if id == self.stall_at {
                std::thread::sleep(self.stall);
            }
            self.queue
                .push_back((id, Instant::now() + self.service, tenant, op));
            None
        }

        fn poll(&mut self, done: &mut Vec<Done>, _tr: &mut Tracer) {
            self.respond(done);
        }

        fn wait(&mut self, done: &mut Vec<Done>, deadline: Instant, _tr: &mut Tracer) {
            while done.is_empty() && !self.queue.is_empty() && Instant::now() < deadline {
                self.respond(done);
            }
        }
    }

    #[test]
    fn open_loop_charges_a_stall_to_every_request_behind_it() {
        let stall = Duration::from_millis(40);
        let mut stub = SleepyStub {
            stall_at: 20,
            stall,
            service: Duration::from_micros(50),
            queue: VecDeque::new(),
        };
        let mut mix = Mix::new(16, 3);
        let mut tracer = Tracer::new(false);
        let mut failures = Failures::default();
        let mut client = Client::new(&mut stub, &mut mix, &mut tracer, &mut failures, false);
        let rate = 2000.0; // one request every 500 µs
        let phase = client.open(rate, Duration::from_millis(200), 1e9);
        drop(client);
        assert_eq!(failures.count, 0, "{:?}", failures.messages);
        let mut lat = phase.latency_us.all();
        assert_eq!(phase.attempted, 400);
        assert_eq!(lat.len(), 400);
        // Requests 21.. were due during the 40 ms stall: a closed-loop
        // or send-time clock would hide it, the intended-time clock
        // charges each the part of the stall still ahead of it.
        let stalled = lat.iter().filter(|&&us| us > 20_000.0).count();
        assert!(stalled >= 35, "only {stalled} requests carry the stall");
        assert!(crate::stats::quantile(&mut lat, 1.0) >= 39_000.0);
        let mut lag = phase.gen_lag_us.clone();
        assert!(crate::stats::quantile(&mut lag, 1.0) >= 39_000.0);
    }

    #[test]
    fn mix_is_deterministic_in_its_seed() {
        let take = |seed| {
            let mut m = Mix::new(16, seed);
            (0..200).map(|_| m.next_request()).collect::<Vec<_>>()
        };
        assert_eq!(take(5), take(5));
        assert_ne!(take(5), take(6));
    }
}
