//! `serve-mixed` (in-process [`Service`]) and the phase structure it
//! shares with `edge-wire`.
//!
//! Each *instance* is a fresh service (plus, on `edge-wire`, its edge
//! and connections) that runs [`WARMUP_OPS`] closed-loop requests
//! before it counts as set up. A run times several set-ups for
//! `setup_s`, then measures on fresh instances: closed-loop saturation
//! with a [`WINDOW`]-request window for `ops_per_s`, and open loop at
//! the workload's fixed rate for latency. Every instance is drained at
//! the end and its report checked.

use std::time::{Duration, Instant};

use cfm_core::op::Operation;
use cfm_serve::{EdgeStats, Reject, Service, ServiceReport, Ticket};

use crate::check::Failures;
use crate::host;
use crate::load::{
    fraction, machine_config, service_config, Client, Done, Limit, Mix, Phase, Target, WARMUP_OPS,
    WINDOW,
};
use crate::stats::{median, quantile, ratio, Metrics};
use crate::trace::Tracer;
use crate::{Params, RunResult};

/// Open-loop offered rate of `serve-mixed` (requests/s): about half
/// the closed-loop throughput of this workload at the commit that
/// defined the benchmark, so the open loop builds no backlog there.
pub const SERVE_OPEN_RATE: f64 = 100_000.0;
/// Latency limit of `serve-mixed`'s open loop (µs).
pub const SERVE_LIMIT_US: f64 = 2_000.0;
/// Instances built only to time set-up, before the measured ones.
const EXTRA_SETUPS: u32 = 3;
/// Share of `--seconds` spent in the closed-loop phase; the open loop
/// takes the rest.
const CLOSED_SHARE: f64 = 0.4;
/// The event-loop thread (the service hosts its loop on a one-worker
/// `WorkerPool`).
const LOOP_THREAD: &str = "cfm-slot-lane-1";
/// The edge thread.
const EDGE_THREAD: &str = "cfm-edge";
/// Stage sums must match the client-observed mean within this share.
const ADDITIVITY_TOLERANCE: f64 = 0.05;

/// What tearing an instance down returns.
pub struct Teardown {
    /// The service's final report.
    pub report: ServiceReport,
    /// Edge counters, when there was an edge.
    pub edge: Option<EdgeStats>,
    /// Time to drain everything.
    pub drain: Duration,
}

/// A way of standing up the service for a workload.
pub trait Front: Target + Sized {
    /// Open-loop offered rate (requests/s).
    const OPEN_RATE: f64;
    /// Open-loop latency limit (µs).
    const LIMIT_US: f64;
    /// Whether requests cross the wire.
    const WIRE: bool;
    /// Start the service (and edge and connections).
    fn build(failures: &mut Failures) -> Self;
    /// Drain and stop everything, checking the drain.
    fn teardown(self, failures: &mut Failures) -> Teardown;
    /// Connections the client uses.
    fn connections(&self) -> usize;
    /// Bytes the client wrote and read.
    fn wire_bytes(&self) -> u64 {
        0
    }
}

/// The in-process target: tickets from [`Service::submit`].
pub struct InProc {
    service: Service,
    tickets: Vec<(u64, Ticket)>,
}

impl Target for InProc {
    fn submit(&mut self, id: u64, tenant: usize, op: Operation, tr: &mut Tracer) -> Option<Done> {
        tr.begin("serve.submit", id);
        let result = self.service.submit(tenant, op);
        tr.end();
        match result {
            Ok(ticket) => {
                self.tickets.push((id, ticket));
                None
            }
            Err(Reject::QueueFull { .. } | Reject::Overloaded { .. }) => Some(Done::Refused(id)),
            Err(other) => Some(Done::Lost(id, format!("refused: {other}"))),
        }
    }

    fn poll(&mut self, done: &mut Vec<Done>, tr: &mut Tracer) {
        let mut i = 0;
        while i < self.tickets.len() {
            let (id, ticket) = &mut self.tickets[i];
            let t0 = Instant::now();
            let taken = ticket.try_take();
            match taken {
                Some(response) => {
                    tr.record("serve.try_take", *id, t0, Instant::now());
                    done.push(Done::Response(*id, response));
                    self.tickets.swap_remove(i);
                }
                None => i += 1,
            }
        }
    }

    fn wait(&mut self, done: &mut Vec<Done>, _deadline: Instant, tr: &mut Tracer) {
        if self.tickets.is_empty() {
            return;
        }
        // Block on the oldest ticket (a live service fulfils every
        // admitted request), then sweep the rest.
        let (id, ticket) = self.tickets.remove(0);
        tr.begin("serve.wait", id);
        let response = ticket.wait();
        tr.end();
        done.push(match response {
            Some(r) => Done::Response(id, r),
            None => Done::Lost(id, "ticket closed without a response".to_string()),
        });
        self.poll(done, tr);
    }
}

impl Front for InProc {
    const OPEN_RATE: f64 = SERVE_OPEN_RATE;
    const LIMIT_US: f64 = SERVE_LIMIT_US;
    const WIRE: bool = false;

    fn build(_: &mut Failures) -> Self {
        InProc {
            service: Service::start(service_config()).expect("valid service configuration"),
            tickets: Vec::new(),
        }
    }

    fn teardown(self, failures: &mut Failures) -> Teardown {
        failures.check(self.tickets.is_empty(), || {
            format!("{} tickets left at drain", self.tickets.len())
        });
        let t = Instant::now();
        let report = self.service.drain();
        Teardown {
            report,
            edge: None,
            drain: t.elapsed(),
        }
    }

    fn connections(&self) -> usize {
        0
    }
}

/// Run `serve-mixed`.
pub fn run(params: &Params) -> RunResult {
    run_served::<InProc>(params)
}

/// One measured instance: its phases and its final accounting.
struct Measured {
    phases: Vec<Phase>,
    teardown: Teardown,
    /// Build start to drain end.
    life: Duration,
    loop_cpu_ns: u64,
    edge_cpu_ns: u64,
    wire_bytes: u64,
}

/// What each measured phase of an instance is.
#[derive(Debug, Clone, Copy)]
enum Plan {
    Closed(Duration, bool),
    Open(Duration),
}

struct Bench<'a> {
    params: &'a Params,
    failures: Failures,
    tracer: Tracer,
    setups: Vec<f64>,
    drains: Vec<f64>,
    attempted: u64,
    instance: u64,
    connections: usize,
}

impl Bench<'_> {
    /// Build, warm up (timed as set-up), run `plans`, tear down.
    fn instance<F: Front>(&mut self, plans: &[Plan]) -> Measured {
        let seed = self.params.seed.wrapping_add(self.instance << 32);
        self.instance += 1;
        let born = Instant::now();
        let mut front = F::build(&mut self.failures);
        self.connections = front.connections();
        let mut mix = Mix::new(machine_config().banks(), seed);
        let mut phases = Vec::new();
        let (mut loop_cpu_ns, mut edge_cpu_ns, mut completed) = (0, 0, 0);
        {
            let mut client = Client::new(
                &mut front,
                &mut mix,
                &mut self.tracer,
                &mut self.failures,
                F::WIRE,
            );
            client.tracer.set_enabled(false);
            let warm = client.closed(WINDOW, Limit::Ops(WARMUP_OPS));
            self.setups.push(born.elapsed().as_secs_f64());
            self.attempted += warm.attempted;
            completed += warm.completed;
            for plan in plans {
                let loop0 = host::named_threads_cpu_ns(LOOP_THREAD);
                let edge0 = host::named_threads_cpu_ns(EDGE_THREAD);
                let phase = match *plan {
                    Plan::Closed(budget, traced) => {
                        client.tracer.set_enabled(traced);
                        client.closed(WINDOW, Limit::Time(budget))
                    }
                    Plan::Open(budget) => {
                        client.tracer.set_enabled(self.params.trace);
                        client.open(F::OPEN_RATE, budget, F::LIMIT_US)
                    }
                };
                client.tracer.set_enabled(false);
                loop_cpu_ns = host::named_threads_cpu_ns(LOOP_THREAD) - loop0;
                edge_cpu_ns = host::named_threads_cpu_ns(EDGE_THREAD) - edge0;
                self.attempted += phase.attempted;
                completed += phase.completed;
                phases.push(phase);
            }
        }
        let wire_bytes = front.wire_bytes();
        let teardown = front.teardown(&mut self.failures);
        self.drains.push(teardown.drain.as_secs_f64() * 1e3);
        let stats = &teardown.report.stats;
        self.failures.check(stats.bank_conflicts == 0, || {
            format!("{} bank conflicts", stats.bank_conflicts)
        });
        self.failures.check(stats.torn_reads == 0, || {
            format!("{} torn reads", stats.torn_reads)
        });
        let served: u64 = teardown
            .report
            .metrics
            .tenants
            .iter()
            .map(|t| t.completed)
            .sum();
        self.failures.check(served == completed, || {
            format!("service completed {served} requests, the client received {completed}")
        });
        Measured {
            phases,
            teardown,
            life: born.elapsed(),
            loop_cpu_ns,
            edge_cpu_ns,
            wire_bytes,
        }
    }
}

fn kops(n: u64) -> f64 {
    n as f64 / 1e3
}

/// Simulated slots per host second and per 1,000 operations over an
/// instance's life.
fn slot_rates(m: &Measured) -> (f64, f64) {
    let report = &m.teardown.report;
    let ops: u64 = report.metrics.tenants.iter().map(|t| t.completed).sum();
    (
        report.cycles as f64 / m.life.as_secs_f64(),
        ratio(report.cycles as f64 * 1000.0, ops as f64),
    )
}

fn p(v: &[f64], q: f64) -> f64 {
    quantile(&mut v.to_vec(), q)
}

/// Run a served workload through `F`.
pub fn run_served<F: Front>(params: &Params) -> RunResult {
    let mut bench = Bench {
        params,
        failures: Failures::default(),
        tracer: Tracer::new(false),
        setups: Vec::new(),
        drains: Vec::new(),
        attempted: 0,
        instance: 0,
        connections: 0,
    };
    for _ in 0..EXTRA_SETUPS {
        bench.instance::<F>(&[]);
    }
    let total = Duration::from_secs_f64(params.seconds);
    let closed_budget = total.mul_f64(CLOSED_SHARE);
    let open_budget = total - closed_budget;
    let mut metrics = Metrics::default();
    if !params.trace {
        let closed = bench.instance::<F>(&[Plan::Closed(closed_budget, false)]);
        let open = bench.instance::<F>(&[Plan::Open(open_budget)]);
        let (c, mut o) = (
            &closed.phases[0],
            open.phases.into_iter().next().expect("one phase"),
        );
        let (slots_per_s, slots_per_kop) = slot_rates(&closed);
        metrics.set("setup_s", median(&mut bench.setups), "s");
        metrics.set("ops_per_s", c.ops_per_s(), "1/s");
        metrics.set("slots_per_s", slots_per_s, "1/s");
        metrics.set("sim_slots_per_kop", slots_per_kop, "slot/kop");
        metrics.set("p50_us", o.latency_us.median_of(0.50, 1), "us");
        metrics.set("p99_us", o.latency_us.median_of(0.99, 100), "us");
        metrics.set(
            "cpu_ms_per_kop",
            c.cpu_ns as f64 / 1e6 / kops(c.completed),
            "ms",
        );
        metrics.set("peak_rss_mib", host::peak_rss_mib(), "MiB");
        metrics.set(
            "client.miss_fraction",
            fraction(o.misses, o.attempted),
            "fraction",
        );
    } else {
        let half = closed_budget / 2;
        let closed = bench.instance::<F>(&[Plan::Closed(half, false), Plan::Closed(half, true)]);
        let open = bench.instance::<F>(&[Plan::Open(open_budget)]);
        let (base, c, o) = (&closed.phases[0], &closed.phases[1], &open.phases[0]);
        let report = &closed.teardown.report;
        let s = &report.stats;
        let ops = kops(s.completed);
        let cycles = report.cycles as f64;
        let (loop_slots_per_s, _) = slot_rates(&closed);
        let restarts = s.read_restarts + s.write_restarts + s.swap_restarts;
        let deferrals: u64 = report
            .metrics
            .tenants
            .iter()
            .map(|t| t.budget_deferrals)
            .sum();
        let tr = &bench.tracer;
        metrics.set(
            "core.parallel_fraction",
            ratio(report.parallel_slots as f64, cycles),
            "fraction",
        );
        metrics.set("core.restarts_per_kop", restarts as f64 / ops, "count");
        metrics.set(
            "core.write_aborts_per_kop",
            s.write_aborts as f64 / ops,
            "count",
        );
        metrics.set("core.useful_word_fraction", s.efficiency(), "fraction");
        metrics.set("core.bank_conflicts", s.bank_conflicts as f64, "count");
        metrics.set("serve.queued_us_p50", p(&o.queued_us, 0.50), "us");
        metrics.set("serve.queued_us_p99", p(&o.queued_us, 0.99), "us");
        metrics.set("serve.exec_us_p50", p(&o.exec_us, 0.50), "us");
        metrics.set("serve.exec_us_p99", p(&o.exec_us, 0.99), "us");
        metrics.set("serve.exec_slots_p50", p(&o.exec_slots, 0.50), "slot");
        metrics.set("serve.exec_slots_p99", p(&o.exec_slots, 0.99), "slot");
        if !F::WIRE {
            // On the wire the edge thread calls `submit`; the client's
            // send time is encode plus socket write instead.
            metrics.set("serve.submit_ns_p50", p(&c.submit_ns, 0.50), "ns");
            metrics.set("serve.submit_ns_p99", p(&c.submit_ns, 0.99), "ns");
            metrics.set("serve.pickup_us_p50", p(&o.pickup_us, 0.50), "us");
            metrics.set("serve.pickup_us_p99", p(&o.pickup_us, 0.99), "us");
        } else {
            metrics.set("edge.overhead_us_p50", p(&o.overhead_us, 0.50), "us");
            metrics.set("edge.overhead_us_p99", p(&o.overhead_us, 0.99), "us");
            let frames = |name| {
                let a = tr.agg(name);
                ratio(a.total_ns as f64, a.count as f64)
            };
            metrics.set("wire.encode_ns", frames("wire.encode"), "ns");
            metrics.set("wire.decode_ns", frames("wire.decode"), "ns");
            let closed_ops = closed.phases.iter().map(|ph| ph.completed).sum::<u64>() + WARMUP_OPS;
            metrics.set(
                "wire.bytes_per_op",
                ratio(closed.wire_bytes as f64, closed_ops as f64),
                "B",
            );
            let edge = closed.teardown.edge.expect("the wire front has an edge");
            let attempted_closed: u64 =
                closed.phases.iter().map(|ph| ph.attempted).sum::<u64>() + WARMUP_OPS;
            metrics.set(
                "edge.thread_cpu_ms_per_kop",
                closed.edge_cpu_ns as f64 / 1e6 / kops(c.completed),
                "ms",
            );
            metrics.set(
                "edge.shed_fraction",
                fraction(edge.shed_submits, attempted_closed),
                "fraction",
            );
            metrics.set("edge.wire_errors", edge.wire_errors as f64, "count");
        }
        metrics.set("serve.loop_slots_per_s", loop_slots_per_s, "1/s");
        metrics.set(
            "serve.ops_per_slot",
            ratio(s.completed as f64, cycles),
            "count",
        );
        metrics.set(
            "serve.loop_cpu_ms_per_kop",
            closed.loop_cpu_ns as f64 / 1e6 / kops(c.completed),
            "ms",
        );
        metrics.set(
            "serve.reject_fraction",
            fraction(o.refused, o.attempted),
            "fraction",
        );
        metrics.set(
            "serve.budget_deferrals_per_kop",
            deferrals as f64 / ops,
            "count",
        );
        metrics.set("serve.probe_p99_us", p(&o.probe_us, 0.99), "us");
        metrics.set("serve.drain_ms", median(&mut bench.drains), "ms");
        metrics.set("client.gen_lag_us_p99", p(&o.gen_lag_us, 0.99), "us");
        metrics.set(
            "client.cpu_ms_per_kop",
            c.client_cpu_ns as f64 / 1e6 / kops(c.completed),
            "ms",
        );
        metrics.set(
            "client.miss_fraction",
            fraction(o.misses, o.attempted),
            "fraction",
        );
        let traced_ops = (c.completed + o.completed) as f64;
        for layer in crate::LAYERS {
            metrics.set(
                crate::self_metric(layer),
                tr.layer_self_ns(layer) as f64 / traced_ops,
                "ns",
            );
        }
        metrics.set(
            "trace.overhead_fraction",
            1.0 - ratio(c.ops_per_s(), base.ops_per_s()),
            "fraction",
        );
        let additivity = o.additivity_ratio();
        metrics.set("trace.additivity_ratio", additivity, "ratio");
        bench
            .failures
            .check((additivity - 1.0).abs() <= ADDITIVITY_TOLERANCE, || {
                format!("stage means add up to {additivity:.4} of the client-observed mean")
            });
    }
    RunResult {
        metrics,
        attempted: bench.attempted,
        failures: bench.failures,
        tracer: bench.tracer,
        connections: bench.connections,
    }
}
