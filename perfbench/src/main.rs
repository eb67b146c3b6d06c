//! The repository benchmark: four named workloads over the CFM machine
//! (`cfm-core`), the multi-tenant service (`cfm-serve::service`) and
//! its TCP wire edge (`cfm-serve::edge` / `wire`), driven only through
//! their public functions and timed from here.
//!
//! ```text
//! cfm-perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` does a
//! separate traced run and prints the per-layer metrics. The last line
//! of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is
//! non-zero when any output check failed. A fuller record (host, seed,
//! every metric, failed checks) goes to `.bench_out/`. See `README.md`.

mod check;
mod core_wl;
mod edge_wl;
mod host;
mod load;
mod serve_wl;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use check::Failures;
use stats::Metrics;
use trace::Tracer;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "core-disjoint",
    "core-contended",
    "serve-mixed",
    "edge-wire",
];

/// Segments a timed phase is split into; rates and percentiles are the
/// median over segments.
pub const SEGMENTS: usize = 20;

/// Every workload's load comes from one client thread (the core
/// workloads' client is the thread that steps the machine).
const CLIENT_THREADS: usize = 1;

/// Layers whose self time the traced run reports.
pub const LAYERS: [&str; 5] = ["core", "serve", "wire", "edge", "client"];

/// End-to-end metrics (the untraced run), with units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("slots_per_s", "1/s"),
    ("sim_slots_per_kop", "slot/kop"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("cpu_ms_per_kop", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Which workloads a per-layer metric applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// `core-disjoint` and `core-contended`.
    Core,
    /// `serve-mixed` and `edge-wire`.
    Served,
    /// `serve-mixed` only (in-process tickets).
    InProc,
    /// `edge-wire` only.
    Wire,
    /// Every workload.
    All,
}

impl Scope {
    /// Whether a metric of this scope is measured on `workload`.
    pub fn applies(self, workload: &str) -> bool {
        let core = workload.starts_with("core-");
        match self {
            Scope::Core => core,
            Scope::All => true,
            Scope::Served => !core,
            Scope::InProc => workload == "serve-mixed",
            Scope::Wire => workload == "edge-wire",
        }
    }
}

/// Per-layer metrics (the traced run): name, unit, and the workloads
/// that measure it. A workload reports exactly the metrics whose scope
/// applies to it.
pub const PER_LAYER: [(&str, &str, Scope); 45] = [
    ("core.run_ns_per_slot", "ns", Scope::Core),
    ("core.issue_ns", "ns", Scope::Core),
    ("core.window_fraction", "fraction", Scope::Core),
    ("core.mean_window_slots", "slot", Scope::Core),
    ("core.parallel_fraction", "fraction", Scope::All),
    ("core.restarts_per_kop", "count", Scope::All),
    ("core.write_aborts_per_kop", "count", Scope::All),
    ("core.useful_word_fraction", "fraction", Scope::All),
    ("core.bank_conflicts", "count", Scope::All),
    ("core.self_ns_per_op", "ns", Scope::Core),
    ("serve.submit_ns_p50", "ns", Scope::InProc),
    ("serve.submit_ns_p99", "ns", Scope::InProc),
    ("serve.queued_us_p50", "us", Scope::Served),
    ("serve.queued_us_p99", "us", Scope::Served),
    ("serve.exec_us_p50", "us", Scope::Served),
    ("serve.exec_us_p99", "us", Scope::Served),
    ("serve.exec_slots_p50", "slot", Scope::Served),
    ("serve.exec_slots_p99", "slot", Scope::Served),
    ("serve.pickup_us_p50", "us", Scope::InProc),
    ("serve.pickup_us_p99", "us", Scope::InProc),
    ("serve.loop_slots_per_s", "1/s", Scope::Served),
    ("serve.ops_per_slot", "count", Scope::Served),
    ("serve.loop_cpu_ms_per_kop", "ms", Scope::Served),
    ("serve.reject_fraction", "fraction", Scope::Served),
    ("serve.budget_deferrals_per_kop", "count", Scope::Served),
    ("serve.probe_p99_us", "us", Scope::Served),
    ("serve.drain_ms", "ms", Scope::Served),
    ("serve.self_ns_per_op", "ns", Scope::Served),
    ("wire.encode_ns", "ns", Scope::Wire),
    ("wire.decode_ns", "ns", Scope::Wire),
    ("wire.bytes_per_op", "B", Scope::Wire),
    ("wire.self_ns_per_op", "ns", Scope::Wire),
    ("edge.overhead_us_p50", "us", Scope::Wire),
    ("edge.overhead_us_p99", "us", Scope::Wire),
    ("edge.thread_cpu_ms_per_kop", "ms", Scope::Wire),
    ("edge.shed_fraction", "fraction", Scope::Wire),
    ("edge.wire_errors", "count", Scope::Wire),
    ("edge.self_ns_per_op", "ns", Scope::Wire),
    ("client.gen_lag_us_p99", "us", Scope::Served),
    ("client.cpu_ms_per_kop", "ms", Scope::Served),
    ("client.miss_fraction", "fraction", Scope::Served),
    ("client.failed_fraction", "fraction", Scope::All),
    ("client.self_ns_per_op", "ns", Scope::All),
    ("trace.overhead_fraction", "fraction", Scope::All),
    ("trace.additivity_ratio", "ratio", Scope::Served),
];

/// The per-layer self-time metric of `layer`.
pub fn self_metric(layer: &str) -> &'static str {
    match layer {
        "core" => "core.self_ns_per_op",
        "serve" => "serve.self_ns_per_op",
        "wire" => "wire.self_ns_per_op",
        "edge" => "edge.self_ns_per_op",
        _ => "client.self_ns_per_op",
    }
}

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Params {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// What a workload hands back.
#[derive(Debug)]
pub struct RunResult {
    /// Metrics measured (end-to-end or per-layer).
    pub metrics: Metrics,
    /// Operations attempted.
    pub attempted: u64,
    /// Failed output checks.
    pub failures: Failures,
    /// The span recorder (empty when untraced).
    pub tracer: Tracer,
    /// Connections the load used.
    pub connections: usize,
}

fn run_workload(name: &str, params: &Params) -> RunResult {
    match name {
        "core-disjoint" => core_wl::run(false, params),
        "core-contended" => core_wl::run(true, params),
        "serve-mixed" => serve_wl::run(params),
        "edge-wire" => edge_wl::run(params),
        _ => unreachable!("workload names are validated when parsed"),
    }
}

struct Args {
    workload: String,
    params: Params,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut params = Params {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => params.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                params.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(params.seconds > 0.0 && params.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                params.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; choose one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args { workload, params })
}

/// The metrics this mode reports for `workload`, in declared order.
fn reported(
    workload: &str,
    result: &RunResult,
    trace: bool,
) -> Vec<(&'static str, f64, &'static str)> {
    let declared: Vec<(&'static str, &'static str)> = if trace {
        PER_LAYER
            .iter()
            .filter(|(_, _, scope)| scope.applies(workload))
            .map(|&(name, unit, _)| (name, unit))
            .collect()
    } else {
        END_TO_END.to_vec()
    };
    declared
        .into_iter()
        .map(|(name, unit)| {
            let value = result.metrics.get(name);
            (
                name,
                value.unwrap_or_else(|| panic!("{workload} did not measure {name}")),
                unit,
            )
        })
        .collect()
}

fn metrics_json(metrics: &[(String, f64, &str)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Write the full record of one workload run under `.bench_out/`.
fn write_record(name: &str, params: &Params, result: &RunResult, host_line: &str) {
    let dir = Path::new(".bench_out");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let mode = if params.trace { "traced" } else { "untraced" };
    let stem = format!("{name}-seed{}-{mode}", params.seed);
    let all: Vec<(String, f64, &str)> = result
        .metrics
        .0
        .iter()
        .map(|m| (m.name.to_string(), m.value, m.unit))
        .collect();
    let messages: Vec<String> = result
        .failures
        .messages
        .iter()
        .map(|m| format!("{m:?}"))
        .collect();
    let record = format!(
        "{{\"workload\": \"{name}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, {host_line}, \
         \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \"metrics\": {}}}\n",
        params.seed,
        params.seconds,
        params.trace,
        result.attempted,
        result.failures.count,
        messages.join(", "),
        metrics_json(&all)
    );
    let _ = std::fs::write(dir.join(format!("{stem}.json")), record);
    if params.trace {
        let _ = result
            .tracer
            .write_jsonl(&dir.join(format!("{stem}-spans.jsonl")));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cfm-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let cpus = host::nproc();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut out: Vec<(String, f64, &str)> = Vec::new();
    for name in &names {
        let mut result = run_workload(name, &args.params);
        let failed_fraction = result.failures.count as f64 / result.attempted.max(1) as f64;
        result
            .metrics
            .set("client.failed_fraction", failed_fraction, "fraction");
        let host_line = format!(
            "\"host\": {{\"nproc\": {cpus}, \"free_cores\": {}, \"profile\": \"{}\", \
             \"commit\": \"{}\", \"client_threads\": {CLIENT_THREADS}, \"connections\": {}}}",
            host::free_cores(cpus),
            host::build_profile(),
            host::commit(),
            result.connections
        );
        write_record(name, &args.params, &result, &host_line);
        let mut text = format!(
            "# {name} seed={} trace={} {}\n",
            args.params.seed,
            u8::from(args.params.trace),
            host_line
        );
        for (metric, value, unit) in reported(name, &result, args.params.trace) {
            let _ = writeln!(text, "{name:<15} {metric:<32} {value:>16.4} {unit}");
            let key = if names.len() == 1 {
                metric.to_string()
            } else {
                format!("{name}.{metric}")
            };
            out.push((key, value, unit));
        }
        for m in &result.failures.messages {
            let _ = writeln!(text, "{name:<15} FAILED CHECK: {m}");
        }
        print!("{text}");
        attempted += result.attempted;
        failed += result.failures.count;
    }
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics_json(&out)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` (at the repository root) lists the workloads the
    /// benchmark covers and, per mode, the metrics they print: every metric a
    /// listed workload reports must be declared there, and nothing else.
    #[test]
    fn benchmark_json_declares_what_the_listed_workloads_report() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = |name: &str| json.contains(&format!("\"name\": \"{name}\""));
        let listed: Vec<&str> = WORKLOADS.iter().copied().filter(|w| declared(w)).collect();
        assert!(listed.len() >= 2, "at least two workloads are listed");
        let mut per_layer: Vec<&str> = PER_LAYER
            .iter()
            .filter(|(_, _, scope)| listed.iter().any(|w| scope.applies(w)))
            .map(|&(name, _, _)| name)
            .collect();
        per_layer.sort_unstable();
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|&(n, _)| n)
            .chain(per_layer.clone())
            .collect();
        for name in &names {
            assert!(declared(name), "{name} is reported but not declared");
        }
        let entries = json.matches("\"name\": ").count();
        assert_eq!(
            entries,
            listed.len() + names.len(),
            "BENCHMARK.json declares extra names"
        );
    }
}
