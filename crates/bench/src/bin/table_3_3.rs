//! Table 3.3 — the CFM configuration trade-off for a 256-bit block and
//! bank cycle 2: fewer, wider banks lower latency but support fewer
//! processors conflict-free. A second table runs four of the rows as
//! machines: every processor replays a 50-op read/write mix.

use cfm_bench::print_table;
use cfm_core::config::{tradeoff_table, CfmConfig};
use cfm_core::machine::CfmMachine;
use cfm_core::program::Runner;
use cfm_workloads::patterns::{read_write_mix, ScriptProgram};

fn main() {
    let rows: Vec<Vec<String>> = tradeoff_table(256, 2)
        .into_iter()
        .map(|r| {
            vec![
                r.banks.to_string(),
                r.word_width.to_string(),
                r.latency.to_string(),
                r.processors.to_string(),
            ]
        })
        .collect();
    print_table(
        "Table 3.3: trade-off in the CFM configurations (l = 256, c = 2)",
        &["Memory banks", "Word width", "Memory latency", "Processors"],
        &rows,
    );

    let rows: Vec<Vec<String>> = [8usize, 16, 32, 64]
        .into_iter()
        .map(|banks| {
            let cfg = CfmConfig::from_block(256, banks, 2).expect("table row");
            let n = cfg.processors();
            let mut runner = Runner::new(CfmMachine::builder(cfg).offsets(16).build());
            for p in 0..n {
                let script = read_write_mix(50, 16, banks, 0.5, p as u64);
                runner.set_program(p, Box::new(ScriptProgram::new(script)));
            }
            runner.run(10_000_000);
            let stats = runner.machine().stats();
            vec![
                banks.to_string(),
                n.to_string(),
                stats.completed.to_string(),
                stats.cycles.to_string(),
                stats.bank_conflicts.to_string(),
            ]
        })
        .collect();
    print_table(
        "Table 3.3 rows simulated: 50-op read/write mix per processor, 16 blocks",
        &[
            "Memory banks",
            "Processors",
            "Completed",
            "Cycles",
            "Bank conflicts",
        ],
        &rows,
    );
}
