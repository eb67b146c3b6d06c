//! Fig 2.1 — tree saturation caused by a hot spot: per-column queue
//! occupancy of a buffered omega MIN over time under hot-spot traffic,
//! next to the CFM's structurally flat zero (no queues exist).

use cfm_baseline::hotspot::run_hot_spot;
use cfm_bench::print_series;

fn main() {
    let ports = 16;
    let result = run_hot_spot(ports, 2, 4, 0.8, 0.5, 4000, 250, 42);
    let stages = result.samples[0].occupancy.len();
    let labels: Vec<String> = (0..stages)
        .map(|c| format!("MIN col {c}"))
        .chain(std::iter::once("CFM (any)".to_string()))
        .collect();
    let label_refs: Vec<&str> = labels.iter().map(|s| s.as_str()).collect();
    let points: Vec<(f64, Vec<f64>)> = result
        .samples
        .iter()
        .map(|s| {
            let mut ys = s.occupancy.clone();
            ys.push(0.0); // the CFM has no queues to fill
            (s.cycle as f64, ys)
        })
        .collect();
    print_series(
        "Fig 2.1: tree saturation from a hot spot (16-port buffered omega, 50% hot traffic)",
        "cycle",
        &label_refs,
        &points,
    );
    println!(
        "delivered {} packets, mean latency {:.1} cycles, {} offers refused at the sources",
        result.delivered, result.mean_latency, result.inject_blocked
    );
    println!(
        "tree saturation reached the sources: {}",
        result.saturated_to_sources()
    );

    // §2.1.1: the Ultracomputer/RP3 answer — combining switches — under
    // the same offered load, next to the CFM's structural immunity.
    use cfm_net::buffered::BufferedOmega;
    use cfm_workloads::traffic::{HotSpot, Traffic};
    let run = |combining: bool| {
        let mut net = BufferedOmega::with_sink_service(ports, 2, 4);
        if combining {
            net = net.with_combining();
        }
        let mut traffic = HotSpot::new(0.8, 0.5, 0, ports, 42);
        for now in 0..4000u64 {
            let offers: Vec<(usize, usize)> = (0..ports)
                .filter_map(|p| traffic.poll(now, p).map(|dst| (p, dst)))
                .collect();
            net.step(&offers);
        }
        (
            net.stats().delivered,
            net.stats().mean_latency(),
            net.stats().combined,
            net.occupancy_by_column()[0],
        )
    };
    let (d0, l0, _, o0) = run(false);
    let (d1, l1, c1, o1) = run(true);
    println!("\n== §2.1.1 comparison under the same hot spot ==");
    println!(
        "plain MIN:      delivered {d0:>6}, mean latency {l0:>6.1}, column-0 occupancy {o0:.2}"
    );
    println!("combining MIN:  delivered {d1:>6}, mean latency {l1:>6.1}, column-0 occupancy {o1:.2} ({c1} requests combined)");
    // §2.1.2: a circuit-switched MIN queues nothing but holds whole paths
    // for a block transfer (2 setup + 17 transfer cycles here); a request
    // whose path collides with a held one is blocked and must retry.
    let mut circuit = cfm_net::circuit::CircuitOmega::new(ports, 2);
    let mut traffic = HotSpot::new(0.8, 0.5, 0, ports, 42);
    for now in 0..4000u64 {
        for p in 0..ports {
            if let Some(dst) = traffic.poll(now, p) {
                let _ = circuit.try_connect(now, p, dst, 17);
            }
        }
    }
    let cs = circuit.stats();
    println!(
        "circuit MIN:    granted {:>6}, blocked {} requests (paths held 19 cycles)",
        cs.grants, cs.blocked
    );
    println!("CFM:            all offered accesses conflict-free, occupancy 0 by construction");
}
