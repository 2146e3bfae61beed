//! Cloud budget planning: the paper's "constructive" scenario reads
//! naturally as renting from a cloud provider. This example sizes
//! platforms for a portfolio of random applications, compares every
//! heuristic against the analytic lower bound, and (for small instances)
//! against the exact optimum.
//!
//! Run with: `cargo run --release --example cloud_budget`

use snsp::prelude::*;

fn main() {
    println!("application portfolio — budget per heuristic (mean over 5 seeds)\n");
    println!(
        "{:<28} {:>8} {:>9} {:>9} {:>9}",
        "workload", "LB ($)", "best ($)", "worst ($)", "opt ($)"
    );
    println!("{}", "-".repeat(68));

    let workloads: [(&str, usize, f64); 4] = [
        ("interactive dashboards", 10, 0.9),
        ("sensor fusion", 25, 1.2),
        ("batch analytics", 60, 0.9),
        ("heavy aggregation", 40, 1.6),
    ];

    for (name, n, alpha) in workloads {
        let mut lbs = Vec::new();
        let mut bests = Vec::new();
        let mut worsts = Vec::new();
        let mut opts: Vec<f64> = Vec::new();

        for seed in 0..5u64 {
            let inst = paper_instance(n, alpha, seed);
            lbs.push(lower_bound(&inst).value() as f64);

            let costs: Vec<u64> = all_heuristics()
                .iter()
                .filter_map(|h| {
                    let mut rng = StdRng::seed_from_u64(seed);
                    solve(h.as_ref(), &inst, &mut rng, &PipelineOptions::default())
                        .ok()
                        .map(|s| s.cost)
                })
                .collect();
            if let (Some(&min), Some(&max)) = (costs.iter().min(), costs.iter().max()) {
                bests.push(min as f64);
                worsts.push(max as f64);
            }

            // Exact optimum is tractable for the small workloads only.
            if n <= 12 {
                let exact = solve_exact(
                    &inst,
                    &BranchBoundConfig {
                        node_budget: 300_000,
                        upper_bound: None,
                    },
                );
                if exact.mapping.is_some() {
                    opts.push(exact.cost as f64);
                }
            }
        }

        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let opt_str = if opts.is_empty() {
            "-".to_string()
        } else {
            format!("{:.0}", mean(&opts))
        };
        println!(
            "{:<28} {:>8.0} {:>9.0} {:>9.0} {:>9}",
            format!("{name} (N={n}, α={alpha})"),
            mean(&lbs),
            mean(&bests),
            mean(&worsts),
            opt_str
        );

        // Invariants the paper's theory promises.
        for (&lb, &best) in lbs.iter().zip(&bests) {
            assert!(best + 1e-9 >= lb, "heuristic beat the lower bound?!");
        }
    }

    println!(
        "\nThe analytic lower bound is loose on purpose (it prices CPU and\n\
         bandwidth at the catalog's best ratio); the exact optimum is only\n\
         reachable for small trees — exactly the regime the paper could\n\
         solve with CPLEX."
    );
}
