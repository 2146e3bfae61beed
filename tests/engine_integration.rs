//! The discrete-event engine as the arbiter: every mapping the placement
//! pipeline declares feasible must actually sustain ρ when executed, and
//! can never beat the analytic throughput bound.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snsp::prelude::*;

/// Window-bias tolerance: operators may run `buffer` results ahead of the
/// root at both window edges (see `snsp_engine::SimConfig`).
const TOL: f64 = 1.05;

#[test]
fn all_heuristics_sustain_rho_in_the_engine() {
    for seed in 0..3u64 {
        let inst = paper_instance(25, 1.1, seed);
        for h in all_heuristics() {
            let mut rng = StdRng::seed_from_u64(seed);
            let Ok(sol) = solve(h.as_ref(), &inst, &mut rng, &PipelineOptions::default()) else {
                continue;
            };
            let report = simulate(&inst, &sol.mapping, &SimConfig::default())
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", h.name()));
            assert!(
                report.achieved_throughput >= inst.rho * 0.95,
                "{} seed {seed}: {:.3} < ρ",
                h.name(),
                report.achieved_throughput
            );
        }
    }
}

#[test]
fn engine_respects_the_analytic_bound() {
    for seed in 0..3u64 {
        let inst = paper_instance(30, 0.9, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let sol = solve(&CompGreedy, &inst, &mut rng, &PipelineOptions::default()).unwrap();
        let bound = max_throughput(&inst, &sol.mapping);
        let report = simulate(&inst, &sol.mapping, &SimConfig::default()).unwrap();
        assert!(
            report.achieved_throughput <= bound * TOL,
            "seed {seed}: measured {:.3} > bound {:.3}",
            report.achieved_throughput,
            bound
        );
    }
}

#[test]
fn left_deep_chains_pipeline_correctly() {
    let inst = snsp_gen::generate(&ScenarioParams::paper(20, 1.0), TreeShape::LeftDeep, 5);
    let mut rng = StdRng::seed_from_u64(5);
    let sol = solve(
        &SubtreeBottomUp,
        &inst,
        &mut rng,
        &PipelineOptions::default(),
    )
    .unwrap();
    let report = simulate(&inst, &sol.mapping, &SimConfig::default()).unwrap();
    assert!(report.achieved_throughput >= inst.rho * 0.95);
    // Completion times must be strictly increasing past warm-up.
    let times = &report.completion_times;
    assert!(times.windows(2).all(|w| w[1] >= w[0]));
}

#[test]
fn bigger_buffers_never_slow_the_pipeline() {
    let inst = paper_instance(25, 1.2, 6);
    let mut rng = StdRng::seed_from_u64(6);
    let sol = solve(&CommGreedy, &inst, &mut rng, &PipelineOptions::default()).unwrap();
    let shallow = simulate(
        &inst,
        &sol.mapping,
        &SimConfig {
            buffer: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let deep = simulate(
        &inst,
        &sol.mapping,
        &SimConfig {
            buffer: 8,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(
        deep.achieved_throughput >= shallow.achieved_throughput * 0.99,
        "deep {:.3} < shallow {:.3}",
        deep.achieved_throughput,
        shallow.achieved_throughput
    );
}

#[test]
fn single_operator_application_runs_at_cpu_speed() {
    // One operator, two objects, one processor: throughput = s/w exactly.
    let inst = paper_instance(1, 1.0, 7);
    let mut rng = StdRng::seed_from_u64(7);
    let sol = solve(&CompGreedy, &inst, &mut rng, &PipelineOptions::default()).unwrap();
    let kind = inst.platform.catalog.kind(sol.mapping.proc_kinds[0]);
    let expected = kind.speed / inst.tree.work(inst.tree.root());
    let report = simulate(&inst, &sol.mapping, &SimConfig::default()).unwrap();
    let rel = (report.achieved_throughput - expected).abs() / expected;
    assert!(
        rel < 0.02,
        "measured {} vs expected {expected}",
        report.achieved_throughput
    );
}

#[test]
fn exact_solver_mappings_also_run() {
    let inst = paper_instance(8, 1.2, 8);
    let exact = solve_exact(&inst, &BranchBoundConfig::default());
    let mapping = exact.mapping.expect("feasible");
    let report = simulate(&inst, &mapping, &SimConfig::default()).unwrap();
    assert!(report.achieved_throughput >= inst.rho * 0.95);
}

/// An FNV-1a hash over engine results, with the counts it stands for.
struct EnginePin {
    mappings: usize,
    multi: usize,
    errors: usize,
    hash: u64,
}

impl EnginePin {
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one run in: its event count, the bits of its throughput and
    /// of every completion time, or the error text.
    fn add(&mut self, run: Result<snsp::engine::SimReport, snsp::engine::SimError>) {
        match run {
            Ok(report) => {
                self.eat(&report.events.to_le_bytes());
                self.eat(&report.achieved_throughput.to_bits().to_le_bytes());
                for t in &report.completion_times {
                    self.eat(&t.to_bits().to_le_bytes());
                }
            }
            Err(e) => {
                self.eat(e.to_string().as_bytes());
                self.errors += 1;
            }
        }
        self.eat(b"|");
    }
}

/// Runs the engine under two configurations on every heuristic's mapping
/// of `paper_instance(n, α, seed)` for each `n`, α ∈ {0.9, 1.3, 1.7} and
/// seeds 0–2, and compares one row per `n`, "n mappings multi errors
/// hash", with its pin. `multi` counts the mappings on several processors
/// with cut edges, whose transfers go through `max_min_fair`. The pins
/// were taken before the engine's event loop was rewritten, so any moved
/// bit of any run fails.
fn assert_engine_runs_pinned(sizes: &[usize], pins: &[&str]) {
    let configs = [
        SimConfig::default(),
        SimConfig {
            results: 60,
            warmup: 5,
            buffer: 1,
            ..SimConfig::default()
        },
    ];
    let mut rows = Vec::new();
    for &n in sizes {
        let mut pin = EnginePin {
            mappings: 0,
            multi: 0,
            errors: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        };
        for alpha in [0.9, 1.3, 1.7] {
            for seed in 0..3u64 {
                let inst = paper_instance(n, alpha, seed);
                for h in all_heuristics() {
                    let opts = PipelineOptions::default();
                    let Ok(sol) = solve_seeded(h.as_ref(), &inst, seed, &opts) else {
                        pin.eat(b"infeasible|");
                        continue;
                    };
                    let m = &sol.mapping;
                    pin.mappings += 1;
                    let cut = inst.tree.ops().any(|op| {
                        inst.tree
                            .parent(op)
                            .is_some_and(|p| m.proc_of(p) != m.proc_of(op))
                    });
                    if m.proc_count() > 1 && cut {
                        pin.multi += 1;
                    }
                    for config in &configs {
                        pin.add(simulate(&inst, m, config));
                    }
                }
            }
        }
        let EnginePin {
            mappings,
            multi,
            errors,
            hash,
        } = pin;
        rows.push(format!("{n} {mappings} {multi} {errors} {hash:016x}"));
    }
    let moved: Vec<String> = rows
        .iter()
        .zip(pins)
        .filter(|(row, pin)| row != *pin)
        .map(|(row, pin)| format!("  {row}\n    pinned {pin}"))
        .collect();
    assert!(
        moved.is_empty() && rows.len() == pins.len(),
        "engine runs moved:\n{}\nall rows:\n{rows:#?}",
        moved.join("\n")
    );
}

#[test]
fn engine_runs_are_pinned_at_small_n() {
    assert_engine_runs_pinned(
        &[5, 10],
        &["5 54 18 0 6aeb06acd660eaf9", "10 54 18 0 f2ca389453792986"],
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "about 1.6 s in release; run with cargo test --release"
)]
fn engine_runs_are_pinned_at_n20_to_n40() {
    let pins = [
        "20 54 19 0 da94660125cefd5d",
        "30 54 20 0 d964b6a41056392b",
        "40 54 21 0 ccf69f2f882547a6",
    ];
    assert_engine_runs_pinned(&[20, 30, 40], &pins);
}
