//! Solution-stability pins for the incremental demand engine.
//!
//! The probe accumulator replaced the recompute-per-query demand path in
//! every heuristic; `PlacementOptions::demand_oracle` keeps the original
//! path alive. These tests pin that, on the paper's fig2/fig3 seed grids,
//! at N = 500–2000 and with large objects, both engines return
//! **byte-identical** solutions — same cost, same purchased kinds, same
//! operator assignment, same download streams — and that every raw
//! `probe_fits` decision agrees, so the rewrite is a pure performance
//! change. The exact solver is pinned the same way against its retained
//! reference implementation.
//!
//! Both engines run the same heuristic loops, so a change to a loop would
//! move them together. Object-Grouping's and Object-Availability's
//! placements are therefore also pinned to committed fingerprints of their
//! `place` results (every group's kind and operator list, or the error
//! text) over N = 5–2000, α = 0.5–2.0 and four scenarios.
//!
//! The N = 1000 and 2000 grids are slow in a debug build (the oracle grid
//! about 14 s), so they run only in release:
//! `cargo test --release --test incremental_stability`.

use snsp::prelude::*;
use snsp_core::heuristics::{GroupBuilder, HeuristicError, PlacedOps, PlacementOptions};
use snsp_gen::{generate, Frequency, SizeRange};
use snsp_solver::solve_exact_reference;

fn pipelines() -> (PipelineOptions, PipelineOptions) {
    let incremental = PipelineOptions::default();
    let oracle = PipelineOptions {
        placement: PlacementOptions {
            demand_oracle: true,
        },
        ..Default::default()
    };
    (incremental, oracle)
}

fn assert_identical(label: &str, a: &Result<Solution, String>, b: &Result<Solution, String>) {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            assert_eq!(x.cost, y.cost, "{label}: cost diverged");
            assert_eq!(
                x.mapping.proc_kinds, y.mapping.proc_kinds,
                "{label}: purchased kinds diverged"
            );
            assert_eq!(
                x.mapping.assignment, y.mapping.assignment,
                "{label}: operator assignment diverged"
            );
            assert_eq!(
                x.mapping.downloads, y.mapping.downloads,
                "{label}: download streams diverged"
            );
        }
        (Err(x), Err(y)) => assert_eq!(x, y, "{label}: error kind diverged"),
        (x, y) => panic!("{label}: feasibility diverged ({x:?} vs {y:?})"),
    }
}

/// Solves every point × seed × heuristic with both engines, asserts the
/// solutions identical, and returns how many solves were feasible.
fn run_grid(points: &[ScenarioParams], seeds: u64) -> usize {
    let (incremental, oracle) = pipelines();
    let mut feasible = 0;
    for params in points {
        let (n, alpha) = (params.n_ops, params.alpha);
        for seed in 0..seeds {
            let inst = generate(params, TreeShape::Random, seed);
            for h in all_heuristics() {
                let label = format!("{} N={n} α={alpha} seed={seed}", h.name());
                let fast = solve_seeded(h.as_ref(), &inst, seed, &incremental)
                    .map_err(|e| format!("{e:?}"));
                let slow =
                    solve_seeded(h.as_ref(), &inst, seed, &oracle).map_err(|e| format!("{e:?}"));
                assert_identical(&label, &fast, &slow);
                feasible += usize::from(fast.is_ok());
            }
        }
    }
    feasible
}

fn paper(points: impl IntoIterator<Item = (usize, f64)>) -> Vec<ScenarioParams> {
    points
        .into_iter()
        .map(|(n, alpha)| ScenarioParams::paper(n, alpha))
        .collect()
}

#[test]
fn heuristics_match_oracle_on_fig2_grids() {
    // Fig. 2's N axis at both of the paper's α settings.
    let points = (20..=140).step_by(20).flat_map(|n| [(n, 0.9), (n, 1.7)]);
    run_grid(&paper(points), 3);
}

#[test]
fn heuristics_match_oracle_on_fig3_grids() {
    // Fig. 3's α axis at N = 60 (paper) and N = 20 (discussed).
    let alphas = (5..=25).step_by(2).map(|a| a as f64 / 10.0);
    run_grid(&paper(alphas.flat_map(|a| [(60, a), (20, a)])), 3);
}

#[test]
fn heuristics_match_oracle_at_n500() {
    assert_eq!(
        run_grid(&paper([(500, 0.9)]), 3),
        18,
        "every solve is feasible"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "about 14 s in debug; run with cargo test --release"
)]
fn heuristics_match_oracle_at_n1000_and_n2000() {
    let feasible = run_grid(&paper([(1000, 0.9), (2000, 0.9)]), 3);
    assert_eq!(feasible, 36, "every solve is feasible");
}

#[test]
fn heuristics_match_oracle_on_large_objects() {
    // Large objects make downloads, not CPU, the binding constraint; at
    // N = 25 no heuristic solves any seed, so the grid stays small enough
    // that both feasible and infeasible solves are compared.
    let large = |n| ScenarioParams::paper(n, 0.9).with_sizes(SizeRange::LARGE);
    let feasible = run_grid(&[large(5), large(15)], 3);
    assert_eq!(feasible, 30, "feasible solves of 54");
}

/// One row of the placement pins: a scenario the two object heuristics
/// are fingerprinted on.
struct PinScenario {
    name: &'static str,
    params: fn(usize, f64) -> ScenarioParams,
    shape: TreeShape,
}

const PIN_SCENARIOS: [PinScenario; 4] = [
    PinScenario {
        name: "paper",
        params: ScenarioParams::paper,
        shape: TreeShape::Random,
    },
    PinScenario {
        name: "large-object",
        params: |n, alpha| ScenarioParams::paper(n, alpha).with_sizes(SizeRange::LARGE),
        shape: TreeShape::Random,
    },
    PinScenario {
        name: "low-frequency",
        params: |n, alpha| ScenarioParams::paper(n, alpha).with_freq(Frequency::LOW),
        shape: TreeShape::Random,
    },
    PinScenario {
        name: "left-deep",
        params: ScenarioParams::paper,
        shape: TreeShape::LeftDeep,
    },
];

const PIN_ALPHAS: [f64; 5] = [0.5, 0.9, 1.3, 1.7, 2.0];

/// What a run of `place` results contributes to a pin: an FNV-1a hash
/// over every group's kind and operator list, in order, or the error
/// text, plus the group and error counts the hash stands for.
struct Fingerprint {
    groups: usize,
    errors: usize,
    hash: u64,
}

impl Fingerprint {
    fn new() -> Self {
        Fingerprint {
            groups: 0,
            errors: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn eat(&mut self, text: &str) {
        for &b in text.as_bytes() {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn add(&mut self, placed: Result<PlacedOps, HeuristicError>) {
        match placed {
            Ok(placed) => {
                for g in &placed.groups {
                    self.eat(&format!("{}:{:?};", g.kind, g.ops));
                }
                self.groups += placed.groups.len();
            }
            Err(e) => {
                self.eat(&format!("{e};"));
                self.errors += 1;
            }
        }
        self.eat("|");
    }
}

/// Fingerprints Object-Grouping's and Object-Availability's `place` over
/// every scenario × α × size × seed and compares each (heuristic,
/// scenario) row, rendered as "heuristic scenario groups errors hash",
/// with its pin. The pins were taken before the two heuristics'
/// bookkeeping was rewritten, so any changed placement fails.
fn assert_placements_pinned(sizes: &[usize], seeds: u64, pins: [&str; 8]) {
    let heuristics: [&dyn Heuristic; 2] = [&ObjectGrouping, &ObjectAvailability];
    let mut rows = Vec::new();
    for h in heuristics {
        for sc in &PIN_SCENARIOS {
            let mut fp = Fingerprint::new();
            for &alpha in &PIN_ALPHAS {
                for &n in sizes {
                    for seed in 0..seeds {
                        let inst = generate(&(sc.params)(n, alpha), sc.shape, seed);
                        let mut rng = StdRng::seed_from_u64(seed);
                        fp.add(h.place(&inst, &mut rng, &PlacementOptions::default()));
                    }
                }
            }
            let (groups, errors, hash) = (fp.groups, fp.errors, fp.hash);
            rows.push(format!("{} {} {groups} {errors} {hash}", h.name(), sc.name));
        }
    }
    let moved: Vec<String> = rows
        .iter()
        .zip(pins)
        .filter(|(row, pin)| row != pin)
        .map(|(row, pin)| format!("  {row}\n    pinned {pin}"))
        .collect();
    assert!(
        moved.is_empty(),
        "placements moved:\n{}\nall rows:\n{rows:#?}",
        moved.join("\n")
    );
}

#[test]
fn object_heuristic_placements_are_pinned_to_n500() {
    let sizes = [5, 10, 15, 20, 30, 40, 60, 80, 100, 140, 200, 300, 500];
    let pins = [
        "Object-Grouping paper 227 47 7464349261582159996",
        "Object-Grouping large-object 36 171 14932509996962705503",
        "Object-Grouping low-frequency 229 47 16056084911830355888",
        "Object-Grouping left-deep 237 64 15220699104961861858",
        "Object-Availability paper 1475 45 1219679465968748173",
        "Object-Availability large-object 39 171 11577169554663354087",
        "Object-Availability low-frequency 1478 45 8454526359016667340",
        "Object-Availability left-deep 2361 64 17417154243319091361",
    ];
    assert_placements_pinned(&sizes, 3, pins);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "N = 1000/2000; run with cargo test --release"
)]
fn object_heuristic_placements_are_pinned_at_n1000_and_n2000() {
    let pins = [
        "Object-Grouping paper 12 18 7997364534513967534",
        "Object-Grouping large-object 0 30 13283075377733901023",
        "Object-Grouping low-frequency 12 18 16943406131279056186",
        "Object-Grouping left-deep 11 24 6736643704428939224",
        "Object-Availability paper 42 18 14792436623746193774",
        "Object-Availability large-object 0 30 3566295961051704157",
        "Object-Availability low-frequency 42 18 16287350020677637166",
        "Object-Availability left-deep 201 24 8418562205766773988",
    ];
    assert_placements_pinned(&[1000, 2000], 3, pins);
}

/// Grows one group of the most expensive kind across the whole `n`-op
/// tree (seed 1), the shape of the heuristics' pack loops, and records
/// every `probe_fits` decision.
fn probe_decisions(n: usize, demand_oracle: bool) -> Vec<bool> {
    let inst = paper_instance(n, 0.9, 1);
    let mut builder = GroupBuilder::new(&inst, PlacementOptions { demand_oracle });
    let top = inst.platform.catalog.most_expensive();
    let ops: Vec<OpId> = inst.tree.ops().collect();
    let g = builder.create_group(vec![ops[0]], top);
    builder.probe_load_group(g);
    let mut decisions = Vec::with_capacity(n - 1);
    for &op in &ops[1..] {
        builder.probe_add(op);
        decisions.push(builder.probe_fits(top));
        builder.add_to_group(g, op);
    }
    decisions
}

#[test]
fn probe_decisions_match_oracle_on_growing_groups() {
    for (n, fits) in [(500, 81), (2000, 74)] {
        let fast = probe_decisions(n, false);
        assert_eq!(
            fast,
            probe_decisions(n, true),
            "N={n}: a probe_fits diverged"
        );
        let accepted = fast.iter().filter(|&&f| f).count();
        assert_eq!(accepted, fits, "N={n}: steps that fit");
    }
}

#[test]
fn exact_search_matches_reference_implementation() {
    for seed in 0..4u64 {
        for &(n, alpha) in &[(6usize, 0.9), (8, 1.3), (10, 1.0), (12, 1.3), (12, 1.6)] {
            let inst = paper_instance(n, alpha, seed);
            let config = BranchBoundConfig::default();
            let fast = solve_exact(&inst, &config);
            let slow = solve_exact_reference(&inst, &config);
            let label = format!("B&B N={n} α={alpha} seed={seed}");
            assert_eq!(fast.cost, slow.cost, "{label}: cost diverged");
            assert_eq!(fast.optimal, slow.optimal, "{label}: optimality diverged");
            match (&fast.mapping, &slow.mapping) {
                (Some(x), Some(y)) => {
                    assert_eq!(x.proc_kinds, y.proc_kinds, "{label}: kinds diverged");
                    assert_eq!(x.assignment, y.assignment, "{label}: assignment diverged");
                    assert_eq!(x.downloads, y.downloads, "{label}: downloads diverged");
                }
                (None, None) => {}
                (x, y) => panic!("{label}: feasibility diverged ({x:?} vs {y:?})"),
            }
        }
    }
}
