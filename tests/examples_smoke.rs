//! Smoke coverage for the `examples/` mains: each test replays the
//! example's core library path (trimmed for speed) so an API drift that
//! breaks an example also breaks `cargo test`. CI additionally executes
//! `cargo run --example` for each binary.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snsp::prelude::*;

fn cheapest(inst: &Instance, seed: u64) -> Option<Solution> {
    let mut best: Option<Solution> = None;
    for h in all_heuristics() {
        let mut rng = StdRng::seed_from_u64(seed);
        if let Ok(sol) = solve(h.as_ref(), inst, &mut rng, &PipelineOptions::default()) {
            if best.as_ref().is_none_or(|b| sol.cost < b.cost) {
                best = Some(sol);
            }
        }
    }
    best
}

/// `examples/quickstart.rs`: hand-built three-operator tree, replicated
/// objects, solve + verify + simulate + exact optimum.
#[test]
fn quickstart_core_path() {
    let mut objects = ObjectCatalog::new();
    let frame = objects.add(ObjectType::new(10.0, 0.5));
    let reference = objects.add(ObjectType::new(25.0, 0.5));

    let mut b = OperatorTree::builder();
    let combine = b.add_root();
    let filter = b.add_child(combine).unwrap();
    let matcher = b.add_child(combine).unwrap();
    b.add_leaf(filter, frame).unwrap();
    b.add_leaf(filter, frame).unwrap();
    b.add_leaf(matcher, reference).unwrap();
    b.add_leaf(matcher, frame).unwrap();
    let mut tree = b.finish().unwrap();
    tree.apply_work_model(&objects, &WorkModel::paper(1.2));

    let mut platform = Platform::paper(2);
    platform.placement.add_holder(frame, ServerId(0));
    platform.placement.add_holder(frame, ServerId(3));
    platform.placement.add_holder(reference, ServerId(1));

    let inst = Instance::new(tree, objects, platform, 1.0).expect("valid instance");
    let best = cheapest(&inst, 0).expect("at least one heuristic succeeds");

    assert!(is_feasible(&inst, &best.mapping));
    let described = snsp::core::report::describe(&inst, &best.mapping);
    assert!(!described.is_empty());

    let sim = simulate(&inst, &best.mapping, &SimConfig::default()).unwrap();
    assert!(sim.achieved_throughput >= inst.rho * 0.95);

    let exact = solve_exact(&inst, &BranchBoundConfig::default());
    assert!(exact.cost <= best.cost);
}

/// `examples/video_surveillance.rs`: balanced fusion tree over camera
/// feeds plus a shared low-frequency database object.
#[test]
fn video_surveillance_core_path() {
    let n_cameras = 8;
    let mut objects = ObjectCatalog::new();
    let cameras: Vec<TypeId> = (0..n_cameras)
        .map(|i| objects.add(ObjectType::new(8.0 + (i % 5) as f64 * 2.0, 0.5)))
        .collect();
    let database = objects.add(ObjectType::new(24.0, 1.0 / 50.0));

    let mut b = OperatorTree::builder();
    let root = b.add_root();
    let mut fusion = vec![root];
    while fusion.len() < n_cameras {
        let parent = fusion.remove(0);
        fusion.push(b.add_child(parent).unwrap());
        fusion.push(b.add_child(parent).unwrap());
    }
    for (slot, &camera) in fusion.iter().zip(&cameras) {
        b.add_leaf(*slot, camera).unwrap();
        b.add_leaf(*slot, database).unwrap();
    }
    let mut tree = b.finish().unwrap();
    tree.apply_work_model(&objects, &WorkModel::paper(1.1));
    assert_eq!(tree.leaf_count(), 2 * n_cameras);

    let mut platform = Platform::paper(objects.len());
    for (i, &cam) in cameras.iter().enumerate() {
        platform
            .placement
            .add_holder(cam, ServerId::from(i % platform.servers.len()));
    }
    platform.placement.add_holder(database, ServerId(0));
    platform.placement.add_holder(database, ServerId(5));

    let inst = Instance::new(tree, objects, platform, 1.0).expect("valid instance");
    let best = cheapest(&inst, 7).expect("a feasible plan exists");

    let headroom = max_throughput(&inst, &best.mapping);
    assert!(headroom >= inst.rho);
    let sim = simulate(&inst, &best.mapping, &SimConfig::default()).unwrap();
    assert!(sim.achieved_throughput >= inst.rho * 0.95);
}

/// `examples/network_monitoring.rs`: left-deep continuous query, QoS
/// sweep — cost must be monotone in ρ until the feasibility wall.
#[test]
fn network_monitoring_core_path() {
    let mut objects = ObjectCatalog::new();
    let feeds: Vec<TypeId> = (0..8)
        .map(|i| objects.add(ObjectType::new(6.0 + (i % 5) as f64 * 2.0, 0.5)))
        .collect();

    let mut b = OperatorTree::builder();
    let mut join = b.add_root();
    b.add_leaf(join, feeds[0]).unwrap();
    for &feed in &feeds[1..feeds.len() - 1] {
        let next = b.add_child(join).unwrap();
        b.add_leaf(next, feed).unwrap();
        join = next;
    }
    b.add_leaf(join, feeds[feeds.len() - 1]).unwrap();
    let mut tree = b.finish().unwrap();
    tree.apply_work_model(&objects, &WorkModel::paper(1.3));
    assert!(tree.is_left_deep());

    let mut platform = Platform::paper(objects.len());
    for (i, &feed) in feeds.iter().enumerate() {
        platform
            .placement
            .add_holder(feed, ServerId::from(i % platform.servers.len()));
    }

    let mut prev_cost = 0u64;
    for rho in [0.5, 2.0, 8.0] {
        let inst = Instance::new(tree.clone(), objects.clone(), platform.clone(), rho)
            .expect("valid instance");
        let Some(sol) = cheapest(&inst, 11) else {
            continue; // past the catalog's fastest configuration
        };
        assert!(sol.cost >= prev_cost, "cost not monotone in ρ");
        prev_cost = sol.cost;
        let sim = simulate(&inst, &sol.mapping, &SimConfig::default()).unwrap();
        assert!(sim.achieved_throughput >= rho * 0.95);
    }
    assert!(prev_cost > 0, "no QoS point was feasible");
}

/// `examples/cloud_budget.rs`: heuristics vs the analytic lower bound,
/// and vs the exact optimum on a small instance.
#[test]
fn cloud_budget_core_path() {
    for seed in 0..2u64 {
        let inst = paper_instance(10, 0.9, seed);
        let lb = lower_bound(&inst).value();
        let best = cheapest(&inst, seed).expect("small instances are feasible");
        assert!(best.cost >= lb, "heuristic beat the lower bound?!");

        let exact = solve_exact(
            &inst,
            &BranchBoundConfig {
                node_budget: 300_000,
                upper_bound: None,
                workers: 1,
            },
        );
        if exact.mapping.is_some() {
            assert!(exact.cost >= lb);
            assert!(exact.cost <= best.cost);
        }
    }
}

/// `examples/shared_platform.rs`: tree rewriting, joint multi-application
/// placement and budgeted throughput.
#[test]
fn shared_platform_core_path() {
    // 1. Rewriting never breaks instance construction.
    let inst = paper_instance(30, 1.5, 3);
    let model = WorkModel::paper(1.5);
    for strategy in [
        RewriteStrategy::LeftDeep,
        RewriteStrategy::Balanced,
        RewriteStrategy::HuffmanBySize,
    ] {
        let tree = rewrite(&inst.tree, &inst.objects, &model, strategy);
        let variant =
            Instance::new(tree, inst.objects.clone(), inst.platform.clone(), inst.rho).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let _ = solve(
            &SubtreeBottomUp,
            &variant,
            &mut rng,
            &PipelineOptions::default(),
        );
    }

    // 2. Joint placement is never worse than separate platforms.
    let base = paper_instance(15, 1.2, 1);
    let mut apps = Vec::new();
    for k in 0..2u64 {
        let donor = paper_instance(15, 1.2, 100 + k);
        apps.push(
            Instance::new(
                donor.tree.clone(),
                base.objects.clone(),
                base.platform.clone(),
                1.0,
            )
            .unwrap(),
        );
    }
    let mut separate = 0u64;
    for app in &apps {
        let mut rng = StdRng::seed_from_u64(0);
        separate += solve(&SubtreeBottomUp, app, &mut rng, &PipelineOptions::default())
            .expect("each app alone is feasible")
            .cost;
    }
    let multi = MultiInstance::new(apps).unwrap();
    let mut rng = StdRng::seed_from_u64(0);
    let joint = solve_joint(
        &multi,
        &SubtreeBottomUp,
        &mut rng,
        &PipelineOptions::default(),
    )
    .expect("joint placement feasible");
    assert!(joint.cost <= separate);

    // 3. Budgeted throughput grows with the budget.
    let inst = paper_instance(20, 1.3, 2);
    let mut prev_rho = 0.0f64;
    for budget in [8_000u64, 60_000] {
        if let Some(res) = max_throughput_under_budget(&inst, &SubtreeBottomUp, budget, 0.05, 0) {
            assert!(res.rho + 1e-9 >= prev_rho);
            prev_rho = res.rho;
        }
    }
}

/// `examples/online_serving.rs`: deterministic trace replay plus a small
/// serve campaign with schema-v3 JSON.
#[test]
fn online_serving_core_path() {
    let params = TraceParams::poisson(0.4, 5.0, 20.0).with_failures(0.05);
    let trace = generate_trace(&params, 42);
    let report = run_trace(&trace, &ServeConfig::default());
    assert_eq!(report.admitted + report.rejected, report.arrivals);
    assert_eq!(report.slo_violations, 0);

    let campaign = ServeCampaign::new("smoke", vec![ServePoint::new("flaky", params)], 2);
    let campaign_report = run_serve_campaign(&campaign);
    assert_eq!(campaign_report.points.len(), 1);
    ArtifactKind::Serve
        .validate(&campaign_report.render_json(true))
        .expect("schema v3 validates");
}

/// `examples/campaign.rs`: parallel grid sweep with an exact reference
/// column and schema-validated JSON output.
#[test]
fn campaign_core_path() {
    let points: Vec<PointSpec> = [8usize, 12]
        .into_iter()
        .map(|n| PointSpec::new(n.to_string(), ScenarioParams::paper(n, 0.9)))
        .collect();
    let campaign = Campaign::new("example", points, 2).with_reference(ReferenceConfig {
        max_ops: 12,
        node_budget: 200_000,
        workers: 1,
    });
    let report = run_campaign(&campaign);
    assert_eq!(report.points.len(), 2);
    for point in &report.points {
        assert!(point.heuristics.iter().any(|h| h.feasible > 0));
        assert!(point.reference.is_some());
    }
    ArtifactKind::Sweep
        .validate(&report.render_json(true))
        .expect("schema v1 validates");
}
