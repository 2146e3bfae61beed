//! The steady-state discrete-event engine.
//!
//! Executes a mapped operator tree result-by-result under the paper's
//! execution model (§2.3): every operator's processor concurrently
//! receives inputs for result `t+1`, computes result `t` and sends result
//! `t−1`; basic-object downloads run continuously in the background with a
//! fixed bandwidth reservation of `rate_k` per stream.
//!
//! The engine is a fluid DES: at every event the CPU share of each active
//! computation (equal split per processor, work-conserving) and the
//! max-min fair rate of each active transfer are recomputed, and time
//! advances to the next completion. The measured root completion rate is
//! the *achieved throughput*, which for a feasible mapping must reach the
//! instance's target ρ and can never exceed the analytic
//! [`snsp_core::constraints::max_throughput`].
//!
//! Each event first starts every computation and transfer that can
//! start, and one pass over the operators and edges does that: whether
//! an operator or a transfer can start depends on its own in-flight
//! slot and on completed-result counts, and a start sets only its own
//! slot, so no start makes another one ready. Only completions, at the
//! end of the event, move the counts. The per-operator constants the
//! pass reads (processor, work, CPU speed, parent, same-processor
//! children and remote in-edges) are tabulated once per run.

use std::collections::BTreeMap;

use snsp_core::ids::{OpId, ProcId};
use snsp_core::instance::Instance;
use snsp_core::mapping::Mapping;

use crate::flows::max_min_fair;

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Number of final results the root must produce.
    pub results: usize,
    /// Results ignored at the start when estimating throughput.
    pub warmup: usize,
    /// Pipeline depth: a child may run at most this many results ahead of
    /// a remote parent.
    pub buffer: usize,
    /// Hard wall on simulated seconds.
    pub max_time: f64,
}

impl Default for SimConfig {
    /// 160 results with 20 warm-up keeps the finite-window bias (up to
    /// `buffer / (results − warmup)` of the measured rate, from operators
    /// running ahead of the root at the window edges) under ~3%.
    fn default() -> Self {
        SimConfig {
            results: 160,
            warmup: 20,
            buffer: 4,
            max_time: 1e7,
        }
    }
}

/// Engine failures.
#[derive(Debug, Clone)]
pub enum SimError {
    /// The mapping is structurally unusable (wrong assignment length or
    /// missing downloads).
    BadMapping(String),
    /// A processor's download reservations alone exceed its NIC: transfers
    /// through it can make no progress.
    NicSaturated(ProcId),
    /// No active job could make progress (should not happen for
    /// structurally valid mappings).
    Stalled { time: f64 },
    /// `max_time` elapsed before the requested results were produced.
    TimedOut { completed: usize },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::BadMapping(m) => write!(f, "bad mapping: {m}"),
            SimError::NicSaturated(p) => {
                write!(f, "processor {p} NIC fully consumed by downloads")
            }
            SimError::Stalled { time } => write!(f, "simulation stalled at t={time}"),
            SimError::TimedOut { completed } => {
                write!(f, "timed out after {completed} results")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Measurement output.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Root completion times, seconds.
    pub completion_times: Vec<f64>,
    /// Steady-state results per second over the post-warmup window.
    pub achieved_throughput: f64,
    /// Total simulated time.
    pub sim_time: f64,
    /// Number of engine events processed.
    pub events: u64,
}

impl SimReport {
    fn from_completions(completion_times: Vec<f64>, warmup: usize, events: u64) -> Self {
        let sim_time = completion_times.last().copied().unwrap_or(0.0);
        let achieved = if completion_times.len() > warmup + 1 {
            let t0 = completion_times[warmup];
            let t1 = *completion_times.last().unwrap();
            (completion_times.len() - warmup - 1) as f64 / (t1 - t0)
        } else {
            0.0
        };
        SimReport {
            completion_times,
            achieved_throughput: achieved,
            sim_time,
            events,
        }
    }
}

/// Why an SLO spot-check rejected a mapping (see [`meets_slo`]).
#[derive(Debug, Clone)]
pub enum SloError {
    /// The engine itself failed (bad mapping, stall, timeout…).
    Sim(SimError),
    /// The run finished but below the required throughput.
    Missed {
        /// Measured steady-state throughput.
        achieved: f64,
        /// `frac · ρ`, the admission bar.
        required: f64,
    },
}

impl std::fmt::Display for SloError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SloError::Sim(e) => write!(f, "engine failure: {e}"),
            SloError::Missed { achieved, required } => {
                write!(f, "SLO missed: achieved {achieved} < required {required}")
            }
        }
    }
}

impl std::error::Error for SloError {}

/// SLO spot-check hook for online serving: runs the engine on a mapping
/// (typically one tenant's projection of a shared-platform snapshot, see
/// `MultiSolution::mapping_for`) and demands an achieved throughput of at
/// least `frac · inst.rho`. Returns the measurement on success so callers
/// can log the margin.
pub fn meets_slo(
    inst: &Instance,
    mapping: &Mapping,
    frac: f64,
    config: &SimConfig,
) -> Result<SimReport, SloError> {
    let report = simulate(inst, mapping, config).map_err(SloError::Sim)?;
    let required = frac * inst.rho;
    if report.achieved_throughput + 1e-12 < required {
        return Err(SloError::Missed {
            achieved: report.achieved_throughput,
            required,
        });
    }
    Ok(report)
}

/// One remote tree edge with its transfer pipeline state.
struct RemoteEdge {
    child: usize,
    parent: usize,
    bytes: f64,
    /// Its resources: sender NIC, receiver NIC, pair link.
    path: [usize; 3],
    /// Completed transfers (results fully delivered to the parent).
    delivered: usize,
    /// In-flight transfer: remaining MB of the `delivered`-th result.
    active: Option<f64>,
}

/// Compressed per-operator lists: `items[start[i]..start[i + 1]]` is
/// operator `i`'s list.
struct Csr {
    start: Vec<usize>,
    items: Vec<usize>,
}

impl Csr {
    /// Lists `lists(i)` for every operator `i` in `0..n`, in order.
    fn build<I: IntoIterator<Item = usize>>(n: usize, mut lists: impl FnMut(usize) -> I) -> Csr {
        let mut csr = Csr {
            start: Vec::with_capacity(n + 1),
            items: Vec::new(),
        };
        csr.start.push(0);
        for i in 0..n {
            csr.items.extend(lists(i));
            csr.start.push(csr.items.len());
        }
        csr
    }

    fn of(&self, i: usize) -> &[usize] {
        &self.items[self.start[i]..self.start[i + 1]]
    }
}

/// Runs the engine on one mapping.
pub fn simulate(
    inst: &Instance,
    mapping: &Mapping,
    config: &SimConfig,
) -> Result<SimReport, SimError> {
    let n = inst.tree.len();
    if mapping.assignment.len() != n {
        return Err(SimError::BadMapping(format!(
            "assignment covers {} of {} operators",
            mapping.assignment.len(),
            n
        )));
    }
    for u in mapping.proc_ids() {
        for ty in mapping.required_types(inst, u) {
            if !mapping.downloads_of(u).any(|(t, _)| t == ty) {
                return Err(SimError::BadMapping(format!(
                    "processor {u} has no download stream for object {ty}"
                )));
            }
        }
    }

    // Static download reservations per processor NIC.
    let mut reserved = vec![0.0_f64; mapping.proc_count()];
    for d in &mapping.downloads {
        reserved[d.proc.index()] += inst.object_rate(d.ty);
    }

    // Remote edges and the dynamic network resource table: one resource
    // per processor NIC, one per used pair link.
    let mut edges: Vec<RemoteEdge> = Vec::new();
    let mut resources: Vec<f64> = Vec::new();
    let mut nic_res: Vec<Option<usize>> = vec![None; mapping.proc_count()];
    let mut link_res: BTreeMap<(ProcId, ProcId), usize> = BTreeMap::new();
    for op in inst.tree.ops() {
        let Some(p) = inst.tree.parent(op) else {
            continue;
        };
        let (src, dst) = (mapping.proc_of(op), mapping.proc_of(p));
        if src == dst {
            continue;
        }
        let mut nic = |u: ProcId| match nic_res[u.index()] {
            Some(r) => Ok(r),
            None => {
                let kind = inst.platform.catalog.kind(mapping.proc_kinds[u.index()]);
                let cap = kind.bandwidth - reserved[u.index()];
                if cap <= 0.0 {
                    return Err(SimError::NicSaturated(u));
                }
                nic_res[u.index()] = Some(resources.len());
                resources.push(cap);
                Ok(resources.len() - 1)
            }
        };
        let (src_nic, dst_nic) = (nic(src)?, nic(dst)?);
        let link = *link_res
            .entry((src.min(dst), src.max(dst)))
            .or_insert_with(|| {
                resources.push(inst.platform.proc_link);
                resources.len() - 1
            });
        edges.push(RemoteEdge {
            child: op.index(),
            parent: p.index(),
            bytes: inst.tree.output(op),
            path: [src_nic, dst_nic, link],
            delivered: 0,
            active: None,
        });
    }

    // Per-operator constants of the event loop, computed once per run:
    // processor, work (floored), that processor's CPU speed and parent;
    // the children on the same processor, which deliver instantly
    // through its shared memory; and the remote in-edges (indices into
    // `edges`).
    let proc: &[usize] = &mapping
        .assignment
        .iter()
        .map(|u| u.index())
        .collect::<Vec<_>>();
    let work: Vec<f64> = inst
        .tree
        .ops()
        .map(|op| inst.tree.work(op).max(1e-12))
        .collect();
    let speed: Vec<f64> = proc
        .iter()
        .map(|&u| inst.platform.catalog.kind(mapping.proc_kinds[u]).speed)
        .collect();
    let parent: Vec<Option<usize>> = inst
        .tree
        .ops()
        .map(|op| inst.tree.parent(op).map(OpId::index))
        .collect();
    let mut edge_of = vec![usize::MAX; n];
    for (e, edge) in edges.iter().enumerate() {
        edge_of[edge.child] = e;
    }
    let children = |i: usize| inst.tree.children(OpId::from(i)).iter().map(|c| c.index());
    let local_children = Csr::build(n, |i| children(i).filter(move |&c| proc[c] == proc[i]));
    let remote_in = Csr::build(n, |i| {
        let remote = children(i).filter(move |&c| proc[c] != proc[i]);
        remote.map(|c| edge_of[c])
    });

    // Per-operator state, and buffers every event reuses.
    let mut computed = vec![0usize; n];
    let mut computing: Vec<Option<f64>> = vec![None; n]; // remaining Gop
    let mut completion_times = Vec::with_capacity(config.results);
    let root = inst.tree.root().index();
    let mut t = 0.0_f64;
    let mut events = 0u64;
    let mut cpu_active = vec![0.0_f64; mapping.proc_count()];
    let mut cpu_rate = vec![0.0_f64; n];
    let mut active_flows: Vec<usize> = Vec::new();
    let mut flow_paths: Vec<[usize; 3]> = Vec::new();

    // An operator may start result r when every operator child has
    // delivered result r (locally via `computed`, remotely via the edge
    // pipeline) and its parent is within the pipeline window. Only the
    // root is capped at `config.results`: upstream operators keep the
    // pipeline full until the root is done, so the measured root rate is a
    // true steady-state throughput, not a drained-pipeline burst.
    let ready = |i: usize, computed: &[usize], edges: &[RemoteEdge]| -> bool {
        let r = computed[i];
        match parent[i] {
            None => {
                if r >= config.results {
                    return false;
                }
            }
            // Per-parent window: each hop may run at most `buffer` results
            // ahead, which bounds memory while letting deep chains fill.
            Some(p) => {
                if r >= computed[p] + config.buffer {
                    return false;
                }
            }
        }
        local_children.of(i).iter().all(|&c| computed[c] > r)
            && remote_in.of(i).iter().all(|&e| edges[e].delivered > r)
    };

    loop {
        // Start every compute and transfer that can start. One pass is
        // the fixpoint: a start sets only its own `computing` or `active`
        // slot, and no other operator's or transfer's test reads that
        // slot (they read `computed` and `delivered`, which only
        // completions move), so a second pass would start nothing.
        for i in 0..n {
            if computing[i].is_none() && ready(i, &computed, &edges) {
                computing[i] = Some(work[i]);
            }
        }
        for e in edges.iter_mut() {
            if e.active.is_none()
                && computed[e.child] > e.delivered
                && e.delivered < computed[e.parent] + config.buffer
            {
                e.active = Some(e.bytes.max(1e-12));
            }
        }

        if completion_times.len() >= config.results {
            break;
        }

        // Compute rates: generalized processor sharing weighted by w_i, so
        // every active operator on a processor advances through *results*
        // at the same pace (the fluid ideal constraint (1) assumes).
        cpu_active.fill(0.0);
        for i in 0..n {
            if computing[i].is_some() {
                cpu_active[proc[i]] += work[i];
            }
        }
        active_flows.clear();
        active_flows.extend((0..edges.len()).filter(|&e| edges[e].active.is_some()));
        flow_paths.clear();
        flow_paths.extend(active_flows.iter().map(|&e| edges[e].path));
        let flow_rates = max_min_fair(&resources, &flow_paths);

        // Next completion.
        let mut dt = f64::INFINITY;
        for i in 0..n {
            if let Some(rem) = computing[i] {
                cpu_rate[i] = speed[i] * work[i] / cpu_active[proc[i]];
                dt = dt.min(rem / cpu_rate[i]);
            }
        }
        for (fi, &ei) in active_flows.iter().enumerate() {
            let rem = edges[ei].active.unwrap();
            if flow_rates[fi] > 0.0 {
                dt = dt.min(rem / flow_rates[fi]);
            }
        }
        if !dt.is_finite() {
            return Err(SimError::Stalled { time: t });
        }
        t += dt;
        events += 1;
        if t > config.max_time {
            return Err(SimError::TimedOut {
                completed: completion_times.len(),
            });
        }

        // Advance and collect completions.
        for i in 0..n {
            if let Some(rem) = computing[i] {
                let left = rem - cpu_rate[i] * dt;
                if left <= 1e-9 {
                    computing[i] = None;
                    computed[i] += 1;
                    if i == root {
                        completion_times.push(t);
                    }
                } else {
                    computing[i] = Some(left);
                }
            }
        }
        for (fi, &ei) in active_flows.iter().enumerate() {
            let e = &mut edges[ei];
            let rem = e.active.unwrap();
            let left = rem - flow_rates[fi] * dt;
            if left <= 1e-9 {
                e.active = None;
                e.delivered += 1;
            } else {
                e.active = Some(left);
            }
        }
    }

    Ok(SimReport::from_completions(
        completion_times,
        config.warmup,
        events,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snsp_core::constraints;
    use snsp_core::heuristics::{solve, PipelineOptions, SubtreeBottomUp};
    use snsp_gen::paper_instance;

    fn solved(n: usize, alpha: f64, seed: u64) -> (snsp_core::Instance, Mapping) {
        let inst = paper_instance(n, alpha, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let sol = solve(
            &SubtreeBottomUp,
            &inst,
            &mut rng,
            &PipelineOptions::default(),
        )
        .expect("feasible at this alpha");
        (inst, sol.mapping)
    }

    #[test]
    fn feasible_mapping_achieves_target_throughput() {
        let (inst, mapping) = solved(20, 0.9, 1);
        let report = simulate(&inst, &mapping, &SimConfig::default()).unwrap();
        assert!(
            report.achieved_throughput >= inst.rho * 0.95,
            "achieved {} < ρ {}",
            report.achieved_throughput,
            inst.rho
        );
    }

    #[test]
    fn achieved_never_exceeds_analytic_bound() {
        for seed in [2, 3] {
            let (inst, mapping) = solved(15, 1.2, seed);
            let bound = constraints::max_throughput(&inst, &mapping);
            let report = simulate(&inst, &mapping, &SimConfig::default()).unwrap();
            assert!(
                report.achieved_throughput <= bound * 1.05,
                "achieved {} > bound {}",
                report.achieved_throughput,
                bound
            );
        }
    }

    #[test]
    fn completion_times_are_monotone() {
        let (inst, mapping) = solved(12, 1.0, 4);
        let report = simulate(&inst, &mapping, &SimConfig::default()).unwrap();
        assert_eq!(report.completion_times.len(), SimConfig::default().results);
        assert!(report
            .completion_times
            .windows(2)
            .all(|w| w[1] >= w[0] - 1e-12));
    }

    #[test]
    fn starved_run_reports_truncation_not_throughput() {
        // A wall far below the first completion time: the engine must
        // return the `max_time` truncation error with an honest completed
        // count, never a misleading (zero or partial) throughput figure.
        let (inst, mapping) = solved(20, 0.9, 1);
        let starved = SimConfig {
            max_time: 1e-9,
            ..SimConfig::default()
        };
        match simulate(&inst, &mapping, &starved) {
            Err(SimError::TimedOut { completed }) => {
                assert!(completed < SimConfig::default().results);
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
        // A wall mid-run truncates too (some results done, not all).
        let full = simulate(&inst, &mapping, &SimConfig::default()).unwrap();
        let mid = SimConfig {
            max_time: full.sim_time * 0.5,
            ..SimConfig::default()
        };
        match simulate(&inst, &mapping, &mid) {
            Err(SimError::TimedOut { completed }) => {
                assert!(completed < SimConfig::default().results);
            }
            other => panic!("expected mid-run TimedOut, got {other:?}"),
        }
    }

    #[test]
    fn meets_slo_accepts_feasible_and_rejects_starved() {
        let (inst, mapping) = solved(15, 0.9, 2);
        let report = meets_slo(&inst, &mapping, 0.95, &SimConfig::default())
            .expect("feasible mapping sustains 0.95·ρ");
        assert!(report.achieved_throughput >= 0.95 * inst.rho);
        // An impossible bar misses.
        let err = meets_slo(&inst, &mapping, 1e6, &SimConfig::default());
        assert!(matches!(err, Err(SloError::Missed { .. })));
        // Engine failures pass through.
        let mut broken = mapping.clone();
        broken.downloads.clear();
        assert!(matches!(
            meets_slo(&inst, &broken, 0.95, &SimConfig::default()),
            Err(SloError::Sim(SimError::BadMapping(_)))
        ));
    }

    #[test]
    fn bad_mapping_is_rejected() {
        let (inst, mapping) = solved(10, 0.9, 5);
        let mut broken = mapping.clone();
        broken.downloads.clear();
        assert!(matches!(
            simulate(&inst, &broken, &SimConfig::default()),
            Err(SimError::BadMapping(_))
        ));
        let mut short = mapping;
        short.assignment.pop();
        assert!(matches!(
            simulate(&inst, &short, &SimConfig::default()),
            Err(SimError::BadMapping(_))
        ));
    }
}
