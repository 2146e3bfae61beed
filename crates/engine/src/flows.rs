//! Max-min fair bandwidth sharing under the bounded multi-port model.
//!
//! Every active transfer is a *flow* crossing a set of capacitated
//! resources (sender NIC, receiver NIC, the pair link). The classic
//! progressive-filling algorithm raises all flow rates together, freezing
//! the flows through each resource as it saturates; the result is the
//! unique max-min fair allocation, which is what a well-behaved transport
//! layer converges to on a dedicated platform.

/// Computes max-min fair rates.
///
/// `capacities[r]` is the capacity of resource `r`; `flows[f]` lists the
/// resources flow `f` crosses (any slice-like path: the engine passes
/// fixed `[usize; 3]` paths, so it allocates none per event). Returns one
/// rate per flow. Flows crossing no resource get `f64::INFINITY` (they
/// are not network-bound).
pub fn max_min_fair<P: AsRef<[usize]>>(capacities: &[f64], flows: &[P]) -> Vec<f64> {
    let mut rates = vec![0.0_f64; flows.len()];
    if flows.is_empty() {
        return rates;
    }
    let paths = || flows.iter().map(AsRef::as_ref);
    let mut remaining: Vec<f64> = capacities.to_vec();
    let mut active: Vec<bool> = paths().map(|f| !f.is_empty()).collect();
    for (f, flow) in paths().enumerate() {
        if flow.is_empty() {
            rates[f] = f64::INFINITY;
        }
    }
    // Number of active flows crossing each resource.
    let mut users = vec![0usize; capacities.len()];
    for (f, flow) in paths().enumerate() {
        if active[f] {
            for &r in flow {
                users[r] += 1;
            }
        }
    }

    loop {
        // Tightest resource: the one granting the least extra rate per
        // active flow.
        let mut best: Option<(usize, f64)> = None;
        for (r, &n) in users.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let fill = remaining[r] / n as f64;
            if best.is_none_or(|(_, b)| fill < b) {
                best = Some((r, fill));
            }
        }
        let Some((bottleneck, fill)) = best else {
            break;
        };

        // Raise every active flow by `fill`, then freeze the flows through
        // the bottleneck.
        for (f, flow) in paths().enumerate() {
            if !active[f] {
                continue;
            }
            rates[f] += fill;
            for &r in flow {
                remaining[r] -= fill;
            }
        }
        for (f, flow) in paths().enumerate() {
            if active[f] && flow.contains(&bottleneck) {
                active[f] = false;
                for &r in flow {
                    users[r] -= 1;
                }
            }
        }
        // Numeric hygiene: the bottleneck is exactly exhausted.
        remaining[bottleneck] = remaining[bottleneck].max(0.0);
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flow_gets_the_min_capacity_on_its_path() {
        let rates = max_min_fair(&[100.0, 40.0, 70.0], &[vec![0, 1, 2]]);
        assert!((rates[0] - 40.0).abs() < 1e-9);
    }

    #[test]
    fn two_flows_share_a_common_bottleneck_equally() {
        // Both flows cross resource 0 (cap 100); each also has a private
        // wide resource.
        let rates = max_min_fair(&[100.0, 1000.0, 1000.0], &[vec![0, 1], vec![0, 2]]);
        assert!((rates[0] - 50.0).abs() < 1e-9);
        assert!((rates[1] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn max_min_redistributes_spare_capacity() {
        // Flow 0 is pinched by a private 10-capacity resource; flow 1 then
        // takes the rest of the shared 100.
        let rates = max_min_fair(&[100.0, 10.0], &[vec![0, 1], vec![0]]);
        assert!((rates[0] - 10.0).abs() < 1e-9);
        assert!((rates[1] - 90.0).abs() < 1e-9);
    }

    #[test]
    fn empty_path_is_unbounded() {
        let rates = max_min_fair(&[5.0], &[vec![], vec![0]]);
        assert!(rates[0].is_infinite());
        assert!((rates[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn no_flows_is_fine() {
        assert!(max_min_fair::<[usize; 0]>(&[1.0, 2.0], &[]).is_empty());
    }

    #[test]
    fn zero_capacity_link_starves_its_flows_only() {
        // Flow 0 crosses a dead link: it must get rate 0 and, crucially,
        // the algorithm must still terminate and hand flow 1 the whole
        // shared NIC — a dead link must not wedge the filling loop when
        // many engine threads drive it concurrently.
        let rates = max_min_fair(&[0.0, 100.0], &[vec![0, 1], vec![1]]);
        assert_eq!(rates[0], 0.0);
        assert!((rates[1] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn all_zero_capacities_terminate_with_zero_rates() {
        let rates = max_min_fair(&[0.0, 0.0], &[vec![0], vec![0, 1], vec![1]]);
        assert_eq!(rates, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn single_flow_saturates_its_only_resource_exactly() {
        // One flow, one resource: the allocation must hit the capacity
        // exactly (no progressive-filling residue), which downstream
        // steady-state checks compare against with equality.
        let rates = max_min_fair(&[42.0], &[vec![0]]);
        assert_eq!(rates, vec![42.0]);
    }

    #[test]
    fn single_flow_repeated_resource_still_terminates() {
        // A flow listing the same resource twice (sender and receiver on
        // one NIC) is counted as two users of that resource; the flow
        // settles at half the capacity and the loop still terminates.
        let rates = max_min_fair(&[10.0], &[vec![0, 0]]);
        assert!((rates[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn allocation_never_exceeds_capacity() {
        // Randomish structured case: 4 flows over 3 resources.
        let caps = [30.0, 20.0, 25.0];
        let flows = vec![vec![0, 1], vec![1, 2], vec![0, 2], vec![2]];
        let rates = max_min_fair(&caps, &flows);
        for (r, &cap) in caps.iter().enumerate() {
            let used: f64 = flows
                .iter()
                .zip(&rates)
                .filter(|(f, _)| f.contains(&r))
                .map(|(_, &rate)| rate)
                .sum();
            assert!(used <= cap + 1e-6, "resource {r}: {used} > {cap}");
        }
    }

    #[test]
    fn fairness_is_pareto_efficient() {
        // At least one resource on each flow's path should be saturated.
        let caps = [30.0, 20.0, 25.0];
        let flows = vec![vec![0, 1], vec![1, 2], vec![0, 2]];
        let rates = max_min_fair(&caps, &flows);
        for (f, flow) in flows.iter().enumerate() {
            let saturated = flow.iter().any(|&r| {
                let used: f64 = flows
                    .iter()
                    .zip(&rates)
                    .filter(|(g, _)| g.contains(&r))
                    .map(|(_, &rate)| rate)
                    .sum();
                (used - caps[r]).abs() < 1e-6
            });
            assert!(saturated, "flow {f} could still grow");
        }
    }
}
