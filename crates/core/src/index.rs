//! Precomputed, immutable per-instance aggregates for the hot demand
//! path.
//!
//! Every feasibility probe a heuristic (or the exact solver, or the
//! online admission layer) asks ultimately reads the same quantities: an
//! operator's work, the download rates of its distinct leaf types, and
//! the bandwidth of its incident tree edges. [`InstanceIndex`] computes
//! them once per instance into flat, cache-dense arrays (CSR layout for
//! the variable-length lists) so the delta-demand accumulator in
//! [`heuristics::common`](crate::heuristics::common) can update a
//! [`Demand`](crate::heuristics::Demand) in O(degree + types-of-op) per
//! operator, with no per-query allocation and no tree walks.

use crate::ids::{OpId, TypeId};
use crate::instance::Instance;

/// Immutable per-instance aggregates: per-op work, CSR adjacency with
/// edge rates, per-op sorted distinct leaf types, and per-type download
/// rates with a precomputed downloadability verdict.
#[derive(Debug, Clone)]
pub struct InstanceIndex {
    n_ops: usize,
    n_types: usize,
    /// `w_i` per operator (copied out of the tree for locality).
    work: Vec<f64>,
    /// CSR offsets into `adj`; `adj[adj_off[i]..adj_off[i+1]]` lists the
    /// tree neighbours of operator `i` as `(neighbour, edge rate)`,
    /// operator children first (edge `ρ·δ_child`), then the parent (edge
    /// `ρ·δ_op`) — the order `GroupBuilder::demand_of` walks them, so
    /// running sums add up in the reference oracle's order.
    adj_off: Vec<u32>,
    adj: Vec<(OpId, f64)>,
    /// CSR offsets into `types`; `types[ty_off[i]..ty_off[i+1]]` lists
    /// the *distinct* leaf types of operator `i`, ascending.
    ty_off: Vec<u32>,
    types: Vec<TypeId>,
    /// `rate_k = δ_k·f_k` per object type.
    type_rate: Vec<f64>,
    /// Whether `rate_k` exceeds every holder's link (the object can never
    /// be downloaded; any set needing it is infeasible).
    type_undownloadable: Vec<bool>,
}

impl InstanceIndex {
    /// Builds the index in one pass over the tree; O(N + edges + leaves).
    pub fn new(inst: &Instance) -> Self {
        let n_ops = inst.tree.len();
        let n_types = inst.objects.len();

        let type_rate: Vec<f64> = (0..n_types)
            .map(|t| inst.object_rate(TypeId::from(t)))
            .collect();
        let type_undownloadable: Vec<bool> = (0..n_types)
            .map(|t| {
                let ty = TypeId::from(t);
                type_rate[t] > inst.platform.best_link_for(ty) + 1e-9
            })
            .collect();

        let mut work = Vec::with_capacity(n_ops);
        let mut adj_off = Vec::with_capacity(n_ops + 1);
        let mut adj = Vec::new();
        let mut ty_off = Vec::with_capacity(n_ops + 1);
        let mut types = Vec::new();
        adj_off.push(0);
        ty_off.push(0);
        for op in inst.tree.ops() {
            work.push(inst.tree.work(op));
            for &c in inst.tree.children(op) {
                adj.push((c, inst.edge_rate(c)));
            }
            if let Some(p) = inst.tree.parent(op) {
                adj.push((p, inst.edge_rate(op)));
            }
            adj_off.push(adj.len() as u32);

            let mut tys = inst.tree.leaf_types(op).to_vec();
            tys.sort_unstable();
            tys.dedup();
            types.extend(tys);
            ty_off.push(types.len() as u32);
        }

        InstanceIndex {
            n_ops,
            n_types,
            work,
            adj_off,
            adj,
            ty_off,
            types,
            type_rate,
            type_undownloadable,
        }
    }

    /// Number of operators indexed.
    #[inline]
    pub fn n_ops(&self) -> usize {
        self.n_ops
    }

    /// Number of object types indexed.
    #[inline]
    pub fn n_types(&self) -> usize {
        self.n_types
    }

    /// `w_i` of `op`.
    #[inline]
    pub fn work(&self, op: OpId) -> f64 {
        self.work[op.index()]
    }

    /// Tree neighbours of `op` with the shared-edge bandwidth: operator
    /// children first (edge `ρ·δ_child`), then the parent (edge `ρ·δ_op`).
    #[inline]
    pub fn neighbors(&self, op: OpId) -> &[(OpId, f64)] {
        let i = op.index();
        &self.adj[self.adj_off[i] as usize..self.adj_off[i + 1] as usize]
    }

    /// Distinct leaf types of `op`, ascending.
    #[inline]
    pub fn op_types(&self, op: OpId) -> &[TypeId] {
        let i = op.index();
        &self.types[self.ty_off[i] as usize..self.ty_off[i + 1] as usize]
    }

    /// `rate_k` of object type `ty`.
    #[inline]
    pub fn type_rate(&self, ty: TypeId) -> f64 {
        self.type_rate[ty.index()]
    }

    /// Whether `ty` can never be sourced over any holder's link.
    #[inline]
    pub fn type_undownloadable(&self, ty: TypeId) -> bool {
        self.type_undownloadable[ty.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ServerId;
    use crate::object::{ObjectCatalog, ObjectType};
    use crate::platform::Platform;
    use crate::tree::OperatorTree;
    use crate::work::WorkModel;

    fn chain_instance() -> Instance {
        let mut objects = ObjectCatalog::new();
        let t0 = objects.add(ObjectType::new(10.0, 0.5));
        let t1 = objects.add(ObjectType::new(20.0, 0.5));
        let mut b = OperatorTree::builder();
        let op0 = b.add_root();
        let op1 = b.add_child(op0).unwrap();
        let op2 = b.add_child(op1).unwrap();
        b.add_leaf(op2, t0).unwrap();
        b.add_leaf(op2, t0).unwrap();
        b.add_leaf(op1, t1).unwrap();
        let mut tree = b.finish().unwrap();
        tree.apply_work_model(&objects, &WorkModel::paper(1.0));
        let mut platform = Platform::paper(2);
        platform.placement.add_holder(t0, ServerId(0));
        platform.placement.add_holder(t1, ServerId(1));
        Instance::new(tree, objects, platform, 1.0).unwrap()
    }

    #[test]
    fn index_mirrors_tree_aggregates() {
        let inst = chain_instance();
        let idx = InstanceIndex::new(&inst);
        assert_eq!(idx.n_ops(), 3);
        assert_eq!(idx.n_types(), 2);
        for op in inst.tree.ops() {
            assert_eq!(idx.work(op), inst.tree.work(op));
            let mut types = inst.tree.leaf_types(op).to_vec();
            types.sort_unstable();
            types.dedup();
            assert_eq!(idx.op_types(op), types.as_slice());
        }
        // op1 neighbours: child op2 (rate δ_op2), parent op0 (rate δ_op1).
        let nbs = idx.neighbors(OpId(1));
        assert_eq!(nbs.len(), 2);
        assert_eq!(nbs[0], (OpId(2), inst.edge_rate(OpId(2))));
        assert_eq!(nbs[1], (OpId(0), inst.edge_rate(OpId(1))));
        // op2 reads t0 twice: the distinct-type list has one entry.
        assert_eq!(idx.op_types(OpId(2)), &[TypeId(0)]);
    }

    #[test]
    fn downloadability_matches_platform_links() {
        let inst = chain_instance();
        let idx = InstanceIndex::new(&inst);
        for t in 0..idx.n_types() {
            let ty = TypeId::from(t);
            assert_eq!(
                idx.type_undownloadable(ty),
                inst.object_rate(ty) > inst.platform.best_link_for(ty) + 1e-9
            );
        }
    }
}
