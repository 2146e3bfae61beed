//! The mapping model (paper §2.3): purchased processors, the allocation
//! function `a`, and the download sets `DL(u)`.

use crate::ids::{OpId, ProcId, ServerId, TypeId};
use crate::instance::Instance;

/// One download stream: processor `proc` continuously pulls object `ty`
/// from server `server`. The set of all downloads of a processor is the
/// paper's `DL(u)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Download {
    /// The downloading processor.
    pub proc: ProcId,
    /// The object type being downloaded.
    pub ty: TypeId,
    /// The source server.
    pub server: ServerId,
}

/// A complete solution: which processors were bought (by catalog kind
/// index), where each operator runs (`a(i)`), and where each object is
/// downloaded from.
#[derive(Debug, Clone)]
pub struct Mapping {
    /// Purchased processors, as indices into `instance.platform.catalog`.
    pub proc_kinds: Vec<usize>,
    /// `a(i)`: the processor running operator `i`, indexed by `OpId`.
    pub assignment: Vec<ProcId>,
    /// All download streams, sorted by `(proc, ty)`.
    pub downloads: Vec<Download>,
}

impl Mapping {
    /// Creates a mapping and normalizes the download order.
    pub fn new(
        proc_kinds: Vec<usize>,
        assignment: Vec<ProcId>,
        mut downloads: Vec<Download>,
    ) -> Self {
        downloads.sort_unstable();
        Mapping {
            proc_kinds,
            assignment,
            downloads,
        }
    }

    /// Number of purchased processors.
    pub fn proc_count(&self) -> usize {
        self.proc_kinds.len()
    }

    /// All processor ids.
    pub fn proc_ids(&self) -> impl Iterator<Item = ProcId> {
        (0..self.proc_kinds.len()).map(ProcId::from)
    }

    /// `a(i)`.
    #[inline]
    pub fn proc_of(&self, op: OpId) -> ProcId {
        self.assignment[op.index()]
    }

    /// `ā(u)`: operators assigned to `proc`, in id order.
    pub fn ops_on(&self, proc: ProcId) -> Vec<OpId> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p == proc)
            .map(|(i, _)| OpId::from(i))
            .collect()
    }

    /// Groups all operators by processor: `groups()[u]` is `ā(u)`.
    pub fn groups(&self) -> Vec<Vec<OpId>> {
        let mut groups = vec![Vec::new(); self.proc_kinds.len()];
        for (i, &p) in self.assignment.iter().enumerate() {
            groups[p.index()].push(OpId::from(i));
        }
        groups
    }

    /// `DL(u)` as `(ty, server)` pairs.
    pub fn downloads_of(&self, proc: ProcId) -> impl Iterator<Item = (TypeId, ServerId)> + '_ {
        self.downloads
            .iter()
            .filter(move |d| d.proc == proc)
            .map(|d| (d.ty, d.server))
    }

    /// Total platform cost in dollars (the objective function).
    pub fn cost(&self, instance: &Instance) -> u64 {
        self.proc_kinds
            .iter()
            .map(|&k| instance.platform.catalog.kind(k).cost)
            .sum()
    }

    /// Distinct object types that the operators on `proc` need; with
    /// per-processor download de-duplication (paper §2.3: a processor
    /// downloads a shared object once), this is exactly the set of types
    /// `DL(u)` must cover.
    pub fn required_types(&self, instance: &Instance, proc: ProcId) -> Vec<TypeId> {
        let mut tys: Vec<TypeId> = self
            .ops_on(proc)
            .into_iter()
            .flat_map(|op| instance.tree.leaf_types(op).iter().copied())
            .collect();
        tys.sort_unstable();
        tys.dedup();
        tys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{ObjectCatalog, ObjectType};
    use crate::platform::Platform;
    use crate::tree::OperatorTree;
    use crate::work::WorkModel;

    fn two_op_instance() -> Instance {
        let mut objects = ObjectCatalog::new();
        let t0 = objects.add(ObjectType::new(10.0, 0.5));
        let t1 = objects.add(ObjectType::new(20.0, 0.5));
        let mut b = OperatorTree::builder();
        let root = b.add_root();
        let child = b.add_child(root).unwrap();
        b.add_leaf(root, t0).unwrap();
        b.add_leaf(child, t0).unwrap();
        b.add_leaf(child, t1).unwrap();
        let mut tree = b.finish().unwrap();
        tree.apply_work_model(&objects, &WorkModel::paper(1.0));
        let mut platform = Platform::paper(2);
        platform.placement.add_holder(t0, ServerId(0));
        platform.placement.add_holder(t1, ServerId(1));
        Instance::new(tree, objects, platform, 1.0).unwrap()
    }

    fn split_mapping() -> Mapping {
        Mapping::new(
            vec![0, 0],
            vec![ProcId(0), ProcId(1)],
            vec![
                Download {
                    proc: ProcId(0),
                    ty: TypeId(0),
                    server: ServerId(0),
                },
                Download {
                    proc: ProcId(1),
                    ty: TypeId(0),
                    server: ServerId(0),
                },
                Download {
                    proc: ProcId(1),
                    ty: TypeId(1),
                    server: ServerId(1),
                },
            ],
        )
    }

    #[test]
    fn groups_partition_the_operators() {
        let m = split_mapping();
        let groups = m.groups();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0], vec![OpId(0)]);
        assert_eq!(groups[1], vec![OpId(1)]);
        assert_eq!(m.ops_on(ProcId(1)), vec![OpId(1)]);
        assert_eq!(m.proc_of(OpId(0)), ProcId(0));
    }

    #[test]
    fn cost_sums_kind_prices() {
        let inst = two_op_instance();
        let m = split_mapping();
        let cheapest = inst.platform.catalog.kind(0).cost;
        assert_eq!(m.cost(&inst), 2 * cheapest);
    }

    #[test]
    fn required_types_dedup_per_processor() {
        let inst = two_op_instance();
        let m = Mapping::new(vec![0], vec![ProcId(0), ProcId(0)], vec![]);
        // Both ops on one proc: t0 appears twice in the tree but once here.
        assert_eq!(
            m.required_types(&inst, ProcId(0)),
            vec![TypeId(0), TypeId(1)]
        );
    }

    #[test]
    fn downloads_are_sorted_on_construction() {
        let m = Mapping::new(
            vec![0],
            vec![ProcId(0)],
            vec![
                Download {
                    proc: ProcId(0),
                    ty: TypeId(1),
                    server: ServerId(0),
                },
                Download {
                    proc: ProcId(0),
                    ty: TypeId(0),
                    server: ServerId(0),
                },
            ],
        );
        assert!(m.downloads.windows(2).all(|w| w[0] <= w[1]));
    }
}
