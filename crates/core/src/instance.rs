//! A complete problem instance: application + platform + target throughput.

use crate::ids::{OpId, TypeId};
use crate::object::ObjectCatalog;
use crate::platform::Platform;
use crate::tree::{OperatorTree, TreeError};

/// One operator-mapping problem: map `tree` onto processors bought from
/// `platform.catalog` so that throughput `rho` is achieved at minimum cost.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The operator tree, with `w_i`/`δ_i` already computed
    /// (see [`OperatorTree::apply_work_model`]).
    pub tree: OperatorTree,
    /// The basic-object types referenced by the tree leaves.
    pub objects: ObjectCatalog,
    /// Servers, catalog, links.
    pub platform: Platform,
    /// Target application throughput ρ (results per second); the paper
    /// fixes ρ = 1 in all simulations.
    pub rho: f64,
}

impl Instance {
    /// Assembles and validates an instance.
    pub fn new(
        tree: OperatorTree,
        objects: ObjectCatalog,
        platform: Platform,
        rho: f64,
    ) -> Result<Self, InstanceError> {
        let inst = Instance {
            tree,
            objects,
            platform,
            rho,
        };
        inst.validate()?;
        Ok(inst)
    }

    /// Validates the tree, the platform and ρ.
    pub fn validate(&self) -> Result<(), InstanceError> {
        if !(self.rho.is_finite() && self.rho > 0.0) {
            return Err(InstanceError::BadThroughput(self.rho));
        }
        self.tree
            .validate(&self.objects)
            .map_err(InstanceError::Tree)?;
        self.platform.validate().map_err(InstanceError::Platform)?;
        // Every type used by the tree must be hosted somewhere.
        for ty in self.tree.used_types() {
            if ty.index() >= self.platform.placement.n_types()
                || self.platform.placement.availability(ty) == 0
            {
                return Err(InstanceError::UnhostedObject(ty));
            }
        }
        Ok(())
    }

    /// Steady-state download rate of object `ty` (`rate_k = δ_k·f_k`).
    #[inline]
    pub fn object_rate(&self, ty: TypeId) -> f64 {
        self.objects.rate(ty)
    }

    /// Bandwidth the tree edge above `child` would consume if cut:
    /// `ρ · δ_child` MB/s.
    #[inline]
    pub fn edge_rate(&self, child: OpId) -> f64 {
        self.rho * self.tree.output(child)
    }
}

/// Instance-level validation failures.
#[derive(Debug, Clone)]
pub enum InstanceError {
    /// ρ is not a positive finite number.
    BadThroughput(f64),
    /// Structural problem in the operator tree.
    Tree(TreeError),
    /// Platform inconsistency (message from [`Platform::validate`]).
    Platform(String),
    /// An object type used by the tree is hosted by no server.
    UnhostedObject(TypeId),
}

impl std::fmt::Display for InstanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstanceError::BadThroughput(r) => write!(f, "invalid throughput {r}"),
            InstanceError::Tree(e) => write!(f, "invalid tree: {e}"),
            InstanceError::Platform(e) => write!(f, "invalid platform: {e}"),
            InstanceError::UnhostedObject(ty) => {
                write!(
                    f,
                    "object type {ty} used by the tree is hosted by no server"
                )
            }
        }
    }
}

impl std::error::Error for InstanceError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ServerId;
    use crate::object::ObjectType;
    use crate::work::WorkModel;

    fn tiny_instance() -> Instance {
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

    #[test]
    fn tiny_instance_validates() {
        let inst = tiny_instance();
        assert_eq!(inst.tree.len(), 2);
        assert!((inst.object_rate(TypeId(0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_nonpositive_rho() {
        let inst = tiny_instance();
        let err = Instance::new(
            inst.tree.clone(),
            inst.objects.clone(),
            inst.platform.clone(),
            0.0,
        );
        assert!(matches!(err, Err(InstanceError::BadThroughput(_))));
    }

    #[test]
    fn rejects_unhosted_objects() {
        let inst = tiny_instance();
        let mut platform = Platform::paper(2);
        platform.placement.add_holder(TypeId(0), ServerId(0));
        // Type 1 is used by the tree but hosted nowhere.
        let err = Instance::new(inst.tree.clone(), inst.objects.clone(), platform, 1.0);
        assert!(matches!(err, Err(InstanceError::UnhostedObject(TypeId(1)))));
    }

    #[test]
    fn types_needed_dedup_within_operator() {
        let mut objects = ObjectCatalog::new();
        let t0 = objects.add(ObjectType::new(10.0, 0.5));
        let mut b = OperatorTree::builder();
        let root = b.add_root();
        b.add_leaf(root, t0).unwrap();
        b.add_leaf(root, t0).unwrap();
        let mut tree = b.finish().unwrap();
        tree.apply_work_model(&objects, &WorkModel::paper(1.0));
        let mut platform = Platform::paper(1);
        platform.placement.add_holder(t0, ServerId(0));
        let inst = Instance::new(tree, objects, platform, 1.0).unwrap();
        // Downloading an object once serves both leaf slots.
        let index = crate::index::InstanceIndex::new(&inst);
        assert_eq!(index.op_types(OpId(0)), &[t0]);
    }

    #[test]
    fn edge_rate_scales_with_rho() {
        let inst = tiny_instance();
        let child = OpId(1);
        let base = inst.edge_rate(child);
        let mut faster = inst.clone();
        faster.rho = 2.0;
        assert!((faster.edge_rate(child) - 2.0 * base).abs() < 1e-9);
    }
}
