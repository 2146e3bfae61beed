//! The application model: a binary tree of operators (paper §2.1).
//!
//! Internal nodes are *operators*; leaves are *basic objects* drawn from an
//! [`ObjectCatalog`]. An operator has at most
//! two children counting both operator children and leaf objects
//! (`|Leaf(i)| + |Ch(i)| ≤ 2`). Operators with at least one leaf child are
//! called *al-operators* ("almost leaf").
//!
//! The tree is stored as an arena (`Vec<OperatorNode>`) indexed by
//! [`OpId`]; parent/child links are ids, which keeps the structure `Copy`-
//! friendly, cache-dense and trivially serializable.

use crate::ids::{OpId, TypeId};
use crate::object::ObjectCatalog;
use crate::work::WorkModel;

/// One operator (internal node) of the application tree.
#[derive(Debug, Clone)]
pub struct OperatorNode {
    /// Parent operator, `None` for the root.
    pub parent: Option<OpId>,
    /// Operator children (`Ch(i)`), at most two.
    pub children: Vec<OpId>,
    /// Basic-object leaf children (`Leaf(i)`), at most two; an operator with
    /// a non-empty `leaves` is an al-operator.
    pub leaves: Vec<TypeId>,
    /// Computation amount `w_i` in Gop per result. Filled in by
    /// [`OperatorTree::apply_work_model`]; zero until then.
    pub work: f64,
    /// Output size `δ_i` in MB per result (`δ_i = δ_l + δ_r`). Filled in by
    /// [`OperatorTree::apply_work_model`]; zero until then.
    pub output: f64,
}

impl OperatorNode {
    fn new(parent: Option<OpId>) -> Self {
        OperatorNode {
            parent,
            children: Vec::new(),
            leaves: Vec::new(),
            work: 0.0,
            output: 0.0,
        }
    }

    /// Total number of occupied child slots (operator children + leaves).
    pub fn arity(&self) -> usize {
        self.children.len() + self.leaves.len()
    }

    /// Whether this operator has at least one basic-object child.
    pub fn is_al_operator(&self) -> bool {
        !self.leaves.is_empty()
    }
}

/// Errors reported by [`OperatorTree::validate`] and the builder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// The tree has no operators at all.
    Empty,
    /// An operator has more than two children counting leaves.
    ArityExceeded(OpId),
    /// A node's parent pointer and the parent's child list disagree.
    BrokenLink(OpId),
    /// More than one node has no parent.
    MultipleRoots(OpId, OpId),
    /// A cycle or unreachable node was detected.
    NotATree(OpId),
    /// A leaf refers to an object type outside the catalog.
    UnknownObjectType(OpId, TypeId),
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::Empty => write!(f, "operator tree is empty"),
            TreeError::ArityExceeded(op) => {
                write!(f, "operator {op} has more than two children")
            }
            TreeError::BrokenLink(op) => {
                write!(f, "parent/child links around operator {op} disagree")
            }
            TreeError::MultipleRoots(a, b) => {
                write!(f, "both {a} and {b} are parentless")
            }
            TreeError::NotATree(op) => {
                write!(
                    f,
                    "operator {op} is unreachable from the root or on a cycle"
                )
            }
            TreeError::UnknownObjectType(op, ty) => {
                write!(f, "operator {op} references unknown object type {ty}")
            }
        }
    }
}

impl std::error::Error for TreeError {}

/// A binary tree of operators.
#[derive(Debug, Clone)]
pub struct OperatorTree {
    nodes: Vec<OperatorNode>,
    root: OpId,
}

impl OperatorTree {
    /// Starts building a tree; the builder enforces the binary-arity
    /// invariant incrementally.
    pub fn builder() -> TreeBuilder {
        TreeBuilder::new()
    }

    /// Number of operators (internal nodes), `|N|`.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree has no operators.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The root operator.
    pub fn root(&self) -> OpId {
        self.root
    }

    /// Immutable access to a node.
    #[inline]
    pub fn node(&self, op: OpId) -> &OperatorNode {
        &self.nodes[op.index()]
    }

    /// `Par(i)`: the parent operator, if any.
    #[inline]
    pub fn parent(&self, op: OpId) -> Option<OpId> {
        self.node(op).parent
    }

    /// `Ch(i)`: the operator children.
    #[inline]
    pub fn children(&self, op: OpId) -> &[OpId] {
        &self.node(op).children
    }

    /// `Leaf(i)`: the basic-object children.
    #[inline]
    pub fn leaf_types(&self, op: OpId) -> &[TypeId] {
        &self.node(op).leaves
    }

    /// `w_i` in Gop (zero before [`Self::apply_work_model`]).
    #[inline]
    pub fn work(&self, op: OpId) -> f64 {
        self.node(op).work
    }

    /// `δ_i` in MB (zero before [`Self::apply_work_model`]).
    #[inline]
    pub fn output(&self, op: OpId) -> f64 {
        self.node(op).output
    }

    /// Whether `op` is an al-operator (has ≥ 1 basic-object child).
    #[inline]
    pub fn is_al_operator(&self, op: OpId) -> bool {
        self.node(op).is_al_operator()
    }

    /// All operator ids, in arena order.
    pub fn ops(&self) -> impl Iterator<Item = OpId> {
        (0..self.nodes.len()).map(OpId::from)
    }

    /// All al-operators, in arena order.
    pub fn al_operators(&self) -> impl Iterator<Item = OpId> + '_ {
        self.ops().filter(|&op| self.is_al_operator(op))
    }

    /// Number of basic-object leaves (counted with multiplicity).
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().map(|n| n.leaves.len()).sum()
    }

    /// Distinct object types used anywhere in the tree, sorted.
    pub fn used_types(&self) -> Vec<TypeId> {
        let mut tys: Vec<TypeId> = self
            .nodes
            .iter()
            .flat_map(|n| n.leaves.iter().copied())
            .collect();
        tys.sort_unstable();
        tys.dedup();
        tys
    }

    /// The tree edges as `(parent, child, δ_child)` triples; `δ_child` is
    /// meaningful only after [`Self::apply_work_model`].
    pub fn edges(&self) -> impl Iterator<Item = (OpId, OpId, f64)> + '_ {
        self.ops()
            .filter_map(move |c| self.parent(c).map(|p| (p, c, self.output(c))))
    }

    /// Post-order traversal (children before parents) from the root.
    pub fn postorder(&self) -> Vec<OpId> {
        let mut order = Vec::with_capacity(self.len());
        // Iterative DFS with an explicit "expanded" marker to avoid
        // recursion on deep left-deep trees.
        let mut stack = vec![(self.root, false)];
        while let Some((op, expanded)) = stack.pop() {
            if expanded {
                order.push(op);
            } else {
                stack.push((op, true));
                for &c in self.children(op) {
                    stack.push((c, false));
                }
            }
        }
        order
    }

    /// Depth of `op` (root has depth 0).
    pub fn depth(&self, op: OpId) -> usize {
        let mut d = 0;
        let mut cur = op;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Maximum operator depth.
    pub fn height(&self) -> usize {
        self.ops().map(|op| self.depth(op)).max().unwrap_or(0)
    }

    /// Computes `δ_i` and `w_i` for every operator in post-order using the
    /// paper's model: `δ_i = δ_l + δ_r` and `w_i = κ·(δ_l + δ_r)^α`, where
    /// `δ_l`, `δ_r` are the sizes of the children (objects or operator
    /// outputs).
    pub fn apply_work_model(&mut self, objects: &ObjectCatalog, model: &WorkModel) {
        for op in self.postorder() {
            let node = &self.nodes[op.index()];
            let mut input: f64 = node.leaves.iter().map(|&t| objects.size(t)).sum();
            input += node
                .children
                .iter()
                .map(|&c| self.nodes[c.index()].output)
                .sum::<f64>();
            let node = &mut self.nodes[op.index()];
            node.output = input;
            node.work = model.work(input);
        }
    }

    /// Sum of `w_i` over all operators (total Gop per application result).
    pub fn total_work(&self) -> f64 {
        self.nodes.iter().map(|n| n.work).sum()
    }

    /// Whether the tree is *left-deep* (paper Fig. 1(b)): every operator has
    /// at most one operator child.
    pub fn is_left_deep(&self) -> bool {
        self.nodes.iter().all(|n| n.children.len() <= 1)
    }

    /// Full structural validation against `objects`.
    pub fn validate(&self, objects: &ObjectCatalog) -> Result<(), TreeError> {
        if self.nodes.is_empty() {
            return Err(TreeError::Empty);
        }
        let mut root = None;
        for op in self.ops() {
            let node = self.node(op);
            if node.arity() > 2 {
                return Err(TreeError::ArityExceeded(op));
            }
            for &ty in &node.leaves {
                if ty.index() >= objects.len() {
                    return Err(TreeError::UnknownObjectType(op, ty));
                }
            }
            match node.parent {
                None => match root {
                    None => root = Some(op),
                    Some(r) => return Err(TreeError::MultipleRoots(r, op)),
                },
                Some(p) => {
                    if p.index() >= self.nodes.len() || !self.node(p).children.contains(&op) {
                        return Err(TreeError::BrokenLink(op));
                    }
                }
            }
            for &c in &node.children {
                if c.index() >= self.nodes.len() || self.node(c).parent != Some(op) {
                    return Err(TreeError::BrokenLink(op));
                }
            }
        }
        if root != Some(self.root) {
            return Err(TreeError::BrokenLink(self.root));
        }
        // Reachability: post-order from the root must visit every node.
        let visited = self.postorder();
        if visited.len() != self.nodes.len() {
            let seen: std::collections::HashSet<_> = visited.into_iter().collect();
            let missing = self.ops().find(|op| !seen.contains(op)).unwrap();
            return Err(TreeError::NotATree(missing));
        }
        Ok(())
    }
}

/// Incremental builder for [`OperatorTree`].
///
/// ```
/// use snsp_core::tree::OperatorTree;
/// use snsp_core::ids::TypeId;
///
/// let mut b = OperatorTree::builder();
/// let root = b.add_root();
/// let left = b.add_child(root).unwrap();
/// b.add_leaf(left, TypeId(0)).unwrap();
/// b.add_leaf(left, TypeId(1)).unwrap();
/// b.add_leaf(root, TypeId(0)).unwrap();
/// let tree = b.finish().unwrap();
/// assert_eq!(tree.len(), 2);
/// assert_eq!(tree.leaf_count(), 3);
/// ```
#[derive(Debug, Default)]
pub struct TreeBuilder {
    nodes: Vec<OperatorNode>,
    root: Option<OpId>,
}

impl TreeBuilder {
    /// Fresh builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds the root operator. Panics if called twice.
    pub fn add_root(&mut self) -> OpId {
        assert!(self.root.is_none(), "root already added");
        let id = OpId::from(self.nodes.len());
        self.nodes.push(OperatorNode::new(None));
        self.root = Some(id);
        id
    }

    /// Adds an operator child under `parent`.
    pub fn add_child(&mut self, parent: OpId) -> Result<OpId, TreeError> {
        if self.nodes[parent.index()].arity() >= 2 {
            return Err(TreeError::ArityExceeded(parent));
        }
        let id = OpId::from(self.nodes.len());
        self.nodes.push(OperatorNode::new(Some(parent)));
        self.nodes[parent.index()].children.push(id);
        Ok(id)
    }

    /// Adds a basic-object leaf under `parent`.
    pub fn add_leaf(&mut self, parent: OpId, ty: TypeId) -> Result<(), TreeError> {
        if self.nodes[parent.index()].arity() >= 2 {
            return Err(TreeError::ArityExceeded(parent));
        }
        self.nodes[parent.index()].leaves.push(ty);
        Ok(())
    }

    /// Number of operators added so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no operator has been added yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Remaining free child slots of `op`.
    pub fn free_slots(&self, op: OpId) -> usize {
        2 - self.nodes[op.index()].arity()
    }

    /// Finalizes the tree (does *not* run the work model).
    pub fn finish(self) -> Result<OperatorTree, TreeError> {
        let root = self.root.ok_or(TreeError::Empty)?;
        Ok(OperatorTree {
            nodes: self.nodes,
            root,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectType;

    fn catalog() -> ObjectCatalog {
        let mut catalog = ObjectCatalog::new();
        catalog.add(ObjectType::new(10.0, 0.5));
        catalog.add(ObjectType::new(20.0, 0.5));
        catalog
    }

    /// The paper's Fig. 1(a) "standard tree" shape: n4 is the root with
    /// children n5 and n3; n5 has children n2 and n1; n2 reads o1, n1 reads
    /// o1 and o2, n3 reads o2 and o3. We map o3 to type 0 for a 2-type
    /// catalog.
    fn standard_tree() -> OperatorTree {
        let mut b = OperatorTree::builder();
        let n4 = b.add_root();
        let n5 = b.add_child(n4).unwrap();
        let n3 = b.add_child(n4).unwrap();
        let n2 = b.add_child(n5).unwrap();
        let n1 = b.add_child(n5).unwrap();
        b.add_leaf(n2, TypeId(0)).unwrap();
        b.add_leaf(n2, TypeId(1)).unwrap();
        b.add_leaf(n1, TypeId(0)).unwrap();
        b.add_leaf(n1, TypeId(1)).unwrap();
        b.add_leaf(n3, TypeId(1)).unwrap();
        b.add_leaf(n3, TypeId(0)).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn builds_and_validates_standard_tree() {
        let tree = standard_tree();
        assert!(tree.validate(&catalog()).is_ok());
        assert_eq!(tree.len(), 5);
        assert_eq!(tree.leaf_count(), 6);
        assert_eq!(tree.al_operators().count(), 3);
        assert!(!tree.is_left_deep());
    }

    #[test]
    fn postorder_visits_children_first() {
        let tree = standard_tree();
        let order = tree.postorder();
        assert_eq!(order.len(), 5);
        let pos = |op: OpId| order.iter().position(|&o| o == op).unwrap();
        for op in tree.ops() {
            for &c in tree.children(op) {
                assert!(pos(c) < pos(op), "child {c} must precede parent {op}");
            }
        }
        assert_eq!(*order.last().unwrap(), tree.root());
    }

    #[test]
    fn work_model_accumulates_sizes_up_the_tree() {
        let mut tree = standard_tree();
        let cat = catalog();
        tree.apply_work_model(&cat, &WorkModel::new(1.0, 1.0));
        // Each al-operator combines a 10 MB and a 20 MB object → δ = 30.
        for op in tree.al_operators() {
            assert!((tree.output(op) - 30.0).abs() < 1e-9);
            assert!((tree.work(op) - 30.0).abs() < 1e-9);
        }
        // n5 combines two al outputs → 60; root combines 60 + 30 → 90.
        assert!((tree.output(tree.root()) - 90.0).abs() < 1e-9);
        let total: f64 = tree.ops().map(|o| tree.output(o)).sum();
        assert!((total - (3.0 * 30.0 + 60.0 + 90.0)).abs() < 1e-9);
    }

    #[test]
    fn work_model_exponent_and_kappa() {
        let mut tree = standard_tree();
        tree.apply_work_model(&catalog(), &WorkModel::new(2.0, 0.5));
        for op in tree.al_operators() {
            assert!((tree.work(op) - 0.5 * 30.0_f64.powi(2)).abs() < 1e-9);
        }
    }

    #[test]
    fn left_deep_tree_is_detected() {
        // Fig. 1(b): a chain where every operator has one operator child
        // (except the bottom one) plus leaves.
        let mut b = OperatorTree::builder();
        let n4 = b.add_root();
        let n3 = b.add_child(n4).unwrap();
        let n2 = b.add_child(n3).unwrap();
        let n1 = b.add_child(n2).unwrap();
        b.add_leaf(n4, TypeId(0)).unwrap();
        b.add_leaf(n3, TypeId(1)).unwrap();
        b.add_leaf(n2, TypeId(1)).unwrap();
        b.add_leaf(n1, TypeId(0)).unwrap();
        b.add_leaf(n1, TypeId(1)).unwrap();
        let tree = b.finish().unwrap();
        assert!(tree.validate(&catalog()).is_ok());
        assert!(tree.is_left_deep());
        assert_eq!(tree.height(), 3);
    }

    #[test]
    fn arity_is_enforced() {
        let mut b = OperatorTree::builder();
        let root = b.add_root();
        b.add_leaf(root, TypeId(0)).unwrap();
        b.add_leaf(root, TypeId(1)).unwrap();
        assert_eq!(
            b.add_leaf(root, TypeId(0)),
            Err(TreeError::ArityExceeded(root))
        );
        assert!(matches!(
            b.add_child(root),
            Err(TreeError::ArityExceeded(_))
        ));
    }

    #[test]
    fn empty_builder_fails() {
        assert!(matches!(TreeBuilder::new().finish(), Err(TreeError::Empty)));
    }

    #[test]
    fn unknown_type_rejected_by_validate() {
        let mut b = OperatorTree::builder();
        let root = b.add_root();
        b.add_leaf(root, TypeId(99)).unwrap();
        let tree = b.finish().unwrap();
        assert!(matches!(
            tree.validate(&catalog()),
            Err(TreeError::UnknownObjectType(_, TypeId(99)))
        ));
    }

    #[test]
    fn edges_report_child_outputs() {
        let mut tree = standard_tree();
        tree.apply_work_model(&catalog(), &WorkModel::new(1.0, 1.0));
        let edges: Vec<_> = tree.edges().collect();
        assert_eq!(edges.len(), 4); // 5 ops → 4 edges
        for (p, c, w) in edges {
            assert_eq!(tree.parent(c), Some(p));
            assert!((w - tree.output(c)).abs() < 1e-12);
        }
    }

    #[test]
    fn used_types_dedups() {
        let tree = standard_tree();
        assert_eq!(tree.used_types(), vec![TypeId(0), TypeId(1)]);
    }

    #[test]
    fn depth_and_height() {
        let tree = standard_tree();
        assert_eq!(tree.depth(tree.root()), 0);
        assert_eq!(tree.height(), 2);
    }
}
