//! Random Forest: CART decision trees with Gini impurity, bootstrap
//! bagging and per-split feature subsampling — the mechanisms the paper
//! describes for its RF model (§III-B).
//!
//! The training hot path is built for speed: samples live in a flat
//! [`FeatureMatrix`](crate::matrix::FeatureMatrix) accessed through
//! zero-copy [`MatrixView`]s, each tree presorts every feature **once**
//! (so split search walks sorted order with prefix counts in
//! O(features · n) per node instead of re-sorting in
//! O(features · n log n)), and the forest fits its trees in parallel. Each tree derives a private RNG stream from the master
//! seed *before* the parallel region and results are collected in tree
//! order, so the same seed yields a bit-identical forest at any thread
//! count.

use netsim::rng::SimRng;
use serde::{Deserialize, Serialize};

use crate::classifier::{validate_matrix, Classifier, RowSpan, TrainError};
use crate::codec::{DecodeError, Decoder, Encoder};
use crate::matrix::MatrixView;
use crate::par;

const TREE_MAGIC: u32 = 0x7472_6565; // "tree"
const FOREST_MAGIC: u32 = 0x666f_7273; // "fors"

/// Marks a leaf in the structure-of-arrays node pool's `feature` lane.
const LEAF_SENTINEL: u32 = u32::MAX;

/// Rows walked in lockstep down one tree. Small enough that the lane
/// cursors live in registers, wide enough to overlap one lane's node
/// loads with its neighbours'.
const PREDICT_LANES: usize = 8;

/// Hyper-parameters of a single CART tree.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples a node needs to be split further.
    pub min_samples_split: usize,
    /// Features considered per split (`None` = all).
    pub max_features: Option<usize>,
    /// Candidate thresholds evaluated per feature.
    pub threshold_candidates: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig { max_depth: 12, min_samples_split: 4, max_features: None, threshold_candidates: 24 }
    }
}

/// Hyper-parameters of the forest.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree configuration (feature subsampling defaults to √d when
    /// `max_features` is `None`).
    pub tree: TreeConfig,
    /// Bootstrap-sample the training set per tree.
    pub bootstrap: bool,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig { n_trees: 30, tree: TreeConfig::default(), bootstrap: true }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf { class: usize },
    Split { feature: usize, threshold: f64, left: u32, right: u32 },
}

/// A CART decision tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    dims: usize,
}

impl DecisionTree {
    /// Fits a tree on the view's rows restricted to `indices` (positions
    /// into the view, repeats allowed — a bootstrap bag). `y` is aligned
    /// with the view's rows.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or the view has no columns.
    pub fn fit_view(
        view: MatrixView<'_>,
        y: &[usize],
        indices: &[usize],
        config: &TreeConfig,
        rng: &mut SimRng,
    ) -> Self {
        assert!(!indices.is_empty(), "cannot fit a tree on no samples");
        let dims = view.n_cols();
        assert!(dims > 0, "cannot fit a tree on zero features");
        let n = indices.len();

        // Gather the bag into a column-major cache so split search streams
        // each feature contiguously, and presort every feature once.
        let mut columns = vec![0.0f64; dims * n];
        let mut labels = vec![0u8; n];
        for (p, &i) in indices.iter().enumerate() {
            let row = view.row(i);
            for (f, &v) in row.iter().enumerate() {
                columns[f * n + p] = v;
            }
            labels[p] = u8::from(y[i] == 1);
        }
        let sorted: Vec<Vec<u32>> = (0..dims)
            .map(|f| {
                let col = &columns[f * n..(f + 1) * n];
                let mut order: Vec<u32> = (0..n as u32).collect();
                // total_cmp gives a total order even with NaNs present
                // (they sort to the edges and are skipped by split search).
                order.sort_unstable_by(|&a, &b| col[a as usize].total_cmp(&col[b as usize]));
                order
            })
            .collect();

        let mut builder = TreeBuilder {
            columns: &columns,
            labels: &labels,
            n,
            dims,
            config: *config,
            nodes: Vec::new(),
            boundaries: Vec::new(),
        };
        builder.grow(sorted, 0, rng);
        DecisionTree { nodes: builder.nodes, dims }
    }

    /// Predicts the class of one sample. A NaN feature value fails every
    /// `x <= threshold` test and therefore always routes right, matching
    /// how split search counts NaNs during training.
    pub fn predict(&self, features: &[f64]) -> usize {
        self.predict_counting(features).0
    }

    /// Predicts and returns the number of nodes visited on the root-to-
    /// leaf path (the tree's deterministic work unit).
    pub fn predict_counting(&self, features: &[f64]) -> (usize, u64) {
        let mut node = 0u32;
        let mut visited = 0u64;
        loop {
            visited += 1;
            match &self.nodes[node as usize] {
                Node::Leaf { class } => return (*class, visited),
                Node::Split { feature, threshold, left, right } => {
                    node = if features[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Maximum depth actually reached.
    pub fn depth(&self) -> usize {
        // Nodes are stored in pre-order (children after their parent),
        // so one backward pass sees every child's height before its
        // parent's: linear time, no recursion, whatever the shape.
        let mut height = vec![0usize; self.nodes.len()];
        for (id, node) in self.nodes.iter().enumerate().rev() {
            height[id] = match node {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => {
                    1 + height[*left as usize].max(height[*right as usize])
                }
            };
        }
        height.first().copied().unwrap_or(0)
    }

    fn encode_into(&self, e: &mut Encoder) {
        e.put_u32(TREE_MAGIC);
        e.put_usize(self.dims);
        e.put_usize(self.nodes.len());
        for node in &self.nodes {
            match node {
                Node::Leaf { class } => {
                    e.put_u8(0);
                    e.put_usize(*class);
                }
                Node::Split { feature, threshold, left, right } => {
                    e.put_u8(1);
                    e.put_usize(*feature);
                    e.put_f64(*threshold);
                    e.put_u32(*left);
                    e.put_u32(*right);
                }
            }
        }
    }

    /// Decodes one tree of a forest over `dims` features, rejecting
    /// any blob whose walk could panic or fail to end.
    ///
    /// The grower writes nodes in pre-order: [`TreeBuilder::grow`]
    /// reserves a split's slot before it grows the children. So in a
    /// well-formed tree every child index lies after its parent's and
    /// before the end, which also rules out cycles, and no node has two
    /// parents, which keeps the walk a tree rather than a graph.
    fn decode_from(d: &mut Decoder<'_>, dims: usize) -> Result<Self, DecodeError> {
        d.expect_magic(TREE_MAGIC)?;
        if d.get_usize()? != dims {
            return Err(DecodeError::Corrupt("tree dims"));
        }
        let count = d.get_usize()?;
        if count == 0 {
            return Err(DecodeError::Corrupt("empty tree"));
        }
        let mut nodes = Vec::with_capacity(count.min(1 << 20));
        for id in 0..count {
            let node = match d.get_u8()? {
                0 => match d.get_usize()? {
                    class @ 0..=1 => Node::Leaf { class },
                    _ => return Err(DecodeError::Corrupt("leaf class")),
                },
                1 => {
                    let feature = d.get_usize()?;
                    let threshold = d.get_f64()?;
                    let (left, right) = (d.get_u32()?, d.get_u32()?);
                    if feature >= dims {
                        return Err(DecodeError::Corrupt("split feature"));
                    }
                    if [left, right]
                        .iter()
                        .any(|&c| c as usize <= id || c as usize >= count)
                    {
                        return Err(DecodeError::Corrupt("split child"));
                    }
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    }
                }
                _ => return Err(DecodeError::Corrupt("node tag")),
            };
            nodes.push(node);
        }
        // Every node was read, so `count` is backed by real bytes now.
        let mut has_parent = vec![false; count];
        for node in &nodes {
            if let Node::Split { left, right, .. } = node {
                for child in [*left, *right] {
                    if std::mem::replace(&mut has_parent[child as usize], true) {
                        return Err(DecodeError::Corrupt("shared child"));
                    }
                }
            }
        }
        Ok(DecisionTree { nodes, dims })
    }
}

/// Per-tree growth state: the bag's features cached column-major plus the
/// arena under construction. Each node receives its samples as
/// per-feature *presorted* position lists; partitioning a node stably
/// splits every list, so children stay sorted without re-sorting.
struct TreeBuilder<'a> {
    /// `dims × n` feature values of the bag, column-major.
    columns: &'a [f64],
    /// Per-bag-position class labels (0/1).
    labels: &'a [u8],
    n: usize,
    dims: usize,
    config: TreeConfig,
    nodes: Vec<Node>,
    /// Reusable distinct-value boundary buffer for split search, so the
    /// hot loop performs no per-(node, feature) allocation.
    boundaries: Vec<(f64, usize, usize)>,
}

impl TreeBuilder<'_> {
    fn column(&self, feature: usize) -> &[f64] {
        &self.columns[feature * self.n..(feature + 1) * self.n]
    }

    fn grow(&mut self, sorted: Vec<Vec<u32>>, depth: usize, rng: &mut SimRng) -> u32 {
        let size = sorted[0].len();
        let positives =
            sorted[0].iter().filter(|&&p| self.labels[p as usize] == 1).count();
        let majority = usize::from(positives * 2 > size);
        let node_id = self.nodes.len() as u32;
        let pure = positives == 0 || positives == size;
        if depth >= self.config.max_depth || size < self.config.min_samples_split || pure {
            self.nodes.push(Node::Leaf { class: majority });
            return node_id;
        }
        let Some((feature, threshold)) = self.best_split(&sorted, positives, rng) else {
            self.nodes.push(Node::Leaf { class: majority });
            return node_id;
        };
        // Stable-partition every feature's sorted list by the split
        // predicate: children inherit sortedness for free. Every list
        // holds the same positions, so the left/right sizes computed on
        // the first feature pre-size the allocations for all of them.
        let split_col = self.column(feature);
        let left_n =
            sorted[0].iter().filter(|&&p| split_col[p as usize] <= threshold).count();
        let right_n = size - left_n;
        let mut left_sorted = Vec::with_capacity(self.dims);
        let mut right_sorted = Vec::with_capacity(self.dims);
        for per_feature in &sorted {
            let mut l = Vec::with_capacity(left_n);
            let mut r = Vec::with_capacity(right_n);
            for &p in per_feature {
                if split_col[p as usize] <= threshold {
                    l.push(p);
                } else {
                    r.push(p);
                }
            }
            left_sorted.push(l);
            right_sorted.push(r);
        }
        if left_sorted[0].is_empty() || right_sorted[0].is_empty() {
            self.nodes.push(Node::Leaf { class: majority });
            return node_id;
        }
        drop(sorted);
        // Reserve the split slot, then grow children.
        self.nodes.push(Node::Leaf { class: majority });
        let left = self.grow(left_sorted, depth + 1, rng);
        let right = self.grow(right_sorted, depth + 1, rng);
        self.nodes[node_id as usize] = Node::Split { feature, threshold, left, right };
        node_id
    }

    /// Finds the (feature, threshold) minimising weighted Gini impurity.
    /// One sweep over each feature's presorted positions yields the
    /// distinct values *and* the left-side counts of every candidate
    /// threshold via prefix sums — no per-node sorting, no per-threshold
    /// counting pass.
    fn best_split(
        &mut self,
        sorted: &[Vec<u32>],
        total_pos: usize,
        rng: &mut SimRng,
    ) -> Option<(usize, f64)> {
        let total = sorted[0].len();
        let n_features = self.config.max_features.unwrap_or(self.dims).min(self.dims);
        let mut features: Vec<usize> = (0..self.dims).collect();
        rng.shuffle(&mut features);
        features.truncate(n_features);

        let parent = gini(total_pos, total);
        let mut best: Option<(f64, usize, f64)> = None;
        for &feature in &features {
            // boundaries[c] = (distinct value, samples ≤ it, positives ≤ it).
            // NaNs are skipped: they fail `x <= t` for every t and so sit
            // on the right of every split, exactly as `predict` routes them.
            let mut boundaries = std::mem::take(&mut self.boundaries);
            boundaries.clear();
            let col = self.column(feature);
            let mut cum_n = 0usize;
            let mut cum_pos = 0usize;
            for &p in &sorted[feature] {
                let v = col[p as usize];
                if v.is_nan() {
                    continue;
                }
                cum_n += 1;
                cum_pos += usize::from(self.labels[p as usize] == 1);
                match boundaries.last_mut() {
                    Some(last) if last.0 == v => {
                        last.1 = cum_n;
                        last.2 = cum_pos;
                    }
                    _ => boundaries.push((v, cum_n, cum_pos)),
                }
            }
            if boundaries.len() < 2 {
                self.boundaries = boundaries;
                continue;
            }
            // Midpoints between consecutive distinct values are the only
            // thresholds worth trying; evenly subsample when there are
            // more than the candidate budget.
            let n_mid = boundaries.len() - 1;
            let budget = self.config.threshold_candidates.max(1);
            for slot in 0..n_mid.min(budget) {
                let c = if n_mid <= budget { slot } else { slot * (n_mid - 1) / (budget - 1).max(1) };
                let threshold = (boundaries[c].0 + boundaries[c + 1].0) / 2.0;
                if !threshold.is_finite() {
                    continue; // infinite values midpoint to ±inf or NaN
                }
                // FP rounding can land the midpoint on the upper distinct
                // value; `x <= t` then captures that group on the left too.
                let b = if threshold >= boundaries[c + 1].0 { c + 1 } else { c };
                let (_, left_n, left_pos) = boundaries[b];
                let right_n = total - left_n;
                if left_n == 0 || right_n == 0 {
                    continue;
                }
                let right_pos = total_pos - left_pos;
                let weighted = (left_n as f64 * gini(left_pos, left_n)
                    + right_n as f64 * gini(right_pos, right_n))
                    / total as f64;
                let gain = parent - weighted;
                if gain > 1e-12 && best.is_none_or(|(g, _, _)| gain > g) {
                    best = Some((gain, feature, threshold));
                }
            }
            self.boundaries = boundaries;
        }
        best.map(|(_, feature, threshold)| (feature, threshold))
    }
}

fn gini(pos: usize, total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let p = pos as f64 / total as f64;
    2.0 * p * (1.0 - p)
}

/// Every tree of the forest lowered into one flat structure-of-arrays
/// node pool: parallel lanes indexed by absolute node id, plus the root
/// id and max depth of each tree. Splits keep their children as
/// absolute indices so a walk never touches a per-tree base offset.
/// Leaves are *self-looping*: their `left`/`right` point back at the
/// leaf itself and their `step_feature` is `0`, so the lockstep batch
/// walker advances every lane with the same load/compare/select step —
/// no leaf test, no data-dependent branch — and lanes that finish early
/// simply park on their leaf. The leaf's class and its distance from
/// the root live in dedicated `class_of`/`depth_of` lanes, which also
/// moves work accounting out of the hot loop: a row's visited-node
/// count is exactly `depth_of[leaf]`.
///
/// The lanes are contiguous (`u32`/`f64` slices), so batch prediction
/// streams the whole ensemble through cache instead of chasing
/// `Vec<Node>` pointers tree by tree.
///
/// The pool is derived from the trees at construction time and never
/// serialized — [`RandomForest::decode`] rebuilds it.
#[derive(Debug, Clone, PartialEq, Default)]
struct NodePool {
    /// Split feature per node; [`LEAF_SENTINEL`] marks a leaf.
    feature: Vec<u32>,
    /// Split feature again, but `0` (a valid column) for leaves — the
    /// branch-free lane the lockstep walker indexes rows with.
    step_feature: Vec<u32>,
    /// Split threshold per node (`0.0` for leaves).
    threshold: Vec<f64>,
    /// Absolute left-child id per node; leaves point at themselves.
    left: Vec<u32>,
    /// Absolute right-child id per node; leaves point at themselves.
    right: Vec<u32>,
    /// Leaf class (0/1) per node; `0` for splits.
    class_of: Vec<u32>,
    /// Nodes on the root-to-here path, inclusive — a leaf's entry is
    /// the exact visited-node count of any walk ending there.
    depth_of: Vec<u32>,
    /// Absolute root id of each tree.
    roots: Vec<u32>,
    /// Maximum depth of each tree (nodes on the longest root-to-leaf
    /// path) — the lockstep batch walker's iteration bound.
    depths: Vec<u32>,
}

impl NodePool {
    fn from_trees(trees: &[DecisionTree]) -> Self {
        let total = trees.iter().map(|t| t.nodes.len()).sum();
        let mut pool = NodePool {
            feature: Vec::with_capacity(total),
            step_feature: Vec::with_capacity(total),
            threshold: Vec::with_capacity(total),
            left: Vec::with_capacity(total),
            right: Vec::with_capacity(total),
            class_of: Vec::with_capacity(total),
            depth_of: Vec::with_capacity(total),
            roots: Vec::with_capacity(trees.len()),
            depths: Vec::with_capacity(trees.len()),
        };
        for tree in trees {
            let base = pool.feature.len() as u32;
            pool.roots.push(base);
            pool.depths.push(tree.depth() as u32);
            for (id, node) in tree.nodes.iter().enumerate() {
                let abs = base + id as u32;
                match node {
                    Node::Leaf { class } => {
                        pool.feature.push(LEAF_SENTINEL);
                        pool.step_feature.push(0);
                        pool.threshold.push(0.0);
                        pool.left.push(abs);
                        pool.right.push(abs);
                        pool.class_of.push(*class as u32);
                    }
                    Node::Split { feature, threshold, left, right } => {
                        pool.feature.push(*feature as u32);
                        pool.step_feature.push(*feature as u32);
                        pool.threshold.push(*threshold);
                        pool.left.push(base + *left);
                        pool.right.push(base + *right);
                        pool.class_of.push(0);
                    }
                }
            }
            // Per-node path depths, root = 1. Nodes are in pre-order,
            // so a parent's depth is set before its children read it.
            let mut depth_rel = vec![0u32; tree.nodes.len()];
            if let Some(root) = depth_rel.first_mut() {
                *root = 1;
            }
            for (id, node) in tree.nodes.iter().enumerate() {
                if let Node::Split { left, right, .. } = node {
                    depth_rel[*left as usize] = depth_rel[id] + 1;
                    depth_rel[*right as usize] = depth_rel[id] + 1;
                }
            }
            pool.depth_of.extend_from_slice(&depth_rel);
        }
        pool
    }

    /// Walks one tree root-to-leaf, returning the leaf class and the
    /// number of nodes visited — the same count, node for node, as the
    /// reference [`DecisionTree::predict_counting`], because the pool is
    /// a pure re-layout of the same topology.
    #[inline]
    fn walk(&self, root: u32, features: &[f64]) -> (u32, u64) {
        let mut idx = root as usize;
        let mut visited = 0u64;
        loop {
            visited += 1;
            let f = self.feature[idx];
            if f == LEAF_SENTINEL {
                return (self.class_of[idx], visited);
            }
            let l = self.left[idx];
            let r = self.right[idx];
            // Branchless child select: `<=` is false for NaN, so NaN
            // features route right exactly like the reference walker.
            idx = if features[f as usize] <= self.threshold[idx] { l } else { r } as usize;
        }
    }

    /// Majority vote over all trees for one row, plus visited-node work.
    fn predict_with_work(&self, features: &[f64]) -> (usize, u64) {
        let mut votes = 0usize;
        let mut work = 0u64;
        for &root in &self.roots {
            let (class, visited) = self.walk(root, features);
            votes += class as usize;
            work += visited;
        }
        (usize::from(votes * 2 > self.roots.len()), work)
    }

    /// Walks `LANES` rows down one tree in lockstep, returning each
    /// lane's leaf id. Each pass of the outer loop advances every lane
    /// by one level, so the dependent-load chain of a single
    /// root-to-leaf walk is hidden behind the independent loads of its
    /// neighbours. The pass count is the tree's precomputed max depth;
    /// lanes that reach a leaf early park there via the leaf's
    /// self-loop children — the step body is the same
    /// load/compare/select for every node kind, with no data-dependent
    /// branch and no work bookkeeping (the caller reads `depth_of`).
    ///
    /// Kept out of line, like [`RandomForest::lockstep_votes`]: inlined
    /// into the tree loop, whole-view prediction ran 13–17% slower on a
    /// 2-core x86-64 VM (DESIGN.md §11.1).
    #[inline(never)]
    fn walk_group<const LANES: usize>(
        &self,
        group: &[&[f64]; LANES],
        root: u32,
        depth: u32,
    ) -> [u32; LANES] {
        let mut cur = [root; LANES];
        // A path of d nodes needs d-1 advances; `depth` bounds d.
        for _ in 1..depth {
            for lane in 0..LANES {
                let node = cur[lane] as usize;
                let f = self.step_feature[node] as usize;
                // Branchless child select: `<=` is false for NaN, so
                // NaN features route right like the reference walker
                // (leaves self-loop either way). Both children load
                // unconditionally so the pick lowers to a select, not a
                // branch.
                let go_left = group[lane][f] <= self.threshold[node];
                let l = self.left[node];
                let r = self.right[node];
                cur[lane] = if go_left { l } else { r };
            }
        }
        cur
    }
}

/// A bagged ensemble of CART trees with majority voting.
///
/// The `trees` keep the pointer-style arena representation (the golden
/// reference for traversal order, work counting and the codec); `pool`
/// is the flat SoA lowering every prediction path actually walks.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    dims: usize,
    pool: NodePool,
}

impl RandomForest {
    /// Trains a forest on every row of a matrix view; each tree's
    /// bootstrap bag is a list of row indices into it, not a copy.
    ///
    /// Bootstrap bags and per-tree RNG streams are derived serially from
    /// `rng`, then the trees fit in parallel and are collected in tree
    /// order — the same seed produces a bit-identical forest no matter
    /// how many threads run.
    ///
    /// # Errors
    ///
    /// Returns a [`TrainError`] for unusable training data.
    pub fn fit_view(
        view: MatrixView<'_>,
        y: &[usize],
        config: &ForestConfig,
        rng: &mut SimRng,
    ) -> Result<Self, TrainError> {
        let dims = validate_matrix(view, y)?;
        let mut tree_config = config.tree;
        if tree_config.max_features.is_none() {
            // The classic √d default for classification forests.
            tree_config.max_features = Some((dims as f64).sqrt().ceil() as usize);
        }
        let n = view.n_rows();
        let tasks: Vec<(Vec<usize>, SimRng)> = (0..config.n_trees.max(1))
            .map(|_| {
                let bag: Vec<usize> = if config.bootstrap {
                    (0..n).map(|_| rng.below(n as u64) as usize).collect()
                } else {
                    (0..n).collect()
                };
                (bag, rng.fork())
            })
            .collect();
        let trees = par::par_map_indexed(tasks.len(), |t| {
            let (bag, tree_rng) = &tasks[t];
            let mut tree_rng = tree_rng.clone();
            DecisionTree::fit_view(view, y, bag, &tree_config, &mut tree_rng)
        });
        Ok(RandomForest::from_trees(trees, dims))
    }

    /// Assembles a forest from fitted trees, lowering them into the flat
    /// SoA node pool that prediction walks.
    fn from_trees(trees: Vec<DecisionTree>, dims: usize) -> Self {
        let pool = NodePool::from_trees(&trees);
        RandomForest { trees, dims, pool }
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Total nodes across all trees.
    pub fn total_nodes(&self) -> usize {
        self.trees.iter().map(|t| t.node_count()).sum()
    }

    /// Decodes a forest from its binary blob.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed input.
    pub fn decode(blob: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(blob);
        d.expect_magic(FOREST_MAGIC)?;
        let dims = d.get_usize()?;
        let count = d.get_usize()?;
        if count > 1 << 16 {
            return Err(DecodeError::Corrupt("tree count"));
        }
        let trees: Vec<DecisionTree> = (0..count)
            .map(|_| DecisionTree::decode_from(&mut d, dims))
            .collect::<Result<_, _>>()?;
        d.finish()?;
        Ok(RandomForest::from_trees(trees, dims))
    }

    /// Tree-outer lockstep vote accumulation over a contiguous row
    /// range: raw malicious-vote counts land in `votes` (one slot per
    /// row, pre-zeroed by the caller) and the return value is the
    /// visited-node work. Trees sit on the *outer* loop, so each tree's
    /// node lanes are pulled into cache once and stay hot across the
    /// whole range. Lane grouping depends on where the range starts, but
    /// every row pays the exact path length of the leaf it lands on and
    /// votes with that leaf's class, so the split into ranges can never
    /// change any output. Kept out of line for the same reason as
    /// [`NodePool::walk_group`].
    #[inline(never)]
    fn lockstep_votes(
        &self,
        view: MatrixView<'_>,
        rows: std::ops::Range<usize>,
        votes: &mut [usize],
    ) -> u64 {
        debug_assert_eq!(votes.len(), rows.len());
        let base = rows.start;
        let m = rows.len();
        let mut work = 0u64;
        for (&root, &depth) in self.pool.roots.iter().zip(&self.pool.depths) {
            let mut i = 0;
            while i + PREDICT_LANES <= m {
                let group: [&[f64]; PREDICT_LANES] =
                    std::array::from_fn(|l| view.row(base + i + l));
                let leaves = self.pool.walk_group(&group, root, depth);
                for &leaf in &leaves {
                    debug_assert_eq!(self.pool.feature[leaf as usize], LEAF_SENTINEL);
                    work += u64::from(self.pool.depth_of[leaf as usize]);
                }
                for lane in 0..PREDICT_LANES {
                    votes[i + lane] += self.pool.class_of[leaves[lane] as usize] as usize;
                }
                i += PREDICT_LANES;
            }
            for (r, v) in votes.iter_mut().enumerate().skip(i) {
                let (class, visited) = self.pool.walk(root, view.row(base + r));
                *v += class as usize;
                work += visited;
            }
        }
        work
    }
}

impl Classifier for RandomForest {
    fn name(&self) -> &'static str {
        "RF"
    }

    fn predict(&self, features: &[f64]) -> usize {
        self.pool.predict_with_work(features).0
    }

    fn predict_with_work(&self, features: &[f64]) -> (usize, u64) {
        self.pool.predict_with_work(features)
    }

    fn input_dims(&self) -> Option<usize> {
        Some(self.dims)
    }

    fn predict_batch_spans_into(
        &self,
        view: MatrixView<'_>,
        spans: &[RowSpan],
        out: &mut Vec<usize>,
        span_work: &mut Vec<u64>,
    ) -> u64 {
        // The lockstep core, run span by span so each span's
        // visited-node work is attributed exactly. `out` doubles as the
        // vote accumulator, so the only heap touch is its one-time
        // growth to the batch's row count.
        let total_rows: usize = spans.iter().map(|s| s.len).sum();
        out.clear();
        out.resize(total_rows, 0);
        span_work.clear();
        span_work.reserve(spans.len());
        let n = self.pool.roots.len();
        let mut total = 0u64;
        let mut offset = 0usize;
        for span in spans {
            let votes = &mut out[offset..offset + span.len];
            let work = self.lockstep_votes(view, span.range(), votes);
            for v in votes.iter_mut() {
                *v = usize::from(*v * 2 > n);
            }
            span_work.push(work);
            total += work;
            offset += span.len;
        }
        total
    }

    fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u32(FOREST_MAGIC);
        e.put_usize(self.dims);
        e.put_usize(self.trees.len());
        for tree in &self.trees {
            tree.encode_into(&mut e);
        }
        e.finish()
    }

    fn memory_bytes(&self) -> u64 {
        // Arena nodes dominate: tag + feature + threshold + child ids.
        (self.total_nodes() * std::mem::size_of::<Node>()) as u64
    }

    fn clone_box(&self) -> Box<dyn Classifier> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::tests::assert_trailing_byte_rejected;
    use crate::matrix::FeatureMatrix;
    use crate::classifier::predict_view;
    use crate::matrix::tests::gather_rows;

    /// Two Gaussian-ish blobs separable on feature 0.
    fn blobs(n: usize, rng: &mut SimRng) -> (FeatureMatrix, Vec<usize>) {
        let mut x = FeatureMatrix::new(2);
        let mut y = Vec::new();
        for i in 0..n {
            let class = i % 2;
            let center = if class == 0 { -2.0 } else { 2.0 };
            x.push_row(&[center + rng.standard_normal(), rng.standard_normal()]);
            y.push(class);
        }
        (x, y)
    }

    /// XOR-ish data: not linearly separable, needs depth >= 2.
    fn xor(n: usize, rng: &mut SimRng) -> (FeatureMatrix, Vec<usize>) {
        let mut x = FeatureMatrix::new(2);
        let mut y = Vec::new();
        for _ in 0..n {
            let a = rng.uniform() > 0.5;
            let b = rng.uniform() > 0.5;
            let ja = rng.uniform_range(-0.3, 0.3);
            let jb = rng.uniform_range(-0.3, 0.3);
            x.push_row(&[f64::from(a) + ja, f64::from(b) + jb]);
            y.push(usize::from(a ^ b));
        }
        (x, y)
    }

    #[test]
    fn tree_separates_blobs() {
        let mut rng = SimRng::seed_from(1);
        let (x, y) = blobs(400, &mut rng);
        let all: Vec<usize> = (0..x.n_rows()).collect();
        let tree = DecisionTree::fit_view(x.view(), &y, &all, &TreeConfig::default(), &mut rng);
        let correct = x.rows().zip(&y).filter(|(xi, &yi)| tree.predict(xi) == yi).count();
        assert!(correct as f64 / x.n_rows() as f64 > 0.95, "train acc {correct}/400");
    }

    #[test]
    fn forest_learns_xor() {
        let mut rng = SimRng::seed_from(2);
        let (x, y) = xor(600, &mut rng);
        let (xt, yt) = xor(200, &mut rng);
        let forest = RandomForest::fit_view(x.view(), &y, &ForestConfig::default(), &mut rng).unwrap();
        let correct = xt.rows().zip(&yt).filter(|(xi, &yi)| forest.predict(xi) == yi).count();
        assert!(correct as f64 / xt.n_rows() as f64 > 0.9, "test acc {correct}/200");
    }

    #[test]
    fn forest_beats_single_majority_baseline() {
        let mut rng = SimRng::seed_from(3);
        let (x, y) = blobs(300, &mut rng);
        let forest = RandomForest::fit_view(x.view(), &y, &ForestConfig::default(), &mut rng).unwrap();
        let acc = x.rows().zip(&y).filter(|(xi, &yi)| forest.predict(xi) == yi).count() as f64
            / x.n_rows() as f64;
        assert!(acc > 0.5 + 0.2, "forest accuracy {acc}");
    }

    #[test]
    fn depth_limit_is_respected() {
        let mut rng = SimRng::seed_from(4);
        let (x, y) = xor(300, &mut rng);
        let config = TreeConfig { max_depth: 3, ..TreeConfig::default() };
        let all: Vec<usize> = (0..x.n_rows()).collect();
        let tree = DecisionTree::fit_view(x.view(), &y, &all, &config, &mut rng);
        assert!(tree.depth() <= 4, "depth {} (root at depth 1)", tree.depth());
    }

    #[test]
    fn codec_roundtrip_preserves_predictions() {
        let mut rng = SimRng::seed_from(5);
        let (x, y) = blobs(200, &mut rng);
        let forest =
            RandomForest::fit_view(x.view(), &y, &ForestConfig { n_trees: 7, ..Default::default() }, &mut rng)
                .unwrap();
        let blob = forest.encode();
        let back = RandomForest::decode(&blob).unwrap();
        assert_eq!(back.n_trees(), 7);
        for xi in x.rows() {
            assert_eq!(forest.predict(xi), back.predict(xi));
        }
    }

    #[test]
    fn training_rejects_single_class() {
        let mut rng = SimRng::seed_from(6);
        let x = FeatureMatrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        let y = vec![0, 0];
        assert_eq!(
            RandomForest::fit_view(x.view(), &y, &ForestConfig::default(), &mut rng),
            Err(TrainError::SingleClass)
        );
    }

    #[test]
    fn model_size_grows_with_trees() {
        let mut rng = SimRng::seed_from(7);
        let (x, y) = blobs(200, &mut rng);
        let small =
            RandomForest::fit_view(x.view(), &y, &ForestConfig { n_trees: 3, ..Default::default() }, &mut rng)
                .unwrap();
        let large =
            RandomForest::fit_view(x.view(), &y, &ForestConfig { n_trees: 30, ..Default::default() }, &mut rng)
                .unwrap();
        assert!(large.encode().len() > small.encode().len());
        assert!(large.memory_bytes() > small.memory_bytes());
    }

    #[test]
    fn deterministic_given_seed() {
        let build = || {
            let mut rng = SimRng::seed_from(8);
            let (x, y) = blobs(150, &mut rng);
            RandomForest::fit_view(x.view(), &y, &ForestConfig::default(), &mut rng).unwrap().encode()
        };
        assert_eq!(build(), build());
    }

    /// Regression test for the historical NaN panic: split search used
    /// `partial_cmp(..).expect("finite features")`, so a single NaN cell
    /// aborted training. NaNs now sort via `total_cmp`, are excluded
    /// from candidate thresholds, and route right at predict time.
    #[test]
    fn nan_features_train_without_panicking() {
        let mut rng = SimRng::seed_from(9);
        let (mut x, y) = blobs(120, &mut rng);
        for i in (0..x.n_rows()).step_by(7) {
            x.row_mut(i)[1] = f64::NAN;
        }
        let forest =
            RandomForest::fit_view(x.view(), &y, &ForestConfig { n_trees: 5, ..Default::default() }, &mut rng)
                .unwrap();
        // Clean rows still classify well — blobs separate on feature 0.
        let clean: Vec<usize> = (0..x.n_rows()).filter(|i| i % 7 != 0).collect();
        let correct =
            clean.iter().filter(|&&i| forest.predict(x.row(i)) == y[i]).count();
        assert!(correct as f64 / clean.len() as f64 > 0.9);
        // A NaN probe routes to *some* leaf rather than panicking.
        let _ = forest.predict(&[f64::NAN, f64::NAN]);
    }

    /// The profiling hook agrees with `predict` and reports the nodes
    /// visited — at least one per tree (the root), at most the forest.
    #[test]
    fn predict_with_work_counts_visited_nodes() {
        let mut rng = SimRng::seed_from(13);
        let (x, y) = blobs(200, &mut rng);
        let forest =
            RandomForest::fit_view(x.view(), &y, &ForestConfig { n_trees: 5, ..Default::default() }, &mut rng)
                .unwrap();
        for xi in x.rows().take(20) {
            let (class, work) = forest.predict_with_work(xi);
            assert_eq!(class, forest.predict(xi));
            assert!(work >= forest.n_trees() as u64, "work {work}");
            assert!(work <= forest.total_nodes() as u64, "work {work}");
        }
    }

    /// The flat SoA walker is a pure re-layout: across seeds (and with
    /// NaN probes mixed in) it must agree with the pointer-chasing
    /// reference trees on every class *and* every visited-node count —
    /// the counts feed the byte-pinned predict-work telemetry.
    #[test]
    fn soa_walker_matches_reference_trees_across_seeds() {
        for seed in [21u64, 22, 23, 24, 25] {
            let mut rng = SimRng::seed_from(seed);
            let (mut x, y) = xor(250, &mut rng);
            for i in (0..x.n_rows()).step_by(11) {
                x.row_mut(i)[0] = f64::NAN;
            }
            let forest = RandomForest::fit_view(
                x.view(),
                &y,
                &ForestConfig { n_trees: 9, ..Default::default() },
                &mut rng,
            )
            .unwrap();
            let (batch, batch_work) = predict_view(&forest, x.view());
            let whole = [RowSpan { start: 0, len: x.n_rows() }];
            let (mut spanned, mut span_work) = (Vec::new(), Vec::new());
            let spanned_work =
                forest.predict_batch_spans_into(x.view(), &whole, &mut spanned, &mut span_work);
            assert_eq!((&spanned, spanned_work), (&batch, batch_work), "seed {seed}");
            let mut reference_work = 0u64;
            for (i, xi) in x.rows().enumerate() {
                let mut votes = 0usize;
                let mut work = 0u64;
                for tree in &forest.trees {
                    let (class, visited) = tree.predict_counting(xi);
                    votes += class;
                    work += visited;
                }
                let reference = usize::from(votes * 2 > forest.trees.len());
                assert_eq!(forest.predict(xi), reference, "row {i} seed {seed}");
                assert_eq!(forest.predict_with_work(xi), (reference, work), "row {i} seed {seed}");
                assert_eq!(batch[i], reference, "batch row {i} seed {seed}");
                reference_work += work;
            }
            assert_eq!(batch_work, reference_work, "seed {seed}");
        }
    }

    /// The span kernel must reproduce per-row `predict_with_work`
    /// exactly (predictions, per-span work and total work) for any tiling
    /// of the matrix — including spans whose length is not a multiple of
    /// the lockstep lane width.
    #[test]
    fn span_batch_matches_plain_batch_for_any_tiling() {
        let mut rng = SimRng::seed_from(31);
        let (x, y) = xor(150, &mut rng);
        let forest =
            RandomForest::fit_view(x.view(), &y, &ForestConfig { n_trees: 7, ..Default::default() }, &mut rng)
                .unwrap();
        let per_row: Vec<(usize, u64)> = x.rows().map(|xi| forest.predict_with_work(xi)).collect();
        let classes: Vec<usize> = per_row.iter().map(|&(c, _)| c).collect();
        for lens in [vec![150], vec![64, 86], vec![1, 7, 64, 13, 65], vec![50, 0, 100]] {
            let mut spans = Vec::new();
            let mut start = 0;
            for len in lens {
                spans.push(RowSpan { start, len });
                start += len;
            }
            let mut spanned = Vec::new();
            let mut span_work = Vec::new();
            let total =
                forest.predict_batch_spans_into(x.view(), &spans, &mut spanned, &mut span_work);
            let expected: Vec<u64> =
                spans.iter().map(|span| span.range().map(|i| per_row[i].1).sum()).collect();
            assert_eq!(spanned, classes, "{spans:?}");
            assert_eq!(span_work, expected, "{spans:?}");
            assert_eq!(total, expected.iter().sum::<u64>(), "{spans:?}");
        }
    }

    /// A one-tree forest blob over `dims` features whose tree declares
    /// `tree_dims` and holds `nodes`.
    fn one_tree_blob(dims: usize, tree_dims: usize, nodes: &[Node]) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u32(FOREST_MAGIC);
        e.put_usize(dims);
        e.put_usize(1);
        DecisionTree {
            nodes: nodes.to_vec(),
            dims: tree_dims,
        }
        .encode_into(&mut e);
        e.finish()
    }

    #[test]
    fn decode_rejects_malformed_trees() {
        let leaf = |class| Node::Leaf { class };
        let split = |feature, left, right| Node::Split {
            feature,
            threshold: 0.5,
            left,
            right,
        };
        let good = [split(1, 1, 2), leaf(0), leaf(1)];
        let forest = RandomForest::decode(&one_tree_blob(2, 2, &good)).unwrap();
        assert_eq!(forest.predict_with_work(&[0.0, 0.0]), (0, 2));
        assert_eq!(forest.predict_with_work(&[0.0, 1.0]), (1, 2));
        let cases: [(&str, usize, &[Node]); 8] = [
            ("empty tree", 2, &[]),
            ("self-loop", 2, &[split(0, 0, 1), leaf(0)]),
            ("child past the end", 2, &[split(0, 1, 3), leaf(0), leaf(1)]),
            (
                "child before its parent",
                2,
                &[split(0, 1, 2), split(0, 0, 2), leaf(1)],
            ),
            ("shared child", 2, &[split(0, 1, 1), leaf(0)]),
            (
                "feature out of range",
                2,
                &[split(2, 1, 2), leaf(0), leaf(1)],
            ),
            ("leaf class above 1", 2, &[split(0, 1, 2), leaf(0), leaf(2)]),
            ("tree dims differ from the forest's", 3, &good),
        ];
        for (what, tree_dims, nodes) in cases {
            assert!(
                matches!(
                    RandomForest::decode(&one_tree_blob(2, tree_dims, nodes)),
                    Err(DecodeError::Corrupt(_))
                ),
                "{what} must be a corrupt blob"
            );
        }
        // A well-formed but degenerate chain, 100 000 splits deep: its
        // depth and node depths are found without recursion.
        let deep = 100_000u32;
        let mut chain: Vec<Node> = (0..deep)
            .flat_map(|i| [split(0, 2 * i + 1, 2 * i + 2), leaf(1)])
            .collect();
        chain[2 * deep as usize - 2] = leaf(0);
        chain.pop();
        let forest = RandomForest::decode(&one_tree_blob(2, 2, &chain)).unwrap();
        assert_eq!(forest.trees[0].depth(), deep as usize);
        assert_eq!(forest.predict_with_work(&[0.0, 0.0]), (1, 2));
        assert_eq!(forest.predict_with_work(&[1.0, 0.0]), (0, u64::from(deep)));
    }

    /// Structure-aware decoder fuzzing: each node's child, feature and
    /// class words, and each tree's dims word, in a trained forest's
    /// blob are overwritten with 0, the node's own index (a self-loop
    /// for a child), the tree's node count and `u32::MAX`. Every mutant
    /// must fail to decode or decode to a forest whose span kernel,
    /// whole-view and per-row predictions agree and finish without
    /// panicking.
    #[test]
    fn decode_mutants_error_or_predict_cleanly() {
        let mut rng = SimRng::seed_from(13);
        let (x, y) = xor(200, &mut rng);
        let config = ForestConfig {
            n_trees: 4,
            ..Default::default()
        };
        let forest = RandomForest::fit_view(x.view(), &y, &config, &mut rng).unwrap();
        let blob = forest.encode();
        let word = |at: usize| u64::from_le_bytes(blob[at..at + 8].try_into().unwrap());
        // (offset, width in bytes, own node index, tree node count)
        let mut fields: Vec<(usize, usize, u64, u64)> = Vec::new();
        let mut at = 4 + 8 + 8;
        for _ in 0..forest.n_trees() {
            let count = word(at + 12);
            fields.push((at + 4, 8, 0, count));
            at += 4 + 8 + 8;
            for id in 0..count {
                // After the tag: a leaf's class word or a split's
                // feature word, then a split's threshold and children.
                fields.push((at + 1, 8, id, count));
                if blob[at] == 0 {
                    at += 1 + 8;
                } else {
                    fields.push((at + 17, 4, id, count));
                    fields.push((at + 21, 4, id, count));
                    at += 1 + 8 + 8 + 4 + 4;
                }
            }
        }
        assert_eq!(at, blob.len());
        let first: Vec<usize> = (0..40).collect();
        let first = gather_rows(&x, &first);
        let rows = first.view();
        let mut decoded = 0;
        for &(field, width, id, count) in &fields {
            for value in [0, id, count, u64::from(u32::MAX)] {
                let mut mutant = blob.clone();
                mutant[field..field + width].copy_from_slice(&value.to_le_bytes()[..width]);
                let Ok(back) = RandomForest::decode(&mutant) else {
                    continue;
                };
                decoded += 1;
                let (batch, work) = predict_view(&back, rows);
                let spans = [RowSpan { start: 0, len: 15 }, RowSpan { start: 15, len: 25 }];
                let (mut spanned, mut span_work) = (Vec::new(), Vec::new());
                let spanned_work =
                    back.predict_batch_spans_into(rows, &spans, &mut spanned, &mut span_work);
                assert_eq!((&spanned, spanned_work), (&batch, work));
                for (row, &class) in rows.rows().zip(&batch) {
                    assert_eq!(back.predict(row), class);
                }
                for tree in &back.trees {
                    assert!(tree.depth() >= 1);
                    let _ = tree.predict_counting(x.row(0));
                }
            }
        }
        // Feature and class words that stay in range still decode.
        assert!(decoded > 0);
        for cut in 0..blob.len() {
            assert!(
                RandomForest::decode(&blob[..cut]).is_err(),
                "truncated at {cut}"
            );
        }
        assert_trailing_byte_rejected(&blob, RandomForest::decode);
    }

    /// Same seed ⇒ bit-identical forest at any thread budget.
    #[test]
    fn training_is_thread_count_invariant() {
        let build = |threads: usize| {
            par::with_threads(threads, || {
                let mut rng = SimRng::seed_from(12);
                let (x, y) = xor(200, &mut rng);
                RandomForest::fit_view(x.view(), &y, &ForestConfig { n_trees: 8, ..Default::default() }, &mut rng)
                    .unwrap()
                    .encode()
            })
        };
        assert_eq!(build(1), build(4));
    }
}
