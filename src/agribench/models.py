"""Tree-ensemble learners: random forest and gradient-boosted trees.

Both ensembles grow exact greedy CART trees level by level over columns
presorted once per fit, the exact greedy algorithm over presorted column
blocks (Chen & Guestrin, XGBoost, KDD 2016, sections 3.1 and 4.1). Splits
minimize variance (regression) or Gini impurity (classification); candidate
thresholds are midpoints between consecutive distinct sorted values, and
ties break to the lowest feature index, then the lowest threshold, which
makes training fully deterministic for a fixed seed. One level's nodes are
searched together: one gather of their sorted rows, one cumulative sum down
each node's slots and one feature-major argmin per node. The trees come out
numbered, and their importances summed, as a depth-first grower that pops
the left child first would build them.

With ``max_features="sqrt"`` (the random-forest classification default) a
tree draws, at each level and from its own generator, one key per (node,
feature) for its nodes in creation order; a node searches the features of
its smallest keys.

Random forest trees are trained on bootstrap resamples whose randomness
derives only from (seed, tree index). They grow in batches sized so that one
level of a batch searches at most ``_BATCH_CELLS`` (drawn row, searched
column) cells; the trees of a batch read the fit's one presorted matrix
through their row ids, with no per-tree copy of X or y. With ``threads > 1``
batches run on worker threads, and the results do not depend on scheduling.

Gradient boosting fits each tree to the negative gradient of squared loss
(regression) or logistic loss (classification) and adds it with shrinkage,
taking each training row's leaf value from the grower; with
mean-of-gradient leaf values the training loss is non-increasing for any
learning rate in (0, 1].

Feature importance is mean decrease in impurity: per-feature impurity
decreases weighted by node size, summed within each tree, averaged across
trees, and normalized to sum one.
"""

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .featurize import FeatureTable
from .seeding import derive_seed

MODEL_FORMAT = "agribench-model"
MODEL_FORMAT_VERSION = 1


class SchemaError(ValueError):
    """Prediction input columns do not match the trained model."""


@dataclass(frozen=True)
class ModelSpec:
    kind: str  # "RF" | "GBT"
    task: str  # "regression" | "classification"
    n_trees: int = 200
    max_depth: int | None = None  # None: unlimited for RF, 6 for GBT
    learning_rate: float = 0.1  # GBT only
    max_features: str | None = None  # None: "sqrt" for RF classification, else "all"
    min_samples_leaf: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("RF", "GBT"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.task not in ("regression", "classification"):
            raise ValueError(f"unknown model task {self.task!r}")
        if self.n_trees < 1:
            raise ValueError("n_trees must be at least 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError(f"max_depth must be at least 1 (or unset), got {self.max_depth}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if self.max_features not in (None, "all", "sqrt"):
            raise ValueError(f"unknown max_features {self.max_features!r}")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be at least 1")

    def resolved_max_depth(self) -> int | None:
        if self.max_depth is not None:
            return self.max_depth
        return None if self.kind == "RF" else 6

    def resolved_max_features(self) -> str:
        if self.max_features is not None:
            return self.max_features
        if self.kind == "RF" and self.task == "classification":
            return "sqrt"
        return "all"


@dataclass
class Tree:
    """Flat array representation; feature -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(X.shape[0], dtype=np.intp)
        while True:
            feat = self.feature[node]
            active = np.nonzero(feat >= 0)[0]
            if active.size == 0:
                return self.value[node]
            current = node[active]
            go_left = X[active, feat[active]] <= self.threshold[current]
            node[active] = np.where(go_left, self.left[current], self.right[current])


@dataclass
class TrainedModel:
    spec: ModelSpec
    feature_names: tuple[str, ...]
    trees: list[Tree]
    importance: np.ndarray
    base_score: float = 0.0  # GBT initial prediction; unused for RF

    n_features: int = field(init=False)

    def __post_init__(self):
        self.n_features = len(self.feature_names)


# Trees grown together search at most this many (drawn row, searched column)
# cells per level, about 1 MiB per float64 level array; values are read from
# the fit's one presorted matrix, never from a per-tree copy of X or y.
_BATCH_CELLS = 1 << 17


def _n_searched(max_features: str, n_features: int) -> int:
    """Columns each node searches: the sqrt draw's candidates, or every column."""
    if max_features == "sqrt":
        return max(1, int(math.sqrt(n_features)))
    return n_features


class _Presorted:
    """A fit's training columns, stable-sorted once and shared by every tree.

    ``columns_sorted[f]`` lists the row indices in ascending order of column
    ``f``; rows with equal values keep ascending row order, and ``rank[f]``
    is the inverse (each row's position), with a padding row ``n_rows`` that
    comes last. ``x_flat`` is the matrix in column-major order.
    """

    def __init__(self, X: np.ndarray):
        self.n_rows, self.n_features = X.shape
        n, columns = self.n_rows, np.arange(self.n_features)
        self.columns_sorted = np.argsort(X, axis=0, kind="stable").T.copy()
        self.rank = np.full((self.n_features, n + 1), n)
        self.rank[columns[:, None], self.columns_sorted] = np.arange(n)
        self.x_flat = X.T.ravel()
        self.row_ids = np.arange(n)
        self.all_columns = columns
        # No column repeats a value: rows drawn once never tie.
        x_sorted = self.x_flat.take(self.columns_sorted + (columns * n)[:, None])
        self.distinct = not (x_sorted[:, 1:] == x_sorted[:, :-1]).any()

    def root_block(self, counts: np.ndarray | None) -> np.ndarray:
        """Each column's sorted rows, a row repeated as often as it is drawn."""
        if counts is None:
            return self.columns_sorted.ravel()
        return self.columns_sorted.ravel().repeat(counts[self.columns_sorted].ravel())

    def sort_rows(self, local_rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """Sort each column of ``local_rows[slot, node]`` by ``columns[node]``.

        Returns ``(slot, node, column)`` rows. Padding rows (``n_rows``)
        sort last and come back as the column's last row.
        """
        at = columns * (self.n_rows + 1)
        keys = self.rank.take(local_rows[:, :, None] + at)
        keys.sort(axis=0)
        keys = np.minimum(keys, self.n_rows - 1)
        return self.columns_sorted.take(keys + columns * self.n_rows)


def _slot_cumsum(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Cumulative sums down axis 0 of a ``(slot, node, column)`` array, in place.

    Each sum is accumulated slot after slot, as ``np.cumsum`` does. Nodes
    come in decreasing ``sizes``, and only the slots before a node's last
    are summed. With many nodes and columns one vectorized add per slot is
    faster than ``np.cumsum``, which runs down one column at a time.
    """
    width, n_nodes, n_columns = values.shape
    if n_nodes * n_columns < 512:
        return np.cumsum(values, axis=0, out=values)
    live = np.searchsorted(-sizes, -np.arange(2, width), side="left")
    for k, count in enumerate(live.tolist(), start=1):
        np.add(values[k - 1, :count], values[k, :count], out=values[k, :count])
    return values


def _best_splits(ys, sizes, totals, ties, min_leaf, classification):
    """Best split of each node from its rows sorted by each searched column.

    ``ys[slot, node, c]`` holds the label of the node's row at that slot in
    the order of its ``c``-th searched column, and ``ties`` (or ``None``
    when no two rows tie) marks the slots whose value equals the next
    slot's. Nodes come in decreasing ``sizes``; slots past a node's size
    are padding, never valid. Returns per node the best cost (``inf`` or
    ``-inf`` when no split is valid), ``c`` and the slot before the split.
    Regression maximizes the bracket ``ls^2/lc + rs^2/rc``: children SSE =
    sum(y^2) - bracket, so the bracket is the negated cost. ``ys`` is
    overwritten.
    """
    width, n_nodes, n_columns = ys.shape
    left_cnt = np.arange(1.0, width + 1.0)[:, None, None]
    right_cnt = sizes[:, None] - left_cnt
    cost = _slot_cumsum(ys, sizes)  # the left sums, then the cost in place
    right_sum = totals[:, None] - cost
    if classification:
        # Sum of per-side pos*(cnt-pos)/cnt; weighted child Gini is 2*cost/m.
        part = right_cnt - right_sum
        right_sum *= part
        right_sum /= right_cnt
        np.subtract(left_cnt, cost, out=part)
        cost *= part
        del part
        cost /= left_cnt
        cost += right_sum
    else:
        cost *= cost
        cost /= left_cnt
        right_sum *= right_sum
        right_sum /= right_cnt
        cost += right_sum
    del right_sum
    invalid = right_cnt < min_leaf
    if min_leaf > 1:
        invalid |= left_cnt < min_leaf
    if ties is not None:
        invalid = invalid | ties
    np.copyto(cost, np.inf if classification else -np.inf, where=invalid)
    del invalid
    # Feature-major order: ties go to the lowest feature, then the lowest
    # threshold.
    nodes = np.arange(n_nodes)
    if classification:
        per_column = cost.min(axis=0)
        column = per_column.argmin(axis=1)
        slot = cost[:, nodes, column].argmin(axis=0)
    else:
        per_column = cost.max(axis=0)
        column = per_column.argmax(axis=1)
        slot = cost[:, nodes, column].argmax(axis=0)
    return per_column[nodes, column], column, slot


def _size_groups(sizes: np.ndarray, n_columns: int) -> list[slice]:
    """Split nodes sorted by decreasing size into one or two padded groups.

    A second group pays for its fixed cost once it saves a few thousand
    padded cells.
    """
    n_nodes = sizes.size
    if n_nodes < 2 or n_nodes * int(sizes[0]) * n_columns < 8192:
        return [slice(None)]
    head = np.arange(1, n_nodes)
    padded = head * sizes[0] + (n_nodes - head) * sizes[1:]
    cut = int(padded.argmin())
    if (n_nodes * sizes[0] - padded[cut]) * n_columns < 4096:
        return [slice(None)]
    return [slice(0, cut + 1), slice(cut + 1, None)]


def _grow_trees(data, y, counts, rngs, max_depth, min_leaf, max_features, classification):
    """Grow one CART tree per entry of ``counts``, all together, level by level.

    ``counts[t]`` gives each row's multiplicity in tree ``t``'s sample (a
    bootstrap); ``[None]`` grows one tree over every row once. ``rngs[t]``
    draws tree ``t``'s candidate features when ``max_features`` is
    ``"sqrt"``: at each level one key per (node, feature) for its nodes in
    creation order, a node's candidates being its smallest keys. Returns
    ``(Tree, importance, fitted)`` per tree; each tree comes out as if grown
    alone. ``fitted`` is each row's leaf value for a tree over every row
    once, ``None`` for a bootstrap tree.

    ``rows`` holds, node after node, the node's row ids in ascending order;
    every value is looked up in ``data`` by row id, so trees share one copy
    of X and y. With every feature searched, ``block`` holds each column's
    rows in ascending order of that column, tree ``t``'s offset by
    ``t * n_rows`` so that one mask routes every tree's rows, and the
    children's block is a stable partition of the parent's by boolean
    masks: nothing is sorted after the fit's presort. A sqrt search reads a
    few columns per node, so it sorts just those by their presort ranks
    instead of partitioning every column.
    All nodes of a level are searched together (``_best_splits``). Node ids
    follow creation order: level by level, each split's left child before
    its right.
    """
    n_features, n_rows = data.n_features, data.n_rows
    n_candidates = _n_searched(max_features, n_features)
    partition = n_candidates == n_features
    # Sorted neighbours can tie only where a row repeats (a bootstrap draw)
    # or a column repeats a value; otherwise the tie check is skipped.
    may_tie = counts[0] is not None or not data.distinct
    x_flat = data.x_flat
    n_trees = len(counts)
    # Block entries of tree t are t * n_rows + its row ids.
    offsets = range(0, n_trees * n_rows, n_rows)
    if counts[0] is None:
        rows = data.row_ids
        sizes = np.array([n_rows])
        leaf = np.empty(n_rows, dtype=np.intp)  # each row's deepest node so far
    else:
        rows = np.concatenate([data.row_ids.repeat(c) for c in counts])
        sizes = np.array([int(c.sum()) for c in counts])
        leaf = None
    if partition:
        block = data.root_block(counts[0])
        if n_trees > 1:
            block = np.concatenate([data.root_block(c) + at for at, c in zip(offsets, counts)])
    n_root = int(sizes[0])  # every tree draws the same number of rows

    capacity = n_trees * (2 * n_root - 1)  # binary trees over n_root samples
    feature = np.full(capacity, -1, dtype=np.intp)
    threshold = np.zeros(capacity)
    left = np.full(capacity, -1, dtype=np.intp)
    value = np.zeros(capacity)
    gain = np.zeros(capacity)

    def settle(rows, sizes, ids, depth):
        """Set leaf values; returns which nodes may split, and the node sums."""
        ys = y[rows]
        starts = sizes.cumsum() - sizes
        may_split = (sizes >= 2 * min_leaf) & (
            np.minimum.reduceat(ys, starts) != np.maximum.reduceat(ys, starts)
        )
        if max_depth is not None and depth >= max_depth:
            may_split[:] = False
        # Sums in ascending row order fix the leaf values' rounding.
        totals = np.array([
            np.add.reduce(ys[s : s + m]) for s, m in zip(starts.tolist(), sizes.tolist())
        ])
        value[ids] = totals / sizes
        if leaf is not None:
            leaf[rows] = ids.repeat(sizes)
        return may_split, totals

    ids = np.arange(n_trees)
    tree_of = ids
    n_made = n_trees
    depth = 0
    may_split, totals = settle(rows, sizes, ids, depth)
    if not may_split.all():
        rows = rows.compress(may_split.repeat(sizes))
        if partition:
            block = block.compress(may_split.repeat(sizes * n_features))
        sizes, ids, tree_of, totals = (
            sizes[may_split], ids[may_split], tree_of[may_split], totals[may_split]
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        while sizes.size:
            n_nodes = sizes.size
            starts = sizes.cumsum() - sizes
            columns = None  # every node searches every column
            if not partition:
                # Each tree draws for its nodes in creation (id) order.
                per_tree = np.bincount(tree_of, minlength=n_trees).tolist()
                keys = np.empty((n_nodes, n_features))
                keys[np.argsort(ids)] = np.concatenate([
                    rngs[t].random((k, n_features)) for t, k in enumerate(per_tree) if k
                ])
                columns = np.sort(np.argsort(keys, axis=1)[:, :n_candidates], axis=1)
            best = np.empty(n_nodes)
            chosen = np.empty(n_nodes, dtype=np.intp)
            cut = np.empty(n_nodes)
            by_size = np.argsort(-sizes, kind="stable")
            for group in _size_groups(sizes[by_size], n_candidates):
                sel = by_size[group]
                m = sizes[sel]
                # Slot k of node j holds its row k; later slots repeat its
                # last row (padding, never a valid split).
                slot_row = np.minimum(np.arange(int(m[0]))[:, None], m - 1)
                if partition:
                    searched = data.all_columns
                    if depth == 0 and counts[0] is None:  # every row, once
                        search = data.columns_sorted.T[:, None, :]
                    else:
                        # Column f of node j starts at starts[j] * n_features + f * m[j].
                        first = (starts[sel] * n_features)[:, None] + searched * m[:, None]
                        search = block.take(first + slot_row[:, :, None])
                        if n_trees > 1:
                            search -= (tree_of[sel] * n_rows)[:, None]
                else:
                    searched = columns[sel]
                    local = rows.take(starts[sel] + slot_row)
                    local[slot_row < np.arange(m[0])[:, None]] = n_rows
                    search = data.sort_rows(local, searched)
                ties = None
                if may_tie:
                    xs = x_flat.take(search + searched * n_rows)
                    ties = np.zeros(xs.shape, dtype=bool)
                    np.greater_equal(xs[:-1], xs[1:], out=ties[:-1])
                    del xs
                best[sel], column, slot = _best_splits(
                    y.take(search), m, totals[sel], ties, min_leaf, classification
                )
                del ties
                # Threshold: the midpoint of the values around the split,
                # or the lower one when the midpoint rounds up to the upper.
                nodes = np.arange(sel.size)
                chosen[sel] = column if partition else searched[nodes, column]
                lo = x_flat[chosen[sel] * n_rows + search[slot, nodes, column]]
                hi = x_flat[chosen[sel] * n_rows + search[slot + 1, nodes, column]]
                del search
                cut[sel] = np.where((lo + hi) / 2.0 >= hi, lo, (lo + hi) / 2.0)
            split = np.isfinite(best)
            split_nodes = np.flatnonzero(split)
            n_split = split_nodes.size
            if n_split == 0:
                break

            # Impurity decrease from the node's own sums, as scalars.
            ys = y[rows]
            split_ids = ids[split_nodes]
            for node, start, m, total, cost in zip(
                split_ids.tolist(), starts[split_nodes].tolist(),
                sizes[split_nodes].tolist(), totals[split_nodes].tolist(),
                best[split_nodes].tolist(),
            ):
                if classification:
                    node_imp = 2.0 * total * (m - total) / (m * m)
                    child_imp = 2.0 * cost / m
                else:
                    part = ys[start : start + m]
                    total_sq = float(part @ part)
                    node_imp = total_sq / m - (total / m) ** 2
                    child_imp = (total_sq - cost) / m  # cost holds the bracket
                gain[node] = m / n_root * max(0.0, node_imp - child_imp)
            feature[split_ids] = chosen[split_nodes]
            threshold[split_ids] = cut[split_nodes]
            value[split_ids] = 0.0

            # Children get ids in their parents' id order, left then right.
            left_ids = np.empty(n_split, dtype=np.intp)
            left_ids[np.argsort(split_ids)] = n_made + 2 * np.arange(n_split)
            n_made += 2 * n_split
            left[split_ids] = left_ids

            # Route rows; the children come as all left ones, then all right.
            node_of = np.arange(n_nodes).repeat(sizes)
            go_left = x_flat[chosen[node_of] * n_rows + rows] <= cut[node_of]
            in_split = split[node_of]
            to_left = go_left & in_split
            n_left = np.bincount(node_of[to_left], minlength=n_nodes)[split_nodes]
            child_sizes = np.concatenate([n_left, sizes[split_nodes] - n_left])
            child_ids = np.concatenate([left_ids, left_ids + 1])
            child_rows = np.concatenate([
                rows.compress(to_left), rows.compress(~go_left & in_split)
            ])
            depth += 1
            may_split, totals = settle(child_rows, child_sizes, child_ids, depth)
            if not may_split.any():
                break

            if partition:
                # Stable partition of the block, keeping only the children
                # that may split, in the order of the node arrays.
                keep_left = np.zeros(n_nodes, dtype=bool)
                keep_left[split_nodes] = may_split[:n_split]
                keep_right = np.zeros(n_nodes, dtype=bool)
                keep_right[split_nodes] = may_split[n_split:]
                row_left = np.zeros(n_trees * n_rows, dtype=bool)
                row_left[rows + (tree_of * n_rows)[node_of]] = go_left
                block_left = row_left.take(block)
                span = sizes * n_features
                block = np.concatenate([
                    block.compress(block_left & keep_left.repeat(span)),
                    block.compress(~block_left & keep_right.repeat(span)),
                ])
            rows = child_rows.compress(may_split.repeat(child_sizes))
            child_trees = np.concatenate([tree_of[split_nodes]] * 2)
            sizes, ids, tree_of, totals = (
                child_sizes[may_split], child_ids[may_split],
                child_trees[may_split], totals[may_split],
            )

    number = np.empty(n_made, dtype=np.intp)
    fitted = None if leaf is None else value[leaf]
    return [
        (*_renumber(root, feature, threshold, left, value, gain, number, n_features), fitted)
        for root in range(n_trees)
    ]


def _renumber(root, feature, threshold, left, value, gain, number, n_features):
    """One tree's arrays, numbered as a depth-first grower popping left first.

    That grower numbers a split node's children (``left``, ``left + 1`` in
    creation order) when it pops the node, so the numbers follow the split
    nodes' pre-order; importance is summed in that order too, which fixes
    its rounding. ``number`` is scratch space over all node ids.
    """
    order = []
    stack = [root]
    left_of = left.tolist()
    while stack:
        node = stack.pop()
        child = left_of[node]
        if child >= 0:
            order.append(node)
            stack.append(child + 1)
            stack.append(child)
    split_nodes = np.array(order, dtype=np.intp)
    pairs = 2 * np.arange(split_nodes.size)
    at = np.empty(2 * split_nodes.size + 1, dtype=np.intp)
    at[0] = root
    at[1::2] = left[split_nodes]
    at[2::2] = left[split_nodes] + 1
    number[at] = np.arange(at.size)
    new_left = np.full(at.size, -1, dtype=np.intp)
    new_left[number[split_nodes]] = pairs + 1
    importance = np.zeros(n_features)
    for f, g in zip(feature[split_nodes].tolist(), gain[split_nodes].tolist()):
        importance[f] += g
    tree = Tree(
        feature=feature[at],
        threshold=threshold[at],
        left=new_left,
        right=np.where(new_left >= 0, new_left + 1, -1),
        value=value[at],
    )
    return tree, importance


def _as_matrix(X) -> tuple[np.ndarray, tuple[str, ...] | None]:
    if isinstance(X, FeatureTable):
        return X.values, X.feature_names
    arr = np.asarray(X, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"feature matrix must be 2-D, got shape {arr.shape}")
    return arr, None


def _require_finite(values: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` naming ``what`` and the first non-finite entry."""
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        where = ", ".join(f"{axis} {int(i)}" for axis, i in zip(("row", "column"), bad[0]))
        raise ValueError(f"non-finite {what} at {where}")


def _train_rf(spec: ModelSpec, X: np.ndarray, y: np.ndarray, threads: int):
    n = X.shape[0]
    classification = spec.task == "classification"
    max_depth = spec.resolved_max_depth()
    max_features = spec.resolved_max_features()
    data = _Presorted(X)
    batch = max(1, _BATCH_CELLS // (n * _n_searched(max_features, X.shape[1])))

    def grow(first: int):
        rngs = [
            np.random.default_rng(derive_seed(spec.seed, tree_index))
            for tree_index in range(first, min(first + batch, spec.n_trees))
        ]
        counts = [np.bincount(rng.integers(0, n, size=n), minlength=n) for rng in rngs]
        return _grow_trees(
            data, y, counts, rngs, max_depth, spec.min_samples_leaf,
            max_features, classification,
        )

    firsts = range(0, spec.n_trees, batch)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            batches = list(pool.map(grow, firsts))
    else:
        batches = [grow(first) for first in firsts]
    results = [result for grown in batches for result in grown]
    trees = [tree for tree, _, _ in results]
    per_tree = np.stack([acc for _, acc, _ in results])
    return trees, per_tree.mean(axis=0), 0.0


def _sigmoid(scores: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-scores))


def _train_gbt(spec: ModelSpec, X: np.ndarray, y: np.ndarray):
    classification = spec.task == "classification"
    max_depth = spec.resolved_max_depth()
    max_features = spec.resolved_max_features()
    rng = np.random.default_rng(derive_seed(spec.seed, "gbt"))
    data = _Presorted(X)

    if classification:
        p = min(max(float(y.mean()), 1e-12), 1.0 - 1e-12)
        base = math.log(p / (1.0 - p))
    else:
        base = float(y.mean())
    scores = np.full(X.shape[0], base)

    trees = []
    accs = []
    for _ in range(spec.n_trees):
        residual = y - _sigmoid(scores) if classification else y - scores
        # Trees are fit to the gradient with the regression criterion.
        [(tree, acc, fitted)] = _grow_trees(
            data, residual, [None], [rng], max_depth, spec.min_samples_leaf,
            max_features, False,
        )
        trees.append(tree)
        accs.append(acc)
        scores = scores + spec.learning_rate * fitted  # equals tree.apply(X)
    return trees, np.stack(accs).mean(axis=0), base


def train(spec: ModelSpec, X, y, threads: int = 1) -> TrainedModel:
    """Fit the configured ensemble; deterministic for a fixed spec seed."""
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    matrix, names = _as_matrix(X)
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] != matrix.shape[0]:
        raise ValueError(
            f"labels ({y.shape}) do not match feature rows ({matrix.shape[0]})"
        )
    if matrix.shape[0] < 2:
        raise ValueError("training requires at least 2 rows")
    _require_finite(matrix, "features")
    _require_finite(y, "labels")
    if spec.task == "classification" and not np.all(np.isin(y, (0.0, 1.0))):
        raise ValueError("classification labels must be 0 or 1")

    if spec.kind == "RF":
        trees, raw_importance, base = _train_rf(spec, matrix, y, threads)
    else:
        trees, raw_importance, base = _train_gbt(spec, matrix, y)

    total = raw_importance.sum()
    importance = raw_importance / total if total > 0 else np.zeros_like(raw_importance)
    if names is None:
        names = tuple(f"x{i}" for i in range(matrix.shape[1]))
    return TrainedModel(
        spec=spec,
        feature_names=tuple(names),
        trees=trees,
        importance=importance,
        base_score=base,
    )


def _check_schema(model: TrainedModel, names: tuple[str, ...] | None, width: int) -> None:
    if names is not None:
        if names != model.feature_names:
            for i, (got, want) in enumerate(zip(names, model.feature_names)):
                if got != want:
                    raise SchemaError(
                        f"feature column {i} is {got!r}, model expects {want!r}"
                    )
            raise SchemaError(
                f"feature count {len(names)} does not match model "
                f"({len(model.feature_names)})"
            )
    elif width != model.n_features:
        raise SchemaError(
            f"feature count {width} does not match model ({model.n_features})"
        )


def predict_scores(model: TrainedModel, X) -> np.ndarray:
    """Raw ensemble output: tree mean (RF) or boosted additive score (GBT)."""
    matrix, names = _as_matrix(X)
    _check_schema(model, names, matrix.shape[1])
    _require_finite(matrix, "features")
    if model.spec.kind == "RF":
        outputs = np.stack([tree.apply(matrix) for tree in model.trees])
        if model.spec.task == "classification":
            votes = (outputs > 0.5).astype(float)
            return votes.mean(axis=0)
        return outputs.mean(axis=0)
    scores = np.full(matrix.shape[0], model.base_score)
    for tree in model.trees:
        scores = scores + model.spec.learning_rate * tree.apply(matrix)
    return scores


def predict_proba(model: TrainedModel, X) -> np.ndarray:
    """Class-1 probability: vote fraction (RF) or logistic link (GBT)."""
    if model.spec.task != "classification":
        raise ValueError("probabilities are defined for classification models only")
    scores = predict_scores(model, X)
    return scores if model.spec.kind == "RF" else _sigmoid(scores)


def predict(model: TrainedModel, X) -> np.ndarray:
    """Predicted values (regression) or classes in {0, 1} (classification).

    Columns of ``X`` must match the model's feature names exactly when ``X``
    is a FeatureTable. Class ties (probability exactly 0.5) go to class 0.
    """
    if model.spec.task == "regression":
        return predict_scores(model, X)
    return (predict_proba(model, X) > 0.5).astype(float)


def feature_importance(model: TrainedModel) -> dict[str, float]:
    """Named mean-decrease-in-impurity scores, normalized to sum one."""
    return {name: float(v) for name, v in zip(model.feature_names, model.importance)}


def top_features(model: TrainedModel, k: int = 10) -> list[tuple[str, float]]:
    """The k most important features, highest first (name order breaks ties)."""
    ranked = sorted(
        feature_importance(model).items(), key=lambda item: (-item[1], item[0])
    )
    return ranked[:k]


def save_model(model: TrainedModel, path) -> None:
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_FORMAT_VERSION,
        "spec": asdict(model.spec),
        "feature_names": list(model.feature_names),
        "base_score": model.base_score,
        "importance": [float(v) for v in model.importance],
        "trees": [
            {
                "feature": tree.feature.tolist(),
                "threshold": tree.threshold.tolist(),
                "left": tree.left.tolist(),
                "right": tree.right.tolist(),
                "value": tree.value.tolist(),
            }
            for tree in model.trees
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _tree_defect(tree: Tree, n_features: int) -> str | None:
    """The first structural defect of a tree, or ``None`` if it is sound.

    A sound tree has equal-length arrays; leaves (feature -1) have no
    children; every other node tests a column below ``n_features`` and has
    children after itself in the arrays (so prediction cannot cycle); every
    node but the root has exactly one parent; thresholds and values are
    finite.
    """
    n = tree.feature.size
    lengths = [a.size for a in (tree.feature, tree.threshold, tree.left, tree.right, tree.value)]
    if any(a.ndim != 1 for a in (tree.feature, tree.threshold, tree.left, tree.right, tree.value)):
        return "arrays must be flat lists"
    if len(set(lengths)) != 1:
        return f"arrays differ in length {lengths}"
    if n == 0:
        return "has no nodes"
    nodes = np.arange(n)
    leaf = tree.feature == -1
    checks = (
        ((tree.feature < -1) | (tree.feature >= n_features),
         lambda j: f"feature {tree.feature[j]} is not a column below {n_features}"),
        (leaf & ((tree.left != -1) | (tree.right != -1)),
         lambda j: "is a leaf (feature -1) but has children"),
        (~leaf & ((tree.left <= nodes) | (tree.left >= n)),
         lambda j: f"left child {tree.left[j]} is not a later node"),
        (~leaf & ((tree.right <= nodes) | (tree.right >= n)),
         lambda j: f"right child {tree.right[j]} is not a later node"),
        (~np.isfinite(tree.threshold), lambda j: "threshold is not finite"),
        (~np.isfinite(tree.value), lambda j: "value is not finite"),
    )
    for bad, message in checks:
        if bad.any():
            j = int(np.argmax(bad))
            return f"node {j}: {message(j)}"
    parents = np.bincount(np.concatenate([tree.left[~leaf], tree.right[~leaf]]), minlength=n)
    orphan = parents[1:] != 1
    if orphan.any():
        j = int(np.argmax(orphan)) + 1
        return f"node {j}: has {parents[j]} parents"
    return None


def _finite_float(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{number} is not finite")
    return number


def _json_list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def _name_tuple(value) -> tuple[str, ...]:
    names = tuple(_json_list(value))
    if not all(isinstance(name, str) for name in names):
        raise TypeError("expected a list of strings")
    return names


# Each field of a model file and the conversion that must accept it.
_MODEL_FIELDS = (
    ("spec", lambda spec: ModelSpec(**spec)),
    ("feature_names", _name_tuple),
    ("trees", _json_list),
    ("importance", lambda values: np.array(values, dtype=float)),
    ("base_score", _finite_float),
)


def load_model(path) -> TrainedModel:
    """Read a model file, rejecting any tree that is not a sound binary tree.

    Every malformed file raises ``ValueError`` naming ``path``.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not JSON ({exc})") from None
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a {MODEL_FORMAT} file: {path}")
    if payload.get("version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported model format version {payload.get('version')}")
    fields = {}
    for key, convert in _MODEL_FIELDS:
        if key not in payload:
            raise ValueError(f"{path}: missing {key!r}")
        try:
            fields[key] = convert(payload[key])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad {key!r} ({exc})") from None
    spec, feature_names = fields["spec"], fields["feature_names"]
    if len(fields["trees"]) != spec.n_trees:
        raise ValueError(f"{path}: {len(fields['trees'])} trees, but n_trees is {spec.n_trees}")
    trees = []
    for index, t in enumerate(fields["trees"]):
        try:
            tree = Tree(
                feature=np.array(t["feature"], dtype=np.intp),
                threshold=np.array(t["threshold"], dtype=float),
                left=np.array(t["left"], dtype=np.intp),
                right=np.array(t["right"], dtype=np.intp),
                value=np.array(t["value"], dtype=float),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: tree {index}: malformed arrays ({exc})") from None
        defect = _tree_defect(tree, len(feature_names))
        if defect is not None:
            raise ValueError(f"{path}: tree {index}: {defect}")
        trees.append(tree)
    importance = fields["importance"]
    if importance.shape != (len(feature_names),):
        raise ValueError(
            f"{path}: {importance.size} importance values for {len(feature_names)} features"
        )
    return TrainedModel(
        spec=spec,
        feature_names=feature_names,
        trees=trees,
        importance=importance,
        base_score=fields["base_score"],
    )
