"""Tree-ensemble learners: random forest and gradient-boosted trees.

Both ensembles grow exact greedy CART trees level by level over columns
presorted once per fit, the exact greedy algorithm over presorted column
blocks (Chen & Guestrin, XGBoost, KDD 2016, sections 3.1 and 4.1). Splits
minimize variance (regression) or Gini impurity (classification); candidate
thresholds are midpoints between consecutive distinct sorted values, and
ties break to the lowest feature index, then the lowest threshold, which
makes training fully deterministic for a fixed seed. One level's nodes are
searched together: one gather of their sorted rows, one cumulative sum down
each node's slots and one feature-major argmin per node, in which a node's
last row and its padding cost NaN and are skipped. The trees come out
numbered, and their importances summed, as a depth-first grower that pops
the left child first would build them; that numbering runs once per fit,
over every tree of the fit together (``_number``). Prediction walks all of
a model's trees together too, over (tree, row) pairs in blocks of rows
(``_walk``), and adds each row's tree outputs in tree order, so a row's
prediction does not depend on the rows predicted with it.

With ``max_features="sqrt"`` (the random-forest classification default) a
tree draws, at each level and from its own generator, one key per (node,
feature) for its nodes in creation order, straight into its rows of the
level's keys; a node searches the features of its smallest keys, found by
partition (``_smallest_keys``; a tie at the cut takes a full argsort).
The fit's presort sorts each column with numpy's default sort and only a
column with repeated values stably (``_Presorted``): the order is the
stable one either way.

Random forest trees are trained on bootstrap resamples whose randomness
derives only from (seed, tree index). A tree holds each drawn row once,
weighted by its draw count (the weighted form of Breiman's bootstrap,
Random Forests, 2001): leaf values, split statistics and impurity
decreases are weighted sums, and ``min_samples_leaf`` counts drawn rows.
With 0/1 labels every such sum is exact, so a classification tree is the
tree grown on the rows repeated, bit for bit; a regression tree's sums
round differently. Random forest trees grow in batches, grouped by the
rule that groups boosted folds (``_groups``): one level of a batch
searches at most ``_BATCH_CELLS`` (drawn row, searched column) cells. The
trees of a batch read the fit's one presorted matrix by key (tree, row),
with no per-tree copy of X. With ``threads > 1`` batches run on worker
threads, and the results do not depend on scheduling.

Gradient boosting fits each tree to the negative gradient of squared loss
(regression) or logistic loss (classification) and adds it with shrinkage,
taking each training row's leaf value from the grower; with
mean-of-gradient leaf values the training loss is non-increasing for any
learning rate in (0, 1]. Every boosted tree is a subset tree: it grows
on the rows of a boolean mask, each once and unweighted, and reads only
their residuals. ``boost_folds`` boosts the folds of a cross-validation
repeat together: round ``t`` of every fold grows in one grower pass (folds
grouped under the same cell budget), each fold's tree a subset tree on the
fold's rows. A level then pays its fixed per-call cost once for all folds.
A single ``train`` fit is the one-fold case, a mask over every training
row, so each fold's model is the model ``train`` fits on the fold's rows,
bit for bit.

Feature importance is mean decrease in impurity: per-feature impurity
decreases weighted by node size (drawn rows), summed within each tree,
averaged across trees, and normalized to sum one. A regression node's
decrease is ``bracket/w - (total/w)^2`` from its weight, label sum and best
split's bracket; the sum of squared labels cancels, so none is taken.
"""

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

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

    def reads_seed(self) -> bool:
        """Whether a fit draws from ``seed``: forests draw bootstraps, and a
        sqrt search draws candidates. A boosted fit over every feature does
        not, so its model is the same under every seed."""
        return self.kind == "RF" or self.resolved_max_features() == "sqrt"


@dataclass
class Tree:
    """Flat array representation; feature -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


def _walk(feature, threshold, left, right, roots: np.ndarray, X) -> np.ndarray:
    """The leaf each (root, row) pair reaches, as a ``(roots, rows)`` array.

    The node arrays may hold several trees end to end, with children as
    indices into them; ``roots`` lists the trees to walk. Each pass moves
    every pair one level down. A leaf leads to itself, so a pair that has
    reached one stays there; pairs at leaves are dropped from the passes
    once they are at least half of them.
    """
    X = np.ascontiguousarray(X)
    n_rows, n_features = X.shape
    x_flat = X.ravel()
    is_leaf = feature < 0
    nodes = np.arange(feature.size)
    feature = np.where(is_leaf, 0, feature)
    left, right = np.where(is_leaf, nodes, left), np.where(is_leaf, nodes, right)
    node = np.repeat(roots, n_rows)
    at = np.tile(np.arange(0, n_rows * n_features, n_features), roots.size)  # each pair's row
    leaves = pairs = None  # pairs: the pairs in the passes, None while all are
    while True:
        done = is_leaf.take(node)
        walking = node.size - np.count_nonzero(done)
        if 2 * walking <= node.size:
            keep = np.flatnonzero(~done)
            if pairs is None:
                leaves, pairs = node, keep
            else:
                leaves[pairs] = node
                pairs = pairs.take(keep)
            node, at = node.take(keep), at.take(keep)
            if not walking:
                return leaves.reshape(roots.size, n_rows)
        go_left = x_flat.take(at + feature.take(node)) <= threshold.take(node)
        node = np.where(go_left, left.take(node), right.take(node))


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
# the fit's one presorted matrix, never from a per-tree copy of X.
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

    Each column is sorted with numpy's default argsort, which may be a SIMD
    sort and is not stable: distinct values have one sorted order, so only
    a column whose sorted values repeat (``-0.0`` beside ``0.0`` included)
    is sorted again, stably.
    """

    def __init__(self, X: np.ndarray):
        self.n_rows, self.n_features = X.shape
        n, columns = self.n_rows, np.arange(self.n_features)
        self.x_flat = X.T.ravel()
        x_columns = self.x_flat.reshape(self.n_features, n)
        self.columns_sorted = np.argsort(x_columns, axis=1)
        x_sorted = self.x_flat.take(self.columns_sorted + (columns * n)[:, None])
        tied = (x_sorted[:, 1:] == x_sorted[:, :-1]).any(axis=1)
        # No column repeats a value: rows drawn once never tie.
        self.distinct = not tied.any()
        if not self.distinct:
            self.columns_sorted[tied] = np.argsort(x_columns[tied], axis=1, kind="stable")
        self.rank = np.full((self.n_features, n + 1), n)
        self.rank[columns[:, None], self.columns_sorted] = np.arange(n)
        self.all_columns = columns

    def root_block(self, counts: list) -> np.ndarray:
        """Each column's sorted rows for the trees of ``_grow_trees``'s ``counts``:
        tree ``t`` gives only the rows it holds, offset by ``t * n_rows``."""
        block = self.columns_sorted.ravel()
        return np.concatenate([
            block.compress(c[block] > 0) + t * self.n_rows for t, c in enumerate(counts)
        ])

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


def _smallest_keys(keys: np.ndarray, k: int) -> np.ndarray:
    """The columns of each row's ``k`` smallest keys, in ascending order:
    ``np.sort(np.argsort(keys, axis=1)[:, :k], axis=1)``.

    ``np.partition`` finds each row's ``k``-th smallest key, and the mask of
    keys at or below it lists a row's columns in order. A row with more than
    ``k`` such keys has a tie at its ``k``-th key; then the whole array
    takes the argsort, whose pick among tied keys this keeps.
    """
    below = keys <= np.partition(keys, k - 1, axis=1)[:, k - 1:k]
    if np.count_nonzero(below) != below.shape[0] * k:  # every row holds at least k
        return np.sort(np.argsort(keys, axis=1)[:, :k], axis=1)
    return below.nonzero()[1].reshape(-1, k)


class _Scratch:
    """What one group of trees keeps across its grower calls.

    ``root_block`` is the group's ``_Presorted.root_block`` (``None`` for a
    sqrt search, which reads none). A level's cell-sized arrays are views
    of flat buffers that grow to the largest level seen, so a fit
    allocates them once, not once per level: freed and allocated again,
    arrays this size make the allocator return their pages to the system
    and fault them in again.
    """

    def __init__(self, root_block: np.ndarray | None = None):
        self.root_block = root_block
        self._flat: dict[str, np.ndarray] = {}

    def view(self, name: str, shape: tuple, dtype) -> np.ndarray:
        """An uninitialized array on buffer ``name``; arrays never alive
        together may share a name."""
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size, dtype=np.uint8)
        return flat[:size].view(dtype).reshape(shape)


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


def _segment_sums(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``np.add.reduce`` of each segment of ``values``, bit for bit.

    The segments start at ``starts`` and run end to end. ``np.add.reduce``
    adds a run pairwise to 0.0, while ``np.add.reduceat`` adds a segment's
    first value to the pairwise sum of the rest; so each segment is read
    behind a 0.0 of its own.
    """
    at = starts + np.arange(starts.size)
    padded = np.zeros(values.size + starts.size)
    keep = np.ones(padded.size, dtype=bool)
    keep[at] = False
    padded[keep] = values
    return np.add.reduceat(padded, at)


def _best_splits(ys, ws, sizes, weights, totals, ties, min_leaf, classification, right_sum):
    """Best split of each node from its rows sorted by each searched column.

    ``ys[slot, node, c]`` holds the weighted label (label times weight) of
    the node's row at that slot in the order of its ``c``-th searched
    column, ``ws`` (or ``None`` when every row counts once) that row's
    weight, and ``ties`` (or ``None`` when no two rows tie) marks the slots
    whose value equals the next slot's. Nodes come in decreasing ``sizes``
    (rows, not weights), with weight sums ``weights`` and weighted label
    sums ``totals``. Slots at or past a node's last row are invalid by
    position: their right counts are NaN, so their costs come out NaN
    without a pass of their own, and the reductions (``np.fmax`` or
    ``np.fmin``) skip them; whatever padding slots hold or sum to never
    reaches a chosen split. Slots that tie or leave a side under
    ``min_leaf`` are set to NaN too.
    Returns per node the best cost (``inf`` or ``-inf`` when no split is
    valid), ``c`` and the slot before the split. Regression maximizes the
    bracket ``ls^2/lc + rs^2/rc`` over weighted sums and counts: children
    SSE = sum(w*y^2) - bracket, so the bracket is the negated cost. ``ys``
    and ``ws`` are overwritten (with weights, the left counts' buffer takes
    the right counts once the left side's cost is done); ``right_sum``
    (``None``: a new array) is the ``out`` array of the right sums.
    """
    width, n_nodes, n_columns = ys.shape
    rows_up_to = np.arange(1.0, width + 1.0)[:, None, None]  # rows in slots 0..k
    # Weight less the left count is the right count; none is right of the
    # last row or of padding.
    right_base = np.where(rows_up_to < sizes[:, None], weights[:, None], np.nan)
    cost = _slot_cumsum(ys, sizes)  # the left sums, then the cost in place
    right_sum = np.subtract(totals[:, None], cost, out=right_sum)
    if ws is None:
        left_cnt = rows_up_to
        right_cnt = right_base - left_cnt
    else:
        left_cnt = _slot_cumsum(ws, sizes)
    if min_leaf > 1:
        short = left_cnt < min_leaf  # before the right counts take its buffer
    # The left side first: with weights, its counts' buffer then takes the
    # right counts.
    if classification:
        # Sum of per-side pos*(cnt-pos)/cnt; weighted child Gini is 2*cost/m.
        part = left_cnt - cost
        cost *= part
    else:
        cost *= cost
    cost /= left_cnt
    if ws is not None:
        right_cnt = np.subtract(right_base, left_cnt, out=left_cnt)
    del left_cnt
    if classification:
        np.subtract(right_cnt, right_sum, out=part)
        right_sum *= part
        del part
    else:
        right_sum *= right_sum
    right_sum /= right_cnt
    cost += right_sum
    del right_sum
    if min_leaf > 1:
        np.copyto(cost, np.nan, where=short | (right_cnt < min_leaf))
    if ties is not None:
        np.copyto(cost, np.nan, where=ties)
    del right_cnt
    # Feature-major order: ties go to the lowest feature, then the lowest
    # threshold. A column with no valid slot reduces to the initial value,
    # the worst cost, so it never wins; in the chosen column, NaN slots are
    # made the worst cost before the slot is picked.
    nodes = np.arange(n_nodes)
    if classification:
        per_column = np.fmin.reduce(cost, axis=0, initial=np.inf)
        column = per_column.argmin(axis=1)
        chosen = cost[:, nodes, column]
        np.fmin(chosen, np.inf, out=chosen)
        slot = chosen.argmin(axis=0)
    else:
        per_column = np.fmax.reduce(cost, axis=0, initial=-np.inf)
        column = per_column.argmax(axis=1)
        chosen = cost[:, nodes, column]
        np.fmax(chosen, -np.inf, out=chosen)
        slot = chosen.argmax(axis=0)
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


def _grow_trees(data, y, counts, rngs, max_depth, min_leaf, max_features, classification,
                scratch=None):
    """Grow one CART tree per entry of ``counts``, all together, level by level.

    ``counts[t]`` picks tree ``t``'s rows. A boolean mask grows a subset
    tree: the masked rows once each, unweighted, bit for bit the tree an
    all-true mask grows on ``X[mask]``. Integer counts are a bootstrap, each
    row's multiplicity in tree ``t``'s sample. The tree holds each drawn row
    once, weighted by its count: leaf values, node totals, split counts,
    impurities and the ``min_leaf`` tests are all over weights, so a tree
    with integer labels is the tree grown on the rows repeated. ``y`` is one
    row of labels that every tree reads, or a ``(trees, rows)`` array whose
    row ``t`` tree ``t`` reads. ``rngs[t]`` draws tree ``t``'s candidate
    features when ``max_features`` is ``"sqrt"``: at each level one key per
    (node, feature) for its nodes in creation order, a node's candidates
    being its smallest keys. A split's impurity decrease is weighted by its
    node's weight over the tree's own sample size. ``scratch`` is the
    ``_Scratch`` the caller keeps for these trees across calls; without one,
    each level allocates its own arrays, which costs less for trees grown
    once (a random-forest batch): buffers kept for the whole call raised a
    30-tree forest's peak memory by a quarter. Returns ``(nodes, fitted)``:
    the call's nodes as a ``_Grown``, in creation order, which ``_number``
    numbers once per fit, each tree as if grown alone; and each (tree,
    row)'s leaf value in unweighted trees (0 for a row outside a subset
    tree), ``None`` for bootstrap trees.

    Row ``r`` of tree ``t`` has the key ``t * n_rows + r``, the grower's one
    row id. ``keys`` holds, node after node, the node's keys in ascending
    order, and ``row_w`` their weights (``None`` in subset trees, whose rows
    count once each, and a node's weight is then its size). ``labels``,
    ``draws`` (the weights), ``weighted_labels`` (their product, which the
    split search gathers) and ``leaf`` are indexed by key; ``labels`` is
    ``y`` with a shared row tiled once per tree, at most ``_BATCH_CELLS /
    searched columns`` floats for a forest batch. X is read from ``data``
    at the key less its tree's offset, so trees share one copy of X; a
    level subtracts the offset only where it reads X (the tie check and
    each node's two threshold values). With every feature searched,
    ``block`` holds each column's keys in ascending order of that column,
    and the children's block is a stable partition of the parent's: each
    key of the level gets one route code (0 dropped, 1 to a kept left
    child, 2 to a kept right child), one ``take`` reads it for every block
    entry, and each half is written straight into the child buffer, so
    nothing is sorted after the fit's presort. A sqrt search reads a
    few columns per node, so it sorts just those by their presort ranks
    instead of partitioning every column. All nodes of a level are searched
    together (``_best_splits``). Node ids follow creation order: level by
    level, each split's left child before its right.
    """
    n_features, n_rows = data.n_features, data.n_rows
    n_candidates = _n_searched(max_features, n_features)
    partition = n_candidates == n_features
    # A tree holds each row once, so sorted neighbours tie only where a
    # column repeats a value; otherwise the tie check is skipped.
    may_tie = not data.distinct
    x_flat = data.x_flat
    n_trees = len(counts)
    labels = np.broadcast_to(y, (n_trees, n_rows)).ravel()
    bootstrap = counts[0].dtype != bool
    selected = np.concatenate(counts)
    keys, sizes = np.flatnonzero(selected), np.array([np.count_nonzero(c) for c in counts])
    draws = selected.astype(float) if bootstrap else None
    row_w = None if draws is None else draws[keys]
    # What the split search sums: each key's label times its weight.
    weighted_labels = labels if draws is None else labels * draws
    sample_size = np.full(n_trees, n_rows) if bootstrap else sizes
    if partition:
        block = data.root_block(counts) if scratch is None else scratch.root_block
        column_at = data.all_columns * n_rows  # where each column starts in x_flat

    capacity = 2 * keys.size - n_trees  # binary trees over their rows
    feature = np.full(capacity, -1, dtype=np.intp)
    threshold = np.zeros(capacity)
    left = np.full(capacity, -1, dtype=np.intp)
    value = np.zeros(capacity + 1)
    gain = np.zeros(capacity)
    # Each (tree, row)'s deepest node so far; a row outside a subset tree
    # keeps the last entry of value, 0.
    leaf = None if bootstrap else np.full(n_trees * n_rows, capacity)

    def buffer(name, shape, dtype):
        """An ``out`` array on the scratch buffer ``name``, or ``None`` (a
        new array) without a scratch."""
        return None if scratch is None else scratch.view(name, shape, dtype)

    def take(values, at, name):
        """``values.take(at)``, into ``buffer(name, ...)``."""
        return values.take(at, out=buffer(name, at.shape, values.dtype), mode="clip")

    def settle(keys, row_w, sizes, ids, depth):
        """Set leaf values; returns which nodes may split, their weights and
        their weighted label sums."""
        ys = labels[keys]
        starts = sizes.cumsum() - sizes
        if row_w is None:
            weights, weighted = sizes, ys
        else:
            weights, weighted = np.add.reduceat(row_w, starts), row_w * ys
        may_split = (weights >= 2 * min_leaf) & (
            np.minimum.reduceat(ys, starts) != np.maximum.reduceat(ys, starts)
        )
        if max_depth is not None and depth >= max_depth:
            may_split[:] = False
        # Sums in ascending row order fix the leaf values' rounding.
        totals = _segment_sums(weighted, starts)
        value[ids] = totals / weights
        if leaf is not None:
            leaf[keys] = ids.repeat(sizes)
        return may_split, weights, totals

    ids = np.arange(n_trees)
    tree_of = ids
    n_made = n_trees
    depth = 0
    may_split, weights, totals = settle(keys, row_w, sizes, ids, depth)
    if not may_split.all():
        keep = may_split.repeat(sizes)
        keys = keys.compress(keep)
        if row_w is not None:
            row_w = row_w.compress(keep)
        if partition:
            block = block.compress(may_split.repeat(sizes * n_features))
        sizes, ids, tree_of, totals = (
            sizes[may_split], ids[may_split], tree_of[may_split], totals[may_split]
        )
        weights = sizes if row_w is None else weights[may_split]
    with np.errstate(divide="ignore", invalid="ignore"):
        while sizes.size:
            n_nodes = sizes.size
            starts = sizes.cumsum() - sizes
            columns = None  # every node searches every column
            if not partition:
                # Each tree draws for its nodes in creation (id) order, into
                # its rows of the keys: id order groups nodes by tree.
                per_tree_nodes = np.bincount(tree_of, minlength=n_trees).tolist()
                priority = np.empty((n_nodes, n_features))
                row = 0
                for t, k in enumerate(per_tree_nodes):
                    if k:
                        rngs[t].random(out=priority[row:row + k])
                        row += k
                columns = np.empty((n_nodes, n_candidates), dtype=np.intp)
                columns[np.argsort(ids)] = _smallest_keys(priority, n_candidates)
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
                    # Column f of node j starts at starts[j] * n_features + f * m[j].
                    first = (starts[sel] * n_features)[:, None] + searched * m[:, None]
                    spare = buffer("spare", (slot_row.shape[0], sel.size, n_features), np.intp)
                    at = np.add(first, slot_row[:, :, None], out=spare)
                    del spare
                    search = take(block, at, "search")
                    del at
                    # Block entries are keys: X is read at the key less its
                    # tree's offset.
                    ws = None if draws is None else take(draws, search, "ws")
                    ys = take(weighted_labels, search, "ys")
                    x_at = column_at - (tree_of[sel] * n_rows)[:, None]
                else:
                    searched = columns[sel]
                    local = keys.take(starts[sel] + slot_row) - tree_of[sel] * n_rows
                    local[slot_row < np.arange(m[0])[:, None]] = n_rows
                    search = data.sort_rows(local, searched)
                    entries = search + (tree_of[sel] * n_rows)[:, None]
                    ws = None if draws is None else take(draws, entries, "ws")
                    ys = take(weighted_labels, entries, "ys")
                    del entries
                    x_at = searched * n_rows
                # X at (slot, node, column) is x_flat[search + x_at[node, column]].
                ties = None
                if may_tie:
                    xs = x_flat.take(search + x_at)
                    ties = np.zeros(xs.shape, dtype=bool)
                    np.greater_equal(xs[:-1], xs[1:], out=ties[:-1])
                    del xs
                best[sel], column, slot = _best_splits(
                    ys, ws, m, m if ws is None else weights[sel], totals[sel], ties, min_leaf,
                    classification, buffer("spare", ys.shape, float),
                )
                del ties, ws, ys
                # Threshold: the midpoint of the values around the split,
                # or the lower one when the midpoint rounds up to the upper.
                nodes = np.arange(sel.size)
                chosen[sel] = column if partition else searched[nodes, column]
                at = x_at[nodes, column]
                lo = x_flat[at + search[slot, nodes, column]]
                hi = x_flat[at + search[slot + 1, nodes, column]]
                del search
                mid = (lo + hi) / 2.0
                cut[sel] = np.where(mid >= hi, lo, mid)
            split = np.isfinite(best)
            split_nodes = np.flatnonzero(split)
            n_split = split_nodes.size
            if n_split == 0:
                break

            # Impurity decrease from the node's weight, label sum and best
            # cost. For regression the cost is the bracket, children SSE =
            # sum(w*y^2) - bracket, and the sum of squares cancels from
            # node_imp - child_imp = bracket/w - (total/w)^2.
            split_ids = ids[split_nodes]
            w = weights[split_nodes].astype(float)
            total, cost = totals[split_nodes], best[split_nodes]
            if classification:
                decrease = 2.0 * total * (w - total) / (w * w) - 2.0 * cost / w
            else:
                mean = total / w
                decrease = cost / w - mean * mean
            gain[split_ids] = (
                w / sample_size[tree_of[split_nodes]] * np.maximum(0.0, decrease)
            )
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
            go_left = x_flat[(chosen - tree_of)[node_of] * n_rows + keys] <= cut[node_of]
            in_split = split[node_of]
            to_left = go_left & in_split
            n_left = np.bincount(node_of[to_left], minlength=n_nodes)[split_nodes]
            child_sizes = np.concatenate([n_left, sizes[split_nodes] - n_left])
            child_ids = np.concatenate([left_ids, left_ids + 1])
            to_right = ~go_left & in_split
            child_keys = np.concatenate([keys.compress(to_left), keys.compress(to_right)])
            if row_w is not None:
                row_w = np.concatenate([row_w.compress(to_left), row_w.compress(to_right)])
            depth += 1
            may_split, weights, totals = settle(child_keys, row_w, child_sizes, child_ids, depth)
            if not may_split.any():
                break

            keep = may_split.repeat(child_sizes)
            if partition:
                # Stable partition of the block, keeping only the children
                # that may split, in the order of the node arrays: each key
                # of the level gets a route code, 1 if its left child is
                # kept, 2 if its right one is, else 0 (dropped).
                code = keep.astype(np.int8)
                code[n_left.sum():] *= 2  # child_keys are the left ones first
                route = np.zeros(n_trees * n_rows, dtype=np.int8)
                route[child_keys] = code
                del code
                block_route = route.take(block)
                kept_sizes = child_sizes * may_split
                n_left_cells = int(kept_sizes[:n_split].sum()) * n_features
                child_shape = (int(kept_sizes.sum()) * n_features,)
                # Two buffers take turns: one holds the block being read.
                child_block = buffer(f"block{depth % 2}", child_shape, np.intp)
                if child_block is None:
                    child_block = np.empty(child_shape, dtype=np.intp)
                # ``take`` in "clip" mode writes into ``out`` unbuffered, which
                # ``compress`` (a "raise" mode take) does not.
                for half, out in (1, child_block[:n_left_cells]), (2, child_block[n_left_cells:]):
                    block.take((block_route == half).nonzero()[0], out=out, mode="clip")
                block = child_block
                del block_route, child_block
            keys = child_keys.compress(keep)
            if row_w is not None:
                row_w = row_w.compress(keep)
            child_trees = np.concatenate([tree_of[split_nodes]] * 2)
            sizes, ids, tree_of, totals = (
                child_sizes[may_split], child_ids[may_split],
                child_trees[may_split], totals[may_split],
            )
            weights = sizes if row_w is None else weights[may_split]

    nodes = _Grown(feature[:n_made].copy(), threshold[:n_made].copy(), left[:n_made].copy(),
                   value[:n_made].copy(), gain[:n_made].copy(), n_trees)
    return nodes, None if leaf is None else value[leaf].reshape(n_trees, n_rows)


class _Grown(NamedTuple):
    """One ``_grow_trees`` call's nodes, in creation order: tree ``t``'s root
    is node ``t``, and a split node's children are ``left`` and ``left + 1``
    (``left`` is -1 at a leaf). ``gain`` is each split's weighted impurity
    decrease."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    value: np.ndarray
    gain: np.ndarray
    trees: int


def _number(grown: list, n_features: int) -> tuple[list[Tree], np.ndarray]:
    """The trees of a fit's grower calls, in call order, and each tree's importance.

    Each tree is numbered as a depth-first grower popping the left child
    first numbers it: the root is 0, and the split node of pre-order rank
    ``k`` among its tree's split nodes has children ``2k + 1`` and ``2k + 2``.
    Every tree of the fit is numbered together, level by level: bottom-up,
    each node counts the split nodes under it; top-down, a left child's rank
    follows its parent's, and a right child's follows the left subtree's.
    A tree's importance sums its gains by feature in pre-order, which fixes
    its rounding. Returns the trees and a ``(trees, n_features)`` array.

    Empties ``grown``: each node field is joined when it is needed, its
    parts let go, and each work array dropped once spent, so a large fit
    does not hold its nodes once per work array.
    """
    sizes = [g.left.size for g in grown]
    first = np.cumsum(sizes) - sizes  # each call's first node
    roots = np.concatenate([np.arange(g.trees) + f for g, f in zip(grown, first.tolist())])
    parts = dict(zip(_Grown._fields, zip(*grown)))  # each field's arrays, call by call
    grown.clear()
    left = np.concatenate(parts.pop("left"))
    np.add(left, np.repeat(first, sizes), out=left, where=left >= 0)
    levels, frontier = [], roots
    while frontier.size:
        split = frontier.compress(left[frontier] >= 0)
        levels.append(split)
        frontier = np.concatenate([left[split], left[split] + 1])
    below = np.zeros(left.size, dtype=np.intp)  # split nodes in each node's subtree
    for split in reversed(levels):
        child = left[split]
        below[split] = 1 + below[child] + below[child + 1]
    rank = np.zeros(left.size, dtype=np.intp)  # pre-order rank among the tree's splits
    number = np.zeros(left.size, dtype=np.intp)  # the node's index in its tree
    tree = np.empty(left.size, dtype=np.intp)
    tree[roots] = np.arange(roots.size)
    for split in levels:
        child, r = left[split], rank[split]
        rank[child], rank[child + 1] = r + 1, r + 1 + below[child]
        number[child], number[child + 1] = 2 * r + 1, 2 * r + 2
        tree[child] = tree[child + 1] = tree[split]
    n_splits = below[roots]
    del left, below
    splits = np.concatenate(levels)
    del levels
    split_tree, split_rank = tree[splits], rank[splits]
    del rank
    ends = (2 * n_splits + 1).cumsum()  # each tree's last position, plus one
    position = ends - (2 * n_splits + 1)  # each tree's first
    number += position[tree]  # each node's position in the fit's trees end to end
    del tree
    new_left = np.full(number.size, -1, dtype=np.intp)
    new_left[number[splits]] = 2 * split_rank + 1
    new_right = np.where(new_left >= 0, new_left + 1, -1)
    # Split nodes by (tree, pre-order rank).
    in_order = np.empty(splits.size, dtype=np.intp)
    in_order[(n_splits.cumsum() - n_splits)[split_tree] + split_rank] = splits
    del splits, split_tree, split_rank
    feature = np.concatenate(parts.pop("feature"))
    importance = np.zeros((roots.size, n_features))
    np.add.at(importance, (np.repeat(np.arange(roots.size), n_splits), feature[in_order]),
              np.concatenate(parts.pop("gain"))[in_order])
    del in_order

    def placed(values: np.ndarray) -> np.ndarray:
        out = np.empty_like(values)
        out[number] = values
        return out

    f = placed(feature)
    del feature
    t = placed(np.concatenate(parts.pop("threshold")))
    v = placed(np.concatenate(parts.pop("value")))
    return [
        Tree(feature=f[a:b], threshold=t[a:b], left=new_left[a:b], right=new_right[a:b],
             value=v[a:b])
        for a, b in zip(position.tolist(), ends.tolist())
    ], importance


def _in_order_sum(rows: np.ndarray) -> np.ndarray:
    """``rows[0] + rows[1] + ...`` added in row order, as a loop adds them
    (``np.sum`` may add pairwise)."""
    return np.add.accumulate(rows, axis=0)[-1]


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

    def grow(at: slice):
        rngs = [
            np.random.default_rng(derive_seed(spec.seed, tree_index))
            for tree_index in range(at.start, at.stop)
        ]
        counts = [np.bincount(rng.integers(0, n, size=n), minlength=n) for rng in rngs]
        return _grow_trees(
            data, y, counts, rngs, max_depth, spec.min_samples_leaf,
            max_features, classification,
        )[0]

    groups = _groups(data, [n] * spec.n_trees, max_features)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            batches = list(pool.map(grow, groups))
    else:
        batches = [grow(at) for at in groups]
    trees, importance = _number(batches, data.n_features)
    return trees, _in_order_sum(importance) / spec.n_trees, 0.0


def _sigmoid(scores: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-scores))


def _groups(data: _Presorted, rows_per_tree: list, max_features: str) -> list[slice]:
    """Batches of consecutive trees (``rows_per_tree[t]`` root rows each) whose
    roots search at most ``_BATCH_CELLS`` cells together, one tree at least."""
    searched = _n_searched(max_features, data.n_features)
    groups, start, cells = [], 0, 0
    for t, rows in enumerate(rows_per_tree):
        if t > start and cells + searched * rows > _BATCH_CELLS:
            groups.append(slice(start, t))
            start, cells = t, 0
        cells += searched * rows
    groups.append(slice(start, len(rows_per_tree)))
    return groups


def _boost(spec: ModelSpec, data: _Presorted, y: np.ndarray, masks: list, seeds: list):
    """Gradient boosting of one model per fold, every fold's round grown together.

    ``masks[i]`` marks fold ``i``'s rows of ``data`` (``train`` passes one
    all-true mask) and ``seeds[i]`` its spec seed. Round ``t`` grows each
    group of folds (``_groups``) in one ``_grow_trees`` call: fold
    ``i``'s tree is a subset tree on its rows, fit to its own row of
    residuals, so each fold boosts as if alone on ``X[masks[i]]``. Scores,
    residuals and fitted values are ``(folds, rows)`` arrays; a row outside
    a fold keeps the fold's base score. Returns ``(trees, raw importance,
    base score)`` per fold.
    """
    classification = spec.task == "classification"
    max_depth = spec.resolved_max_depth()
    max_features = spec.resolved_max_features()
    bases = []
    for mask in masks:
        fold_y = y[mask]
        if classification:
            p = min(max(float(fold_y.mean()), 1e-12), 1.0 - 1e-12)
            bases.append(math.log(p / (1.0 - p)))
        else:
            bases.append(float(fold_y.mean()))
    scores = np.repeat(np.array(bases)[:, None], data.n_rows, axis=1)
    rngs = [np.random.default_rng(derive_seed(seed, "gbt")) for seed in seeds]
    partition = _n_searched(max_features, data.n_features) == data.n_features
    # Each group's root block and level buffers serve every round.
    groups = [
        (at, masks[at], rngs[at], _Scratch(data.root_block(masks[at]) if partition else None))
        for at in _groups(data, [int(np.count_nonzero(m)) for m in masks], max_features)
    ]

    grown = []
    fitted = np.empty_like(scores)
    for _ in range(spec.n_trees):
        residual = y - _sigmoid(scores) if classification else y - scores
        for at, counts, group_rngs, scratch in groups:
            # Trees are fit to the gradient with the regression criterion.
            nodes, fitted[at] = _grow_trees(
                data, residual[at], counts, group_rngs, max_depth, spec.min_samples_leaf,
                max_features, False, scratch,
            )
            grown.append(nodes)
        scores = scores + spec.learning_rate * fitted  # each fold's tree walked on its rows
    # Tree t * folds + i is fold i's tree of round t.
    n_folds = len(masks)
    trees, importance = _number(grown, data.n_features)
    importance = _in_order_sum(importance.reshape(spec.n_trees, n_folds, -1))
    return [
        (trees[i::n_folds], importance[i] / spec.n_trees, bases[i]) for i in range(n_folds)
    ]


_LABEL_SUM_LIMIT = 2.0 ** 512


def _checked(spec: ModelSpec, X, y) -> tuple[np.ndarray, tuple[str, ...], np.ndarray]:
    """The feature matrix, its column names and the labels, validated."""
    matrix, names = _as_matrix(X)
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] != matrix.shape[0]:
        raise ValueError(
            f"labels ({y.shape}) do not match feature rows ({matrix.shape[0]})"
        )
    if matrix.shape[0] < 2:
        raise ValueError("training requires at least 2 rows")
    if matrix.shape[1] == 0:
        raise ValueError("training requires at least one feature column")
    _require_finite(matrix, "features")
    _require_finite(y, "labels")
    if spec.task == "classification" and not np.all(np.isin(y, (0.0, 1.0))):
        raise ValueError("classification labels must be 0 or 1")
    if spec.task == "regression":
        # A weighted label or residual sum of the split search is at most
        # max|y| * 2 * rows; below 2^512 (the square root of the largest
        # float) its square is finite. Past it every split cost can be inf,
        # and every tree would be a single leaf.
        largest = float(np.abs(y).max())
        if largest * 2 * y.size >= _LABEL_SUM_LIMIT:
            raise ValueError(
                f"regression labels too large: max |label| {largest:.6g} times 2 x "
                f"{y.size} rows reaches 2^512, where split costs overflow"
            )
    if names is None:
        names = tuple(f"x{i}" for i in range(matrix.shape[1]))
    return matrix, tuple(names), y


def _model(spec, names, trees, raw_importance, base) -> TrainedModel:
    total = raw_importance.sum()
    importance = raw_importance / total if total > 0 else np.zeros_like(raw_importance)
    return TrainedModel(
        spec=spec, feature_names=names, trees=trees, importance=importance, base_score=base,
    )


def train(spec: ModelSpec, X, y, threads: int = 1) -> TrainedModel:
    """Fit the configured ensemble; deterministic for a fixed spec seed."""
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    matrix, names, y = _checked(spec, X, y)
    if spec.kind == "RF":
        grown = _train_rf(spec, matrix, y, threads)
    else:
        [grown] = _boost(spec, _Presorted(matrix), y, [np.ones(y.size, dtype=bool)], [spec.seed])
    return _model(spec, names, *grown)


def boost_folds(spec: ModelSpec, X, y, folds) -> list[TrainedModel]:
    """Gradient-boosted models, one per ``(seed, rows)`` fold, boosted together.

    Fold ``i``'s model equals ``train(replace(spec, seed=seed), X[rows],
    y[rows])`` bit for bit, where ``rows`` are strictly increasing row ids
    of ``X``; ``X`` and ``y`` are validated whole. Rows that no fold
    trains on are left out of the fit, which keeps the presort and each
    round's arrays to the rows some fold reads.
    """
    if spec.kind != "GBT":
        raise ValueError(f"boost_folds fits gradient boosting, not {spec.kind!r}")
    matrix, names, y = _checked(spec, X, y)
    if not folds:
        raise ValueError("no folds to fit")
    n = matrix.shape[0]
    seeds, masks = [], []
    for seed, rows in folds:
        rows = np.asarray(rows)
        if rows.ndim != 1 or rows.dtype.kind not in "iu":
            raise ValueError(
                f"fold rows must be a 1-D integer array, got {rows.dtype} {rows.shape}"
            )
        if rows.size < 2:
            raise ValueError("training requires at least 2 rows")
        if rows[0] < 0 or rows[-1] >= n or (rows[1:] <= rows[:-1]).any():
            raise ValueError(f"fold rows must be strictly increasing row ids below {n}")
        mask = np.zeros(n, dtype=bool)
        mask[rows] = True
        seeds.append(seed)
        masks.append(mask)
    used = np.logical_or.reduce(masks)
    if not used.all():  # rows that no fold trains on are left out
        masks = [mask[used] for mask in masks]
        matrix, y = matrix[used], y[used]
    grown = _boost(spec, _Presorted(matrix), y, masks, seeds)
    return [_model(replace(spec, seed=seed), names, *fit) for seed, fit in zip(seeds, grown)]


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
    trees = model.trees
    sizes = [tree.feature.size for tree in trees]
    roots = np.cumsum(sizes) - sizes
    feature, threshold, left, right, value = (
        np.concatenate([getattr(tree, name) for tree in trees]) for name in _NODE_ARRAYS
    )
    offset = np.repeat(roots, sizes)
    left = np.where(left >= 0, left + offset, -1)
    right = np.where(right >= 0, right + offset, -1)
    n_rows = matrix.shape[0]
    scores = np.empty(n_rows)
    # Blocks of rows keep a block's (tree, row) arrays within the cell
    # budget. Each row's outputs are added in tree order, whatever its block.
    step = max(1, _BATCH_CELLS // len(trees))
    for start in range(0, n_rows, step):
        stop = start + step
        outputs = value[_walk(feature, threshold, left, right, roots, matrix[start:stop])]
        if model.spec.kind == "RF":
            if model.spec.task == "classification":
                outputs = (outputs > 0.5).astype(float)
            scores[start:stop] = _in_order_sum(outputs) / len(trees)
        else:
            outputs *= model.spec.learning_rate
            outputs[0] += model.base_score
            scores[start:stop] = _in_order_sum(outputs)
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
        # The same bytes as json.dump, which streams through the pure-Python encoder.
        fh.write(json.dumps(payload))


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


# JSON values are exactly these types, so ``type(v) in _NUMBER`` refuses
# booleans, strings and null.
_INTEGER, _NUMBER = (int,), (int, float)
_NODE_ARRAYS = ("feature", "threshold", "left", "right", "value")


def _finite_number(value) -> float:
    if type(value) not in _NUMBER:
        raise TypeError(f"{json.dumps(value)} is not a number")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{number} is not finite")
    return number


def _json_list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def _node_array(tree: dict, name: str) -> np.ndarray:
    """A tree's node array ``name``; ``ValueError`` names a node whose entry
    is not an integer (feature, left, right) or a number."""
    types = _INTEGER if name in ("feature", "left", "right") else _NUMBER
    entries = _json_list(tree[name])
    for node, entry in enumerate(entries):
        if type(entry) not in types:
            kind = "an integer" if types is _INTEGER else "a number"
            raise ValueError(f"node {node}: {name} {json.dumps(entry)} is not {kind}")
    return np.array(entries, dtype=np.intp if types is _INTEGER else float)


def _name_tuple(value) -> tuple[str, ...]:
    names = tuple(_json_list(value))
    if not all(isinstance(name, str) for name in names):
        raise TypeError("expected a list of strings")
    return names


# The JSON types of each ``spec`` field; a boolean is never a number.
_SPEC_TYPES = {
    "kind": ((str,), "a string"),
    "task": ((str,), "a string"),
    "n_trees": (_INTEGER, "an integer"),
    "max_depth": ((int, type(None)), "an integer or null"),
    "learning_rate": (_NUMBER, "a number"),
    "max_features": ((str, type(None)), "a string or null"),
    "min_samples_leaf": (_INTEGER, "an integer"),
    "seed": (_INTEGER, "an integer"),
}


def _model_spec(spec) -> ModelSpec:
    if not isinstance(spec, dict):
        raise TypeError(f"expected an object, got {type(spec).__name__}")
    for name, value in spec.items():
        if name in _SPEC_TYPES:  # ModelSpec refuses any other name
            types, kind = _SPEC_TYPES[name]
            if type(value) not in types:
                raise TypeError(f"{name} {json.dumps(value)} is not {kind}")
    return ModelSpec(**spec)


# Each field of a model file and the conversion that must accept it.
_MODEL_FIELDS = (
    ("spec", _model_spec),
    ("feature_names", _name_tuple),
    ("trees", _json_list),
    ("importance", lambda values: np.array([_finite_number(v) for v in _json_list(values)])),
    ("base_score", _finite_number),
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
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: bad {key!r} ({exc})") from None
    spec, feature_names = fields["spec"], fields["feature_names"]
    if len(fields["trees"]) != spec.n_trees:
        raise ValueError(f"{path}: {len(fields['trees'])} trees, but n_trees is {spec.n_trees}")
    trees = []
    for index, t in enumerate(fields["trees"]):
        try:
            tree = Tree(**{name: _node_array(t, name) for name in _NODE_ARRAYS})
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"{path}: tree {index}: malformed arrays ({exc})") from None
        except ValueError as exc:
            raise ValueError(f"{path}: tree {index}: {exc}") from None
        defect = _tree_defect(tree, len(feature_names))
        if defect is not None:
            raise ValueError(f"{path}: tree {index}: {defect}")
        trees.append(tree)
    importance = fields["importance"]
    if importance.shape != (len(feature_names),):
        raise ValueError(
            f"{path}: {importance.size} importance values for {len(feature_names)} features"
        )
    if (importance < 0).any():
        raise ValueError(f"{path}: bad 'importance' ({importance.min()} is negative)")
    return TrainedModel(
        spec=spec,
        feature_names=feature_names,
        trees=trees,
        importance=importance,
        base_score=fields["base_score"],
    )
