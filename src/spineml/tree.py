"""CART decision trees and extremely randomized trees.

A tree is a set of parallel node arrays (the layout of Louppe 2014,
*Understanding Random Forests*, ch. 5). Node 0 is the root. For node i,
`feature[i]` and `threshold[i]` hold its split, `left[i]` and `right[i]`
its children (−1 at a leaf, where the feature is −1 and the threshold
NaN), and `counts[i]` the class counts of the training rows that reached
it, so any node can act as a leaf under stricter limits. Children are
numbered in the depth-first order of their parents' splits, right child
first: the k-th split gives its node the children 2k + 1 and 2k + 2.

One grower builds a batch of trees in lockstep from a split rule. A CART
step hands the rule every pending node of every tree, the whole frontier,
so a batch grows level by level, as in SLIQ (Mehta, Agrawal & Rissanen
1996): a split depends only on its node's rows, so the order the nodes
are asked in changes no split. The node ids and the importance sums do
depend on it, so both are rebuilt at the end in each tree's depth-first
order. A forest's step takes only the next node of each tree in that
order, since its draws come from each tree's stream node by node. A step
too large for its row cap leaves some nodes to the next steps. The
grower's state is arrays: the trees' root rows lie end to end in one
array, each node owns a range of it that its split partitions stably, and
the pending nodes are rows of one array. The CART rule takes, at
every node, the midpoint between consecutive distinct values of a feature
with the largest weighted impurity decrease; ties go to the lower feature,
then the lower threshold. It scores all nodes of a step in one segmented
numpy pass, so a grid search grows the trees of all its (criterion,
min_samples_leaf, fold) triples as one batch, and `dt_fit` is a batch of
one. Trees of one criterion on equal root rows share a node while their
growths agree, and the node is held once with its member trees: the rule
sorts and scores its cuts once, and each member takes the best cut of its
own window, the sorted positions that leave min_samples_leaf rows on each
side. Members that pick one cut share the children; a member that picks
another partitions the node's rows into its own tree's range. A tree's
pick under a looser limit that also meets a stricter one is that tree's
pick under the stricter one too, ties included, so a grid's three
min_samples_leaf trees of a (fold, criterion) share their nodes until one
tree's best cut leaves another too few rows. Extremely randomized trees
(Geurts et al. 2006) grow one batch per forest, on the full sample, or
one batch for many forests on trains of one width (`extratrees_fit_batch`),
their rows end to end and each forest's trees rooted at its own: each
node draws from its tree's own stream `max_features` candidate features
without replacement, then a uniform threshold inside each non-constant
candidate's node-local range. The ranges, CART's impurity decrease and the
pick of the best, ties to the lower feature, are one numpy pass per step.
Tree t draws the values of numpy's `choice(d, max_features,
replace=False)` and `random(k)` on `default_rng(SeedSequence((seed, t)))`,
but from no generator: `streams._Draws` makes all trees' draws of a step
at once from the raw words of PCG64s seeded by one vectorized hash. So
they follow numpy's `choice` algorithm, Floyd's for d ≤ 10 000 or
max_features ≤ d // 50; a forest that needs the other one is refused.

Routing sends x[feature] ≤ threshold to the left child. Batch routing
takes each row down its full tree once, all rows of all trees one level per
step, keeping its node at each depth. Under a (max_depth, min_samples_split)
pair a row stops at the first node on that path that is a leaf, is at depth
max_depth, or holds fewer than min_samples_split training rows. A row's
label is its node's majority class (ties to the lower label).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, predictor_input
from .errors import EmptyTrainingSetError
from .schema import typed
from .streams import _Draws, _entropy, _rng_words

_MIN_DECREASE = 1e-12

CRITERIA = ("gini", "entropy")

# The least value of each CART limit; max_depth may also be None (no limit).
DT_LIMITS = {"max_depth": 0, "min_samples_split": 2, "min_samples_leaf": 1}


def _binary_impurity(n, c1, criterion: str):
    """Vectorized two-class impurity from a node size and its class-1 count."""
    n = np.asarray(n, dtype=float)
    p1 = np.asarray(c1, dtype=float) / np.where(n > 0, n, 1.0)  # an empty node has c1 = 0
    p0 = 1.0 - p1
    if criterion == "gini":
        return 1.0 - p0 * p0 - p1 * p1
    out = 0.0
    for p in (p0, p1):
        out = out - p * np.log2(p + (p == 0))  # an absent class adds 0 · log2(1)
    return out


@dataclass(frozen=True)
class DecisionTreeModel:
    feature: np.ndarray  # (nodes,) split feature, −1 at a leaf
    threshold: np.ndarray  # (nodes,) split threshold, NaN at a leaf
    left: np.ndarray  # (nodes,) left child, −1 at a leaf
    right: np.ndarray  # (nodes,) right child, −1 at a leaf
    counts: np.ndarray  # (nodes, 2) training class counts
    criterion: str
    max_depth: int | None
    min_samples_split: int
    min_samples_leaf: int
    feature_importances: np.ndarray
    n_features: int


def _node_arrays(counts, splits) -> dict:
    """A tree's node arrays from its class counts in node-id order and its
    (node, feature, threshold) splits in the order made; split k gives its
    node the children 2k + 1 and 2k + 2."""
    counts, splits = np.array(counts, dtype=float), np.array(splits, dtype=float).reshape(-1, 3)
    n = 2 * len(splits) + 1
    if counts.shape != (n, 2):
        raise ValueError("node counts must be pairs")
    node = splits[:, 0].astype(np.intp)
    feature, threshold, left, right = np.full(n, -1), np.full(n, np.nan), np.full(n, -1), np.full(n, -1)
    feature[node], threshold[node], left[node] = splits[:, 1], splits[:, 2], np.arange(1, n, 2)
    right[node] = left[node] + 1
    return dict(feature=feature, threshold=threshold, left=left, right=right, counts=counts)


def _decrease(parent, m, c1, n_left, c1_left, criterion: str):
    """Impurity decrease of sending `n_left` rows, `c1_left` of them class 1,
    left from a node of `m` rows (`c1` of class 1) and impurity `parent`;
    vectorized over candidate splits."""
    n_right = m - n_left
    return parent - (
        n_left * _binary_impurity(n_left, c1_left, criterion)
        + n_right * _binary_impurity(n_right, c1 - c1_left, criterion)
    ) / m


# Upper bound on the rows × columns × 8 bytes of one float64 array of a split
# rule: each scores a step's nodes in blocks of whole nodes that stay under it.
_CHUNK_BYTES = 2**18


def _blocked(score, cap: int):
    """The split rule that hands `score` a step's nodes in blocks of whole
    nodes, each of at most `cap` rows unless one node alone has more, with all
    their members, as the block's own (trees, node, counts, rows, seg,
    starts), and joins the blocks' per-member (feature, threshold, decrease)
    arrays."""
    def split(trees, node, counts, rows, seg, starts):
        ends, parts, a = np.append(starts[1:], rows.size), [], 0
        while a < starts.size:  # a block takes nodes while they fit under cap rows
            z = max(a + 1, int(np.searchsorted(ends, starts[a] + cap, side="right")))
            lo, hi = starts[a], ends[z - 1]
            ma, mz = np.searchsorted(node, (a, z))
            parts.append(score(trees[ma:mz], node[ma:mz] - a, counts[a:z], rows[lo:hi], seg[lo:hi] - a,
                               starts[a:z] - lo))
            a = z
        return map(np.concatenate, zip(*parts))

    return split


def _cart_split(X, y, criteria, min_samples_leaf):
    """The CART rule of a batch whose tree t uses `criteria[t]` and
    `min_samples_leaf[t]`; the members of a node share a criterion. A block of
    nodes is sorted per column by node, then by value, in one sort of (node,
    value rank) keys: the order of tied values cannot move a cut, since cuts
    lie only between distinct values. The class-1 count left of a cut is one
    cumsum minus its node's base. A node's cuts are scored once, those that
    leave its least leaf limit on each side; each member then takes the first
    best cut of its own window of sorted positions, those that leave its own
    limit on each side. A limit above 2**62, more rows than any node holds
    (roots may repeat rows), is taken as 2**62, which also forbids every cut,
    so that the window arithmetic stays in int64."""
    n, d = X.shape
    entropy, is_one = np.array(criteria) == "entropy", y == 1
    min_leaf = np.array([min(leaf, 2**62) for leaf in min_samples_leaf], dtype=np.int64)
    rank = np.stack([np.unique(col, return_inverse=True)[1] for col in X.T])  # (d, n)

    def score(trees, node, counts, rows, seg, starts):  # arrays are (d, block rows)
        sizes, pos = np.append(starts[1:], rows.size) - starts, np.arange(rows.size)
        leaf, head = min_leaf[trees], np.searchsorted(node, np.arange(starts.size))
        least = np.minimum.reduceat(leaf, head)[seg]
        key = rank[:, rows] + seg * n
        order = np.argsort(key, axis=1)
        key = np.take_along_axis(key, order, axis=1)
        # a cut lies between distinct ranks, which are distinct values since rows are finite
        valid = np.zeros(key.shape, dtype=bool)
        np.greater(key[:, 1:], key[:, :-1], out=valid[:, :-1])
        n_left = pos - starts[seg] + 1.0
        valid &= (n_left >= least) & (sizes[seg] - n_left >= least)
        cum = np.cumsum(is_one[rows][order], axis=1)
        before = cum[:, starts] - is_one[rows[order[:, starts]]]  # (d, nodes) class-1 rows before each node
        c, r = np.nonzero(valid)  # only valid cuts are scored
        nd, m, c1, ent = seg[r], sizes.astype(float), counts[:, 1], entropy[trees[head]]
        c1_left = (cum[c, r] - before[c, nd]).astype(float)
        del key, cum, valid  # before the decrease, the block's peak
        decrease = np.full((d, rows.size + 1), -np.inf)  # the last column ends a window at the block's end
        for criterion, at in (("gini", ~ent[nd]), ("entropy", ent[nd])):
            if at.any():  # a block of one criterion's nodes skips the other
                b, parent = nd[at], _binary_impurity(m, c1, criterion)
                decrease[c[at], r[at]] = _decrease(parent[b], m[b], c1[b], n_left[r[at]], c1_left[at], criterion)
        # member i may cut after the positions lo[i] ≤ p < hi[i], which leave
        # it leaf[i] rows or more on each side
        lo, hi = starts[node] + leaf - 1, starts[node] + sizes[node] - leaf
        feature, threshold, best = np.full(trees.size, -1), np.full(trees.size, np.nan), np.full(trees.size, -np.inf)
        i = np.flatnonzero(lo < hi)
        col_best = np.maximum.reduceat(decrease, np.stack([lo[i], hi[i]], axis=1).ravel(), axis=1)[:, ::2]
        j = np.argmax(col_best, axis=0)  # first max: lowest feature
        best[i] = col_best[j, np.arange(i.size)]
        ok = best[i] > _MIN_DECREASE
        i, j, lo, hi = i[ok], j[ok], lo[i[ok]], hi[i[ok]]
        width = hi - lo
        w_starts = np.cumsum(width) - width
        w = np.repeat(np.arange(i.size), width)
        p = np.arange(w.size) + (lo - w_starts)[w]
        first = np.minimum.reduceat(np.where(decrease[j[w], p] == best[i][w], p, rows.size), w_starts)
        # first is the lowest threshold, and first + 1 is in the node
        below, above = X[rows[order[j, first]], j], X[rows[order[j, first + 1]], j]
        feature[i], threshold[i] = j, (below + above) / 2.0
        return feature, threshold, best

    # A level-by-level step fills its blocks with small nodes whose every cut
    # is scored, where the rule's peak is about 16 block-sized arrays (4.1 MB
    # for 256 KB ones), so CART's blocks take half the rows the bound allows.
    return _blocked(score, max(1, _CHUNK_BYTES // (16 * d)))


# The rows one grower step takes, unless its largest node alone has more: a
# step that would take more leaves some nodes to later steps, which changes
# no tree, since a node's split depends only on its own rows.
_STEP_ROWS = 2**18


def _grows(size, depth, c1, max_depth, min_samples_split):
    """Which nodes the grower asks the split rule about: impure ones inside the limits."""
    return ((depth < max_depth if max_depth is not None else True) & (size >= min_samples_split)
            & (c1 > 0) & (c1 < size))


def _grow(X, y, split, roots, max_depth=None, min_samples_split=2, depth_first=False, kinds=None):
    """Grow one tree per root row set in lockstep. Trees of one kind
    (`kinds[t]`; no two trees share without kinds) on equal root rows share
    each node their growths reach alike: it is asked about once, with its
    member trees. Each step asks `split(trees, node, counts, rows, seg,
    starts)` about pending nodes (member i: tree `trees[i]` at node
    `node[i]`, members grouped by node; node b: class counts `counts[b]`;
    `rows` holds the nodes' rows end to end, node b's from `starts[b]`, and
    `seg` the node of each) for per-member (feature, threshold, decrease)
    arrays, feature −1 for a leaf. Members that pick one cut share its
    children. Only impure nodes inside the limits are pending. A CART step
    takes every pending node of every tree, the whole frontier, so a batch
    grows level by level. A `depth_first` step, the forest's, whose draws
    follow each tree's node order, takes the next node of each tree, right
    child first. A CART step takes at most `_STEP_ROWS` rows besides its
    largest node, a forest step a sixteenth of that, the smallest nodes
    first, each with all its members; the rest wait.

    Returns ((root counts, splits), importances): the (trees, 2) root class
    counts, the (trees, d) normalized impurity-decrease importances, and,
    for CART, the splits in each tree's depth-first order (`_preorder`); a
    forest keeps none, only each tree's importance sums.

    The trees' root rows lie end to end in one array, and a node owns a
    range of it, in the range of its lowest member tree at the offsets its
    rows have in each member; a split reorders the range stably into the
    left rows, then the right. Members that pick another cut than the lowest
    one write their partition at their own lowest tree's offsets. The pending
    nodes are (tree, start, end, depth, class-1 count, ref) rows, one per
    member, a node's members together in tree order, ref being 2 · (parent
    split) + side (0 left, 1 right), or −1 − tree at a root.
    """
    n_trees, d = len(roots), X.shape[1]
    sizes = np.array([len(r) for r in roots], dtype=np.intp)
    # row ids in the least dtype that holds them: it is the grower's largest array
    perm = np.concatenate([np.zeros(0, np.intp), *roots]).astype(np.min_scalar_type(X.shape[0]))
    is_one = y == 1
    root_c1 = np.array([np.count_nonzero(is_one[r]) for r in roots], dtype=np.intp)
    raw = np.zeros((n_trees, d))
    t, ends = np.arange(n_trees), np.cumsum(sizes)
    base = ends - sizes
    lead, firsts = t.copy(), {}  # a tree's root is the first one of its kind on equal rows
    for i, (kind, r) in enumerate(zip(kinds, roots) if kinds is not None else ()):
        lead[i] = firsts.setdefault((kind, np.asarray(r, np.intp).tobytes()), i)
    pool = np.stack([t, base[lead], base[lead] + sizes, 0 * t, root_c1, -1 - t], axis=1)
    pool = pool[np.argsort(base[lead], kind="stable")]
    pool = pool[_grows(pool[:, 2] - pool[:, 1], 0, pool[:, 4], max_depth, min_samples_split)]
    shared = bool((lead != t).any())  # else every node has one member
    made, n_made = [(np.zeros((0, 6), np.int32), np.zeros((0, 2)))], 0  # per step: the splits' records
    # A forest's first steps hold the roots of all its trees, or of a batch
    # of forests: a sixteenth of a CART step's rows at a time (16 384) keeps
    # a batch's peak memory near one forest's.
    step_rows = _STEP_ROWS // 16 if depth_first else _STEP_ROWS

    def partition(rows, seg, starts, at, feature, threshold):
        """Reorder node b's rows, `rows` from `starts[b]`, into `perm` from
        `at[b]` by its split: its left rows, then its right rows, each in
        order (a stable sort on (node, side), a radix sort on ≤ 16-bit keys).
        Returns the nodes' left row and class-1 counts."""
        go_left = X[rows, feature[seg]] <= threshold[seg]
        side = (2 * seg + ~go_left).astype(np.min_scalar_type(2 * starts.size))
        perm[np.arange(seg.size) + (at - starts)[seg]] = rows[np.argsort(side, kind="stable")]
        return np.add.reduceat(go_left, starts), np.add.reduceat(go_left & is_one[rows], starts)

    while len(pool):
        if depth_first:  # each tree's last pushed node, the top of its stack
            top = np.full(n_trees, -1)
            np.maximum.at(top, pool[:, 0], np.arange(len(pool)))
            pick = top[top >= 0]
        else:
            pick = np.arange(len(pool))
        picked = pool[pick]
        heads = np.ones(len(picked), dtype=bool)  # a node's first member
        if shared:
            heads[1:] = picked[1:, 1] != picked[:-1, 1]
        size = (picked[:, 2] - picked[:, 1])[heads]
        if size.sum() > step_rows:  # the largest node, and the others smallest first while they fit
            by_size = np.argsort(size, kind="stable")
            fit = np.cumsum(size[by_size]) <= step_rows
            fit[-1] = True
            keep = np.sort(by_size[fit])
            kept = np.isin(np.cumsum(heads) - 1, keep)  # each kept node's members
            pick, picked, heads, size = pick[kept], picked[kept], heads[kept], size[keep]
        wait = np.ones(len(pool), dtype=bool)
        wait[pick] = False
        (trees, lo, hi, depth, c1, ref), pool = picked.T, pool[wait]
        node, head = np.cumsum(heads) - 1, np.flatnonzero(heads)
        starts = np.cumsum(size) - size
        seg = np.repeat(np.arange(size.size), size)
        rows = perm[np.arange(seg.size) + (lo[head] - starts)[seg]].astype(np.intp)  # an index many times a step
        counts = np.array([size - c1[head], c1[head]], dtype=float).T
        feature, threshold, decrease = split(trees, node, counts, rows, seg, starts)
        # a node's rows are partitioned in place by its first member's pick
        f0, th0 = feature[head], threshold[head]
        n_left, c1_left = partition(rows, seg, starts, lo[head], f0, th0)
        s = np.flatnonzero(feature >= 0)
        b = node[s]
        t, f, m, c1 = trees[s], feature[s], size[b], c1[s]
        at, nl, l1 = lo[s], n_left[b], c1_left[b]
        # members that pick another cut take a copy of the node's rows, one
        # per (node, cut), partitioned at the offsets of their lowest tree
        parted = np.flatnonzero((f != f0[b]) | (threshold[s] != th0[b])) if shared else s[:0]
        if parted.size:  # g: each (node, cut)'s first member in tree order, a lexsort being stable
            cuts = np.stack([b[parted], f[parted], threshold[s[parted]]])
            by_cut = np.lexsort(cuts[::-1])
            parted, cuts = parted[by_cut], cuts[:, by_cut]
            new = np.ones(parted.size, dtype=bool)
            new[1:] = (cuts[:, 1:] != cuts[:, :-1]).any(axis=0)
            cut, g = np.cumsum(new) - 1, s[parted[new]]
            g_size = size[node[g]]
            g_starts = np.cumsum(g_size) - g_size
            g_seg = np.repeat(np.arange(g.size), g_size)
            g_at = lo[g] + base[trees[g]] - base[trees[head[node[g]]]]
            g_rows = rows[np.arange(g_seg.size) + (starts[node[g]] - g_starts)[g_seg]]
            g_nl, g_l1 = partition(g_rows, g_seg, g_starts, g_at, feature[g], threshold[g])
            at[parted], nl[parted], l1[parted] = g_at[cut], g_nl[cut], g_l1[cut]
        gain = (m / sizes[t]) * decrease[s]
        if depth_first:
            raw[t, f] += gain  # a tree splits once per step, so in the order made
        else:  # (ref, feature, left counts, right counts) and (threshold, gain)
            rec = np.stack([ref[s], f, nl - l1, l1, (m - nl) - (c1 - l1), c1 - l1], axis=1).astype(np.int32)
            made.append((rec, np.stack([threshold[s], gain], axis=1)))
        # the left children, then the right ones: a child's members together, in tree order
        k = 2 * (n_made + np.arange(s.size))
        kids = np.concatenate([np.stack([t, at, at + nl, depth[s] + 1, l1, k], axis=1),
                               np.stack([t, at + nl, at + m, depth[s] + 1, c1 - l1, k + 1], axis=1)])
        if parted.size:
            kids = kids[np.argsort(kids[:, 1], kind="stable")]
        n_made += s.size
        pool = np.concatenate([pool, kids[_grows(kids[:, 2] - kids[:, 1], kids[:, 3], kids[:, 4], max_depth,
                                                 min_samples_split)]])
    root_counts = np.stack([sizes - root_c1, root_c1], axis=1).astype(float)
    splits = None
    if not depth_first:  # each gain added in (tree, rank) order, as a depth-first grower adds it
        *splits, gain = _preorder(made, n_trees)
        np.add.at(raw, (splits[0], splits[2]), gain)
    totals = raw.sum(axis=1, keepdims=True)
    return (root_counts, splits), np.divide(raw, totals, out=raw, where=totals > 0)


def _preorder(made, n_trees: int):
    """The splits a level-by-level growth recorded per step, put back in
    each tree's depth-first order, right child first, as (tree, node,
    feature, threshold, (left counts, right counts), gain) arrays. The k-th
    split of a tree in that order gives its node the children 2k + 1 and
    2k + 2. Ranks come in one pass per level: a right child's rank is its
    parent's + 1, a left child's its parent's + 1 + the splits under its
    right sibling.
    """
    ints, floats = map(np.concatenate, zip(*made))
    ref, n = ints[:, 0], len(ints)
    inner = np.flatnonzero(ref >= 0)
    child = np.full(2 * n + 2, n)  # child[2k + side]: split k's child split there; n, a sentinel, for none
    child[ref[inner]] = inner
    child = child.reshape(-1, 2)
    levels = [np.flatnonzero(ref < 0)]  # the last one empty
    while levels[-1].size:
        kids = child[levels[-1]].ravel()
        levels.append(kids[kids < n])
    under = np.zeros(n + 1, dtype=np.intp)  # splits in each split's subtree, itself included; 0 at the sentinel
    for level in reversed(levels):
        under[level] = 1 + under[child[level]].sum(axis=1)
    tree, rank, node = (np.zeros(n + 1, dtype=np.intp) for _ in range(3))
    tree[levels[0]] = -1 - ref[levels[0]]
    for level in levels:  # the sentinel takes the writes of absent children
        left, right = child[level].T
        first = rank[level] + 1
        for kid, kid_rank, side in ((right, first, 2), (left, first + under[right], 1)):
            tree[kid], rank[kid], node[kid] = tree[level], kid_rank, 2 * rank[level] + side
    n_splits = np.bincount(tree[:n], minlength=n_trees)
    order = np.empty(n, dtype=np.intp)
    order[(np.cumsum(n_splits) - n_splits)[tree[:n]] + rank[:n]] = np.arange(n)
    ints, floats = ints[order], floats[order]
    return tree[order], node[order], ints[:, 1], floats[:, 0], ints[:, 2:], floats[:, 1]


def dt_fit_batch(train: Dataset, roots, criteria, min_samples_leaf, max_depth: int | None = None,
                 min_samples_split: int = 2) -> list[DecisionTreeModel]:
    """CART trees grown as one lockstep batch over `train`: tree t is
    `dt_fit(train.take(roots[t]), criteria[t], max_depth, min_samples_split,
    min_samples_leaf[t])`, and a tree on an empty root is a leaf. Trees of
    one criterion on equal roots share each node until their picks part: the
    rule sorts and scores it once, and each tree picks within its own
    min_samples_leaf."""
    lengths = len(roots), len(criteria), len(min_samples_leaf)
    if len(set(lengths)) > 1:
        raise ValueError("roots, criteria and min_samples_leaf must be one per tree, got lengths "
                         f"{', '.join(map(str, lengths))}")
    for criterion in criteria:
        if criterion not in CRITERIA:
            raise ValueError(f"unknown criterion: {criterion}")
    for name, value in (("max_depth", max_depth), ("min_samples_split", min_samples_split),
                        *(("min_samples_leaf", v) for v in min_samples_leaf)):
        if value is not None and value < DT_LIMITS[name]:
            raise ValueError(f"{name} must be ≥ {DT_LIMITS[name]}, got {value}")
    X, y = train.rows, train.labels
    (root_counts, (tree, *splits)), importances = _grow(X, y, _cart_split(X, y, criteria, min_samples_leaf),
                                                        roots, max_depth, min_samples_split, kinds=criteria)
    cuts = np.cumsum(np.bincount(tree, minlength=len(roots)))[:-1]
    arrays = [_node_arrays(np.concatenate([c[None], kids.reshape(-1, 2)]), np.stack([node, f, th], axis=1))
              for c, node, f, th, kids in zip(root_counts, *(np.split(a, cuts) for a in splits))]
    return [DecisionTreeModel(**a, criterion=c, max_depth=max_depth, min_samples_split=min_samples_split,
                              min_samples_leaf=msl, feature_importances=imp, n_features=X.shape[1])
            for a, c, msl, imp in zip(arrays, criteria, min_samples_leaf, importances)]


def dt_fit(train: Dataset, criterion: str = "gini", max_depth: int | None = None,
           min_samples_split: int = 2, min_samples_leaf: int = 1) -> DecisionTreeModel:
    if train.n == 0:
        raise EmptyTrainingSetError("cannot fit a tree on zero rows")
    return dt_fit_batch(train, [np.arange(train.n)], [criterion], [min_samples_leaf], max_depth,
                        min_samples_split)[0]


def _route(models, Xs, limits) -> np.ndarray:
    """The labels of the rows of each Xs[t] routed through models[t], rows of
    all models end to end: one row of labels per (max_depth,
    min_samples_split) pair of `limits`, all from one pass."""
    Xs = [predictor_input(X, model.n_features) for model, X in zip(models, Xs)]
    base = np.cumsum([0] + [m.left.size for m in models])[:-1]
    left, right = (np.concatenate([np.where(c >= 0, c + b, -1) for c, b in zip(children, base)])
                   for children in ([m.left for m in models], [m.right for m in models]))
    feature, threshold, counts = (np.concatenate([getattr(m, a) for m in models])
                                  for a in ("feature", "threshold", "counts"))
    X, node = np.concatenate(Xs), np.repeat(base, [X.shape[0] for X in Xs])
    path, rows = [node], np.arange(X.shape[0])
    while (rows := rows[left[node[rows]] >= 0]).size:
        at, node = node[rows], node.copy()
        node[rows] = np.where(X[rows, feature[at]] <= threshold[at], left[at], right[at])
        path.append(node)
    path = np.stack(path, axis=1)  # (rows, depth + 1); the last column holds only leaves
    splits, size, deepest = left >= 0, counts.sum(axis=1), path.shape[1] - 1
    stop = {s: np.argmin((splits & (size >= s))[path], axis=1) for s in {s for _, s in limits}}
    at = np.stack([np.minimum(stop[s], deepest if d is None else min(d, deepest)) for d, s in limits])
    return np.argmax(counts, axis=1)[path[np.arange(X.shape[0]), at]].astype(np.int64)


def dt_predict(model: DecisionTreeModel, x) -> tuple[int, float]:
    """Leaf majority label (ties to the lower label) and its count fraction,
    by a walk over one row."""
    x = predictor_input(x, model.n_features, ndim=1)
    node = 0
    while model.left[node] >= 0:
        go_left = x[model.feature[node]] <= model.threshold[node]
        node = model.left[node] if go_left else model.right[node]
    counts = model.counts[node]
    label = int(np.argmax(counts))
    return label, float(counts[label] / counts.sum())


def dt_predict_many(model: DecisionTreeModel, X: np.ndarray) -> np.ndarray:
    return _route([model], [X], [(None, 2)])[0]


def dt_to_dict(model: DecisionTreeModel) -> dict:
    """The tree as a JSON-ready dict of nested nodes: each node holds its
    counts, and a split also its feature, threshold, left and right."""
    nodes = [{"counts": c} for c in model.counts.tolist()]
    for i in np.flatnonzero(model.left >= 0).tolist():
        nodes[i].update(
            feature=int(model.feature[i]),
            threshold=float(model.threshold[i]),
            left=nodes[model.left[i]],
            right=nodes[model.right[i]],
        )
    return {
        "criterion": model.criterion,
        "max_depth": model.max_depth,
        "min_samples_split": model.min_samples_split,
        "min_samples_leaf": model.min_samples_leaf,
        "feature_importances": model.feature_importances.tolist(),
        "n_features": model.n_features,
        "root": nodes[0],
    }


def dt_from_dict(raw: dict) -> DecisionTreeModel:
    """Inverse of `dt_to_dict`; nodes get the ids the fit gave them."""
    if raw["criterion"] not in CRITERIA:
        raise ValueError(f"unknown criterion: {raw['criterion']!r}")
    n_features = typed(raw["n_features"], int, "n_features")
    counts, splits = [raw["root"]["counts"]], []
    stack = [(0, raw["root"])]
    while stack:
        node, entry = stack.pop()
        if "feature" in entry:
            feature, children = typed(entry["feature"], int, "feature"), (entry["left"], entry["right"])
            if not 0 <= feature < n_features:
                raise ValueError(f"split on feature {feature} of {n_features}")
            splits.append((node, feature, typed(entry["threshold"], float, "threshold")))
            stack += zip((len(counts), len(counts) + 1), children)
            counts += [c["counts"] for c in children]
    nodes = _node_arrays(typed(counts, float, "counts", array=True), splits)
    if not ((nodes["counts"] >= 0).all() and (nodes["counts"].sum(axis=1) > 0).all()):
        raise ValueError("node counts must be ≥ 0 with a positive sum")
    max_depth = raw["max_depth"]
    return DecisionTreeModel(
        **nodes,
        criterion=raw["criterion"],
        max_depth=None if max_depth is None else typed(max_depth, int, "max_depth"),
        min_samples_split=typed(raw["min_samples_split"], int, "min_samples_split"),
        min_samples_leaf=typed(raw["min_samples_leaf"], int, "min_samples_leaf"),
        feature_importances=typed(raw["feature_importances"], float, "feature_importances", array=True),
        n_features=n_features,
    )


def _extra_trees_importances(X, y, seeds: np.ndarray, max_features: int, roots=None) -> np.ndarray:
    """The (len(seeds), d) normalized importances of extremely randomized trees
    grown in lockstep, tree t on the rows `roots[t]` (every row by default),
    drawing from the stream of the words `seeds[t]`."""
    d = X.shape[1]
    size = min(max_features, d)
    if d > 10_000 and size > d // 50:  # numpy's choice draws these by another algorithm
        raise ValueError(f"max_features must be ≤ {d // 50} (d // 50) with more than 10 000 features, "
                         f"got {size}")
    draws = _Draws(seeds, max(1, _CHUNK_BYTES // (8 * len(seeds))))  # words read at once: all trees' in _CHUNK_BYTES
    candidates = np.zeros((len(seeds), size), dtype=np.int64)  # each tree's at the current step

    def random_split(trees, node, counts, rows, seg, starts):  # arrays are (block rows, size); node b is member b
        nodes = np.arange(len(trees))
        feats = candidates[trees]
        block = X[rows[:, None], feats[seg]]
        lo, hi = np.minimum.reduceat(block, starts), np.maximum.reduceat(block, starts)
        live = lo < hi  # a constant candidate draws no threshold
        # lo + (hi - lo) * random() is the value rng.uniform(lo, hi) draws
        thresholds = np.full(lo.shape, np.nan)
        thresholds[live] = lo[live] + (hi[live] - lo[live]) * draws.random(trees, live.sum(axis=1))
        go_left = block <= thresholds[seg]
        m = counts.sum(axis=1, keepdims=True)
        parent = 1.0 - ((counts / m) ** 2).sum(axis=1, keepdims=True)  # the node's gini
        n_left = np.add.reduceat(go_left, starts)
        c1_left = np.add.reduceat(go_left & (y[rows] == 1)[:, None], starts)
        decrease = np.where(live, _decrease(parent, m, counts[:, 1:], n_left, c1_left, "gini"), -np.inf)
        by_feature = np.argsort(feats, axis=1)  # score ties go to the lower feature
        k = by_feature[nodes, np.argmax(np.take_along_axis(decrease, by_feature, axis=1), axis=1)]
        best = decrease[nodes, k]
        return np.where(best > _MIN_DECREASE, feats[nodes, k], -1), thresholds[nodes, k], best

    blocked = _blocked(random_split, max(1, _CHUNK_BYTES // (8 * size)))

    def split(trees, node, counts, rows, seg, starts):
        # One draw of every tree's candidates per step, before its blocks
        # draw thresholds: each tree still draws its candidates first.
        candidates[trees] = draws.choice(trees, d, size)
        return blocked(trees, node, counts, rows, seg, starts)

    return _grow(X, y, split, [np.arange(X.shape[0])] * len(seeds) if roots is None else roots, depth_first=True)[1]


def extratrees_fit_batch(trains, seeds, n_trees: int = 100, max_features: int | None = None) -> np.ndarray:
    """The (forests, d) importances of seeded forests grown as one lockstep
    batch: row f is `extratrees_fit(trains[f], n_trees, max_features,
    seeds[f])`. The trains' rows lie end to end, each forest's trees rooted
    at its own, so the grower's fixed cost per step is paid once for all."""
    if len(trains) != len(seeds) or len({t.width for t in trains}) > 1:
        raise ValueError("forests need one seed each and trains of one width")
    if any(t.n == 0 for t in trains):
        raise EmptyTrainingSetError("cannot fit a forest on zero rows")
    if n_trees < 1:
        raise ValueError("n_trees must be ≥ 1")
    # default: ceil(sqrt(d))
    mf = max(1, math.isqrt(trains[0].width - 1) + 1) if max_features is None else max_features
    if mf < 1:
        raise ValueError("max_features must be ≥ 1")
    words = np.concatenate([_rng_words(np.array([_entropy(s, t) for t in range(n_trees)], dtype=np.uint32))
                            for s in seeds])
    ends = np.cumsum([t.n for t in trains])
    X, y = (np.concatenate([getattr(t, a) for t in trains]) for a in ("rows", "labels"))
    roots = [r for e, t in zip(ends, trains) for r in [np.arange(e - t.n, e)] * n_trees]
    # a lone forest's trees take every row, the default roots
    imp = _extra_trees_importances(X, y, words, mf, *([roots] if len(trains) > 1 else []))
    means = np.stack([forest.mean(axis=0) for forest in np.split(imp, len(trains))])
    totals = means.sum(axis=1, keepdims=True)
    return np.divide(means, totals, out=means, where=totals > 0)


def extratrees_fit(train: Dataset, n_trees: int = 100, max_features: int | None = None,
                   seed: int = 0) -> np.ndarray:
    """The (d,) feature importances of a seeded forest of extremely randomized
    trees: each tree's normalized importances, averaged over the trees and
    scaled to sum to 1 (all 0 when no tree splits)."""
    return extratrees_fit_batch([train], [seed], n_trees, max_features)[0]
