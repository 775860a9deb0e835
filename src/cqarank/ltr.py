"""LambdaMART learning to rank: deltaNDCG-scaled pairwise lambda gradients,
Newton-step regression trees, gradient boosting, and LETOR file IO.

Training is fully deterministic: no row or feature subsampling, stable sort
orders everywhere, and split gains equal as floats broken by lowest feature
index then lowest threshold. Two features that cut a node's rows into the
same two sets add their cumulative sums in different orders, so their gains
can differ in the last bits; the higher gain then wins, whatever its feature.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

import numpy as np

from .corpus import strict_numeric, text_lines
from .evaluation import ndcg_at_k

LEAF_RIDGE = 1e-9
MIN_SPLIT_GAIN = 1e-12


@dataclass(frozen=True)
class RankingInstance:
    query_id: str
    doc_id: str
    features: tuple[float, ...]
    label: int

    def __post_init__(self) -> None:
        if self.label not in (0, 1, 2):
            raise ValueError(f"label must be in {{0,1,2}}, got {self.label}")


@dataclass(frozen=True)
class TrainConfig:
    trees: int
    leaves: int
    learning_rate: float
    min_leaf_instances: int
    ndcg_truncation: int

    def __post_init__(self) -> None:
        if min(self.trees, self.leaves, self.min_leaf_instances,
               self.ndcg_truncation) < 1:
            raise ValueError("all training parameters must be positive")
        if not 0 < self.learning_rate < math.inf:  # false for nan too
            raise ValueError(f"learning rate {self.learning_rate!r} is not "
                             f"positive and finite")


class RegressionTree:
    """Binary regression tree over feature vectors.

    Nodes are stored in parallel arrays; `feature[i] == -1` marks a leaf.
    Routing rule: x[feature] <= threshold goes left.
    """

    def __init__(self) -> None:
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

    def _add_leaf(self, value: float) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        return len(self.feature) - 1

    def _make_split(self, node: int, feat: int, thr: float,
                    left: int, right: int) -> None:
        self.feature[node] = feat
        self.threshold[node] = thr
        self.left[node] = left
        self.right[node] = right
        self.value[node] = 0.0

    @cached_property
    def _router(self) -> "_Router":
        return _Router([self])

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        """The leaf value every row of X reaches. The routing tables are
        built on the first call and kept, so call it on a finished tree."""
        return self._router.leaf_values(np.asarray(X, dtype=np.float64))[0]

    def preorder(self):
        """The node numbers in preorder: each split, then its left subtree,
        then its right one."""
        stack = [0]
        while stack:
            node = stack.pop()
            yield node
            if self.feature[node] != -1:
                stack += (self.right[node], self.left[node])

    def to_lines(self) -> list[str]:
        """Preorder serialization: "S <feat> <thr>" / "L <value>"."""
        return [f"L {self.value[node]!r}" if self.feature[node] == -1
                else f"S {self.feature[node]} {self.threshold[node]!r}"
                for node in self.preorder()]

    @classmethod
    def from_lines(cls, lines, feature_count: int) -> "RegressionTree":
        """Inverse of to_lines over any iterable of node lines, each checked
        as it is read: a malformed line, a split feature outside
        [0, feature_count), a value that is not finite, lines that end before
        the tree does and a line after its last node raise ValueError."""
        tree = cls()
        waiting = []  # splits whose right child is still to come
        lines = iter(lines)
        for line in lines:
            fields = _node_fields(line, feature_count)
            node = tree._add_leaf(fields[0] if len(fields) == 1 else 0.0)
            if node and tree.feature[node - 1] == -1:  # a node after a leaf
                tree.right[waiting.pop()] = node  # is a right child
            if len(fields) == 2:  # preorder: a split's left child is next
                tree._make_split(node, *fields, node + 1, -1)
                waiting.append(node)
            elif not waiting:
                if next(lines, None) is not None:
                    raise ValueError("a line after the tree's last node")
                return tree
        raise ValueError("truncated tree serialization")


def _node_fields(line: str, feature_count: int) -> tuple:
    """(value,) of a leaf line "L <value>", (feature, threshold) of a split
    line "S <feature> <threshold>"."""
    parts = strict_numeric(line).split()
    if parts[:1] == ["L"] and len(parts) == 2:
        fields = (float(parts[1]),)
    elif parts[:1] == ["S"] and len(parts) == 3:
        fields = int(parts[1]), float(parts[2])
        if not 0 <= fields[0] < feature_count:
            raise ValueError(f"split feature {fields[0]} outside [0, {feature_count})")
    else:
        raise ValueError(f"bad tree node line: {line!r}")
    if not math.isfinite(fields[-1]):
        raise ValueError("threshold or leaf value is not finite")
    return fields


_WORD_BITS = 64
_ALL_SET = np.uint64(2**_WORD_BITS - 1)


def _leaf_layout(tree: RegressionTree):
    """The tree's leaf values left to right, and for each split its
    feature, threshold and the range [lo, hi) of the leaves of its left
    subtree in that numbering."""
    first = {}  # each node's first leaf: the leaves numbered before it
    values = []
    for node in tree.preorder():
        first[node] = len(values)
        if tree.feature[node] == -1:
            values.append(tree.value[node])
    # the right subtree's leaves follow the left subtree's
    splits = [(tree.feature[node], tree.threshold[node], lo, first[tree.right[node]])
              for node, lo in first.items() if tree.feature[node] != -1]
    return values, splits


class _Router:
    """The exit leaf of every row in every tree, by the QuickScorer rule
    (Lucchese et al., SIGIR 2015).

    A tree's leaves, numbered left to right, are the bits of a bitvector of
    ceil(leaves / 64) words. A row that fails a split's test
    x[feature] <= threshold goes right, so it cannot exit in that split's
    left subtree, and the split's mask clears those leaves. ANDing the
    masks of every split of the tree the row fails, wherever they lie,
    leaves the exit leaf as the lowest set bit: each leaf left of it lies
    in the left subtree of a split on the row's path that the row failed,
    and the exit leaf lies in no failed split's left subtree. So each split
    is tested once per row, with no walk from node to node. The tables hold
    one mask per split and one value per leaf, so they grow linearly with
    the trees, whatever their shape.

    Every tree gets the same number of split slots; a slot it does not use
    holds a mask that clears nothing.
    """

    def __init__(self, trees) -> None:
        layouts = [_leaf_layout(tree) for tree in trees]
        n_trees = len(layouts)
        n_slots = max(len(splits) for _, splits in layouts) or 1
        n_leaves = max(len(values) for values, _ in layouts)
        n_words = -(-n_leaves // _WORD_BITS)
        # rows go on the last axis, so the tables broadcast over them
        self.feature = np.zeros((n_trees, n_slots), dtype=np.intp)
        self.threshold = np.zeros((n_trees, n_slots, 1), dtype=np.float64)
        self.mask = np.full((n_trees, n_slots, n_words, 1), _ALL_SET)
        value = np.zeros((n_trees, n_leaves), dtype=np.float64)
        all_set = (1 << n_words * _WORD_BITS) - 1
        for t, (values, splits) in enumerate(layouts):
            value[t, :len(values)] = values
            for s, (feat, thr, lo, hi) in enumerate(splits):
                mask = all_set ^ ((1 << hi) - (1 << lo))
                self.feature[t, s] = feat
                self.threshold[t, s] = thr
                self.mask[t, s, :, 0] = [(mask >> (_WORD_BITS * w)) & int(_ALL_SET)
                                         for w in range(n_words)]
        self.value = value.ravel()
        self.first_leaf = np.arange(n_trees)[:, None] * n_leaves

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """The value of the leaf each row of X exits in each tree, as a
        (trees, rows) array."""
        go_left = X.T[self.feature] <= self.threshold  # (trees, slots, rows)
        words = np.bitwise_and.reduce(
            np.where(go_left[:, :, None, :], _ALL_SET, self.mask), axis=1)
        # popcount(~v & (v - 1)) counts the zeros below v's lowest set bit,
        # 64 in an empty word; a word's count adds while the words below it
        # are empty
        below = np.bitwise_count(~words & (words - np.uint64(1))).astype(np.intp)
        leaf = below[:, 0]
        for w in range(1, words.shape[1]):
            leaf = leaf + below[:, w] * (words[:, :w] == 0).all(axis=1)
        return self.value[leaf + self.first_leaf]


@dataclass
class LambdaMARTModel:
    trees: list[RegressionTree]
    shrinkage: float
    feature_count: int
    config: TrainConfig
    seed: int
    training_ndcg: list[float] = field(default_factory=list)

    def predict(self, features) -> float:
        """The score of one feature vector."""
        return float(self.predict_matrix(np.array([features]))[0])

    @cached_property
    def _router(self) -> _Router:
        return _Router(self.trees)

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        """The score of every row: every tree routes every row at once, and
        their shrunk outputs are added in tree order, starting from 0. The
        routing tables are built on the first call and kept."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.feature_count:
            raise ValueError(
                f"expected {self.feature_count} features, got shape {X.shape}")
        if not self.trees:
            return np.zeros(X.shape[0], dtype=np.float64)
        steps = self.shrinkage * self._router.leaf_values(X)
        # cumsum adds the trees in order; + 0.0 is the starting 0 (-0.0 -> 0.0)
        return np.cumsum(steps, axis=0, out=steps)[-1] + 0.0

    def save(self, path) -> None:
        cfg = self.config
        with open(path, "w", encoding="utf-8") as f:
            f.write("cqarank-lambdamart-v1\n")
            f.write(f"feature_count {self.feature_count}\n")
            f.write(f"shrinkage {self.shrinkage!r}\n")
            f.write(f"config {cfg.trees} {cfg.leaves} {cfg.learning_rate!r} "
                    f"{cfg.min_leaf_instances} {cfg.ndcg_truncation}\n")
            f.write(f"seed {self.seed}\n")
            f.write(f"num_trees {len(self.trees)}\n")
            for i, tree in enumerate(self.trees):
                lines = tree.to_lines()
                f.write(f"tree {i} {len(lines)}\n")
                for line in lines:
                    f.write(line + "\n")

    @classmethod
    def load(cls, path) -> "LambdaMARTModel":
        """Read a model written by save(), parsing each line as it is read.
        A malformed or truncated file, a tree of more nodes than
        `config.leaves` leaves can have, a split feature outside
        [0, feature_count), or a non-finite shrinkage, threshold or leaf
        value raises ValueError naming the path and line."""
        with text_lines(path, whole=True) as lines:

            def take(key: str, *kinds) -> list:
                """The next line as `key` and one value of each kind."""
                parts = next(lines, "").split()
                if parts[:1] != [key] or len(parts) != len(kinds) + 1:
                    raise ValueError(f"expected '{key}' and {len(kinds)} value(s)")
                return [kind(strict_numeric(v)) for kind, v in zip(kinds, parts[1:])]

            if next(lines, "") != "cqarank-lambdamart-v1":
                raise ValueError("not a cqarank LambdaMART model")
            (feature_count,) = take("feature_count", int)
            (shrinkage,) = take("shrinkage", float)
            if not math.isfinite(shrinkage):
                raise ValueError("shrinkage is not finite")
            config = TrainConfig(*take("config", int, int, float, int, int))
            (seed,) = take("seed", int)
            most = 2 * config.leaves - 1  # the nodes of a tree of config.leaves leaves
            trees = []
            for _ in range(take("num_trees", int)[0]):
                i, n_lines = take("tree", int, int)
                if not 1 <= n_lines <= most:
                    raise ValueError(f"tree {i} has {n_lines} node lines, outside "
                                     f"[1, {most}] for {config.leaves} leaves")
                trees.append(RegressionTree.from_lines(islice(lines, n_lines),
                                                       feature_count))
                if len(trees[-1].feature) < n_lines:  # the file ends after the tree
                    raise ValueError(f"tree {i} has {len(trees[-1].feature)} node lines, "
                                     f"not {n_lines}")
            if next(lines, None) is not None:
                raise ValueError("unexpected line after the last tree")
        return cls(trees=trees, shrinkage=shrinkage, feature_count=feature_count,
                   config=config, seed=seed)


def _ideal_dcg(labels: np.ndarray, k: int) -> float:
    top = np.sort(labels)[::-1][:k]
    gains = (2.0 ** top) - 1.0
    discounts = 1.0 / np.log2(1.0 + np.arange(1, len(top) + 1))
    return float((gains * discounts).sum())


@dataclass(frozen=True)
class _Queries:
    """The rows of a set of queries and their preference pairs, as flat
    arrays. A query's labels, and so its pairs and ideal DCG, never change
    during training, so `train` builds this once."""
    query: np.ndarray  # each row's query number
    rank: np.ndarray  # 1-based rank in its query of each row of the query-sorted order
    ideal_dcg: np.ndarray  # each query's ideal DCG@k
    first: np.ndarray  # each preference pair's higher-labelled row
    second: np.ndarray  # and its lower-labelled row in the same query


def _index_queries(groups: list[np.ndarray], labels: np.ndarray, k: int) -> _Queries:
    """`groups` holds each query's row indices. A query whose ideal DCG is 0
    gets no pairs."""
    query = np.empty(len(labels), dtype=np.int64)
    ideal = np.zeros(len(groups))
    first, second = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for q, rows in enumerate(groups):
        query[rows] = q
        grades = labels[rows]
        ideal[q] = _ideal_dcg(grades, k)
        if ideal[q] != 0.0:
            i, j = np.nonzero(grades[:, None] > grades[None, :])
            first.append(rows[i])
            second.append(rows[j])
    sizes = np.bincount(query, minlength=len(groups))
    rank = np.arange(1, len(labels) + 1) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return _Queries(query=query, rank=rank, ideal_dcg=ideal,
                    first=np.concatenate(first), second=np.concatenate(second))


def compute_lambdas(scores, labels, truncation: int, *,
                    queries: _Queries | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise lambda gradients and hessians for one query, or, given the
    `queries` that `train` builds once from `labels`, for every query at once.

    For every pair with label_i > label_j in the same query:
      rho = 1/(1 + exp(score_i - score_j))
      lambda_i += |deltaNDCG@k(i,j)| * rho,  lambda_j -= the same
      hessian  += |deltaNDCG@k(i,j)| * rho * (1 - rho)  on both docs
    deltaNDCG comes from swapping i and j in the current score-sorted order
    of their query, ties in input order. np.bincount adds the pairs up in
    their fixed order.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape or scores.ndim != 1 or len(scores) < 1:
        raise ValueError("scores and labels must be equal-length 1-d arrays")
    n = len(scores)
    if queries is None:
        queries = _index_queries([np.arange(n)], labels, truncation)
    # each row's rank in its query by descending score; lexsort is stable,
    # so ties keep input order
    pos = np.empty(n, dtype=np.int64)
    pos[np.lexsort((-scores, queries.query))] = queries.rank
    disc = np.where(pos <= truncation, 1.0 / np.log2(1.0 + pos), 0.0)
    gains = (2.0 ** labels) - 1.0
    i, j = queries.first, queries.second
    d = scores[i] - scores[j]
    e = np.exp(-np.abs(d))
    rho = np.where(d >= 0, e, 1.0) / (1.0 + e)
    step = (np.abs((gains[i] - gains[j]) * (disc[i] - disc[j]))
            / queries.ideal_dcg[queries.query[i]]) * rho
    curve = step * (1.0 - rho)
    lam = np.bincount(i, step, n) - np.bincount(j, step, n)
    hess = np.bincount(i, curve, n) + np.bincount(j, curve, n)
    return lam, hess


def _column_order(X: np.ndarray) -> np.ndarray:
    """Each feature's row indices in ascending value order, ties by row
    index: a (features, rows) array."""
    return np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)


def _best_split(g: np.ndarray, rows: np.ndarray, column_order: np.ndarray,
                sorted_values: np.ndarray, min_leaf: int):
    """Best (gain, feature, threshold, left_rows, right_rows) for the node
    holding `rows`; None when no split satisfies the min-leaf constraint
    with positive gain. Each feature's node rows are picked out of its
    `column_order` row, already in value order; nothing is sorted."""
    n = len(rows)
    if n < 2 * min_leaf:
        return None
    in_node = np.zeros(column_order.shape[1], dtype=bool)
    in_node[rows] = True
    total = g[rows].sum()
    parent = total * total / n
    # a cut after sorted position i leaves i + 1 rows on the left; it must
    # fall between two distinct values, with min_leaf rows on each side
    lo, hi = min_leaf - 1, n - min_leaf
    n_left = np.arange(lo + 1, hi + 1)
    best = None
    for feat, (order, values) in enumerate(zip(column_order, sorted_values)):
        keep = in_node[order]
        node_order = order[keep]
        sv = values[keep]
        left_sum = np.cumsum(g[node_order])[lo:hi]
        right_sum = total - left_sum
        gain = np.where(
            sv[lo:hi] < sv[lo + 1:hi + 1],
            left_sum ** 2 / n_left + right_sum ** 2 / (n - n_left) - parent,
            -np.inf)
        i = int(np.argmax(gain))  # first max: lowest threshold on ties
        if gain[i] <= MIN_SPLIT_GAIN or best is not None and gain[i] <= best[0]:
            continue  # equal gains keep the lowest feature
        cut = lo + i
        thr = float((sv[cut] + sv[cut + 1]) / 2.0)
        if thr >= sv[cut + 1]:  # midpoint of adjacent floats can round up
            thr = float(sv[cut])
        best = (float(gain[i]), feat, thr, node_order[:cut + 1], node_order[cut + 1:])
    return best


def fit_tree(X, lambdas, hessians, max_leaves: int, min_leaf: int, *,
             column_order: np.ndarray | None = None) -> RegressionTree:
    """Greedy best-first variance-reduction tree on the lambda targets.

    Leaf values are Newton steps: sum(lambda) / (sum(hessian) + ridge).
    `column_order` is `_column_order(X)`, which `train` sorts once for all
    its trees.
    """
    X = np.asarray(X, dtype=np.float64)
    g = np.asarray(lambdas, dtype=np.float64)
    h = np.asarray(hessians, dtype=np.float64)
    if column_order is None:
        column_order = _column_order(X)
    sorted_values = X[column_order, np.arange(X.shape[1])[:, None]]
    tree = RegressionTree()

    def leaf_value(rows) -> float:
        return float(g[rows].sum() / (h[rows].sum() + LEAF_RIDGE))

    root_rows = np.arange(X.shape[0])
    root = tree._add_leaf(leaf_value(root_rows))
    if X.shape[0] < min_leaf:
        return tree

    # candidates: (gain, creation_seq, node_id, split); best gain expands first,
    # creation order breaks exact gain ties deterministically
    candidates = []
    seq = 0
    split = _best_split(g, root_rows, column_order, sorted_values, min_leaf)
    if split is not None:
        candidates.append((split[0], seq, root, split))
    leaves = 1
    while candidates and leaves < max_leaves:
        candidates.sort(key=lambda c: (-c[0], c[1]))
        _, _, node, (gain, feat, thr, left_rows, right_rows) = candidates.pop(0)
        left = tree._add_leaf(leaf_value(left_rows))
        right = tree._add_leaf(leaf_value(right_rows))
        tree._make_split(node, feat, thr, left, right)
        leaves += 1
        for child, child_rows in ((left, left_rows), (right, right_rows)):
            child_split = _best_split(g, child_rows, column_order, sorted_values, min_leaf)
            if child_split is not None:
                seq += 1
                candidates.append((child_split[0], seq, child, child_split))
    return tree


def train(dataset, config: TrainConfig, seed: int = 0) -> LambdaMARTModel:
    """Boost `config.trees` rounds of lambda-gradient trees over the pooled
    per-query rows. Deterministic given the dataset order.

    After each tree, `training_ndcg` gets the mean over queries of
    `ndcg_at_k`, the measure the report uses, of the rows ranked by
    descending score (ties in input order)."""
    dataset = list(dataset)
    if not dataset:
        raise ValueError("empty dataset")
    n_features = len(dataset[0].features)
    for inst in dataset:
        if len(inst.features) != n_features:
            raise ValueError("inconsistent feature lengths in dataset")
    labels = np.array([inst.label for inst in dataset], dtype=np.int64)
    if np.all(labels == labels[0]):
        raise ValueError("no preference signal")

    X = np.array([inst.features for inst in dataset], dtype=np.float64)
    groups: dict[str, list[int]] = {}
    for i, inst in enumerate(dataset):
        groups.setdefault(inst.query_id, []).append(i)
    group_idx = [np.array(rows, dtype=np.int64) for rows in groups.values()]
    # each query's grades, keyed by its rows' positions within the query
    group_grades = [dict(enumerate(labels[rows].tolist())) for rows in group_idx]

    scores = np.zeros(len(dataset), dtype=np.float64)
    trees: list[RegressionTree] = []
    training_ndcg: list[float] = []
    k = config.ndcg_truncation
    queries = _index_queries(group_idx, labels, k)
    columns = _column_order(X)
    for _ in range(config.trees):
        lam, hess = compute_lambdas(scores, labels, k, queries=queries)
        tree = fit_tree(X, lam, hess, config.leaves, config.min_leaf_instances,
                        column_order=columns)
        trees.append(tree)
        scores += config.learning_rate * tree.predict_matrix(X)
        training_ndcg.append(float(np.mean([
            ndcg_at_k(np.argsort(-scores[rows], kind="stable").tolist(), grades, k)
            for rows, grades in zip(group_idx, group_grades)])))

    return LambdaMARTModel(trees=trees, shrinkage=config.learning_rate,
                           feature_count=n_features, config=config, seed=seed,
                           training_ndcg=training_ndcg)


def write_letor(dataset, path) -> None:
    """One instance per line: `<label> qid:<qid> <i>:<float> ... #<docid>`."""
    with open(path, "w", encoding="utf-8") as f:
        for inst in dataset:
            feats = " ".join(f"{i + 1}:{v!r}" for i, v in enumerate(inst.features))
            f.write(f"{inst.label} qid:{inst.query_id} {feats} #{inst.doc_id}\n")


def read_letor(path) -> list[RankingInstance]:
    """Rows as write_letor writes them. A last line without its newline
    raises ValueError naming the path and line: a file cut inside its last
    line can still parse, with the doc id cut short."""
    dataset: list[RankingInstance] = []
    n_features = None
    with text_lines(path, whole=True) as lines:
        for line in lines:
            if "#" not in line:
                raise ValueError("missing #<docid> comment")
            body, doc_id = line.split("#", 1)
            doc_id = doc_id.strip()
            if not doc_id:
                raise ValueError("empty doc id")
            parts = body.split()
            if len(parts) < 2 or not parts[1].startswith("qid:"):
                raise ValueError("expected '<label> qid:<qid> ...'")
            try:
                label = int(strict_numeric(parts[0]))
            except ValueError:
                raise ValueError(f"bad label {parts[0]!r}") from None
            features = []
            for rank, item in enumerate(parts[2:], start=1):
                idx_s, _, val_s = item.partition(":")
                try:
                    idx = int(strict_numeric(idx_s))
                    val = float(strict_numeric(val_s))
                except ValueError:
                    raise ValueError(f"bad feature token {item!r}") from None
                if idx != rank:
                    raise ValueError(
                        f"feature indices must be 1-based and strictly "
                        f"ascending (saw {idx}, expected {rank})")
                features.append(val)
            if not features:
                raise ValueError("no features")
            if n_features is None:
                n_features = len(features)
            elif len(features) != n_features:
                raise ValueError(f"expected {n_features} features, "
                                 f"got {len(features)}")
            dataset.append(RankingInstance(
                query_id=parts[1][len("qid:"):], doc_id=doc_id,
                features=tuple(features), label=label))
    return dataset
