import math
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cqarank.ltr as ltr
import reference_scoring as ref
from cqarank.evaluation import Qrels, RankedRun, evaluate_run
from cqarank.ltr import (LambdaMARTModel, RankingInstance, RegressionTree,
                         TrainConfig, compute_lambdas, fit_tree, read_letor,
                         train, write_letor)
from reference_scoring import model_score, tree_value

# the stock configuration; a test that needs other values replaces them
CONFIG = TrainConfig(trees=50, leaves=4, learning_rate=0.2,
                     min_leaf_instances=30, ndcg_truncation=10)


def make_separable_dataset(n_queries=20, docs_per_query=10, seed=42):
    """label = 1 iff feature 1 > 0.5; other features are noise."""
    rng = random.Random(seed)
    dataset = []
    for q in range(n_queries):
        for d in range(docs_per_query):
            f1 = rng.random()
            feats = (f1, rng.random(), rng.random())
            dataset.append(RankingInstance(
                query_id=f"q{q}", doc_id=f"q{q}d{d}", features=feats,
                label=int(f1 > 0.5)))
    return dataset


class TestComputeLambdas:
    def test_equal_labels_give_zero(self):
        lam, hess = compute_lambdas([0.3, 0.9], [1, 1], truncation=10)
        assert np.all(lam == 0.0)
        assert np.all(hess == 0.0)

    def test_pairwise_antisymmetry(self):
        lam, _ = compute_lambdas([0.2, 0.7], [2, 0], truncation=10)
        assert lam[0] == pytest.approx(-lam[1])
        assert lam[0] > 0  # the label-2 doc is pushed up

    def test_delta_ndcg_of_swapped_pair(self):
        # current order puts the label-0 doc first; swapping restores ideal:
        # |delta| = 1 - 1/log2(3), ideal DCG@2 = 3
        scores = [0.1, 0.9]
        labels = [2, 0]
        lam, hess = compute_lambdas(scores, labels, truncation=2)
        delta = 1.0 - 1.0 / math.log2(3.0)
        assert delta == pytest.approx(0.369, abs=5e-4)
        rho = 1.0 / (1.0 + math.exp(scores[0] - scores[1]))
        assert lam[0] == pytest.approx(delta * rho, abs=1e-12)
        assert hess[0] == pytest.approx(delta * rho * (1 - rho), abs=1e-12)
        assert hess[1] == pytest.approx(hess[0], abs=1e-12)

    def test_per_query_sum_is_zero(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(2, 40)
            scores = [rng.uniform(-5, 5) for _ in range(n)]
            labels = [rng.choice([0, 1, 2]) for _ in range(n)]
            lam, _ = compute_lambdas(scores, labels, truncation=10)
            assert abs(float(lam.sum())) < 1e-9

    def test_large_score_gaps_are_stable(self):
        lam, hess = compute_lambdas([1000.0, -1000.0], [0, 2], truncation=2)
        assert np.all(np.isfinite(lam))
        assert np.all(np.isfinite(hess))

    def test_length_validation(self):
        with pytest.raises(ValueError):
            compute_lambdas([1.0], [0, 1], truncation=10)


class TestFitTree:
    def test_constant_lambdas_single_leaf(self):
        X = np.array([[0.1], [0.5], [0.9], [0.3]])
        lam = np.full(4, 2.0)
        hess = np.full(4, 1.0)
        tree = fit_tree(X, lam, hess, max_leaves=4, min_leaf=1)
        assert tree.feature.count(-1) == 1
        assert tree.predict_matrix([[0.5]]).tolist() == pytest.approx([8.0 / (4.0 + 1e-9)])

    def test_perfect_split_at_midpoint(self):
        X = np.array([[0.0], [0.2], [0.8], [1.0]])
        lam = np.array([-1.0, -1.0, 1.0, 1.0])
        hess = np.full(4, 1.0)
        tree = fit_tree(X, lam, hess, max_leaves=2, min_leaf=1)
        assert tree.feature.count(-1) == 2
        assert tree.feature[0] == 0
        assert tree.threshold[0] == pytest.approx(0.5)
        low, high = tree.predict_matrix([[0.1], [0.9]])
        assert low < 0 < high

    def test_gain_ties_go_to_the_lowest_feature_then_threshold(self):
        # cuts after rows 0 and 2 both gain 1 + 1/3, in both equal columns
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        tree = fit_tree(X, np.array([1.0, -1.0, -1.0, 1.0]), np.ones(4),
                        max_leaves=2, min_leaf=1)
        assert (tree.feature[0], tree.threshold[0]) == (0, 0.5)

    def test_leaf_cap(self):
        rng = np.random.RandomState(0)
        X = rng.rand(200, 3)
        lam = rng.randn(200)
        hess = np.abs(rng.rand(200)) + 0.1
        tree = fit_tree(X, lam, hess, max_leaves=4, min_leaf=5)
        assert tree.feature.count(-1) <= 4

    def test_min_leaf_respected(self):
        rng = np.random.RandomState(1)
        X = rng.rand(40, 2)
        lam = rng.randn(40)
        hess = np.ones(40)
        tree = fit_tree(X, lam, hess, max_leaves=8, min_leaf=15)
        # only one split can satisfy 15/15
        assert tree.feature.count(-1) <= 2

    def test_fewer_rows_than_min_leaf(self):
        X = np.array([[0.0], [1.0]])
        tree = fit_tree(X, np.array([1.0, -1.0]), np.ones(2),
                        max_leaves=4, min_leaf=30)
        assert tree.feature.count(-1) == 1


_PROPERTY = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@st.composite
def _query_rows(draw):
    """Rows of 1-8 queries of 1-12 rows each, interleaved. A query's labels
    come from one of {0}, {2} or {0, 1, 2}; scores repeat often, so ranks
    tie."""
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=8))
    query, labels = [], []
    for q, size in enumerate(sizes):
        grades = draw(st.sampled_from([[0], [2], [0, 1, 2]]))
        query += [q] * size
        labels += draw(st.lists(st.sampled_from(grades), min_size=size, max_size=size))
    order = draw(st.permutations(range(len(query))))
    score = st.sampled_from([-1.5, 0.0, 0.25, 3.0]) | st.floats(-40, 40)
    scores = draw(st.lists(score, min_size=len(query), max_size=len(query)))
    return (np.array(query)[order], np.array(labels)[order], np.array(scores),
            draw(st.integers(1, 12)))


class TestFlatLambdas:
    """compute_lambdas over every query at once against the per-query,
    block-by-block reference."""

    @_PROPERTY
    @given(case=_query_rows())
    def test_match_the_per_query_reference(self, case):
        query, labels, scores, k = case
        groups = [np.flatnonzero(query == q) for q in range(query.max() + 1)]
        lam, hess = compute_lambdas(scores, labels, k,
                                    queries=ltr._index_queries(groups, labels, k))
        for rows in groups:
            want_lam, want_hess = ref.query_lambdas(scores[rows], labels[rows], k)
            for got in (lam[rows], hess[rows]), compute_lambdas(scores[rows], labels[rows], k):
                np.testing.assert_allclose(got[0], want_lam, rtol=0, atol=1e-12)
                np.testing.assert_allclose(got[1], want_hess, rtol=0, atol=1e-12)
            assert abs(lam[rows].sum()) < 1e-9
            if len(set(labels[rows].tolist())) == 1:  # one row, or ideal DCG 0
                assert lam[rows].tolist() == hess[rows].tolist() == [0.0] * len(rows)


@st.composite
def _tie_free_nodes(draw):
    """Targets over 2-60 rows of 1-4 features, no value repeated within a
    feature, and the tree's leaf cap and min-leaf count."""
    n = draw(st.integers(2, 60))
    column = st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n, unique=True)
    X = np.array([draw(column) for _ in range(draw(st.integers(1, 4)))]).T
    g = np.array(draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n)))
    h = np.array(draw(st.lists(st.floats(0.1, 2), min_size=n, max_size=n)))
    return X, g, h, draw(st.integers(2, 8)), draw(st.integers(1, 10))


class TestPresortedSplits:
    @_PROPERTY
    @given(case=_tie_free_nodes())
    def test_same_splits_as_per_node_sorting(self, case):
        """Each node's rows are picked out of the column order sorted once;
        without value ties, that is the order a per-node sort gives."""
        X, g, h, max_leaves, min_leaf = case
        got = fit_tree(X, g, h, max_leaves, min_leaf)
        want = ref.fit_tree(X, g, h, max_leaves, min_leaf)
        assert (got.feature, got.threshold, got.left, got.right) == (
            want.feature, want.threshold, want.left, want.right)
        np.testing.assert_allclose(got.value, want.value, rtol=0, atol=1e-12)


class TestTraining:
    def test_calls_the_traced_names_once_per_tree(self, monkeypatch):
        """The benchmark times compute_lambdas and fit_tree by replacing
        them in the module; a train that stopped calling either name would
        leave its timing at 0."""
        calls = {}
        for name in ("compute_lambdas", "fit_tree"):
            def counted(*args, _name=name, _original=getattr(ltr, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(ltr, name, counted)
        config = replace(CONFIG, trees=7, min_leaf_instances=10)
        train(make_separable_dataset(n_queries=6), config, seed=0)
        assert calls == {"compute_lambdas": 7, "fit_tree": 7}

    def test_separable_dataset_reaches_perfect_ndcg(self):
        dataset = make_separable_dataset()
        model = train(dataset, CONFIG, seed=0)
        assert model.training_ndcg[-1] == pytest.approx(1.0)

    def test_training_ndcg_nearly_monotone(self):
        dataset = make_separable_dataset()
        model = train(dataset, CONFIG, seed=0)
        for prev, cur in zip(model.training_ndcg, model.training_ndcg[1:]):
            assert cur >= prev - 0.01

    def test_config_echo(self):
        dataset = make_separable_dataset(n_queries=8)
        model = train(dataset, CONFIG, seed=0)
        assert (model.config.trees, model.config.leaves,
                model.config.learning_rate,
                model.config.min_leaf_instances) == (50, 4, 0.2, 30)
        assert len(model.trees) == 50

    def test_single_query_direction(self):
        dataset = [
            RankingInstance("q0", "d0", (1.0, 0.0), 2),
            RankingInstance("q0", "d1", (0.0, 1.0), 0),
        ]
        config = replace(CONFIG, trees=10, leaves=2, min_leaf_instances=1)
        model = train(dataset, config, seed=0)
        assert model.predict((1.0, 0.0)) > model.predict((0.0, 1.0))

    def test_no_preference_signal(self):
        dataset = [RankingInstance("q0", "d0", (0.1,), 1),
                   RankingInstance("q1", "d1", (0.2,), 1)]
        with pytest.raises(ValueError, match="no preference signal"):
            train(dataset, CONFIG, seed=0)

    def test_training_ndcg_is_the_reports_ndcg(self):
        """Each tree's training NDCG is the report's NDCG@k of the training
        rows ranked by the model so far, ties in row order."""
        rng = random.Random(8)
        dataset = [RankingInstance(f"q{q}", f"d{d}", (rng.random(), rng.random()),
                                   rng.choice([0, 0, 1, 2]))
                   for q in range(12) for d in range(rng.randint(1, 25))]
        for trees in (1, 6):
            model = train(dataset, replace(CONFIG, trees=trees, min_leaf_instances=5),
                          seed=0)
            qrels, run = Qrels(), RankedRun()
            scores = model.predict_matrix([inst.features for inst in dataset])
            for q in dict.fromkeys(inst.query_id for inst in dataset):
                rows = [i for i, inst in enumerate(dataset) if inst.query_id == q]
                for i in rows:
                    qrels.add(q, dataset[i].doc_id, dataset[i].label)
                rows.sort(key=lambda i: -scores[i])
                run.add_query(q, [(dataset[i].doc_id, float(scores[i])) for i in rows])
            report = evaluate_run(run, qrels, CONFIG.ndcg_truncation, 1)
            assert model.training_ndcg[-1] == pytest.approx(report.ndcg_at_k,
                                                            rel=1e-12, abs=0.0)

    def test_deterministic(self):
        dataset = make_separable_dataset(n_queries=6)
        config = replace(CONFIG, trees=10, min_leaf_instances=10)
        m1 = train(dataset, config, seed=0)
        m2 = train(dataset, config, seed=0)
        for t1, t2 in zip(m1.trees, m2.trees):
            assert t1.to_lines() == t2.to_lines()


class TestPredict:
    def test_empty_model_scores_zero(self):
        model = LambdaMARTModel(trees=[], shrinkage=0.2, feature_count=3,
                                config=CONFIG, seed=0)
        assert model.predict((0.0, 0.0, 0.0)) == 0.0

    def test_single_leaf_shrinkage(self):
        tree = RegressionTree()
        tree._add_leaf(5.0)
        model = LambdaMARTModel(trees=[tree], shrinkage=0.2, feature_count=2,
                                config=CONFIG, seed=0)
        assert model.predict((0.1, 0.2)) == pytest.approx(1.0)

    def test_repeatable(self):
        dataset = make_separable_dataset(n_queries=5)
        model = train(dataset, replace(CONFIG, trees=5, min_leaf_instances=10), seed=0)
        x = (0.7, 0.1, 0.9)
        assert model.predict(x) == model.predict(x)

    def test_length_mismatch(self):
        model = LambdaMARTModel(trees=[], shrinkage=0.2, feature_count=3,
                                config=CONFIG, seed=0)
        with pytest.raises(ValueError):
            model.predict((1.0,))
        with pytest.raises(ValueError):
            model.predict_matrix(np.zeros((2, 2)))

    def test_zero_trees_predict_zeros(self):
        model = LambdaMARTModel(trees=[], shrinkage=0.2, feature_count=3,
                                config=CONFIG, seed=0)
        assert model.predict_matrix(np.ones((4, 3))).tolist() == [0.0] * 4
        assert model.predict_matrix(np.zeros((0, 3))).shape == (0,)

    def test_sum_starts_from_positive_zero(self):
        """Shrunk outputs add to 0.0, so leaves of -0.0 score +0.0."""
        stump = RegressionTree()
        stump._add_leaf(-0.0)
        model = LambdaMARTModel(trees=[stump, stump], shrinkage=0.2,
                                feature_count=1, config=CONFIG, seed=0)
        score = model.predict_matrix([[1.0]])[0]
        assert score == 0.0 and math.copysign(1.0, score) == 1.0

    def test_matrix_equals_per_row_predict(self):
        dataset = make_separable_dataset(n_queries=12)
        model = train(dataset, replace(CONFIG, trees=12, leaves=6,
                                       min_leaf_instances=5), seed=0)
        rng = random.Random(5)
        rows = [list(inst.features) for inst in dataset]
        # rows sitting exactly on a split threshold, and just either side
        for tree in model.trees:
            for feat, thr in zip(tree.feature, tree.threshold):
                if feat < 0:
                    continue
                for value in (thr, math.nextafter(thr, -math.inf),
                              math.nextafter(thr, math.inf)):
                    x = [rng.random() for _ in range(3)]
                    x[feat] = value
                    rows.append(x)
        stump = RegressionTree()
        stump._add_leaf(0.375)
        model.trees.append(stump)  # trees of different sizes share one stack
        X = np.array(rows)
        got = model.predict_matrix(X)
        want = [model_score(model, x) for x in rows]
        assert got.tolist() == want
        assert [model.predict(x) for x in rows] == want
        for tree in model.trees:
            assert tree.predict_matrix(X).tolist() == [tree_value(tree, x) for x in rows]
        assert model.predict_matrix(np.zeros((0, 3))).shape == (0,)


def _random_tree(rng: random.Random, leaves: int, n_features: int) -> RegressionTree:
    """A tree grown by splitting a random leaf until it has `leaves`;
    thresholds come from a few values so rows fall on them."""
    tree = RegressionTree()
    open_leaves = [tree._add_leaf(rng.uniform(-2, 2))]
    while len(open_leaves) < leaves:
        node = open_leaves.pop(rng.randrange(len(open_leaves)))
        left = tree._add_leaf(rng.uniform(-2, 2))
        right = tree._add_leaf(rng.uniform(-2, 2))
        tree._make_split(node, rng.randrange(n_features),
                         rng.choice([0.25, 0.5, 0.75]), left, right)
        open_leaves += [left, right]
    return tree


def _chain_tree(leaves: int, go_left: bool) -> RegressionTree:
    """Every split's other child is a leaf: a path of leaves - 1 splits
    down the left or the right, feature 0 at thresholds 0, 1, 2, ..."""
    tree = RegressionTree()
    node = tree._add_leaf(0.0)
    for depth in range(leaves - 1):
        follow = tree._add_leaf(0.0)
        stop = tree._add_leaf(float(depth))
        left, right = (follow, stop) if go_left else (stop, follow)
        thr = float(leaves - 2 - depth) if go_left else float(depth)
        tree._make_split(node, 0, thr, left, right)
        node = follow
    tree.value[node] = -1.0
    return tree


def _rows(rng: random.Random, n: int, n_features: int) -> np.ndarray:
    values = [0.0, 0.25, 0.5, 0.75, 1.0, math.nextafter(0.5, 1.0),
              math.nextafter(0.25, 0.0), -0.0]
    return np.array([[rng.choice(values) if rng.random() < 0.7 else rng.random()
                      for _ in range(n_features)] for _ in range(n)])


class TestRouting:
    """Both predict_matrix methods route through one bitvector router; each
    must equal walking every tree from its root, row by row."""

    @pytest.mark.parametrize("leaves", [1, 2, 4, 16, 70, 200])
    def test_random_trees(self, leaves):
        rng = random.Random(leaves)
        trees = [_random_tree(rng, leaves, 3) for _ in range(6)]
        if leaves > 1:
            trees.append(_random_tree(rng, 1, 3))  # trees of other sizes share the tables
        X = _rows(rng, 300, 3)
        rows = X.tolist()
        for tree in trees:
            assert tree.predict_matrix(X).tolist() == [tree_value(tree, x) for x in rows]
        model = LambdaMARTModel(trees=trees, shrinkage=0.3, feature_count=3,
                                config=CONFIG, seed=0)
        assert model.predict_matrix(X).tolist() == [model_score(model, x) for x in rows]

    @pytest.mark.parametrize("leaves", [2, 64, 65, 70, 130])
    @pytest.mark.parametrize("go_left", [False, True])
    def test_chain_trees(self, leaves, go_left):
        tree = _chain_tree(leaves, go_left)
        # every exit leaf, and the thresholds themselves
        X = np.arange(-1.0, leaves + 0.5, 0.5).reshape(-1, 1)
        rows = X.tolist()
        assert tree.predict_matrix(X).tolist() == [tree_value(tree, x) for x in rows]
        assert len(set(tree.predict_matrix(X).tolist())) == leaves
        model = LambdaMARTModel(trees=[tree, _chain_tree(3, not go_left)],
                                shrinkage=0.5, feature_count=1, config=CONFIG, seed=0)
        assert model.predict_matrix(X).tolist() == [model_score(model, x) for x in rows]

    def test_zero_trees_and_zero_rows(self):
        empty = LambdaMARTModel(trees=[], shrinkage=0.2, feature_count=2,
                                config=CONFIG, seed=0)
        assert empty.predict_matrix(np.ones((3, 2))).tolist() == [0.0] * 3
        assert empty.predict_matrix(np.zeros((0, 2))).shape == (0,)
        rng = random.Random(3)
        trees = [_random_tree(rng, 70, 2), _random_tree(rng, 1, 2)]
        model = LambdaMARTModel(trees=trees, shrinkage=0.2, feature_count=2,
                                config=CONFIG, seed=0)
        assert model.predict_matrix(np.zeros((0, 2))).shape == (0,)
        for tree in trees:
            assert tree.predict_matrix(np.zeros((0, 2))).shape == (0,)

    def test_nan_goes_right(self):
        tree = _chain_tree(3, go_left=True)
        X = np.array([[math.nan], [math.inf], [-math.inf]])
        assert tree.predict_matrix(X).tolist() == [tree_value(tree, x) for x in X.tolist()]

    def test_tables_grow_with_the_splits(self):
        """A 130-leaf chain takes three 64-bit words per split, not a table
        indexed by split outcomes."""
        tree = _chain_tree(130, go_left=False)
        tree.predict_matrix(np.zeros((1, 1)))
        assert tree._router.mask.size == 129 * 3


class TestLetorIO:
    def test_grammar_example(self, tmp_path):
        path = tmp_path / "x.letor"
        path.write_text("2 qid:7 1:0.5 2:-3.1 #d42\n")
        dataset = read_letor(path)
        assert dataset == [RankingInstance("7", "d42", (0.5, -3.1), 2)]

    def test_missing_feature_index(self, tmp_path):
        path = tmp_path / "x.letor"
        path.write_text("1 qid:1 1:0.5 3:0.2 #d1\n")
        with pytest.raises(ValueError, match="line 1"):
            read_letor(path)

    def test_missing_docid(self, tmp_path):
        path = tmp_path / "x.letor"
        path.write_text("1 qid:1 1:0.5\n")
        with pytest.raises(ValueError, match="line 1"):
            read_letor(path)

    def test_bad_label(self, tmp_path):
        path = tmp_path / "x.letor"
        path.write_text("7 qid:1 1:0.5 #d1\n")
        with pytest.raises(ValueError, match="line 1"):
            read_letor(path)

    def test_inconsistent_feature_lengths(self, tmp_path):
        path = tmp_path / "x.letor"
        path.write_text("1 qid:1 1:0.5 #d1\n0 qid:1 1:0.5 2:0.1 #d2\n")
        with pytest.raises(ValueError, match="line 2"):
            read_letor(path)

    @pytest.mark.parametrize("bad", ["1 qid:1 1:0.5", "1 qid:1 1:0.5 #",
                                     "1 1:0.5 #d2", "x qid:1 1:0.5 #d2",
                                     "1 qid:1 1=0.5 #d2", "1 qid:1 #d2",
                                     "1 qid:1 1:0.5 2:0.5 #d2", "5 qid:1 1:0.5 #d2"])
    def test_bad_line_names_path_and_line(self, tmp_path, bad):
        path = tmp_path / "x.letor"
        path.write_text(f"1 qid:1 1:0.5 #d1\n\n{bad}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: ")):
            read_letor(path)

    def test_round_trip_random_instances(self, tmp_path):
        rng = random.Random(99)
        dataset = [
            RankingInstance(
                query_id=f"q{rng.randrange(10)}", doc_id=f"d{i}",
                features=tuple(rng.uniform(-100, 100) for _ in range(4)),
                label=rng.choice([0, 1, 2]))
            for i in range(100)
        ]
        path = tmp_path / "round.letor"
        write_letor(dataset, path)
        assert read_letor(path) == dataset


# ids: no whitespace and no '#', as the LETOR format needs
_NAME = st.text("abcdefghijklmnopqrstuvwxyz0123456789:+-_.", min_size=1, max_size=6)


@st.composite
def _letor_rows(draw):
    n_features = draw(st.integers(1, 3))
    return draw(st.lists(st.builds(
        RankingInstance, query_id=_NAME, doc_id=_NAME,
        features=st.tuples(*[st.floats(allow_nan=False)] * n_features),
        label=st.sampled_from([0, 1, 2])), min_size=1, max_size=5))


class TestLetorRoundTripProperties:
    @_PROPERTY
    @given(rows=_letor_rows())
    def test_write_read_write_is_byte_identical(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("rt") / "rows.letor"
        write_letor(rows, path)
        saved = path.read_bytes()
        assert read_letor(path) == rows
        write_letor(read_letor(path), path)
        assert path.read_bytes() == saved

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rows=_letor_rows())
    def test_every_cut_raises_or_is_a_line_prefix(self, tmp_path_factory, rows):
        """A cut inside a line can still parse, with the doc id cut short,
        so only a cut at a line boundary may load."""
        path = tmp_path_factory.mktemp("cut") / "rows.letor"
        write_letor(rows, path)
        data = path.read_bytes()
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            try:
                loaded = read_letor(path)
            except ValueError as exc:
                assert str(exc).startswith(f"{path}: ")
                continue
            assert cut == 0 or data[cut - 1:cut] == b"\n", cut
            write_letor(loaded, path)
            assert path.read_bytes() == data[:cut]


class TestModelSerialization:
    def test_round_trip_predictions(self, tmp_path):
        dataset = make_separable_dataset(n_queries=6)
        model = train(dataset, replace(CONFIG, trees=8, min_leaf_instances=10), seed=3)
        path = tmp_path / "model.txt"
        model.save(path)
        loaded = LambdaMARTModel.load(path)
        assert loaded.feature_count == model.feature_count
        assert loaded.config == model.config
        rng = random.Random(1)
        for _ in range(20):
            x = tuple(rng.random() for _ in range(3))
            assert loaded.predict(x) == model.predict(x)

    def test_preorder_node_lines(self):
        tree = RegressionTree()
        root = tree._add_leaf(0.0)
        left = tree._add_leaf(1.5)
        right = tree._add_leaf(-2.5)
        tree._make_split(root, 2, 0.75, left, right)
        lines = tree.to_lines()
        assert lines[0].startswith("S 2 ")
        assert lines[1] == "L 1.5"
        assert lines[2] == "L -2.5"
        rebuilt = RegressionTree.from_lines(lines)
        assert rebuilt.predict_matrix([[0, 0, 0.5], [0, 0, 0.9]]).tolist() == [1.5, -2.5]

    def test_truncated_model_names_path(self, tmp_path):
        """Every cut of a saved model, at a line boundary or inside a line,
        raises ValueError naming the file."""
        dataset = make_separable_dataset(n_queries=6)
        model = train(dataset, replace(CONFIG, trees=2, min_leaf_instances=10), seed=3)
        full = tmp_path / "model.txt"
        model.save(full)
        text = full.read_text()
        cut = tmp_path / "cut.txt"
        for end in range(len(text)):
            cut.write_text(text[:end])
            with pytest.raises(ValueError, match="cut.txt"):
                LambdaMARTModel.load(cut)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_learning_rate_names_config_line(self, tmp_path, value):
        dataset = make_separable_dataset(n_queries=6)
        model = train(dataset, replace(CONFIG, trees=2, min_leaf_instances=10), seed=3)
        path = tmp_path / "model.txt"
        model.save(path)
        lines = path.read_text().split("\n")
        at = next(i for i, line in enumerate(lines) if line.startswith("config "))
        parts = lines[at].split()
        parts[3] = value
        lines[at] = " ".join(parts)
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line {at + 1}: learning rate {value} is not positive and finite")):
            LambdaMARTModel.load(path)

    def test_deeply_nested_tree_names_path(self, tmp_path):
        path = tmp_path / "deep.txt"
        nodes = ["S 0 0.5"] * 5000 + ["L 1.0"] * 5001
        path.write_text("cqarank-lambdamart-v1\nfeature_count 1\nshrinkage 0.1\n"
                        "config 1 4 0.2 1 10\nseed 0\nnum_trees 1\n"
                        f"tree 0 {len(nodes)}\n" + "".join(n + "\n" for n in nodes))
        with pytest.raises(ValueError, match="deep.txt: line 7: "):
            LambdaMARTModel.load(path)

    @pytest.mark.parametrize("lines", [[], ["S 0 0.5", "L 1.0"], ["S 0", "L 1", "L 2"],
                                       [""], ["L"], ["L 1", "L 2"], ["X 1"]])
    def test_bad_node_lines_rejected(self, lines):
        with pytest.raises(ValueError):
            RegressionTree.from_lines(lines)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _models(draw):
    """A model of 1-3 trees, each with at least one split, over 1-6
    features."""
    feature_count = draw(st.integers(1, 6))

    def grow(tree, depth):
        if depth < 2 and (depth == 0 or draw(st.booleans())):
            node = tree._add_leaf(0.0)
            feat, thr = draw(st.integers(0, feature_count - 1)), draw(_FINITE)
            left, right = grow(tree, depth + 1), grow(tree, depth + 1)
            tree._make_split(node, feat, thr, left, right)
            return node
        return tree._add_leaf(draw(_FINITE))

    trees = []
    for _ in range(draw(st.integers(1, 3))):
        trees.append(RegressionTree())
        grow(trees[-1], 0)
    return LambdaMARTModel(
        trees=trees, shrinkage=draw(st.floats(1e-3, 1.0)), feature_count=feature_count,
        config=replace(CONFIG, trees=len(trees)), seed=draw(st.integers(0, 2**31 - 1)))


# the edits the loader rejects: (prefix of the first line edited, index of
# the field replaced, its new value given the model's feature_count)
RANKER_CORRUPTIONS = {
    "split feature -2": ("S ", 1, lambda n: -2),
    "split feature -1": ("S ", 1, lambda n: -1),
    "split feature feature_count": ("S ", 1, lambda n: n),
    "split feature past feature_count": ("S ", 1, lambda n: n + 9),
    "nan threshold": ("S ", 2, lambda n: "nan"),
    "infinite threshold": ("S ", 2, lambda n: "-inf"),
    "nan leaf": ("L ", 1, lambda n: "nan"),
    "infinite leaf": ("L ", 1, lambda n: "inf"),
    "nan shrinkage": ("shrinkage ", 1, lambda n: "nan"),
    "infinite shrinkage": ("shrinkage ", 1, lambda n: "inf"),
}


class TestModelFileProperties:
    @_PROPERTY
    @given(model=_models())
    def test_save_load_save_is_byte_identical(self, tmp_path_factory, model):
        path = tmp_path_factory.mktemp("rt") / "ranker.txt"
        model.save(path)
        saved = path.read_bytes()
        LambdaMARTModel.load(path).save(path)
        assert path.read_bytes() == saved

    @_PROPERTY
    @given(model=_models(), corruption=st.sampled_from(sorted(RANKER_CORRUPTIONS)))
    def test_each_corruption_names_path_and_line(self, tmp_path_factory, model,
                                                 corruption):
        path = tmp_path_factory.mktemp("bad") / "ranker.txt"
        model.save(path)
        lines = path.read_text(encoding="utf-8").split("\n")
        prefix, field, value = RANKER_CORRUPTIONS[corruption]
        at = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        parts = lines[at].split()
        parts[field] = str(value(model.feature_count))
        lines[at] = " ".join(parts)
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line {at + 1}: ")):
            LambdaMARTModel.load(path)
