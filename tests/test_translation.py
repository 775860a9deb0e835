import random
import re

import pytest

import oracle
from cqarank.translation import (ParallelPair, TranslationTable,
                                 corpus_log_likelihood, identity_table,
                                 make_parallel_pairs, train_ibm1,
                                 uniform_init)
from conftest import build_corpus


def _pairs(*specs):
    return [ParallelPair(tuple(src), tuple(tgt)) for src, tgt in specs]


def _random_pairs(seed, n_pairs=12, vocab=8):
    rng = random.Random(seed)
    pairs = []
    for _ in range(n_pairs):
        src = [rng.randrange(vocab) for _ in range(rng.randint(1, 5))]
        tgt = [rng.randrange(vocab) for _ in range(rng.randint(1, 5))]
        pairs.append(ParallelPair(tuple(src), tuple(tgt)))
    return pairs


class TestParallelPairs:
    def test_pooled_both_emits_two(self):
        corpus = build_corpus([("p1", "a b", "x", "u1", "u2")])
        pairs = make_parallel_pairs(corpus, "pooled_both")
        assert len(pairs) == 2
        assert pairs[0].source == pairs[1].target

    def test_empty_answer_dropped(self):
        corpus = build_corpus([("p1", "a", "", "u1", "u2")])
        assert make_parallel_pairs(corpus, "pooled_both") == []

    def test_q_to_a_count(self):
        corpus = build_corpus([(f"p{i}", "a b", "x y", "u1", "u2")
                               for i in range(3)])
        assert len(make_parallel_pairs(corpus, "q_to_a")) == 3

    def test_direction_orientation(self):
        corpus = build_corpus([("p1", "a", "x", "u1", "u2")])
        a = corpus.vocabulary.id_of("a")
        x = corpus.vocabulary.id_of("x")
        fwd = make_parallel_pairs(corpus, "q_to_a")[0]
        rev = make_parallel_pairs(corpus, "a_to_q")[0]
        assert fwd.source == (a,) and fwd.target == (x,)
        assert rev.source == (x,) and rev.target == (a,)


class TestTraining:
    def test_uniform_initialization(self):
        pairs = _pairs(([0, 1], [10, 11]), ([0], [12]))
        init = uniform_init(pairs)
        # source 0 co-occurs with {10, 11, 12}; source 1 with {10, 11}
        assert init[0] == {10: 1 / 3, 11: 1 / 3, 12: 1 / 3}
        assert init[1] == {10: 0.5, 11: 0.5}

    def test_single_pair_forces_mass(self):
        table = train_ibm1(_pairs(([0], [1])), iterations=1)
        assert table.prob(1, 0) == 1.0

    def test_two_pair_corpus_concentrates(self):
        # ("a","b") -> ("x","y") plus ("a",) -> ("x",): EM pins x to a
        pairs = _pairs(([0, 1], [2, 3]), ([0], [2]))
        table = train_ibm1(pairs, iterations=20)
        assert table.prob(2, 0) > 0.9

    def test_matches_hand_rolled_em(self):
        pairs = _pairs(([0, 1], [2, 3]), ([0], [2]))
        for iterations in (1, 5, 20):
            table = train_ibm1(pairs, iterations=iterations)
            ref = oracle.ibm1_em([(list(p.source), list(p.target)) for p in pairs],
                                 iterations)
            for (s, w), p in ref.items():
                assert table.prob(w, s) == pytest.approx(p, abs=1e-12)

    def test_deterministic_bit_identical(self):
        pairs = _random_pairs(5)
        t1 = train_ibm1(pairs, iterations=7)
        t2 = train_ibm1(pairs, iterations=7)
        for s in t1.sources():
            assert t1.row(s) == t2.row(s)

    def test_per_source_normalization_every_iteration(self):
        pairs = _random_pairs(9)
        for iterations in range(1, 6):
            table = train_ibm1(pairs, iterations=iterations)
            for s in table.sources():
                assert abs(sum(table.row(s).values()) - 1.0) < 1e-9

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            train_ibm1([], iterations=1)

    def test_prune_keeps_rows_normalized(self):
        pairs = _random_pairs(3, n_pairs=20)
        table = train_ibm1(pairs, iterations=10, prune=1e-2)
        for s in table.sources():
            row = table.row(s)
            assert all(p >= 1e-2 or len(row) == 1 for p in row.values())
            assert abs(sum(row.values()) - 1.0) < 1e-9


class TestLookup:
    def test_trained_entry_and_sparsity(self):
        table = train_ibm1(_pairs(([0], [1])), iterations=2)
        assert table.prob(1, 0) == 1.0
        assert table.prob(5, 0) == 0.0
        assert table.prob(1, 7) == 0.0

    def test_identity_table(self):
        table = identity_table([3, 4])
        assert table.prob(3, 3) == 1.0
        assert table.prob(4, 3) == 0.0


class TestLogLikelihood:
    def test_forced_pair_is_zero(self):
        pairs = _pairs(([0], [1]))
        table = train_ibm1(pairs, iterations=1)
        assert corpus_log_likelihood(table, pairs) == 0.0

    def test_matches_oracle_after_one_iteration(self):
        pairs = _pairs(([0, 1], [2, 3]), ([0], [2]))
        table = train_ibm1(pairs, iterations=1)
        ref_table = oracle.ibm1_em([(list(p.source), list(p.target)) for p in pairs], 1)
        ref_ll = oracle.ibm1_log_likelihood(
            ref_table, [(list(p.source), list(p.target)) for p in pairs])
        assert corpus_log_likelihood(table, pairs) == pytest.approx(ref_ll, abs=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_em_monotone(self, seed):
        pairs = _random_pairs(seed)
        lls = [corpus_log_likelihood(train_ibm1(pairs, iterations=i), pairs)
               for i in range(1, 15)]
        for prev, cur in zip(lls, lls[1:]):
            assert cur >= prev - 1e-10

    def test_unseen_target_is_neg_inf(self):
        table = train_ibm1(_pairs(([0], [1])), iterations=1)
        ll = corpus_log_likelihood(table, _pairs(([0], [9])))
        assert ll == float("-inf")


class TestSerialization:
    def test_round_trip(self, tmp_path):
        pairs = _random_pairs(11)
        table = train_ibm1(pairs, iterations=6)
        path = tmp_path / "table.tsv"
        table.save(path)
        loaded = TranslationTable.load(path)
        for s in table.sources():
            assert loaded.row(s) == table.row(s)

    @pytest.mark.parametrize("bad", ["1 2", "1 2 0.5 7", "1 x 0.5", "1.5 2 0.5",
                                     "1 2 half"])
    def test_bad_line_names_path_and_line(self, tmp_path, bad):
        path = tmp_path / "table.tsv"
        path.write_text(f"0 3 1.0\n{bad}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: ")):
            TranslationTable.load(path)

    def test_sorted_by_source_then_target(self, tmp_path):
        table = TranslationTable({2: {5: 0.5, 1: 0.5}, 0: {3: 1.0}})
        path = tmp_path / "table.tsv"
        table.save(path)
        firsts = [tuple(int(x) for x in line.split()[:2])
                  for line in path.read_text().splitlines()]
        assert firsts == sorted(firsts)
