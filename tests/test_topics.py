import re

import numpy as np
import pytest

from cqarank.topics import (CollapsedGibbsSampler, TopicModel,
                            infer_query_topics, train_lda)


def _two_group_docs(docs_per_group=12, doc_len=8, vocab_per_group=6):
    """Two groups of documents over disjoint vocabularies: group A uses ids
    [0, vocab), group B uses [vocab, 2*vocab)."""
    rng = np.random.RandomState(7)
    docs = []
    for g in (0, 1):
        base = g * vocab_per_group
        for _ in range(docs_per_group):
            docs.append([base + int(w) for w in rng.randint(0, vocab_per_group,
                                                            size=doc_len)])
    return docs, vocab_per_group


@pytest.fixture(scope="module")
def separated_model():
    # small alpha so short-query posteriors are not swamped by the prior
    docs, vocab_per_group = _two_group_docs()
    model = train_lda(docs, num_topics=2, alpha=0.5, beta=0.01,
                      iterations=200, seed=13)
    return model, docs, vocab_per_group


class TestTraining:
    def test_single_topic_counts(self):
        docs = [[0, 1, 1], [2, 0]]
        beta = 0.01
        model = train_lda(docs, num_topics=1, beta=beta, iterations=3, seed=0)
        counts = {0: 2, 1: 2, 2: 1}
        v = model.vocab_size
        n = 5
        for w, c in counts.items():
            assert model.phi[0, w] == pytest.approx((c + beta) / (n + v * beta))

    def test_rows_sum_to_one(self, separated_model):
        model, _, _ = separated_model
        sums = model.phi.sum(axis=1)
        assert np.all(np.abs(sums - 1.0) < 1e-9)

    def test_topics_separate_disjoint_groups(self, separated_model):
        model, _, vocab_per_group = separated_model
        group_mass = model.phi[:, :vocab_per_group].sum(axis=1)
        # one topic owns group A, the other group B, each with > 0.9 mass
        assert sorted(group_mass) == pytest.approx(sorted([group_mass.max(),
                                                           group_mass.min()]))
        assert max(group_mass) > 0.9
        assert min(group_mass) < 0.1

    def test_deterministic_given_seed(self):
        docs, _ = _two_group_docs(docs_per_group=4)
        m1 = train_lda(docs, num_topics=3, iterations=30, seed=5)
        m2 = train_lda(docs, num_topics=3, iterations=30, seed=5)
        assert np.array_equal(m1.phi, m2.phi)

    def test_degenerate_topic_count(self):
        with pytest.raises(ValueError, match="degenerate topic count"):
            train_lda([[0, 1]], num_topics=5, iterations=1, seed=0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            train_lda([], num_topics=1, iterations=1, seed=0)
        with pytest.raises(ValueError):
            train_lda([[0]], num_topics=1, iterations=0, seed=0)


class TestSamplerCounts:
    def test_count_consistency_after_each_sweep(self):
        docs, _ = _two_group_docs(docs_per_group=5)
        corpus_freq = np.zeros(12, dtype=np.int64)
        for d in docs:
            for w in d:
                corpus_freq[w] += 1
        sampler = CollapsedGibbsSampler(docs, num_topics=3, alpha=0.5,
                                        beta=0.01, vocab_size=12, seed=3)
        for _ in range(5):
            sampler.sweep()
            assert np.array_equal(sampler.n_kw.sum(axis=0), corpus_freq)
            assert np.array_equal(sampler.n_kw.sum(axis=1), sampler.n_k)
            assert np.array_equal(sampler.n_dk.sum(axis=1),
                                  np.array([len(d) for d in docs]))


class TestInference:
    def test_single_topic_theta(self):
        model = train_lda([[0, 1, 0]], num_topics=1, iterations=2, seed=0)
        post = infer_query_topics(model, [0, 1], seed=0)
        assert post.theta == pytest.approx([1.0])
        assert not post.oov_fallback

    def test_oov_only_query_uniform_flagged(self):
        docs, _ = _two_group_docs(docs_per_group=3)
        model = train_lda(docs, num_topics=4, iterations=20, seed=1)
        post = infer_query_topics(model, [500, 501], seed=0)
        assert post.oov_fallback
        assert post.theta == pytest.approx([0.25, 0.25, 0.25, 0.25])

    def test_query_from_one_group_concentrates(self, separated_model):
        model, _, vocab_per_group = separated_model
        group_a_topic = int(np.argmax(model.phi[:, :vocab_per_group].sum(axis=1)))
        post = infer_query_topics(model, [0, 1, 2, 0], burn_in=50, samples=20,
                                  seed=2)
        assert post.theta[group_a_topic] > 0.8

    def test_theta_sums_to_one(self, separated_model):
        model, _, _ = separated_model
        for tokens in ([0], [0, 1, 2], [0, 900], [3, 3, 3, 4]):
            post = infer_query_topics(model, tokens, seed=4)
            assert abs(float(post.theta.sum()) - 1.0) < 1e-9

    def test_deterministic_given_seed(self, separated_model):
        model, _, _ = separated_model
        p1 = infer_query_topics(model, [0, 1, 2], seed=9)
        p2 = infer_query_topics(model, [0, 1, 2], seed=9)
        assert np.array_equal(p1.theta, p2.theta)

    def test_empty_query_rejected(self, separated_model):
        model, _, _ = separated_model
        with pytest.raises(ValueError):
            infer_query_topics(model, [], seed=0)


class TestWordProb:
    """P_to(w|z) for every topic z, through TopicModel.phi_column."""

    def test_lookup(self, separated_model):
        model, _, _ = separated_model
        assert model.phi_column(0)[1] == model.phi[1, 0]

    def test_oov_floor(self, separated_model):
        model, _, _ = separated_model
        floor = model.beta / (model.topic_totals + model.vocab_size * model.beta)
        assert np.allclose(model.phi_column(10_000), floor, rtol=1e-12, atol=0)

    def test_topic_out_of_range(self, separated_model):
        model, _, _ = separated_model
        # one entry per topic; a negative word id is out of vocabulary, not
        # a column counted from the end
        assert model.phi_column(0).shape == (model.num_topics,)
        assert np.array_equal(model.phi_column(-1), model.phi_column(10_000))
        assert not np.array_equal(model.phi_column(-1),
                                  model.phi[:, model.vocab_size - 1])

    def test_sums_to_one_over_training_vocab(self, separated_model):
        model, _, _ = separated_model
        total = sum(model.phi_column(w) for w in range(model.vocab_size))
        assert np.allclose(total, 1.0, rtol=0, atol=1e-9)


class TestSerialization:
    def test_round_trip(self, separated_model, tmp_path):
        model, _, _ = separated_model
        path = tmp_path / "topics.txt"
        model.save(path)
        loaded = TopicModel.load(path)
        assert np.array_equal(loaded.phi, model.phi)
        assert np.array_equal(loaded.topic_totals, model.topic_totals)
        assert loaded.alpha == model.alpha
        assert loaded.beta == model.beta
        assert loaded.iterations == model.iterations
        assert loaded.seed == model.seed

    @pytest.mark.parametrize("edit, line", [
        (lambda lines: ["2 3 0.5 0.01 0"] + lines[1:], 1),           # short header
        (lambda lines: ["2 x 0.5 0.01 0 9"] + lines[1:], 1),         # bare int
        (lambda lines: [lines[0], "4 x"] + lines[2:], 2),            # bare int
        (lambda lines: [lines[0], "4"] + lines[2:], 2),              # too few totals
        (lambda lines: lines[:2] + ["0.5 0.25 oops"] + lines[3:], 3),  # bare float
        (lambda lines: lines[:2] + ["0.5 0.5"] + lines[3:], 3),      # short row
        (lambda lines: lines[:3], 4),                                # missing row
        (lambda lines: lines + ["0.1"], 5),                          # extra line
    ])
    def test_malformed_file_names_path_and_line(self, tmp_path, edit, line):
        model = TopicModel(phi=np.array([[0.5, 0.25, 0.25], [0.2, 0.3, 0.5]]),
                           topic_totals=np.array([4, 6]), alpha=0.5, beta=0.01,
                           vocab_size=3, iterations=9, seed=0)
        path = tmp_path / "topics.txt"
        model.save(path)
        lines = path.read_text().splitlines()
        path.write_text("".join(f"{text}\n" for text in edit(lines)))
        with pytest.raises(ValueError, match=re.escape(f"{path}: line {line}: ")):
            TopicModel.load(path)
