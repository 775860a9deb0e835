import math
import random

import numpy as np
import pytest

import oracle
from cqarank.corpus import QueryRecord
from cqarank.index import ScoredCandidate, build_index
from cqarank.pipeline import (PipelineConfig, PreparedQuery, ScoringAssets,
                              system_ranking)
from cqarank.relevance import (MixtureWeights, features_f1_f4, score_lm,
                               score_t2lm, score_t2lm_plus, score_tlm,
                               smoothing_lambda, term_weights)
from cqarank.topics import TopicModel, infer_query_topics, train_lda
from cqarank.translation import identity_table, make_parallel_pairs, train_ibm1
from conftest import build_corpus

MU = MixtureWeights(0.3, 0.3, 0.2, 0.2)  # PipelineConfig's default mu1..mu4


def _uniform_model(num_topics=2, vocab_size=8) -> TopicModel:
    phi = np.full((num_topics, vocab_size), 1.0 / vocab_size)
    return TopicModel(phi=phi, topic_totals=np.full(num_topics, 50),
                      alpha=0.5, beta=0.01, vocab_size=vocab_size,
                      iterations=1, seed=0)


@pytest.fixture(scope="module")
def toy():
    """Small archive + trained models shared by the oracle-equivalence tests."""
    corpus = build_corpus([
        ("p1", "install python linux", "use apt python setup", "u1", "expert"),
        ("p2", "python crash error", "check stack trace error", "u2", "mid"),
        ("p3", "cook rice fast", "use pressure cooker rice", "u3", "expert"),
        ("p4", "rice burn pan", "lower heat stir rice", "u4", "u5"),
        ("p5", "linux boot slow", "", "u1", "u2"),
    ], users={"expert": 400, "mid": 49})
    table = train_ibm1(make_parallel_pairs(corpus, "pooled_both"), iterations=10)
    docs = [p.question_tokens + p.answer_tokens for p in corpus.pairs]
    model = train_lda(docs, num_topics=2, alpha=0.5, beta=0.01,
                      iterations=150, seed=3, vocab_size=len(corpus.vocabulary))
    intern = corpus.vocabulary.intern_all
    queries = [
        tuple(intern("python error".split())),
        tuple(intern("cook rice".split())),
        tuple(intern("python unseenword linux".split())),  # has an OOV term
    ]
    corpus_tokens = []
    for p in corpus.pairs:
        corpus_tokens.extend(p.question_tokens)
        corpus_tokens.extend(p.answer_tokens)
    table_dict = {(t, w): p for t in table.sources()
                  for w, p in table.row(t).items()}
    return {
        "corpus": corpus, "table": table, "model": model, "queries": queries,
        "corpus_tokens": corpus_tokens, "table_dict": table_dict,
    }


class TestSmoothing:
    def test_lambda_rule(self):
        assert smoothing_lambda(2) == pytest.approx(1 / 3)
        assert smoothing_lambda(9) == pytest.approx(0.1)

    def test_empty_side_degenerates_to_background(self):
        assert smoothing_lambda(0) == 1.0


class TestMixtureWeights:
    def test_valid(self):
        mu = MixtureWeights(0.25, 0.25, 0.25, 0.25)
        assert mu.as_tuple() == (0.25, 0.25, 0.25, 0.25)
        assert PipelineConfig(qa_path="qa", queries_path="q").mixture() == MU

    def test_bad_sum(self):
        with pytest.raises(ValueError):
            MixtureWeights(0.5, 0.5, 0.5, 0.5)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            MixtureWeights(1.2, -0.2, 0.0, 0.0)


class TestTermWeights:
    def test_uniform_phi_gives_equal_weights(self):
        model = _uniform_model()
        theta = np.array([0.6, 0.4])
        weights = term_weights(model, theta, [0, 1, 2, 3])
        assert weights == pytest.approx({0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25})

    def test_single_word_weight_is_one(self):
        model = _uniform_model()
        weights = term_weights(model, np.array([0.5, 0.5]), [3])
        assert weights[3] == pytest.approx(1.0)

    def test_duplicates_weight_occurrences_in_denominator(self, toy):
        model = toy["model"]
        theta = infer_query_topics(model, [0, 1], seed=0)
        weights = term_weights(model, theta, [0, 0, 1])
        # summed with multiplicity the weights hit exactly 1
        assert 2 * weights[0] + weights[1] == pytest.approx(1.0, abs=1e-12)
        assert weights[0] + weights[1] < 1.0

    def test_distinct_sum_is_one_without_duplicates(self, toy):
        model = toy["model"]
        for query in toy["queries"]:
            if len(set(query)) != len(query):
                continue
            theta = infer_query_topics(model, query, seed=1)
            weights = term_weights(model, theta, query)
            assert abs(sum(weights.values()) - 1.0) < 1e-9

    def test_rescale_gives_mean_one(self, toy):
        model = toy["model"]
        query = toy["queries"][0]
        theta = infer_query_topics(model, query, seed=1)
        plain = term_weights(model, theta, query)
        scaled = term_weights(model, theta, query, rescale=True)
        for w in plain:
            assert scaled[w] == pytest.approx(plain[w] * len(query))
        mean = sum(scaled[w] for w in query) / len(query)
        assert mean == pytest.approx(1.0, abs=1e-9)

    def test_matches_direct_formula(self, toy):
        model = toy["model"]
        query = toy["queries"][1]
        theta = infer_query_topics(model, query, seed=5)
        got = term_weights(model, theta, query)
        want = oracle.term_weight_vector(model.phi, model.topic_totals,
                                         model.beta, model.vocab_size,
                                         list(theta.theta), list(query))
        for w in want:
            assert got[w] == pytest.approx(want[w], abs=1e-12)

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            term_weights(_uniform_model(), np.array([0.5, 0.5]), [])


@pytest.fixture
def lm_setup():
    """P_ml(a|C) = 0.4 exactly: 4 of 10 corpus tokens are 'a'."""
    corpus = build_corpus([("p1", "a b", "a a a c c c c c", "u1", "u2")])
    a = corpus.vocabulary.tokens().index("a")
    b = corpus.vocabulary.tokens().index("b")
    return corpus, a, b


class TestScoreLM:
    def test_derived_value(self, lm_setup):
        corpus, a, _ = lm_setup
        q = corpus.pair("p1").question_tokens
        got = score_lm([a], q, corpus.stats)
        assert got == pytest.approx(math.log(7 / 15), abs=1e-12)
        assert got == pytest.approx(
            math.log(oracle.lm_product([a], list(q), toy_tokens(corpus))), abs=1e-12)

    def test_absent_term_hits_floor_only(self, lm_setup):
        corpus, _, _ = lm_setup
        q = corpus.pair("p1").question_tokens
        lam = 1 / 3
        floor = corpus.stats.prob(999)
        assert score_lm([999], q, corpus.stats) == pytest.approx(
            math.log(lam * floor), abs=1e-12)

    def test_duplicate_token_doubles_contribution(self, lm_setup):
        corpus, a, _ = lm_setup
        q = corpus.pair("p1").question_tokens
        assert score_lm([a, a], q, corpus.stats) == pytest.approx(
            2 * score_lm([a], q, corpus.stats), abs=1e-12)

    def test_empty_document_rejected(self, lm_setup):
        corpus, a, _ = lm_setup
        with pytest.raises(ValueError, match="empty document"):
            score_lm([a], [], corpus.stats)


def toy_tokens(corpus):
    tokens = []
    for p in corpus.pairs:
        tokens.extend(p.question_tokens)
        tokens.extend(p.answer_tokens)
    return tokens


class TestScoreTLM:
    def test_identity_table_reduces_to_lm(self, toy):
        corpus = toy["corpus"]
        table = identity_table(range(len(corpus.vocabulary)))
        for query in toy["queries"]:
            for pair in corpus.pairs:
                lhs = score_tlm(query, pair.question_tokens, table, corpus.stats)
                rhs = score_lm(query, pair.question_tokens, corpus.stats)
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_derived_single_term(self, toy):
        corpus, table = toy["corpus"], toy["table"]
        query = toy["queries"][0][:1]
        pair = corpus.pairs[1]
        got = score_tlm(query, pair.question_tokens, table, corpus.stats)
        want = math.log(oracle.tlm_product(
            list(query), list(pair.question_tokens), toy["table_dict"],
            toy["corpus_tokens"]))
        assert got == pytest.approx(want, abs=1e-9)

    def test_no_translation_mass_floors(self, lm_setup):
        corpus, a, _ = lm_setup
        q = corpus.pair("p1").question_tokens
        empty = identity_table([])
        lam = 1 / 3
        assert score_tlm([a], q, empty, corpus.stats) == pytest.approx(
            math.log(lam * corpus.stats.prob(a)), abs=1e-12)


class TestReductions:
    def test_plus_with_unit_injection_equals_t2lm(self, toy):
        corpus, table, model = toy["corpus"], toy["table"], toy["model"]
        mu = MU
        ones = np.ones(model.num_topics)
        for query in toy["queries"]:
            unit_w = {w: 1.0 for w in query}
            for pair in corpus.pairs:
                lhs = score_t2lm_plus(query, pair, mu, table, model, ones,
                                      unit_w, corpus.stats)
                rhs = score_t2lm(query, pair, mu, table, model, corpus.stats)
                assert lhs == rhs  # identical code path, bit-for-bit

    def test_mu1_only_equals_lm(self, toy):
        corpus, table, model = toy["corpus"], toy["table"], toy["model"]
        mu = MixtureWeights(1.0, 0.0, 0.0, 0.0)
        for query in toy["queries"]:
            for pair in corpus.pairs:
                lhs = score_t2lm(query, pair, mu, table, model, corpus.stats)
                rhs = score_lm(query, pair.question_tokens, corpus.stats)
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_mu2_with_identity_table_equals_lm(self, toy):
        corpus, model = toy["corpus"], toy["model"]
        table = identity_table(range(len(corpus.vocabulary)))
        mu = MixtureWeights(0.0, 1.0, 0.0, 0.0)
        for query in toy["queries"]:
            for pair in corpus.pairs:
                lhs = score_t2lm(query, pair, mu, table, model, corpus.stats)
                rhs = score_lm(query, pair.question_tokens, corpus.stats)
                assert lhs == pytest.approx(rhs, abs=1e-12)


class TestMixedScorers:
    def test_direct_term_value(self):
        corpus = build_corpus([("p1", "a b", "", "u1", "u2")])
        a = corpus.vocabulary.tokens().index("a")
        pair = corpus.pair("p1")
        model = _uniform_model(vocab_size=len(corpus.vocabulary))
        table = identity_table([a])
        mu = MixtureWeights(1.0, 0.0, 0.0, 0.0)
        got = score_t2lm_plus([a], pair, mu, table, model,
                              np.ones(2), {a: 1.0}, corpus.stats)
        assert got == pytest.approx(math.log(0.5), abs=1e-12)

    def test_matches_probability_domain_oracle(self, toy):
        corpus, table, model = toy["corpus"], toy["table"], toy["model"]
        mu = MixtureWeights(0.25, 0.25, 0.25, 0.25)
        ones = [1.0] * model.num_topics
        for query in toy["queries"]:
            theta = infer_query_topics(model, query, seed=7)
            weights = term_weights(model, theta, query)
            for pair in corpus.pairs:
                want_t2lm = math.log(oracle.mixed_product(
                    list(query), list(pair.question_tokens),
                    list(pair.answer_tokens), mu.as_tuple(), toy["table_dict"],
                    model.phi, model.topic_totals, model.beta,
                    model.vocab_size, ones, {w: 1.0 for w in query},
                    toy["corpus_tokens"]))
                got_t2lm = score_t2lm(query, pair, mu, table, model, corpus.stats)
                assert got_t2lm == pytest.approx(want_t2lm, abs=1e-9)

                want_plus = math.log(oracle.mixed_product(
                    list(query), list(pair.question_tokens),
                    list(pair.answer_tokens), mu.as_tuple(), toy["table_dict"],
                    model.phi, model.topic_totals, model.beta,
                    model.vocab_size, list(theta.theta), weights,
                    toy["corpus_tokens"]))
                got_plus = score_t2lm_plus(query, pair, mu, table, model,
                                           theta, weights, corpus.stats)
                assert got_plus == pytest.approx(want_plus, abs=1e-9)

    def test_mu1_monotone_in_exact_match_probability(self):
        low = build_corpus([("p1", "a c c c", "", "u1", "u2")])
        high = build_corpus([("p1", "a a c c", "", "u1", "u2")])
        mu = MixtureWeights(1.0, 0.0, 0.0, 0.0)
        for corpus_obj in (low, high):
            corpus_obj.vocabulary.intern("pad")
        model = _uniform_model(vocab_size=3)
        a_low = low.vocabulary.tokens().index("a")
        a_high = high.vocabulary.tokens().index("a")
        s_low = score_t2lm([a_low], low.pair("p1"), mu, identity_table([a_low]),
                           model, low.stats)
        s_high = score_t2lm([a_high], high.pair("p1"), mu,
                            identity_table([a_high]), model, high.stats)
        assert s_high >= s_low

    def test_empty_question_rejected(self, toy):
        corpus, table, model = toy["corpus"], toy["table"], toy["model"]
        pair = corpus.pairs[0]
        broken = type(pair)(id="x", question_tokens=(), answer_tokens=(),
                            asker_id="u", answerer_id="u")
        with pytest.raises(ValueError):
            score_t2lm([0], broken, MU, table, model, corpus.stats)

    def test_theta_length_mismatch_rejected(self, toy):
        corpus, table, model = toy["corpus"], toy["table"], toy["model"]
        with pytest.raises(ValueError):
            score_t2lm_plus([0], corpus.pairs[0], MU, table,
                            model, np.ones(model.num_topics + 1), {0: 1.0},
                            corpus.stats)


class TestFeatures:
    def test_f1_derived_value(self, lm_setup):
        corpus, a, _ = lm_setup
        pair = corpus.pair("p1")
        model = _uniform_model(vocab_size=len(corpus.vocabulary))
        table = identity_table(range(len(corpus.vocabulary)))
        feats = features_f1_f4([a], pair, table, model, np.ones(2),
                               {a: 1.0}, corpus.stats)
        assert feats.f1 == pytest.approx(math.log(7 / 15), abs=1e-12)

    def test_f2_equals_f1_with_identity_table_and_unit_weights(self, toy):
        corpus, model = toy["corpus"], toy["model"]
        table = identity_table(range(len(corpus.vocabulary)))
        for query in toy["queries"]:
            theta = infer_query_topics(model, query, seed=2)
            unit_w = {w: 1.0 for w in query}
            for pair in corpus.pairs:
                feats = features_f1_f4(query, pair, table, model, theta,
                                       unit_w, corpus.stats)
                assert feats.f2 == pytest.approx(feats.f1, abs=1e-12)

    def test_empty_answer_f4_is_background_only(self, toy):
        corpus, table, model = toy["corpus"], toy["table"], toy["model"]
        pair = corpus.pair("p5")
        assert pair.answer_tokens == ()
        query = toy["queries"][0]
        theta = infer_query_topics(model, query, seed=2)
        weights = term_weights(model, theta, query)
        feats = features_f1_f4(query, pair, table, model, theta, weights,
                               corpus.stats)
        want = sum(math.log(corpus.stats.prob(w)) for w in query)
        assert feats.f4 == pytest.approx(want, abs=1e-12)

    def test_matches_probability_domain_oracle(self, toy):
        corpus, table, model = toy["corpus"], toy["table"], toy["model"]
        for query in toy["queries"]:
            theta = infer_query_topics(model, query, seed=11)
            weights = term_weights(model, theta, query)
            for pair in corpus.pairs:
                got = features_f1_f4(query, pair, table, model, theta,
                                     weights, corpus.stats)
                want = oracle.feature_products(
                    list(query), list(pair.question_tokens),
                    list(pair.answer_tokens), toy["table_dict"], model.phi,
                    model.topic_totals, model.beta, model.vocab_size,
                    list(theta.theta), weights, toy["corpus_tokens"])
                for got_v, want_p in zip(got.as_tuple(), want):
                    assert got_v == pytest.approx(math.log(want_p), abs=1e-9)

    def test_always_finite(self):
        rng = random.Random(77)
        specs = []
        for i in range(6):
            q = " ".join(f"w{rng.randrange(12)}" for _ in range(rng.randint(1, 6)))
            a = " ".join(f"w{rng.randrange(12)}" for _ in range(rng.randint(0, 6)))
            specs.append((f"p{i}", q, a, "u1", "u2"))
        corpus = build_corpus(specs)
        table = train_ibm1(make_parallel_pairs(corpus, "pooled_both"), 5)
        docs = [p.question_tokens + p.answer_tokens for p in corpus.pairs]
        model = train_lda(docs, 3, alpha=0.5, iterations=50, seed=1,
                          vocab_size=len(corpus.vocabulary))
        for trial in range(10):
            tokens = [rng.randrange(20) for _ in range(rng.randint(1, 5))]
            theta = infer_query_topics(model, tokens, seed=trial)
            weights = term_weights(model, theta, tokens)
            for pair in corpus.pairs:
                feats = features_f1_f4(tokens, pair, table, model, theta,
                                       weights, corpus.stats)
                assert all(math.isfinite(v) for v in feats.as_tuple())
                assert math.isfinite(score_t2lm_plus(
                    tokens, pair, MU, table, model, theta,
                    weights, corpus.stats))


class TestRankCandidates:
    """system_ranking orders candidates by non-increasing score and breaks
    ties by ascending qa_id. The bm25 system ranks by the candidates' own
    scores, so these tests set them directly."""

    @staticmethod
    def _ranked(toy, scores):
        corpus = toy["corpus"]
        assets = ScoringAssets(corpus=corpus, index=build_index(corpus),
                               table=toy["table"], model=toy["model"],
                               cfg=PipelineConfig(qa_path="", queries_path=""))
        candidates = [ScoredCandidate(qa_id=qa_id, score=score)
                      for qa_id, score in scores.items()]
        prepared = PreparedQuery(record=QueryRecord(id="q", tokens=(0,)),
                                 candidates=candidates, theta=None, weights={})
        return system_ranking("bm25", assets, prepared)

    def test_order_preserved(self, toy):
        ranked = self._ranked(toy, {"p1": -1.0, "p2": -2.0})
        assert ranked == [("p1", -1.0), ("p2", -2.0)]

    def test_ties_by_ascending_id(self, toy):
        ids = [p.id for p in toy["corpus"].pairs]
        ranked = self._ranked(toy, {qa_id: 0.5 for qa_id in reversed(ids)})
        assert [qa_id for qa_id, _ in ranked] == sorted(ids)

    def test_singleton(self, toy):
        assert self._ranked(toy, {"p1": 3.0}) == [("p1", 3.0)]

    def test_shift_invariance(self, toy):
        corpus, table, model = toy["corpus"], toy["table"], toy["model"]
        query = toy["queries"][0]
        base = {qa.id: score_t2lm(query, qa, MU, table, model,
                                  corpus.stats) for qa in corpus.pairs}
        shifted = {qa_id: score + 100.0 for qa_id, score in base.items()}
        order_a = [qa_id for qa_id, _ in self._ranked(toy, base)]
        order_b = [qa_id for qa_id, _ in self._ranked(toy, shifted)]
        assert order_a == order_b

    def test_empty_candidates_rank_empty(self, toy):
        assert self._ranked(toy, {}) == []
