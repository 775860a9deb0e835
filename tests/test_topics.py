import hashlib
import math
import re
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_scoring
from cqarank.pipeline import PipelineConfig, ingest, train_topics
from cqarank.synth import SynthSpec, generate
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

    def test_empty_documents_leave_the_model(self):
        docs = _random_docs(4)
        with_empty = [[]] + docs[:5] + [[], []] + docs[5:] + [[]]
        assert np.array_equal(train_lda(with_empty, 3, iterations=4, seed=2).phi,
                              train_lda(docs, 3, iterations=4, seed=2).phi)

    def test_degenerate_topic_count(self):
        with pytest.raises(ValueError, match="degenerate topic count"):
            train_lda([[0, 1]], num_topics=5, iterations=1, seed=0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            train_lda([], num_topics=1, iterations=1, seed=0)
        with pytest.raises(ValueError):
            train_lda([[0]], num_topics=1, iterations=0, seed=0)

    @pytest.mark.parametrize("alpha, beta", [
        (0.0, 0.01), (-1.0, 0.01), (math.nan, 0.01), (math.inf, 0.01),
        (None, 0.0), (None, -0.5), (None, math.nan), (None, math.inf)])
    def test_prior_must_be_positive_and_finite(self, alpha, beta):
        """TopicModel.load rejects such a prior, so training must not save it."""
        with pytest.raises(ValueError, match="alpha and beta must be positive and finite"):
            train_lda([[0, 1, 2]], num_topics=2, alpha=alpha, beta=beta,
                      iterations=1, seed=0)


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


def _random_docs(seed, n_docs=20, vocab=15, max_len=12):
    """Documents over ids [0, vocab), many with repeated tokens, plus one
    document of a single repeated word."""
    rng = np.random.RandomState(seed)
    docs = [[int(w) for w in rng.randint(0, vocab, size=rng.randint(1, max_len))]
            for _ in range(n_docs)]
    return docs + [[3, 3, 3, 3, 3]]


def _assert_same_state(sampler, reference):
    assert len(sampler.assignments) == len(reference.assignments)
    for got, want in zip(sampler.assignments, reference.assignments):
        assert np.array_equal(got, want)
    assert np.array_equal(sampler.n_dk, reference.n_dk)
    assert np.array_equal(sampler.n_kw, reference.n_kw)
    assert np.array_equal(sampler.n_k, reference.n_k)


class TestReferenceSampler:
    """The list-walking sweep and fold-in against the per-token numpy loop
    kept in reference_scoring, with ==."""

    @pytest.mark.parametrize("num_topics", [1, 2, 6, 20])
    @pytest.mark.parametrize("large_alpha", [False, True])
    def test_counts_equal_after_every_sweep(self, num_topics, large_alpha):
        alpha = 50.0 / num_topics if large_alpha else 0.01
        # vocabulary 16 leaves word 15 unused
        args = (_random_docs(num_topics), num_topics, alpha, 0.01, 16, 5)
        sampler = CollapsedGibbsSampler(*args)
        reference = reference_scoring.GibbsReference(*args)
        _assert_same_state(sampler, reference)
        for _ in range(4):
            sampler.sweep()
            reference.sweep()
            _assert_same_state(sampler, reference)
        assert np.array_equal(sampler.read_phi(), reference.read_phi())

    @pytest.mark.parametrize("num_topics", [1, 2, 6, 20])
    @pytest.mark.parametrize("large_alpha", [False, True])
    @pytest.mark.parametrize("burn_in", [0, 6])
    def test_fold_in_equal(self, num_topics, large_alpha, burn_in):
        alpha = 50.0 / num_topics if large_alpha else 0.01
        model = train_lda(_random_docs(num_topics), num_topics, alpha, 0.01,
                          iterations=3, seed=1, vocab_size=16)
        # one token, a repeated token, in-vocabulary mixed with OOV ids,
        # OOV only, and a longer query; one generator, reseeded, serves all
        kept = np.random.RandomState(5)
        for tokens in ([4], [2, 2, 2], [0, 99, 5, -1, 5], [15, 40],
                       list(range(12))):
            for seed in (0, 8):
                want = reference_scoring.fold_in(model, tokens, burn_in, 3, seed)
                for rng in (None, kept):
                    got = infer_query_topics(model, tokens, burn_in, samples=3,
                                             seed=seed, rng=rng)
                    assert np.array_equal(got.theta, want.theta)
                    assert got.oov_fallback == want.oov_fallback


def _assert_factors_match_counts(sampler):
    """Every smoothed factor the sampler keeps is count + prior, the float
    the reference computes from the count."""
    beta_v = sampler.V * sampler.beta
    assert sampler._row_alpha == [[n + sampler.alpha for n in row]
                                  for row in sampler.n_dk.tolist()]
    assert sampler._word_beta == [[n + sampler.beta for n in col]
                                 for col in sampler.n_kw.T.tolist()]
    assert sampler._topic_den == [n + beta_v for n in sampler.n_k.tolist()]


def _sweep_against_reference(args, sweeps, between=None):
    """Sweep a sampler and the reference built from `args` side by side,
    comparing their states, and the sampler's factors with its counts,
    after every sweep; `between(sampler)` runs before each sweep. Returns
    the sampler."""
    sampler = CollapsedGibbsSampler(*args)
    reference = reference_scoring.GibbsReference(*args)
    _assert_same_state(sampler, reference)
    _assert_factors_match_counts(sampler)
    for _ in range(sweeps):
        if between is not None:
            between(sampler)
        sampler.sweep()
        reference.sweep()
        _assert_same_state(sampler, reference)
        _assert_factors_match_counts(sampler)
    assert np.array_equal(sampler.read_phi(), reference.read_phi())
    return sampler


class TestListState:
    """The sampler keeps its counts, assignments and smoothed factors in
    lists and takes n + alpha and n + beta from tables; the arrays it hands
    out are built on each read."""

    @pytest.mark.parametrize("large_alpha", [False, True])
    def test_default_topic_count(self, large_alpha):
        num_topics = PipelineConfig.topics
        alpha = 50.0 / num_topics if large_alpha else 0.01
        _sweep_against_reference(
            (_random_docs(50, n_docs=30), num_topics, alpha, 0.01, 16, 5), 3)

    def test_dominant_word_reaches_the_top_of_its_table(self):
        """Word 0 is 120 of the 142 tokens, all in one document; by the
        last sweep one topic holds every one of them, so its count and the
        document's reach the ends of the n + beta and n + alpha tables."""
        rng = np.random.RandomState(4)
        docs = [[0] * 120] + [[int(w) for w in rng.randint(1, 8, size=rng.randint(1, 6))]
                              for _ in range(10)]
        sampler = _sweep_against_reference((docs, 2, 0.01, 0.01, 8, 2), 8)
        assert sampler.n_kw[:, 0].max() == 120
        assert sampler.n_dk[0].max() == 120

    @pytest.mark.parametrize("num_topics", [1, 3, 6])
    def test_single_token_documents(self, num_topics):
        docs = [[w % 9] for w in range(25)] + [[4]]
        _sweep_against_reference((docs, num_topics, 0.1, 0.01, 10, 3), 5)

    def test_reading_and_writing_the_arrays_leaves_the_state(self):
        def scribble(sampler):
            for arr in (sampler.n_dk, sampler.n_kw, sampler.n_k, *sampler.assignments):
                arr[...] = 7
        _sweep_against_reference((_random_docs(6), 6, 0.1, 0.01, 16, 9), 4,
                                 between=scribble)

    def test_arrays_have_the_reference_layout(self):
        sampler = CollapsedGibbsSampler(_random_docs(3), 3, 0.1, 0.01, 16, 1)
        sampler.sweep()
        for arr in (sampler.n_dk, sampler.n_kw, sampler.n_k, *sampler.assignments):
            assert arr.dtype == np.int64 and arr.flags.c_contiguous
        assert sampler.n_kw.shape == (3, 16)
        assert sampler.n_dk.shape == (len(sampler.docs), 3)


class TestTokenIds:
    """A token id must be an integer in [0, vocab_size); the error names
    the document, counted among all the documents passed, and the id."""

    @pytest.mark.parametrize("doc, message", [
        ([0, 1, -1], "document 1: token id -1 "),   # not word V-1
        ([0, 3, 1], "document 1: token id 3 "),     # not an IndexError
        ([0, 1.0, 1], "document 1: token id 1.0 "),  # not a TypeError
    ])
    def test_train_lda_rejects(self, doc, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            train_lda([[], doc, [1, 2]], 2, iterations=1, vocab_size=3)

    @pytest.mark.parametrize("doc, message", [
        ([0, 1, -1], "document 1: token id -1 "),
        ([0, 3, 1], "document 1: token id 3 "),
        ([0, 1.0, 1], "document 1: token id 1.0 "),
    ])
    def test_sampler_rejects(self, doc, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            CollapsedGibbsSampler([[2], doc], 2, 0.5, 0.01, 3, 0)

    def test_negative_id_without_a_vocabulary_size(self):
        with pytest.raises(ValueError, match=re.escape("document 0: token id -1 ")):
            train_lda([[0, 1, -1], [1, 2]], 2, iterations=1)

    def test_numpy_integer_ids_are_accepted(self):
        docs = _random_docs(2)
        as_numpy = [np.array(d, dtype=np.int64) for d in docs]
        assert np.array_equal(train_lda(as_numpy, 2, iterations=2, seed=1).phi,
                              train_lda(docs, 2, iterations=2, seed=1).phi)


class TestQuickstartModel:
    """The README quickstart's topic model, pinned to the bytes of its
    topics.txt: a change to the sampler that moves one draw fails here."""

    DIGEST = "3d4bec1f2b4e0f5cb9425798cd25ac5235a5183b9d93e978a414d66eb8c0dce7"

    def test_topics_txt_digest(self, tmp_path):
        data = generate(SynthSpec(size=240, topics=6, seed=1))
        for key in ("qa", "users"):
            (tmp_path / f"{key}.jsonl").write_text(
                "".join(line + "\n" for line in data[key]), encoding="utf-8")
        cfg = PipelineConfig(qa_path=str(tmp_path / "qa.jsonl"),
                             users_path=str(tmp_path / "users.jsonl"),
                             queries_path=str(tmp_path / "queries.jsonl"),
                             topics=6, gibbs_iters=150, seed=7)
        path = tmp_path / "topics.txt"
        train_topics(cfg, ingest(cfg)).save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.DIGEST


class TestFoldInMemo:
    """Fold-in keeps the cumulative weights of each (word, other tokens'
    counts) state for the rest of the call; theta must not move."""

    @pytest.mark.parametrize("num_topics", [1, 2, 6, 20])
    @pytest.mark.parametrize("burn_in", [0, 50])
    def test_equal_to_the_reference_on_queries_of_one_to_six_tokens(
            self, num_topics, burn_in):
        model = train_lda(_random_docs(num_topics), num_topics, 0.1, 0.01,
                          iterations=3, seed=2, vocab_size=16)
        rng = np.random.RandomState(num_topics)
        queries = [[4], [7, 7], [0, 99, 5], [3, 3, 3, 3], [1, -1, 2, 40, 1],
                   [6, 2, 6, 2, 6, 2]]
        for length in range(1, 7):
            # repeated words, and ids outside [0, 16) that fold-in skips
            queries.append([int(w) for w in rng.randint(-2, 20, size=length)])
        kept = np.random.RandomState(0)
        for tokens in queries:
            for seed in (0, 11):
                want = reference_scoring.fold_in(model, tokens, burn_in, 20, seed)
                got = infer_query_topics(model, tokens, burn_in, samples=20,
                                         seed=seed, rng=kept)
                assert np.array_equal(got.theta, want.theta), tokens
                assert got.oov_fallback == want.oov_fallback

    def test_reuses_cumulative_weights(self, monkeypatch):
        """A 3-token query over 70 sweeps takes 210 draws; without the memo
        every draw would accumulate its own weights."""
        import cqarank.topics as topics

        model = train_lda(_random_docs(6), 6, 0.1, 0.01, iterations=3, seed=2,
                          vocab_size=16)
        calls = []

        def counting(values):
            calls.append(1)
            return accumulate(values)

        monkeypatch.setattr(topics, "accumulate", counting)
        topics.infer_query_topics(model, [2, 5, 9], burn_in=50, samples=20, seed=3)
        assert 0 < len(calls) < 3 * 70


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

    def test_sweep_counts_validated(self, separated_model):
        model, _, _ = separated_model
        with pytest.raises(ValueError, match="samples must be >= 1"):
            infer_query_topics(model, [0, 1], samples=0, seed=0)
        # a negative burn-in would average burn_in + samples sweeps but
        # divide by samples, so theta would not sum to 1
        with pytest.raises(ValueError, match="burn_in must be >= 0"):
            infer_query_topics(model, [0, 1], burn_in=-1, samples=20, seed=0)
        post = infer_query_topics(model, [0, 1], burn_in=0, samples=20, seed=0)
        assert abs(float(post.theta.sum()) - 1.0) < 1e-9


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


def _saved_per_value(model) -> str:
    """The oracle for TopicModel.save: every phi entry formatted by its own
    repr call."""
    lines = [f"{model.num_topics} {model.vocab_size} {model.alpha!r} "
             f"{model.beta!r} {model.seed} {model.iterations}",
             " ".join(str(int(n)) for n in model.topic_totals)]
    lines += [" ".join(repr(float(p)) for p in row) for row in model.phi]
    return "".join(line + "\n" for line in lines)


def _model(rows, totals=None) -> TopicModel:
    phi = np.array(rows, dtype=np.float64)
    if totals is None:
        totals = [3] * phi.shape[0]
    return TopicModel(phi=phi, topic_totals=np.array(totals, dtype=np.int64),
                      alpha=0.5, beta=0.01, vocab_size=phi.shape[1],
                      iterations=9, seed=4)


def _counts_model() -> TopicModel:
    """phi read out from small counts, as training does: 300 entries per
    topic and few distinct values among them."""
    counts = np.random.RandomState(3).randint(0, 4, size=(3, 300))
    beta, v = 0.01, counts.shape[1]
    phi = (counts + beta) / (counts.sum(axis=1) + v * beta)[:, None]
    return _model(phi, counts.sum(axis=1))


_THIRD_UP = float(np.nextafter(1 / 3, 1))  # repr needs 17 significant digits
PHI_CASES = {
    "many repeated values": _counts_model(),
    "17 significant digits": _model([[_THIRD_UP, 0.1 + 0.2, 1 - _THIRD_UP - (0.1 + 0.2)],
                                     [0.25, 0.25, 0.5]]),
    "smallest subnormal": _model([[5e-324, 1.0], [0.5, 0.5]]),
    "1x1": _model([[1.0]]),
}


class TestPhiText:
    """save formats each distinct phi value once; the bytes are those of one
    repr per entry, and load reads the same values back from the image."""

    def test_the_cases_are_what_they_say(self):
        phi = PHI_CASES["many repeated values"].phi
        assert len(np.unique(phi)) < phi.size / 50
        assert len(repr(_THIRD_UP).lstrip("0.")) == 17
        assert repr(float(PHI_CASES["smallest subnormal"].phi[0, 0])) == "5e-324"

    @pytest.mark.parametrize("case", PHI_CASES)
    def test_save_writes_the_per_value_bytes_and_load_reads_them_back(
            self, tmp_path, case):
        model = PHI_CASES[case]
        path = tmp_path / "topics.txt"
        model.save(path)
        assert path.read_text(encoding="utf-8") == _saved_per_value(model)
        loaded = TopicModel.load(path)
        assert np.array_equal(loaded.phi, model.phi)
        assert np.array_equal(loaded.topic_totals, model.topic_totals)

    def test_zero_and_negative_zero_keep_their_signs(self, tmp_path):
        """Distinct bit patterns are formatted apart, so -0.0 is not written
        as 0.0 (such a model does not load: its entries are not positive)."""
        model = _model([[0.0, -0.0, 1.0], [-0.0, 0.5, 0.5]])
        path = tmp_path / "topics.txt"
        model.save(path)
        assert path.read_text(encoding="utf-8") == _saved_per_value(model)


@st.composite
def _topic_models(draw):
    """A TopicModel whose phi rows sum to 1 and whose every entry is at
    least 1e-4."""
    k, v = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    rows = []
    for _ in range(k):
        weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=v, max_size=v))
        total = sum(weights)
        rows.append([x / total for x in weights])
    totals = draw(st.lists(st.integers(0, 10**6), min_size=k, max_size=k))
    return TopicModel(phi=np.array(rows), topic_totals=np.array(totals, dtype=np.int64),
                      alpha=draw(st.floats(1e-3, 100.0)), beta=draw(st.floats(1e-4, 1.0)),
                      vocab_size=v, iterations=draw(st.integers(1, 10**4)),
                      seed=draw(st.integers(0, 2**32 - 1)))


_PROPERTY = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


class TestRoundTripProperties:
    @_PROPERTY
    @given(model=_topic_models())
    def test_save_load_save_is_byte_identical(self, tmp_path_factory, model):
        path = tmp_path_factory.mktemp("rt") / "topics.txt"
        model.save(path)
        saved = path.read_bytes()
        loaded = TopicModel.load(path)
        assert np.array_equal(loaded.phi, model.phi)
        assert np.array_equal(loaded.topic_totals, model.topic_totals)
        assert ((loaded.alpha, loaded.beta, loaded.vocab_size, loaded.iterations,
                 loaded.seed) == (model.alpha, model.beta, model.vocab_size,
                                  model.iterations, model.seed))
        loaded.save(path)
        assert path.read_bytes() == saved
