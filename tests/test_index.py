import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
import reference_scoring as ref
from cqarank.index import (bm25_score, bm25_scores, build_index, retrieve_candidates,
                           vsm_score, vsm_scores)
from conftest import build_corpus


@pytest.fixture
def two_doc_corpus():
    return build_corpus([
        ("d1", "a b", "", "u1", "u2"),
        ("d2", "b", "", "u1", "u2"),
    ])


def _token_docs(corpus, field="question_and_answer"):
    docs = {}
    for p in corpus.pairs:
        tokens = p.question_tokens
        if field == "question_and_answer":
            tokens = tokens + p.answer_tokens
        docs[p.id] = list(tokens)
    return docs


def _dict_postings(index, terms):
    """{term: [(qa_id, tf), ...]} in posting order, read from one postings
    call over distinct `terms`; a term with no postings is left out."""
    docs, tfs, counts = index.postings(terms)
    rows, at = {}, 0
    for term, count in zip(terms, counts.tolist()):
        if count:
            rows[term] = [(index.doc_ids[d], tf) for d, tf in zip(
                docs[at:at + count].tolist(), tfs[at:at + count].tolist())]
        at += count
    return rows


def _reference_postings(want):
    return {term: list(row.items()) for term, row in want.postings.items()}


class TestBuild:
    def test_postings(self, two_doc_corpus):
        index = build_index(two_doc_corpus)
        a = two_doc_corpus.vocabulary.tokens().index("a")
        b = two_doc_corpus.vocabulary.tokens().index("b")
        docs, tfs, counts = index.postings([a, b])
        assert (docs.tolist(), tfs.tolist(), counts.tolist()) == ([0, 0, 1], [1, 1, 1],
                                                                  [1, 2])
        assert _dict_postings(index, [a, b]) == _reference_postings(
            ref.build_index(two_doc_corpus))

    def test_avgdl(self, two_doc_corpus):
        index = build_index(two_doc_corpus)
        assert index.avgdl == pytest.approx(1.5)

    def test_question_field_excludes_answers(self):
        corpus = build_corpus([("d1", "a b", "x y z", "u1", "u2")])
        terms = list(range(len(corpus.vocabulary)))
        for field, length in (("question", 2), ("question_and_answer", 5)):
            index = build_index(corpus, field)
            want = ref.build_index(corpus, field)
            assert index.doc_lens.tolist() == [want.doc_len["d1"]] == [length]
            assert _dict_postings(index, terms) == _reference_postings(want)

    def test_doc_len_equals_posting_sum(self, two_doc_corpus):
        index = build_index(two_doc_corpus)
        want = ref.build_index(two_doc_corpus)
        docs, tfs, _ = index.postings(range(len(two_doc_corpus.vocabulary)))
        totals = [0] * len(index.doc_ids)
        for d, tf in zip(docs.tolist(), tfs.tolist()):
            totals[d] += tf
        assert totals == index.doc_lens.tolist() == [
            want.doc_len[pair.id] for pair in two_doc_corpus.pairs]

    def test_empty_corpus_rejected(self, two_doc_corpus):
        two_doc_corpus.pairs = []
        with pytest.raises(ValueError):
            build_index(two_doc_corpus)


class TestBM25:
    def test_no_overlap_scores_zero(self, two_doc_corpus):
        index = build_index(two_doc_corpus)
        assert bm25_score([999], "d1", index) == 0.0

    def test_matches_direct_formula(self, two_doc_corpus):
        index = build_index(two_doc_corpus)
        a = two_doc_corpus.vocabulary.tokens().index("a")
        got = bm25_score([a], "d1", index, k1=1.2, b=0.75)
        want = oracle.bm25([a], _token_docs(two_doc_corpus), "d1", k1=1.2, b=0.75)
        assert got == pytest.approx(want, abs=1e-12)
        # frozen from the direct formula: idf=ln 2, tf=1, dl=2, avgdl=1.5
        assert got == pytest.approx(math.log(2.0) * 2.2 / 2.5, abs=1e-12)

    def test_tf_saturation(self):
        corpus = build_corpus([
            ("d1", "a x", "", "u1", "u2"),
            ("d2", "a a", "", "u1", "u2"),
            ("d3", "y z", "", "u1", "u2"),
        ])
        index = build_index(corpus)
        a = corpus.vocabulary.tokens().index("a")
        one = bm25_score([a], "d1", index)
        two = bm25_score([a], "d2", index)
        assert two > one
        assert two < 2 * one

    def test_parameter_validation(self, two_doc_corpus):
        index = build_index(two_doc_corpus)
        with pytest.raises(ValueError):
            bm25_score([0], "d1", index, k1=0.0)
        with pytest.raises(ValueError):
            bm25_score([0], "d1", index, b=1.5)

    @pytest.mark.parametrize("k1, b", [(0.0, 0.75), (-1.0, 0.75), (math.nan, 0.75),
                                       (1.2, -0.1), (1.2, 1.5), (1.2, math.nan)])
    def test_retrieval_checks_the_same_parameters(self, two_doc_corpus, k1, b):
        """A negative k1 would rank by negated BM25."""
        index = build_index(two_doc_corpus)
        for call in (lambda: bm25_score([0], "d1", index, k1=k1, b=b),
                     lambda: retrieve_candidates([0], index, 5, k1=k1, b=b)):
            with pytest.raises(ValueError, match=r"require k1 > 0 and 0 <= b <= 1"):
                call()

    @pytest.mark.parametrize("k1, b", [(1e-9, 0.0), (1.2, 1.0)])
    def test_parameter_bounds_are_accepted(self, two_doc_corpus, k1, b):
        index = build_index(two_doc_corpus)
        got = retrieve_candidates([0], index, 5, k1=k1, b=b)
        assert got and all(c.score == bm25_score([0], c.qa_id, index, k1, b)
                           for c in got)


class TestVSM:
    def test_identical_doc_scores_one(self):
        corpus = build_corpus([
            ("d1", "a b", "", "u1", "u2"),
            ("d2", "c d", "", "u1", "u2"),
        ])
        index = build_index(corpus)
        query = list(corpus.pair("d1").question_tokens)
        assert vsm_score(query, "d1", index) == pytest.approx(1.0)

    def test_orthogonal_terms_score_zero(self, two_doc_corpus):
        index = build_index(two_doc_corpus)
        a = two_doc_corpus.vocabulary.tokens().index("a")
        assert vsm_score([a], "d2", index) == 0.0

    def test_matches_direct_cosine(self):
        corpus = build_corpus([
            ("d1", "a b b", "", "u1", "u2"),
            ("d2", "a c", "", "u1", "u2"),
        ])
        index = build_index(corpus)
        docs = _token_docs(corpus)
        a = corpus.vocabulary.tokens().index("a")
        b = corpus.vocabulary.tokens().index("b")
        for doc_id in ("d1", "d2"):
            got = vsm_score([a, b], doc_id, index)
            assert got == pytest.approx(oracle.vsm([a, b], docs, doc_id), abs=1e-12)
            assert 0.0 <= got <= 1.0

    def test_unknown_id_scores_zero(self, two_doc_corpus):
        index = build_index(two_doc_corpus)
        assert vsm_score([0, 1], "nope", index) == 0.0


class TestRetrieve:
    def test_truncates_to_corpus(self):
        corpus = build_corpus([(f"d{i}", f"common w{i}", "", "u1", "u2")
                               for i in range(10)])
        index = build_index(corpus)
        common = corpus.vocabulary.tokens().index("common")
        results = retrieve_candidates([common], index, k=500)
        assert len(results) == 10

    def test_tie_break_ascending_id(self):
        corpus = build_corpus([
            ("z9", "a", "", "u1", "u2"),
            ("a1", "a", "", "u1", "u2"),
            ("m5", "a", "", "u1", "u2"),
        ])
        index = build_index(corpus)
        a = corpus.vocabulary.tokens().index("a")
        results = retrieve_candidates([a], index, k=3)
        assert [r.qa_id for r in results] == ["a1", "m5", "z9"]

    def test_unseen_terms_empty(self, two_doc_corpus):
        index = build_index(two_doc_corpus)
        assert retrieve_candidates([777], index, k=5) == []

    def test_sorted_by_descending_score(self):
        corpus = build_corpus([(f"d{i}", "a " * (i + 1), "", "u1", "u2")
                               for i in range(6)])
        index = build_index(corpus)
        a = corpus.vocabulary.tokens().index("a")
        results = retrieve_candidates([a], index, k=4)
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)
        assert [r.qa_id for r in results] == ["d5", "d4", "d3", "d2"]

    def test_agrees_with_bm25_score(self, two_doc_corpus):
        index = build_index(two_doc_corpus)
        a = two_doc_corpus.vocabulary.tokens().index("a")
        b = two_doc_corpus.vocabulary.tokens().index("b")
        results = {r.qa_id: r.score for r in retrieve_candidates([a, b], index, k=10)}
        for doc_id, score in results.items():
            assert score == bm25_score([a, b], doc_id, index)

    def test_k_validation(self, two_doc_corpus):
        index = build_index(two_doc_corpus)
        with pytest.raises(ValueError):
            retrieve_candidates([0], index, k=0)


class TestInvariance:
    def test_scores_invariant_under_doc_permutation(self):
        specs = [(f"d{i}", f"a w{i} w{i}", f"b w{i}", "u1", "u2") for i in range(5)]
        fwd = build_corpus(specs)
        rev = build_corpus(specs[::-1])
        q = [fwd.vocabulary.tokens().index("a"), fwd.vocabulary.tokens().index("b")]
        q_rev = [rev.vocabulary.tokens().index("a"), rev.vocabulary.tokens().index("b")]
        idx_fwd = build_index(fwd)
        idx_rev = build_index(rev)
        for pid in ("d0", "d3"):
            assert bm25_score(q, pid, idx_fwd) == pytest.approx(
                bm25_score(q_rev, pid, idx_rev), abs=1e-12)
            assert vsm_score(q, pid, idx_fwd) == pytest.approx(
                vsm_score(q_rev, pid, idx_rev), abs=1e-12)

    def test_unrelated_doc_leaves_term_freqs_alone(self):
        base = [("d1", "a b a", "c", "u1", "u2")]
        small = build_index(build_corpus(base))
        grown_corpus = build_corpus(base + [("d2", "x y", "z", "u1", "u2")])
        grown = build_index(grown_corpus)
        want = ref.build_index(grown_corpus)
        terms = list(range(3))
        assert _dict_postings(small, terms) == _dict_postings(grown, terms) == {
            t: row for t, row in _reference_postings(want).items() if t in terms}
        assert small.doc_lens[0] == grown.doc_lens[0] == want.doc_len["d1"] == 4
        assert small.doc_norms[0] == 0.0 < grown.doc_norms[0] == want.doc_norm["d1"]


@st.composite
def _archives(draw):
    """A corpus over a small vocabulary, so postings are long and BM25 ties
    occur, and queries drawn from it plus ids no pair holds. Pairs hold up
    to 20 words, so a tf-idf norm added in another order shows."""
    ids = draw(st.lists(st.text("abcxyz09", min_size=1, max_size=3),
                        min_size=1, max_size=12, unique=True))
    words = st.lists(st.sampled_from("a b c d e f g h i j k l".split()),
                     max_size=10)
    specs = [(qa_id, " ".join(draw(words) or ["a"]), " ".join(draw(words)),
              "u1", "u2") for qa_id in ids]
    corpus = build_corpus(specs)
    term = st.integers(-1, len(corpus.vocabulary) + 2)
    queries = draw(st.lists(st.lists(term, min_size=1, max_size=6),
                            min_size=1, max_size=5))
    return corpus, queries


_PROPERTY = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


class TestAgainstDictPostings:
    """The posting arrays against the {term: {qa_id: tf}} loops of
    reference_scoring.py, with ==."""

    @_PROPERTY
    @given(archive=_archives(), field=st.sampled_from(["question",
                                                       "question_and_answer"]))
    def test_postings_and_norms_equal(self, archive, field):
        corpus, queries = archive
        index = build_index(corpus, field)
        want = ref.build_index(corpus, field)
        assert index.avgdl == want.avgdl
        terms = list(range(-1, len(corpus.vocabulary) + 2))
        assert index.postings(terms)[2].tolist() == [want.df(t) for t in terms]
        assert _dict_postings(index, terms) == _reference_postings(want)
        assert index.doc_lens.tolist() == [want.doc_len[p.id] for p in corpus.pairs]
        assert index.doc_norms.tolist() == [want.doc_norm[p.id] for p in corpus.pairs]

    @_PROPERTY
    @given(archive=_archives(), field=st.sampled_from(["question",
                                                       "question_and_answer"]))
    def test_scores_equal(self, archive, field):
        """Every pair's BM25 and VSM score, also for queries that repeat a
        term around another and hold ids no pair has."""
        corpus, queries = archive
        index = build_index(corpus, field)
        want = ref.build_index(corpus, field)
        unheld = [-1, len(corpus.vocabulary) + 1]
        for query in queries + [q + unheld + q[:1] for q in queries]:
            bm25, matched = bm25_scores(query, index)
            want_bm25 = ref.bm25_scores(query, want)
            assert [index.doc_ids[d] for d in matched] == [
                p.id for p in corpus.pairs if p.id in want_bm25]
            assert bm25.tolist() == [want_bm25.get(p.id, 0.0) for p in corpus.pairs]
            assert vsm_scores(query, index).tolist() == [
                ref.vsm_score(query, p.id, want) for p in corpus.pairs]

    @_PROPERTY
    @given(archive=_archives(), field=st.sampled_from(["question",
                                                       "question_and_answer"]),
           k=st.integers(1, 14))
    def test_candidates_equal(self, archive, field, k):
        corpus, queries = archive
        index = build_index(corpus, field)
        want = ref.build_index(corpus, field)
        for query in queries:
            got = retrieve_candidates(query, index, k)
            assert got == ref.retrieve_candidates(query, want, k)
            if not any(want.df(t) for t in query):
                assert got == []

    def test_ties_cut_at_k_by_qa_id(self):
        corpus = build_corpus([(qa_id, "a b", "", "u1", "u2")
                               for qa_id in ("m", "b", "z", "a", "k")])
        index = build_index(corpus)
        a = corpus.vocabulary.tokens().index("a")
        got = retrieve_candidates([a], index, k=3)
        assert [c.qa_id for c in got] == ["a", "b", "k"]
        assert got == ref.retrieve_candidates([a], ref.build_index(corpus), 3)
