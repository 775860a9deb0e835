"""Inverted index with BM25 and VSM scoring; top-K candidate generation."""

import math
from bisect import bisect_left
from typing import NamedTuple

import numpy as np

from .corpus import Corpus

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75


class ScoredCandidate(NamedTuple):
    qa_id: str
    score: float


class InvertedIndex:
    """Term -> postings over Q&A pairs, for one field selection.

    Pairs are numbered in corpus order. A posting of term t in pair d is the
    key t * N + d, N the pair count; the keys are sorted, so term t's
    postings are the slice start[t]:start[t + 1], in corpus order, and tfs
    holds each posting's term frequency. One-value lookups read the arrays
    through memoryviews, which return Python numbers without numpy's
    per-call overhead.
    """

    def __init__(self, doc_ids: list[str], keys: np.ndarray, tfs: np.ndarray,
                 start: np.ndarray, vsm_idfs: list[float], doc_lens: np.ndarray,
                 doc_norms: np.ndarray, avgdl: float) -> None:
        self.doc_ids = doc_ids
        self.doc_count = len(doc_ids)
        self.avgdl = avgdl
        self._pos = {qa_id: d for d, qa_id in enumerate(doc_ids)}
        self._keys, self._tfs, self._start = keys, tfs, start
        self._doc_lens = doc_lens
        self._vsm_idfs = vsm_idfs
        self._key_at, self._tf_at, self._start_at, self._len_at, self._norm_at = (
            memoryview(a) for a in (keys, tfs, start, doc_lens, doc_norms))
        # rank of each pair's id in ascending order, the tie-break of retrieval
        self._id_rank = np.empty(self.doc_count, dtype=np.int64)
        self._id_rank[sorted(range(self.doc_count), key=doc_ids.__getitem__)] = (
            np.arange(self.doc_count))

    def _postings(self, term: int) -> tuple[int, int]:
        """The slice of the term's postings; empty for a term no pair holds."""
        if 0 <= term < len(self._vsm_idfs):
            return self._start_at[term], self._start_at[term + 1]
        return 0, 0

    def df(self, term: int) -> int:
        lo, hi = self._postings(term)
        return hi - lo

    def tf(self, term: int, qa_id: str) -> int:
        d = self._pos.get(qa_id)
        if d is None:
            return 0
        key = term * self.doc_count + d
        lo, hi = self._postings(term)
        i = bisect_left(self._key_at, key, lo, hi)
        return self._tf_at[i] if i < hi and self._key_at[i] == key else 0

    def doc_len(self, qa_id: str) -> int:
        return self._len_at[self._pos[qa_id]]

    def vsm_idf(self, term: int) -> float:
        return self._vsm_idfs[term] if 0 <= term < len(self._vsm_idfs) else 0.0

    def bm25_idf(self, term: int) -> float:
        df = self.df(term)
        return math.log((self.doc_count - df + 0.5) / (df + 0.5) + 1.0)

    def doc_norm(self, qa_id: str) -> float:
        d = self._pos.get(qa_id)
        return 0.0 if d is None else self._norm_at[d]


def _field_tokens(pair, field: str):
    if field == "question":
        return pair.question_tokens
    if field == "question_and_answer":
        return pair.question_tokens + pair.answer_tokens
    raise ValueError(f"unknown index field: {field!r}")


def build_index(corpus: Corpus, field: str = "question_and_answer") -> InvertedIndex:
    """Index the selected field(s) of every pair in one pass: np.unique over
    the keys term * N + pair gives every posting and its frequency.
    Deterministic."""
    if not corpus.pairs:
        raise ValueError("empty corpus")
    fields = [_field_tokens(pair, field) for pair in corpus.pairs]
    n = len(fields)
    lens = np.array([len(tokens) for tokens in fields], dtype=np.int64)
    total_len = int(lens.sum())
    terms = np.fromiter((t for tokens in fields for t in tokens), dtype=np.int64,
                        count=total_len)
    keys, first, tfs = np.unique(terms * n + np.repeat(np.arange(n), lens),
                                 return_index=True, return_counts=True)
    term_of, docs = np.divmod(keys, n)
    n_terms = int(terms.max()) + 1 if total_len else 0
    start = np.searchsorted(term_of, np.arange(n_terms + 1))
    idfs = [math.log(n / df) if df else 0.0 for df in np.diff(start).tolist()]

    # tf-idf norms for cosine scoring, each pair's terms added in the order
    # they first occur in it
    order = np.argsort(first)
    w = tfs[order] * np.array(idfs, dtype=np.float64)[term_of[order]]
    norms = np.sqrt(np.bincount(docs[order], weights=w * w, minlength=n))
    return InvertedIndex([pair.id for pair in corpus.pairs], keys, tfs, start,
                         idfs, lens, norms, total_len / n)


def _check_bm25_params(k1: float, b: float) -> None:
    if not (k1 > 0 and 0.0 <= b <= 1.0):
        raise ValueError("require k1 > 0 and 0 <= b <= 1")


def bm25_score(query_tokens, qa_id: str, index: InvertedIndex,
               k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> float:
    """Okapi BM25 with idf = ln((N - df + 0.5)/(df + 0.5) + 1)."""
    _check_bm25_params(k1, b)
    dl = index.doc_len(qa_id)
    score = 0.0
    for term in query_tokens:
        tf = index.tf(term, qa_id)
        if tf == 0:
            continue
        denom = tf + k1 * (1.0 - b + b * dl / index.avgdl)
        score += index.bm25_idf(term) * tf * (k1 + 1.0) / denom
    return score


def vsm_score(query_tokens, qa_id: str, index: InvertedIndex) -> float:
    """Cosine similarity of raw-tf x idf vectors, idf = ln(N/df)."""
    q_weights: dict[int, float] = {}
    for term in query_tokens:
        q_weights[term] = q_weights.get(term, 0.0) + 1.0
    dot = 0.0
    q_norm_sq = 0.0
    for term, q_tf in q_weights.items():
        idf = index.vsm_idf(term)
        qw = q_tf * idf
        q_norm_sq += qw * qw
        tf = index.tf(term, qa_id)
        if tf:
            dot += qw * tf * idf
    d_norm = index.doc_norm(qa_id)
    if q_norm_sq == 0.0 or d_norm == 0.0:
        return 0.0
    return dot / (math.sqrt(q_norm_sq) * d_norm)


def retrieve_candidates(query_tokens, index: InvertedIndex, k: int,
                        k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> list[ScoredCandidate]:
    """Top-k pairs by BM25; ties broken by ascending qa_id. Docs sharing no
    term with the query are not returned.

    The query terms' postings are laid end to end in query order, so the
    one bincount that sums them adds each pair's terms in that order,
    starting from 0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_bm25_params(k1, b)
    terms = [t for t in dict.fromkeys(query_tokens) if index.df(t)]
    if not terms:
        return []
    lo = index._start[terms]
    counts = index._start[np.add(terms, 1)] - lo
    # posting positions: each term's slice, one after another
    at = np.arange(int(counts.sum())) + np.repeat(lo - (np.cumsum(counts) - counts),
                                                  counts)
    docs = index._keys[at] % index.doc_count
    tf = index._tfs[at]
    idf = np.repeat([index.bm25_idf(t) for t in terms], counts)
    # query-side tf multiplies the per-term contribution
    q_tf = np.repeat([query_tokens.count(t) for t in terms], counts)
    dl = index._doc_lens[docs]
    denom = tf + k1 * (1.0 - b + b * dl / index.avgdl)
    contrib = idf * tf * (k1 + 1.0) / denom
    scores = np.bincount(docs, weights=q_tf * contrib, minlength=index.doc_count)
    matched = np.flatnonzero(np.bincount(docs, minlength=index.doc_count))
    top = matched[np.lexsort((index._id_rank[matched], -scores[matched]))][:k]
    return [ScoredCandidate(index.doc_ids[d], s)
            for d, s in zip(top.tolist(), scores[top].tolist())]
