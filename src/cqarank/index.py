"""Inverted index with BM25 and VSM scoring; top-K candidate generation.

Each measure has one batch function that scores every pair from the query
terms' postings; the one-pair scores and the top-k candidates read it."""

import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import Corpus
from .evaluation import _check_cutoff

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75


class ScoredCandidate(NamedTuple):
    qa_id: str
    score: float


@dataclass(frozen=True, eq=False)
class InvertedIndex:
    """Term -> postings over Q&A pairs, for one field selection.

    Pairs are numbered in corpus order. A posting of term t in pair d is the
    key t * N + d, N the pair count; the keys are sorted, so term t's
    postings are the slice start[t]:start[t + 1], in corpus order, and tfs
    holds each posting's term frequency. idfs[t] is VSM's ln(N / df), 0 for
    a term no pair holds, and doc_norms the pairs' tf-idf norms. pair_of
    maps a qa_id to its pair number, and id_rank[d] is the rank of pair d's
    id in ascending order, the tie-break of retrieval.
    """

    doc_ids: list[str]
    keys: np.ndarray
    tfs: np.ndarray
    start: np.ndarray
    idfs: list[float]
    doc_lens: np.ndarray
    doc_norms: np.ndarray
    avgdl: float
    pair_of: dict[str, int]
    id_rank: np.ndarray

    def postings(self, terms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The postings of `terms`, each term's slice after the one before:
        every posting's pair number and tf, and each term's posting count,
        0 for a term no pair holds."""
        terms = np.asarray(terms, dtype=np.int64)
        held = (terms >= 0) & (terms < len(self.start) - 1)
        lo = self.start[np.where(held, terms, 0)]
        counts = self.start[np.where(held, terms + 1, 0)] - lo
        at = np.arange(int(counts.sum())) + np.repeat(lo - (np.cumsum(counts) - counts),
                                                      counts)
        return self.keys[at] % len(self.doc_ids), self.tfs[at], counts


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
    doc_ids = [pair.id for pair in corpus.pairs]
    id_rank = np.empty(n, dtype=np.int64)
    id_rank[sorted(range(n), key=doc_ids.__getitem__)] = np.arange(n)
    return InvertedIndex(doc_ids, keys, tfs, start, idfs, lens, norms, total_len / n,
                         {qa_id: d for d, qa_id in enumerate(doc_ids)}, id_rank)


def _check_bm25_params(k1: float, b: float) -> None:
    if not (k1 > 0 and 0.0 <= b <= 1.0):
        raise ValueError("require k1 > 0 and 0 <= b <= 1")


def bm25_scores(query_tokens, index: InvertedIndex, k1: float = DEFAULT_K1,
                b: float = DEFAULT_B) -> tuple[np.ndarray, np.ndarray]:
    """Every pair's Okapi BM25 score, idf = ln((N - df + 0.5)/(df + 0.5) + 1),
    and the pairs sharing a term with the query, ascending.

    A pair's score adds the query's distinct terms in the order they first
    occur in it, starting from 0, each term's contribution times the
    number of times the query holds it."""
    _check_bm25_params(k1, b)
    q_tf = Counter(query_tokens)
    docs, tf, counts = index.postings(list(q_tf))
    n = len(index.doc_ids)
    idf = np.repeat([math.log((n - df + 0.5) / (df + 0.5) + 1.0)
                     for df in counts.tolist()], counts)
    denom = tf + k1 * (1.0 - b + b * index.doc_lens[docs] / index.avgdl)
    contrib = idf * tf * (k1 + 1.0) / denom
    scores = np.bincount(docs, weights=np.repeat(list(q_tf.values()), counts) * contrib,
                         minlength=n)
    return scores, np.flatnonzero(np.bincount(docs, minlength=n))


def bm25_score(query_tokens, qa_id: str, index: InvertedIndex,
               k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> float:
    """The pair's entry of bm25_scores."""
    return float(bm25_scores(query_tokens, index, k1, b)[0][index.pair_of[qa_id]])


def vsm_scores(query_tokens, index: InvertedIndex) -> np.ndarray:
    """Every pair's cosine similarity to the query, over raw-tf x idf
    vectors with idf = ln(N/df); 0 where either norm is 0.

    A pair's dot product, and the query's squared norm, add the query's
    distinct terms in the order they first occur in it, starting from 0."""
    q_tf = Counter(query_tokens)
    docs, tf, counts = index.postings(list(q_tf))
    idf = [index.idfs[t] if df else 0.0 for t, df in zip(q_tf, counts.tolist())]
    qw = [c * w for c, w in zip(q_tf.values(), idf)]
    q_norm_sq = 0.0
    for w in qw:
        q_norm_sq += w * w
    dot = np.bincount(docs, weights=np.repeat(qw, counts) * tf * np.repeat(idf, counts),
                      minlength=len(index.doc_ids))
    scores = np.zeros(len(index.doc_ids))
    if q_norm_sq:
        np.divide(dot, math.sqrt(q_norm_sq) * index.doc_norms, out=scores,
                  where=index.doc_norms != 0.0)
    return scores


def vsm_score(query_tokens, qa_id: str, index: InvertedIndex) -> float:
    """The pair's entry of vsm_scores; 0 for an id the index does not hold."""
    d = index.pair_of.get(qa_id)
    return 0.0 if d is None else float(vsm_scores(query_tokens, index)[d])


def retrieve_candidates(query_tokens, index: InvertedIndex, k: int,
                        k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> list[ScoredCandidate]:
    """Top-k pairs by BM25; ties broken by ascending qa_id. Docs sharing no
    term with the query are not returned."""
    _check_cutoff(k)
    scores, matched = bm25_scores(query_tokens, index, k1, b)
    top = matched[np.lexsort((index.id_rank[matched], -scores[matched]))][:k]
    return [ScoredCandidate(index.doc_ids[d], s)
            for d, s in zip(top.tolist(), scores[top].tolist())]
