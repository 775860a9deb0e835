"""Inverted index with BM25 and VSM scoring; top-K candidate generation."""

import math
from dataclasses import dataclass

from .corpus import Corpus

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75


@dataclass(frozen=True)
class ScoredCandidate:
    qa_id: str
    score: float


class InvertedIndex:
    """Term -> postings over Q&A pairs, for one field selection.

    Each term's postings are a {qa_id: term frequency} dict in corpus order,
    for O(1) scoring lookups.
    """

    def __init__(self) -> None:
        self._tf: dict[int, dict[str, int]] = {}
        self.doc_len: dict[str, int] = {}
        self.doc_count = 0
        self.avgdl = 0.0
        self._doc_norm: dict[str, float] = {}

    def df(self, term: int) -> int:
        return len(self._tf.get(term, ()))

    def tf(self, term: int, qa_id: str) -> int:
        return self._tf.get(term, {}).get(qa_id, 0)

    def vsm_idf(self, term: int) -> float:
        df = self.df(term)
        if df == 0:
            return 0.0
        return math.log(self.doc_count / df)

    def bm25_idf(self, term: int) -> float:
        df = self.df(term)
        return math.log((self.doc_count - df + 0.5) / (df + 0.5) + 1.0)

    def doc_norm(self, qa_id: str) -> float:
        return self._doc_norm.get(qa_id, 0.0)


def _field_tokens(pair, field: str):
    if field == "question":
        return pair.question_tokens
    if field == "question_and_answer":
        return pair.question_tokens + pair.answer_tokens
    raise ValueError(f"unknown index field: {field!r}")


def build_index(corpus: Corpus, field: str = "question_and_answer") -> InvertedIndex:
    """Index the selected field(s) of every pair. Deterministic."""
    if not corpus.pairs:
        raise ValueError("empty corpus")
    index = InvertedIndex()
    total_len = 0
    for pair in corpus.pairs:
        tokens = _field_tokens(pair, field)
        index.doc_len[pair.id] = len(tokens)
        total_len += len(tokens)
        for term in tokens:
            index._tf.setdefault(term, {})
            index._tf[term][pair.id] = index._tf[term].get(pair.id, 0) + 1
    index.doc_count = len(corpus.pairs)
    index.avgdl = total_len / index.doc_count

    # tf-idf norms for cosine scoring, over each doc's full term set
    for pair in corpus.pairs:
        tokens = _field_tokens(pair, field)
        acc = 0.0
        for term in dict.fromkeys(tokens):
            w = index.tf(term, pair.id) * index.vsm_idf(term)
            acc += w * w
        index._doc_norm[pair.id] = math.sqrt(acc)
    return index


def bm25_score(query_tokens, qa_id: str, index: InvertedIndex,
               k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> float:
    """Okapi BM25 with idf = ln((N - df + 0.5)/(df + 0.5) + 1)."""
    if k1 <= 0 or not 0.0 <= b <= 1.0:
        raise ValueError("require k1 > 0 and 0 <= b <= 1")
    dl = index.doc_len[qa_id]
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
    term with the query are not returned."""
    if k < 1:
        raise ValueError("k must be >= 1")
    scores: dict[str, float] = {}
    for term in dict.fromkeys(query_tokens):
        entries = index._tf.get(term)
        if not entries:
            continue
        q_tf = query_tokens.count(term)
        idf = index.bm25_idf(term)
        for qa_id, tf in entries.items():
            dl = index.doc_len[qa_id]
            denom = tf + k1 * (1.0 - b + b * dl / index.avgdl)
            contrib = idf * tf * (k1 + 1.0) / denom
            # query-side tf multiplies the per-term contribution
            scores[qa_id] = scores.get(qa_id, 0.0) + q_tf * contrib
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))[:k]
    return [ScoredCandidate(qa_id=d, score=s) for d, s in ranked]
