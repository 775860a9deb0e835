"""Query-likelihood scorers: LM and TLM baselines, the topic translation
scorer, its term-weighted upgrade, and the four relevance features.

All scores live in the log domain; per-term probabilities are blended with
the collection background P_ml(w|C) using lambda = 1/(len+1) for the side
(question or answer) the component reads from, which keeps every log
argument strictly positive. Each component of the mixed scorer is smoothed
the same way its corresponding standalone feature is, so setting one mixture
weight to 1 reproduces the matching baseline exactly.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .corpus import CollectionStats, QAPair, doc_distribution
from .topics import QueryTopicPosterior, TopicModel
from .translation import TranslationTable

TermWeightVector = dict[int, float]


@dataclass(frozen=True)
class MixtureWeights:
    """Component weights of the mixed scorer; must form a convex combination."""

    mu1: float
    mu2: float
    mu3: float
    mu4: float

    def __post_init__(self) -> None:
        parts = (self.mu1, self.mu2, self.mu3, self.mu4)
        if any(not 0.0 <= m <= 1.0 for m in parts):
            raise ValueError("mixture weights must lie in [0, 1]")
        if abs(sum(parts) - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.mu1, self.mu2, self.mu3, self.mu4)


@dataclass(frozen=True)
class RelevanceFeatures:
    f1: float
    f2: float
    f3: float
    f4: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.f1, self.f2, self.f3, self.f4)


def smoothing_lambda(doc_len: int) -> float:
    """lambda = 1/(len + 1); an empty side degenerates to 1 (background only)."""
    return 1.0 / (doc_len + 1)


def _tau_vector(theta, num_topics: int) -> np.ndarray:
    """Topic weighting vector: a posterior for the weighted scorer, or all
    ones for the unweighted one (also the test-only injection hook)."""
    if isinstance(theta, QueryTopicPosterior):
        vec = np.asarray(theta.theta, dtype=np.float64)
    else:
        vec = np.asarray(theta, dtype=np.float64)
    if vec.shape != (num_topics,):
        raise ValueError("topic posterior length does not match the model")
    return vec


def term_weights(model: TopicModel, theta, query_tokens,
                 rescale: bool = False) -> TermWeightVector:
    """Entropy-based weight of each query word under the query's topic mixture.

    W(w) = [-sum_i tau_i p(w|z_i) ln p(w|z_i)] / [same summed over the query],
    where the denominator runs over query token occurrences. With `rescale`
    the weights are multiplied by |query| so they average 1 instead of
    summing to 1.
    """
    if len(query_tokens) == 0:
        raise ValueError("empty query")
    tau = _tau_vector(theta, model.num_topics)
    nums: dict[int, float] = {}
    for w in query_tokens:
        if w not in nums:
            col = model.phi_column(w)
            nums[w] = float(-(tau * col * np.log(col)).sum())
    denom = 0.0
    for w in query_tokens:
        denom += nums[w]
    if not denom > 0.0:
        raise ValueError("degenerate topic model")
    scale = float(len(query_tokens)) if rescale else 1.0
    return {w: scale * n / denom for w, n in nums.items()}


def _end_to_end(docs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each document's distinct terms and their P_ml, in doc_distribution
    order, laid end to end: (start, terms, probs), document d's entries
    being start[d]:start[d + 1]."""
    dists = [doc_distribution(tokens) for tokens in docs]
    start = np.zeros(len(dists) + 1, dtype=np.int64)
    np.cumsum([len(dist) for dist in dists], out=start[1:])
    size = int(start[-1])
    return (start,
            np.fromiter(chain.from_iterable(dists), dtype=np.int64, count=size),
            np.fromiter(chain.from_iterable(dist.values() for dist in dists),
                        dtype=np.float64, count=size))


def _gather(start, terms, probs, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The slices of documents `rows` laid end to end, with the position in
    `rows` of the one that owns each entry."""
    rows = np.asarray(rows, dtype=np.int64)
    lengths = start[rows + 1] - start[rows]
    owner = np.repeat(np.arange(len(rows)), lengths)
    at = np.arange(len(owner)) + (start[rows] - (np.cumsum(lengths) - lengths))[owner]
    return terms[at], probs[at], owner


@dataclass(frozen=True, eq=False)
class PairTerms:
    """The query-independent scoring inputs of every pair, in pair order.

    Pair d's distinct question terms, in doc_distribution order, are
    q_terms[q_start[d]:q_start[d + 1]], and their P_ml(t|q) are the same
    slice of q_probs; a_start, a_terms and a_probs hold the answers the
    same way, an empty answer holding none. lam_q and lam_a are the pairs'
    smoothing lambdas, and row d of phi_q is sum_t phi(t) P_ml(t|q), its
    terms added in doc_distribution order; None without a topic model.
    """

    q_start: np.ndarray
    q_terms: np.ndarray
    q_probs: np.ndarray
    a_start: np.ndarray
    a_terms: np.ndarray
    a_probs: np.ndarray
    lam_q: np.ndarray
    lam_a: np.ndarray
    phi_q: np.ndarray | None

    @classmethod
    def build(cls, questions, answers, model: TopicModel | None = None) -> "PairTerms":
        """The store of the pairs whose question and answer tokens are
        questions[d] and answers[d]."""
        if not all(questions):
            raise ValueError("empty question")
        q_start, q_terms, q_probs = _end_to_end(questions)
        a_start, a_terms, a_probs = _end_to_end(answers)
        phi_q = None
        if model is not None:
            # the topic component of every query word then reduces to one
            # dot product with the candidate's row. Rows gain their terms
            # one place at a time, each as phi_column(t) * P_ml(t|q)
            phi_q = np.zeros((len(questions), model.num_topics), dtype=np.float64)
            lengths = np.diff(q_start)
            for j in range(int(lengths.max(initial=0))):
                rows = np.flatnonzero(lengths > j)
                at = q_start[rows] + j
                terms = q_terms[at]
                known = (terms >= 0) & (terms < model.vocab_size)
                columns = np.empty((len(rows), model.num_topics), dtype=np.float64)
                columns[known] = model.phi.T[terms[known]]
                columns[~known] = model.oov_floor()
                phi_q[rows] += columns * q_probs[at][:, None]
        lambdas = [np.fromiter((smoothing_lambda(len(tokens)) for tokens in side),
                               dtype=np.float64, count=len(side))
                   for side in (questions, answers)]
        return cls(q_start, q_terms, q_probs, a_start, a_terms, a_probs,
                   *lambdas, phi_q)

    def question(self, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The question terms and P_ml of pairs `rows` end to end, with the
        position in `rows` of each entry's pair."""
        return _gather(self.q_start, self.q_terms, self.q_probs, rows)

    def answer(self, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The same for the answers."""
        return _gather(self.a_start, self.a_terms, self.a_probs, rows)


class ComponentTable:
    """Component probabilities of one query against its candidates.

    Rows are the query's distinct words in first-occurrence order, columns
    the candidates, which are the pairs `rows` of the store `pairs`, in
    candidate order; their slices of the store are gathered once per
    table. Each component is computed the first time a scorer asks
    for it and kept, so every scorer of the query shares it:

      exact[w, c]      P_ml(w|q)
      trans[w, c]      sum_t P_tr(w|t) P_ml(t|q), added in doc_distribution order
      topic[w, c]      sum_i theta_i phi_i(w) phi_q_i   (tau = the posterior)
      topic_flat[w, c] sum_i phi_i(w) phi_q_i           (tau = all ones)
      answer[w, c]     P_ml(w|a)

    Every scorer is a weighting of these: the term weight W(w) scales exact
    and answer, the question-side lambda smooths the first four against
    P(w|C), the answer-side lambda the last, and the log is summed over
    query token occurrences in query order. That order, math.log per value
    and topic sums added topic by topic in index order keep every score
    bit-identical to evaluating the pair alone, term by term. The kept
    arrays are shared: read them, do not write them.
    """

    def __init__(self, query_tokens, pairs: PairTerms, rows,
                 stats: CollectionStats, table: TranslationTable | None = None,
                 model: TopicModel | None = None, theta=None,
                 weights: TermWeightVector | None = None) -> None:
        self.words = list(dict.fromkeys(query_tokens))
        slot = {w: j for j, w in enumerate(self.words)}
        self.slots = [slot[w] for w in query_tokens]
        self._pairs = pairs
        self.rows = np.asarray(rows, dtype=np.int64)
        self.shape = (len(self.words), len(self.rows))
        self._table = table
        self._model = model
        self._theta = theta
        self._weights = weights
        self.background = self._per_word([stats.prob(w) for w in self.words])
        self.lam_q = self._pairs.lam_q[self.rows]
        self.lam_a = self._pairs.lam_a[self.rows]

    def _per_word(self, values) -> np.ndarray:
        return np.array(values, dtype=np.float64).reshape(len(self.words), 1)

    @cached_property
    def _question(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._pairs.question(self.rows)

    def _match(self, terms, probs, owner) -> np.ndarray:
        """P_ml(w|doc) for every (word, candidate): each term occurs once per
        candidate, so this places values without arithmetic."""
        out = np.zeros(self.shape, dtype=np.float64)
        words = np.array(self.words, dtype=np.int64)
        j, i = np.nonzero(terms[None, :] == words[:, None])
        out[j, owner[i]] = probs[i]
        return out

    @cached_property
    def exact(self) -> np.ndarray:
        return self._match(*self._question)

    @cached_property
    def answer(self) -> np.ndarray:
        return self._match(*self._pairs.answer(self.rows))

    @cached_property
    def trans(self) -> np.ndarray:
        if self._table is None:
            raise ValueError("translation scoring needs a translation table")
        terms, probs, owner = self._question
        sources, inverse = np.unique(terms, return_inverse=True)
        p_tr = self._table.columns(self.words, sources)
        out = np.empty(self.shape, dtype=np.float64)
        for j in range(len(self.words)):
            # bincount adds each candidate's terms in their stored order
            out[j] = np.bincount(owner, weights=p_tr[j, inverse] * probs,
                                 minlength=self.shape[1])
        return out

    def _topic(self, tau: np.ndarray) -> np.ndarray:
        """sum_i tau_i phi_i(w) phi_q_i, the products added topic by topic in
        index order. A BLAS dot product would add them in an order that
        depends on the CPU's kernel."""
        K = len(tau)
        u = tau[:, None] * np.array([self._model.phi_column(w) for w in self.words]
                                    ).reshape(len(self.words), K).T
        phi_q = self._pairs.phi_q[self.rows].T
        terms = u[:, :, None] * phi_q[:, None, :]
        return np.cumsum(terms, axis=0, out=terms)[-1].copy()

    def _num_topics(self) -> int:
        if self._model is None:
            raise ValueError("topic scoring needs a topic model")
        return self._model.num_topics

    @cached_property
    def topic(self) -> np.ndarray:
        return self._topic(_tau_vector(self._theta, self._num_topics()))

    @cached_property
    def topic_flat(self) -> np.ndarray:
        return self._topic(np.ones(self._num_topics(), dtype=np.float64))

    @cached_property
    def weight(self) -> np.ndarray:
        if self._weights is None:
            raise ValueError("term-weighted scoring needs term weights")
        return self._per_word([self._weights[w] for w in self.words])

    def _question_side(self, x: np.ndarray) -> np.ndarray:
        return (1.0 - self.lam_q) * x + self.lam_q * self.background

    def _answer_side(self, x: np.ndarray) -> np.ndarray:
        return (1.0 - self.lam_a) * x + self.lam_a * self.background

    def _log_sums(self, *columns: np.ndarray) -> np.ndarray:
        """Per column and candidate: the sum of ln p over the query's token
        occurrences, added in query order."""
        stacked = np.array(columns, dtype=np.float64)
        logs = np.fromiter(map(math.log, stacked.ravel().tolist()),
                           dtype=np.float64, count=stacked.size)
        logs = logs.reshape(stacked.shape)
        total = np.zeros((len(columns), self.shape[1]), dtype=np.float64)
        for j in self.slots:
            total += logs[:, j]
        return total

    def _components(self, weighted: bool):
        """(exact, translation, topic, answer) under the scorer's weighting."""
        if weighted:
            return (self.weight * self.exact, self.trans, self.topic,
                    self.weight * self.answer)
        return self.exact, self.trans, self.topic_flat, self.answer

    def lm(self) -> np.ndarray:
        return self._log_sums(self._question_side(self.exact))[0]

    def tlm(self) -> np.ndarray:
        return self._log_sums(self._question_side(self.trans))[0]

    def mixture(self, mu: MixtureWeights, weighted: bool) -> np.ndarray:
        """T2LM (unweighted) or T2LM+ (W(w) and the topic posterior)."""
        exact, trans, topic, answer = self._components(weighted)
        p = (mu.mu1 * self._question_side(exact)
             + mu.mu2 * self._question_side(trans)
             + mu.mu3 * self._question_side(topic)
             + mu.mu4 * self._answer_side(answer))
        return self._log_sums(p)[0]

    def features(self) -> np.ndarray:
        """F1..F4 of every candidate, one row each."""
        exact, trans, topic, answer = self._components(weighted=True)
        return self._log_sums(self._question_side(exact),
                              self._question_side(trans),
                              self._question_side(topic),
                              self._answer_side(answer)).T


def score_lm(query_tokens, q_tokens, stats: CollectionStats) -> float:
    """Query-likelihood language model over the question side:
    sum_w ln[(1 - lam)*P_ml(w|q) + lam*P_ml(w|C)]."""
    if not q_tokens:
        raise ValueError("empty document")
    pair = PairTerms.build([q_tokens], [()])
    table = ComponentTable(query_tokens, pair, [0], stats)
    return table.lm().tolist()[0]


def score_tlm(query_tokens, q_tokens, table: TranslationTable,
              stats: CollectionStats) -> float:
    """Translation-based language model: the in-document probability becomes
    sum_t P_tr(w|t)*P_ml(t|q), smoothed and logged as in score_lm."""
    if not q_tokens:
        raise ValueError("empty document")
    pair = PairTerms.build([q_tokens], [()])
    components = ComponentTable(query_tokens, pair, [0], stats, table)
    return components.tlm().tolist()[0]


def score_t2lm(query_tokens, qa: QAPair, mu: MixtureWeights,
               table: TranslationTable, model: TopicModel,
               stats: CollectionStats) -> float:
    """Topic translation scorer: exact match, translation, unweighted topic
    correlation, and answer-side components mixed by mu, log-summed over
    query terms."""
    pair = PairTerms.build([qa.question_tokens], [qa.answer_tokens], model)
    components = ComponentTable(query_tokens, pair, [0], stats, table, model)
    return components.mixture(mu, weighted=False).tolist()[0]


def score_t2lm_plus(query_tokens, qa: QAPair, mu: MixtureWeights,
                    table: TranslationTable, model: TopicModel,
                    theta, weights: TermWeightVector,
                    stats: CollectionStats) -> float:
    """Term-weighted topic translation scorer: exact-match and answer
    components are scaled by W(w), the topic correlation by the query's
    topic posterior."""
    pair = PairTerms.build([qa.question_tokens], [qa.answer_tokens], model)
    components = ComponentTable(query_tokens, pair, [0], stats, table, model,
                                theta, weights)
    return components.mixture(mu, weighted=True).tolist()[0]


def features_f1_f4(query_tokens, qa: QAPair, table: TranslationTable,
                   model: TopicModel, theta, weights: TermWeightVector,
                   stats: CollectionStats) -> RelevanceFeatures:
    """The four per-component log scores used as learning-to-rank features:
    weighted exact match, translation, posterior-weighted topic correlation
    (all against the question), and weighted answer-side match."""
    pair = PairTerms.build([qa.question_tokens], [qa.answer_tokens], model)
    components = ComponentTable(query_tokens, pair, [0], stats, table, model,
                                theta, weights)
    return RelevanceFeatures(*components.features()[0].tolist())
