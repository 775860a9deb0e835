"""LDA by collapsed Gibbs sampling, plus fold-in inference of query topic
posteriors P(z|query).

phi is read out from the final counts with beta smoothing, so every
topic-word probability is strictly positive.
"""

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain
from operator import mul

import numpy as np

from .corpus import ROW_SUM_TOLERANCE, image_path, load_image, save_image


@dataclass
class TopicModel:
    phi: np.ndarray            # K x V, rows sum to 1
    topic_totals: np.ndarray   # token count per topic at readout
    alpha: float
    beta: float
    vocab_size: int
    iterations: int
    seed: int

    @property
    def num_topics(self) -> int:
        return self.phi.shape[0]

    def oov_floor(self) -> np.ndarray:
        """Per-topic probability assigned to a word outside the training
        vocabulary: beta / (n_z + V*beta)."""
        return self.beta / (self.topic_totals + self.vocab_size * self.beta)

    def phi_column(self, w: int) -> np.ndarray:
        """P_to(w|z) for all topics; OOV words get the smoothed floor."""
        if 0 <= w < self.vocab_size:
            return self.phi[:, w]
        return self.oov_floor()

    def save(self, path) -> None:
        """A header line, the topic totals, then one line of phi entries per
        topic, each written by repr. phi_z(w) = (n_zw + beta)/(n_z + V*beta)
        takes one value per distinct count in a topic, so the entries hold
        few distinct floats: each distinct bit pattern is formatted once.
        Then the binary image `<path>.npy`: the text's sha256, [alpha, beta]
        as float64, [seed, iterations, vocab_size] as int64, the topic
        totals as int64 and phi as float64."""
        bits, inverse = np.unique(
            np.ascontiguousarray(self.phi, dtype=np.float64).view(np.uint64),
            return_inverse=True)
        text = [repr(p) for p in bits.view(np.float64).tolist()]
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"{self.num_topics} {self.vocab_size} {self.alpha!r} "
                    f"{self.beta!r} {self.seed} {self.iterations}\n")
            f.write(" ".join(str(int(n)) for n in self.topic_totals) + "\n")
            for row in inverse.reshape(self.phi.shape).tolist():
                f.write(" ".join([text[i] for i in row]) + "\n")
        save_image(path, (np.array([self.alpha, self.beta], dtype=np.float64),
                          np.array([self.seed, self.iterations, self.vocab_size],
                                   dtype=np.int64),
                          np.asarray(self.topic_totals, dtype=np.int64),
                          np.ascontiguousarray(self.phi, dtype=np.float64)))

    @classmethod
    def load(cls, path) -> "TopicModel":
        """Read a model written by save, from its image alone. An image that
        load_image refuses, a size, alpha or beta that is not positive, a
        negative topic total, or a phi row that is not a distribution (an
        entry not positive and finite, or a sum off 1 by more than 1e-9)
        raise ValueError naming the image."""
        priors, ints, totals, phi = load_image(
            path, ((np.float64, 1), (np.int64, 1), (np.int64, 1), (np.float64, 2)))
        try:
            if priors.shape != (2,) or ints.shape != (3,):
                raise ValueError("bad topic model header")
            (alpha, beta), (seed, iterations, v) = priors.tolist(), ints.tolist()
            k = len(phi)
            if not (k > 0 and v > 0 and 0 < alpha < math.inf and 0 < beta < math.inf):
                raise ValueError("topics, vocabulary size, alpha and beta must be positive")
            if totals.shape != (k,) or (totals < 0).any():
                raise ValueError(f"expected {k} non-negative topic totals")
            if phi.shape[1] != v:
                raise ValueError(f"phi rows have {phi.shape[1]} entries, not {v}")
            bad = np.flatnonzero(~(((phi > 0) & (phi < math.inf)).all(axis=1)
                                   & (np.abs(phi.sum(axis=1) - 1.0) <= ROW_SUM_TOLERANCE)))
            if len(bad):
                raise ValueError(f"phi row {bad[0]} is not a distribution")
        except ValueError as exc:
            raise ValueError(f"{image_path(path)}: {exc}") from None
        return cls(phi=phi, topic_totals=totals, alpha=alpha, beta=beta,
                   vocab_size=v, iterations=iterations, seed=seed)


@dataclass
class QueryTopicPosterior:
    theta: np.ndarray
    oov_fallback: bool = False


class CollapsedGibbsSampler:
    """Sequential collapsed Gibbs state for LDA training.

    Exposed separately from train_lda so count-consistency can be checked
    sweep by sweep. The state lives in Python lists for the sampler's whole
    life: each document's topic counts and assignments, each word's topic
    counts, the topic totals, and beside every count its smoothed factor
    (n_dk + alpha, n_kw + beta, n_k + V*beta). `n_dk`, `n_kw`, `n_k` and
    `assignments` are numpy arrays built from the lists when read, so
    writing into one leaves the sampler as it was.

    A token id must be an integer in [0, vocab_size); ValueError names the
    document and the id otherwise.
    """

    def __init__(self, docs, num_topics: int, alpha: float, beta: float,
                 vocab_size: int, seed: int) -> None:
        self.docs = [tuple(d) for d in docs]
        _check_token_ids(self.docs, vocab_size)
        self.K = num_topics
        self.alpha = alpha
        self.beta = beta
        self.V = vocab_size
        self.rng = np.random.RandomState(seed)
        self._z = [self.rng.randint(0, self.K, size=len(doc)).tolist()
                   for doc in self.docs]
        lengths = [len(doc) for doc in self.docs]
        self.num_tokens = sum(lengths)
        z = np.concatenate([np.zeros(0, dtype=np.int64), *self.assignments])
        words = np.fromiter(chain.from_iterable(self.docs), dtype=np.int64,
                            count=self.num_tokens)
        n_dk = np.zeros((len(self.docs), self.K), dtype=np.int64)
        np.add.at(n_dk, (np.repeat(np.arange(len(self.docs)), lengths), z), 1)
        n_kw = np.zeros((self.K, self.V), dtype=np.int64)
        np.add.at(n_kw, (z, words), 1)
        self._n_dk = n_dk.tolist()
        self._n_wk = n_kw.T.tolist()
        self._n_k = np.bincount(z, minlength=self.K).tolist()
        # every count a factor is taken of: a document's topic count is at
        # most its length, a word's at most its corpus count
        self._alpha_of = [n + alpha for n in range(max(lengths, default=0) + 1)]
        self._beta_of = [n + beta for n in range(int(n_kw.sum(axis=0).max()) + 1)]
        self._row_alpha = [[self._alpha_of[n] for n in row] for row in self._n_dk]
        self._word_beta = [[self._beta_of[n] for n in col] for col in self._n_wk]
        self._topic_den = [n + self.V * beta for n in self._n_k]

    @property
    def n_dk(self) -> np.ndarray:
        return np.array(self._n_dk, dtype=np.int64).reshape(len(self.docs), self.K)

    @property
    def n_kw(self) -> np.ndarray:
        return np.ascontiguousarray(np.array(self._n_wk, dtype=np.int64).T)

    @property
    def n_k(self) -> np.ndarray:
        return np.array(self._n_k, dtype=np.int64)

    @property
    def assignments(self) -> list[np.ndarray]:
        return [np.array(z, dtype=np.int64) for z in self._z]

    def sweep(self) -> None:
        """One full pass of per-token topic reassignment.

        A document or word factor whose count changes is looked up in a
        table of n + alpha (n up to the longest document) or n + beta (n up
        to the largest word count), built once with that expression. A
        topic total can reach the corpus's token count, so n_k + V*beta is
        computed. When the draw keeps the token's topic, the counts are left
        alone and the three factors saved before the token was taken out
        are put back. So every factor is the float count + prior gives.
        The running sum adds in order as np.cumsum does, `bisect_right` is
        searchsorted(side="right"), and one random_sample call yields the
        doubles of one call per token, so every draw is that of a per-token
        numpy loop.
        """
        last, beta_v = self.K - 1, self.V * self.beta
        alpha_of, beta_of = self._alpha_of, self._beta_of
        n_wk, word_beta = self._n_wk, self._word_beta
        n_k, topic_den = self._n_k, self._topic_den
        draws = iter(self.rng.random_sample(self.num_tokens).tolist())
        for doc, z, row, row_alpha in zip(self.docs, self._z, self._n_dk,
                                          self._row_alpha):
            # doc before draws: zip stops at the doc's end without taking a draw
            for i, w, u in zip(range(len(doc)), doc, draws):
                col_beta = word_beta[w]
                old = z[i]
                # the factors with the token taken out; the counts change
                # only if the draw moves it
                kept = row_alpha[old], col_beta[old], topic_den[old]
                row_alpha[old] = alpha_of[row[old] - 1]
                col_beta[old] = beta_of[n_wk[w][old] - 1]
                topic_den[old] = n_k[old] - 1 + beta_v

                # 0.0 + p is p for a positive p, so this is np.cumsum's sum
                total = 0.0
                cum = [total := total + a * b / t
                       for a, b, t in zip(row_alpha, col_beta, topic_den)]
                # hi=last caps the topic at K-1, as the reference does
                k = bisect_right(cum, u * total, 0, last)
                if k == old:
                    row_alpha[k], col_beta[k], topic_den[k] = kept
                    continue
                z[i] = k
                col = n_wk[w]
                row[old] -= 1
                col[old] -= 1
                n_k[old] -= 1
                row[k] += 1
                row_alpha[k] = alpha_of[row[k]]
                col[k] += 1
                col_beta[k] = beta_of[col[k]]
                n_k[k] += 1
                topic_den[k] = n_k[k] + beta_v

    def read_phi(self) -> np.ndarray:
        return (self.n_kw + self.beta) / (self.n_k + self.V * self.beta)[:, None]


def _check_token_ids(docs, vocab_size) -> None:
    """ValueError naming the document and the id of the first token id in
    `docs` that is not an integer in [0, vocab_size)."""
    for d, doc in enumerate(docs):
        if doc and set(map(type, doc)) == {int} and 0 <= min(doc) and max(doc) < vocab_size:
            continue
        for w in doc:
            if not (isinstance(w, numbers.Integral) and 0 <= w < vocab_size):
                raise ValueError(f"document {d}: token id {w!r} is not an integer "
                                 f"in [0, {vocab_size})")


def train_lda(docs, num_topics: int, alpha: float | None = None, beta: float = 0.01,
              iterations: int = 500, seed: int = 0, vocab_size: int | None = None) -> TopicModel:
    """Collapsed Gibbs training over token-id documents; deterministic per seed.

    alpha defaults to 50/K (Griffiths-Steyvers); alpha and beta must be
    positive and finite. vocab_size defaults to 1 + max token id seen in
    docs. A token id that is not an integer in [0, vocab_size) raises
    ValueError naming its document, counted from 0 among `docs`. An empty
    document takes no draw, so it leaves the model as it was.
    """
    docs = [tuple(d) for d in docs]
    total_tokens = sum(map(len, docs))
    if total_tokens == 0:
        raise ValueError("no non-empty documents")
    if num_topics < 1 or iterations < 1:
        raise ValueError("require num_topics >= 1 and iterations >= 1")
    if num_topics > total_tokens:
        raise ValueError("degenerate topic count")
    if alpha is None:
        alpha = 50.0 / num_topics
    if not (0 < alpha < math.inf and 0 < beta < math.inf):
        raise ValueError("alpha and beta must be positive and finite")
    if vocab_size is None:
        vocab_size = 1 + max(max(d) for d in docs if d)

    sampler = CollapsedGibbsSampler(docs, num_topics, alpha, beta, vocab_size, seed)
    for _ in range(iterations):
        sampler.sweep()
    return TopicModel(
        phi=sampler.read_phi(),
        topic_totals=sampler.n_k,
        alpha=alpha,
        beta=beta,
        vocab_size=vocab_size,
        iterations=iterations,
        seed=seed,
    )


def _check_fold_in(burn_in: int, samples: int) -> None:
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")


def infer_query_topics(model: TopicModel, query_tokens, burn_in: int = 50,
                       samples: int = 20, seed: int = 0,
                       rng: "np.random.RandomState | None" = None) -> QueryTopicPosterior:
    """Fold-in Gibbs with phi frozen.

    theta[z] = (n_z + alpha)/(n + K*alpha) averaged over post-burn-in sweeps,
    where n counts the query tokens inside the training vocabulary. A query
    with no in-vocabulary tokens gets the uniform posterior, flagged.

    The draws come from `rng` reseeded with `seed`, the stream of a new
    RandomState(seed); a caller that folds in many queries passes one
    generator and so does not build one per query. Without `rng` the call
    makes its own.

    A draw's cumulative weights accumulate(phi(w) * (n_k + alpha)) depend
    only on the token's word w and on the topic counts n_k of the query's
    other tokens, and a short query revisits the same few states sweep after
    sweep. So each list is computed once per call, kept in a memo keyed by
    (w, n_k), and reused: a reused list holds the very floats a recomputed
    one would, the draws are taken as before, and theta is bit-identical.
    The memo lives for one call, at most one entry per draw.
    """
    if len(query_tokens) == 0:
        raise ValueError("empty query")
    _check_fold_in(burn_in, samples)
    K = model.num_topics
    tokens = [w for w in query_tokens if 0 <= w < model.vocab_size]
    if not tokens:
        return QueryTopicPosterior(theta=np.full(K, 1.0 / K), oov_fallback=True)

    if rng is None:
        rng = np.random.RandomState()
    rng.seed(seed)
    z = rng.randint(0, K, size=len(tokens)).tolist()
    alpha = model.alpha
    n_k = np.bincount(z, minlength=K).tolist()
    k_alpha = [c + alpha for c in n_k]
    n = len(tokens)
    # state = the sum of power[z_j] over the tokens; every count is below
    # the base n + 1, so state encodes n_k, and with token i's topic taken
    # out it encodes the counts of the others
    power = [(n + 1) ** k for k in range(K)]
    state = sum(power[k] for k in z)
    cols = model.phi[:, tokens].T.tolist()
    memo_of = {w: {} for w in tokens}  # cumulative weights by state, per word
    memos = [memo_of[w] for w in tokens]

    kept = []  # n_k + alpha after each post-burn-in sweep
    # the same list-walk as CollapsedGibbsSampler.sweep, one draw per token
    # per sweep, all drawn at once; range before draws, so each sweep takes
    # exactly n of them
    draws = iter(rng.random_sample((burn_in + samples) * n).tolist())
    for sweep in range(burn_in + samples):
        for i, u in zip(range(n), draws):
            k = z[i]
            n_k[k] -= 1
            k_alpha[k] = n_k[k] + alpha
            state -= power[k]
            cum = memos[i].get(state)
            if cum is None:
                cum = memos[i][state] = list(accumulate(map(mul, cols[i], k_alpha)))
            k = bisect_right(cum, u * cum[-1])
            if k >= K:
                k = K - 1
            z[i] = k
            n_k[k] += 1
            k_alpha[k] = n_k[k] + alpha
            state += power[k]
        if sweep >= burn_in:
            kept.append(k_alpha.copy())
    # cumsum adds the sweeps' (n_k + alpha)/(n + K*alpha) in sweep order
    terms = np.array(kept) / (n + K * alpha)
    return QueryTopicPosterior(theta=np.cumsum(terms, axis=0, out=terms)[-1] / samples,
                               oov_fallback=False)
