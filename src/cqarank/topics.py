"""LDA by collapsed Gibbs sampling, plus fold-in inference of query topic
posteriors P(z|query).

phi is read out from the final counts with beta smoothing, so every
topic-word probability is strictly positive.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain
from operator import mul, truediv

import numpy as np

from .corpus import ROW_SUM_TOLERANCE, load_image, save_image, text_lines


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
        """Read a model written by save, from its image when that is current
        and passes the checks below, else from the text. A malformed line,
        a last line without its newline, a size, alpha or beta that is not
        positive, a negative topic total, or a phi row that is not a
        distribution (an entry not positive and finite, or a sum off 1 by
        more than 1e-9) raises ValueError naming the path and line."""
        image = load_image(path, ((np.float64, 1), (np.int64, 1), (np.int64, 1),
                                  (np.float64, 2)))
        if image is not None:
            try:
                return cls._from_image(*image)
            except ValueError:
                pass  # the text decides, and names the fault
        with text_lines(path, whole=True) as lines:
            header = next(lines, "").split()
            if len(header) != 6:
                raise ValueError("bad topic model header")
            k, v = int(header[0]), int(header[1])
            alpha, beta = float(header[2]), float(header[3])
            seed, iterations = int(header[4]), int(header[5])
            _check_sizes(k, v, alpha, beta)
            totals = [int(x) for x in next(lines, "").split()]
            _check_totals(totals, k)
            rows = []
            for z in range(k):
                row = np.fromiter(map(float, next(lines, "").split()), dtype=np.float64)
                _check_row(z, row, v)
                rows.append(row)
            if next(lines, None) is not None:
                raise ValueError("unexpected line after the last phi row")
        return cls(phi=np.array(rows), topic_totals=np.array(totals, dtype=np.int64),
                   alpha=alpha, beta=beta, vocab_size=v, iterations=iterations,
                   seed=seed)

    @classmethod
    def _from_image(cls, priors, ints, totals, phi) -> "TopicModel":
        """The model of an image's arrays, under the text's checks."""
        if priors.shape != (2,) or ints.shape != (3,):
            raise ValueError("bad topic model header")
        (alpha, beta), (seed, iterations, v) = priors.tolist(), ints.tolist()
        _check_sizes(len(phi), v, alpha, beta)
        _check_totals(totals.tolist(), len(phi))
        for z, row in enumerate(phi):
            _check_row(z, row, v)
        return cls(phi=phi, topic_totals=totals, alpha=alpha, beta=beta,
                   vocab_size=v, iterations=iterations, seed=seed)


def _check_sizes(k: int, v: int, alpha: float, beta: float) -> None:
    if not (k > 0 and v > 0 and 0 < alpha < math.inf and 0 < beta < math.inf):
        raise ValueError("topics, vocabulary size, alpha and beta must be positive")


def _check_totals(totals: list[int], k: int) -> None:
    if len(totals) != k:
        raise ValueError(f"expected {k} topic totals")
    if not all(0 <= n < 2**63 for n in totals):
        raise ValueError("topic totals must be non-negative 64-bit integers")


def _check_row(z: int, row: np.ndarray, v: int) -> None:
    if row.shape[0] != v:
        raise ValueError(f"phi row {z} has wrong length")
    if not (np.all((row > 0) & (row < math.inf))
            and abs(row.sum() - 1.0) <= ROW_SUM_TOLERANCE):
        raise ValueError(f"phi row {z} is not a distribution")


@dataclass
class QueryTopicPosterior:
    theta: np.ndarray
    oov_fallback: bool = False


class CollapsedGibbsSampler:
    """Sequential collapsed Gibbs state for LDA training.

    Exposed separately from train_lda so count-consistency can be checked
    sweep by sweep.
    """

    def __init__(self, docs, num_topics: int, alpha: float, beta: float,
                 vocab_size: int, seed: int) -> None:
        self.docs = [tuple(d) for d in docs]
        self.K = num_topics
        self.alpha = alpha
        self.beta = beta
        self.V = vocab_size
        self.rng = np.random.RandomState(seed)
        self.assignments: list[np.ndarray] = [
            self.rng.randint(0, self.K, size=len(doc)) for doc in self.docs]
        lengths = [len(doc) for doc in self.docs]
        self.num_tokens = sum(lengths)
        z = np.concatenate([np.zeros(0, dtype=np.int64), *self.assignments])
        words = np.fromiter(chain.from_iterable(self.docs), dtype=np.int64,
                            count=self.num_tokens)
        self.n_dk = np.zeros((len(self.docs), self.K), dtype=np.int64)
        np.add.at(self.n_dk, (np.repeat(np.arange(len(self.docs)), lengths), z), 1)
        self.n_kw = np.zeros((self.K, self.V), dtype=np.int64)
        np.add.at(self.n_kw, (z, words), 1)
        self.n_k = np.bincount(z, minlength=self.K)

    def sweep(self) -> None:
        """One full pass of per-token topic reassignment.

        The counts are walked as Python lists, next to the smoothed factors
        n_dk+alpha, n_kw+beta and n_k+V*beta; a factor is recomputed from its
        integer count whenever that count changes. `accumulate` adds in
        order as np.cumsum does, `bisect_right` is searchsorted(side="right"),
        and one random_sample call yields the doubles of one call per token,
        so every draw is that of a per-token numpy loop. The counts are
        written back into the arrays at the end of the sweep.
        """
        K, alpha, beta = self.K, self.alpha, self.beta
        beta_v = self.V * beta
        n_wk = self.n_kw.T.tolist()
        word_beta = [[n + beta for n in col] for col in n_wk]
        n_k = self.n_k.tolist()
        topic_den = [n + beta_v for n in n_k]
        n_dk = self.n_dk.tolist()
        draws = iter(self.rng.random_sample(self.num_tokens).tolist())
        for doc, z_d, row in zip(self.docs, self.assignments, n_dk):
            row_alpha = [n + alpha for n in row]
            z = z_d.tolist()
            # doc before draws: zip stops at the doc's end without taking a draw
            for i, (w, u) in enumerate(zip(doc, draws)):
                col, col_beta = n_wk[w], word_beta[w]
                k = z[i]
                row[k] -= 1
                row_alpha[k] = row[k] + alpha
                col[k] -= 1
                col_beta[k] = col[k] + beta
                n_k[k] -= 1
                topic_den[k] = n_k[k] + beta_v

                cum = list(accumulate(map(truediv, map(mul, row_alpha, col_beta),
                                          topic_den)))
                k = bisect_right(cum, u * cum[-1])
                if k >= K:
                    k = K - 1

                z[i] = k
                row[k] += 1
                row_alpha[k] = row[k] + alpha
                col[k] += 1
                col_beta[k] = col[k] + beta
                n_k[k] += 1
                topic_den[k] = n_k[k] + beta_v
            z_d[:] = z
        self.n_dk[:] = n_dk
        self.n_kw[:] = np.array(n_wk, dtype=np.int64).T
        self.n_k[:] = n_k

    def read_phi(self) -> np.ndarray:
        return (self.n_kw + self.beta) / (self.n_k + self.V * self.beta)[:, None]


def train_lda(docs, num_topics: int, alpha: float | None = None, beta: float = 0.01,
              iterations: int = 500, seed: int = 0, vocab_size: int | None = None) -> TopicModel:
    """Collapsed Gibbs training over token-id documents; deterministic per seed.

    alpha defaults to 50/K (Griffiths-Steyvers); alpha and beta must be
    positive and finite. vocab_size defaults to 1 + max token id seen in
    docs.
    """
    docs = [tuple(d) for d in docs if len(d) > 0]
    if not docs:
        raise ValueError("no non-empty documents")
    if num_topics < 1 or iterations < 1:
        raise ValueError("require num_topics >= 1 and iterations >= 1")
    total_tokens = sum(len(d) for d in docs)
    if num_topics > total_tokens:
        raise ValueError("degenerate topic count")
    if alpha is None:
        alpha = 50.0 / num_topics
    if not (0 < alpha < math.inf and 0 < beta < math.inf):
        raise ValueError("alpha and beta must be positive and finite")
    if vocab_size is None:
        vocab_size = 1 + max(max(d) for d in docs)

    sampler = CollapsedGibbsSampler(docs, num_topics, alpha, beta, vocab_size, seed)
    for _ in range(iterations):
        sampler.sweep()
    return TopicModel(
        phi=sampler.read_phi(),
        topic_totals=sampler.n_k.copy(),
        alpha=alpha,
        beta=beta,
        vocab_size=vocab_size,
        iterations=iterations,
        seed=seed,
    )


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
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
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
