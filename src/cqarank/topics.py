"""LDA by collapsed Gibbs sampling, plus fold-in inference of query topic
posteriors P(z|query).

phi is read out from the final counts with beta smoothing, so every
topic-word probability is strictly positive.
"""

from dataclasses import dataclass

import numpy as np

from .corpus import text_lines


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
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"{self.num_topics} {self.vocab_size} {self.alpha!r} "
                    f"{self.beta!r} {self.seed} {self.iterations}\n")
            f.write(" ".join(str(int(n)) for n in self.topic_totals) + "\n")
            for z in range(self.num_topics):
                f.write(" ".join(repr(float(p)) for p in self.phi[z]) + "\n")

    @classmethod
    def load(cls, path) -> "TopicModel":
        with text_lines(path) as lines:
            header = next(lines, "").split()
            if len(header) != 6:
                raise ValueError("bad topic model header")
            k, v = int(header[0]), int(header[1])
            alpha, beta = float(header[2]), float(header[3])
            seed, iterations = int(header[4]), int(header[5])
            totals = np.array([int(x) for x in next(lines, "").split()], dtype=np.int64)
            if totals.shape[0] != k:
                raise ValueError(f"expected {k} topic totals")
            phi = np.empty((k, v), dtype=np.float64)
            for z in range(k):
                row = np.array([float(x) for x in next(lines, "").split()])
                if row.shape[0] != v:
                    raise ValueError(f"phi row {z} has wrong length")
                phi[z] = row
            if next(lines, None) is not None:
                raise ValueError("unexpected line after the last phi row")
        return cls(phi=phi, topic_totals=totals, alpha=alpha, beta=beta,
                   vocab_size=v, iterations=iterations, seed=seed)


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
        self.n_dk = np.zeros((len(self.docs), self.K), dtype=np.int64)
        self.n_kw = np.zeros((self.K, self.V), dtype=np.int64)
        self.n_k = np.zeros(self.K, dtype=np.int64)
        self.assignments: list[np.ndarray] = []
        for d, doc in enumerate(self.docs):
            z = self.rng.randint(0, self.K, size=len(doc))
            self.assignments.append(z)
            for w, k in zip(doc, z):
                self.n_dk[d, k] += 1
                self.n_kw[k, w] += 1
                self.n_k[k] += 1

    def sweep(self) -> None:
        """One full pass of per-token topic reassignment."""
        beta_v = self.V * self.beta
        for d, doc in enumerate(self.docs):
            z_d = self.assignments[d]
            row = self.n_dk[d]
            for i, w in enumerate(doc):
                k_old = z_d[i]
                row[k_old] -= 1
                self.n_kw[k_old, w] -= 1
                self.n_k[k_old] -= 1

                p = (row + self.alpha) * (self.n_kw[:, w] + self.beta) / (self.n_k + beta_v)
                cum = np.cumsum(p)
                u = self.rng.random_sample() * cum[-1]
                k_new = int(np.searchsorted(cum, u, side="right"))
                if k_new >= self.K:
                    k_new = self.K - 1

                z_d[i] = k_new
                row[k_new] += 1
                self.n_kw[k_new, w] += 1
                self.n_k[k_new] += 1

    def read_phi(self) -> np.ndarray:
        return (self.n_kw + self.beta) / (self.n_k + self.V * self.beta)[:, None]


def train_lda(docs, num_topics: int, alpha: float | None = None, beta: float = 0.01,
              iterations: int = 500, seed: int = 0, vocab_size: int | None = None) -> TopicModel:
    """Collapsed Gibbs training over token-id documents; deterministic per seed.

    alpha defaults to 50/K (Griffiths-Steyvers). vocab_size defaults to
    1 + max token id seen in docs.
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
                       samples: int = 20, seed: int = 0) -> QueryTopicPosterior:
    """Fold-in Gibbs with phi frozen.

    theta[z] = (n_z + alpha)/(n + K*alpha) averaged over post-burn-in sweeps,
    where n counts the query tokens inside the training vocabulary. A query
    with no in-vocabulary tokens gets the uniform posterior, flagged.
    """
    if len(query_tokens) == 0:
        raise ValueError("empty query")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    K = model.num_topics
    tokens = [w for w in query_tokens if 0 <= w < model.vocab_size]
    if not tokens:
        return QueryTopicPosterior(theta=np.full(K, 1.0 / K), oov_fallback=True)

    rng = np.random.RandomState(seed)
    z = rng.randint(0, K, size=len(tokens))
    n_k = np.zeros(K, dtype=np.int64)
    for k in z:
        n_k[k] += 1
    cols = [model.phi[:, w] for w in tokens]

    n = len(tokens)
    acc = np.zeros(K, dtype=np.float64)
    for sweep in range(burn_in + samples):
        for i in range(n):
            n_k[z[i]] -= 1
            p = cols[i] * (n_k + model.alpha)
            cum = np.cumsum(p)
            u = rng.random_sample() * cum[-1]
            k_new = int(np.searchsorted(cum, u, side="right"))
            if k_new >= K:
                k_new = K - 1
            z[i] = k_new
            n_k[k_new] += 1
        if sweep >= burn_in:
            acc += (n_k + model.alpha) / (n + K * model.alpha)
    return QueryTopicPosterior(theta=acc / samples, oov_fallback=False)
