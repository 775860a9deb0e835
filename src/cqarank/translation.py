"""Word translation probabilities P_tr(w|t) from IBM Model 1 EM.

Question/answer pairs are treated as a monolingual parallel corpus. No NULL
token; uniform initialization over co-occurring vocabulary; fixed summation
order so training is bit-reproducible.
"""

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, text_lines


@dataclass(frozen=True)
class ParallelPair:
    source: tuple[int, ...]
    target: tuple[int, ...]


class TranslationTable:
    """Sparse P_tr(w|t): source term t -> {target term w: probability}."""

    def __init__(self, table: dict[int, dict[int, float]]) -> None:
        self._table = table

    def prob(self, w: int, t: int) -> float:
        """Stored probability, 0.0 when (t, w) never co-occurred."""
        return self._table.get(t, {}).get(w, 0.0)

    def columns(self, targets, sources) -> np.ndarray:
        """P_tr(w|t) for every target w (rows) and source t (columns), read
        through each source's row."""
        rows = [self._table.get(t, {}) for t in sources]
        return np.array([[row.get(w, 0.0) for row in rows] for w in targets],
                        dtype=np.float64).reshape(len(targets), len(sources))

    def row(self, t: int) -> dict[int, float]:
        return dict(self._table.get(t, {}))

    def sources(self) -> list[int]:
        return list(self._table.keys())

    def __len__(self) -> int:
        return len(self._table)

    def save(self, path) -> None:
        """Text lines "t w p" sorted by (t, w)."""
        with open(path, "w", encoding="utf-8") as f:
            for t in sorted(self._table):
                row = self._table[t]
                for w in sorted(row):
                    f.write(f"{t} {w} {row[w]!r}\n")

    @classmethod
    def load(cls, path) -> "TranslationTable":
        table: dict[int, dict[int, float]] = {}
        with text_lines(path) as lines:
            for line in lines:
                parts = line.split()
                if len(parts) != 3:
                    raise ValueError("expected 't w p'")
                t, w, p = int(parts[0]), int(parts[1]), float(parts[2])
                table.setdefault(t, {})[w] = p
        return cls(table)


def identity_table(term_ids) -> TranslationTable:
    """P_tr(w|t) = 1 iff w == t; reduces TLM to the plain language model."""
    return TranslationTable({t: {t: 1.0} for t in term_ids})


def make_parallel_pairs(corpus: Corpus, direction: str = "pooled_both") -> list[ParallelPair]:
    """Build training pairs from the archive; pairs with an empty side are dropped."""
    pairs: list[ParallelPair] = []
    for qa in corpus.pairs:
        if not qa.question_tokens or not qa.answer_tokens:
            continue
        if direction == "q_to_a":
            pairs.append(ParallelPair(qa.question_tokens, qa.answer_tokens))
        elif direction == "a_to_q":
            pairs.append(ParallelPair(qa.answer_tokens, qa.question_tokens))
        elif direction == "pooled_both":
            pairs.append(ParallelPair(qa.question_tokens, qa.answer_tokens))
            pairs.append(ParallelPair(qa.answer_tokens, qa.question_tokens))
        else:
            raise ValueError(f"unknown direction: {direction!r}")
    return pairs


def uniform_init(pairs) -> dict[int, dict[int, float]]:
    """P(w|t) = 1/|co-occurring targets of t| before any M-step."""
    cooc: dict[int, dict[int, float]] = {}
    for pair in pairs:
        for t in pair.source:
            row = cooc.setdefault(t, {})
            for w in pair.target:
                row[w] = 0.0
    for t, row in cooc.items():
        p = 1.0 / len(row)
        for w in row:
            row[w] = p
    return cooc


def train_ibm1(pairs, iterations: int = 10,
               prune: float = 0.0) -> TranslationTable:
    """Standard IBM Model 1 EM over the pair list.

    Deterministic given inputs: pair order and within-sentence token order fix
    the summation order, and the procedure has no random choices. A positive
    `prune` drops entries below the threshold after the final iteration and
    renormalizes each source row so the per-source normalization invariant
    survives pruning.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("empty pair list")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")

    t_prob = uniform_init(pairs)
    for _ in range(iterations):
        counts: dict[int, dict[int, float]] = {}
        for pair in pairs:
            for w in pair.target:
                denom = 0.0
                for s in pair.source:
                    denom += t_prob[s][w]
                for s in pair.source:
                    counts.setdefault(s, {})
                    counts[s][w] = counts[s].get(w, 0.0) + t_prob[s][w] / denom
        for s, row in counts.items():
            total = sum(row.values())
            t_row = t_prob[s]
            for w, c in row.items():
                t_row[w] = c / total

    if prune > 0.0:
        for s in list(t_prob):
            row = {w: p for w, p in t_prob[s].items() if p >= prune}
            if not row:
                # keep the single best entry rather than orphaning a source
                best = max(t_prob[s].items(), key=lambda item: (item[1], -item[0]))
                row = {best[0]: best[1]}
            total = sum(row.values())
            t_prob[s] = {w: p / total for w, p in row.items()}

    return TranslationTable(t_prob)


def corpus_log_likelihood(table: TranslationTable, pairs) -> float:
    """IBM Model 1 data log-likelihood with the constant length terms omitted:
    sum over pairs and target tokens of ln(sum over source tokens of P_tr(w|s)).

    A target word with zero translation mass makes the value -inf.
    """
    total = 0.0
    for pair in pairs:
        for w in pair.target:
            inner = 0.0
            for s in pair.source:
                inner += table.prob(w, s)
            if inner <= 0.0:
                return float("-inf")
            total += math.log(inner)
    return total
