"""Word translation probabilities P_tr(w|t) from IBM Model 1 EM.

Question/answer pairs are treated as a monolingual parallel corpus. No NULL
token; uniform initialization over co-occurring vocabulary; fixed summation
order so training is bit-reproducible.
"""

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus import (ROW_SUM_TOLERANCE, Corpus, ends_with_newline, load_image,
                     save_image, text_lines)

# Term ids are dense and non-negative; below 2**31 every key
# source * width + target fits in an int64.
_MAX_TERM_ID = 2**31 - 1
_ENTRY = np.dtype([("t", np.int64), ("w", np.int64), ("p", np.float64)])


@dataclass(frozen=True)
class ParallelPair:
    source: tuple[int, ...]
    target: tuple[int, ...]


class TranslationTable:
    """Sparse P_tr(w|t) as (source t, target w, probability) arrays sorted by
    (t, w), with the offset of each source's row. `columns` reads a second
    view of the entries sorted by (w, t), which its first call builds.

    Entries may be given in any order; a repeated (t, w) is rejected.
    """

    def __init__(self, source, target, prob) -> None:
        source = np.asarray(source, dtype=np.int64).reshape(-1)
        # kept columns are copied out of a strided view, such as a field of
        # np.loadtxt's rows, so the rows are freed
        target = np.ascontiguousarray(target, dtype=np.int64).reshape(-1)
        prob = np.ascontiguousarray(prob, dtype=np.float64).reshape(-1)
        if not len(source) == len(target) == len(prob):
            raise ValueError("source, target and prob differ in length")
        if len(source) and (min(source.min(), target.min()) < 0
                            or max(source.max(), target.max()) > _MAX_TERM_ID):
            raise ValueError(f"term ids must lie in [0, {_MAX_TERM_ID}]")
        self._width = int(target.max()) + 1 if len(target) else 1
        keys = source * self._width + target
        if not (keys[1:] > keys[:-1]).all():
            order = np.argsort(keys, kind="stable")
            keys, source, target, prob = keys[order], source[order], target[order], prob[order]
            if (keys[1:] == keys[:-1]).any():
                raise ValueError("repeated (source, target) entry")
        self._target, self._prob = target, prob
        starts = np.flatnonzero(np.diff(source, prepend=-1))
        self._rows = source[starts]
        self._offsets = np.r_[starts, len(source)]

    @cached_property
    def _by_target(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The entries in (target, source) order: the offset of each target
        id's first entry, with the end last, and each entry's source id as
        int32 and its probability."""
        source = np.repeat(self._rows, np.diff(self._offsets))
        key = self._target * (int(source.max(initial=0)) + 1) + source
        order = np.argsort(key)  # the keys are distinct, so any sort agrees
        starts = np.r_[0, np.cumsum(np.bincount(self._target, minlength=self._width))]
        return starts, source[order].astype(np.int32), self._prob[order]

    def columns(self, targets, sources) -> np.ndarray:
        """P_tr(w|t) for every target w (rows) and source t (columns), 0.0
        off the table. Each target's row is read from its own run of
        entries, built on the first call and kept."""
        targets = np.asarray(targets, dtype=np.int64).reshape(-1)
        sources = np.asarray(sources, dtype=np.int64).reshape(-1)
        out = np.zeros((len(targets), len(sources)), dtype=np.float64)
        starts, by_source, probs = self._by_target
        # an id outside [0, _MAX_TERM_ID] is in no entry; -1 matches none
        wanted = np.where((sources >= 0) & (sources <= _MAX_TERM_ID),
                          sources, -1).astype(np.int32)
        for j, w in enumerate(targets.tolist()):
            if not 0 <= w < self._width:
                continue
            lo, hi = starts[w], starts[w + 1]
            if lo == hi:
                continue
            have = by_source[lo:hi]
            at = np.minimum(np.searchsorted(have, wanted), hi - lo - 1)
            hit = have[at] == wanted
            out[j, hit] = probs[lo + at[hit]]
        return out

    def row(self, t: int) -> dict[int, float]:
        i = int(np.searchsorted(self._rows, t))
        if i == len(self._rows) or self._rows[i] != t:
            return {}
        lo, hi = self._offsets[i], self._offsets[i + 1]
        return dict(zip(self._target[lo:hi].tolist(), self._prob[lo:hi].tolist()))

    def sources(self) -> list[int]:
        return self._rows.tolist()

    def __len__(self) -> int:
        return len(self._rows)

    def save(self, path) -> None:
        """Text lines "t w p" sorted by (t, w), then the binary image
        `<path>.npy`: the text's sha256, then source, target and prob in
        that order."""
        with open(path, "w", encoding="utf-8") as f:
            for t, lo, hi in zip(self._rows.tolist(), self._offsets[:-1].tolist(),
                                 self._offsets[1:].tolist()):
                f.writelines(f"{t} {w} {p!r}\n" for w, p in zip(
                    self._target[lo:hi].tolist(), self._prob[lo:hi].tolist()))
        save_image(path, (np.repeat(self._rows, np.diff(self._offsets)),
                          self._target, self._prob))

    @classmethod
    def load(cls, path) -> "TranslationTable":
        """Read a table written by save, from its image when that is current
        and passes the checks below, else from the text. A malformed line,
        a last line without its newline, or a source row that does not sum
        to 1 raises ValueError naming the path, so a file cut inside a row
        is caught; a cut between rows still loads as the smaller table."""
        image = load_image(path, ((np.int64, 1), (np.int64, 1), (np.float64, 1)))
        if image is not None:
            try:
                return cls._checked(*image)
            except ValueError:
                pass  # the text decides, and names the fault
        if not ends_with_newline(path):
            raise ValueError(f"{path}: last line has no newline; the file is cut short")
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                entries = np.loadtxt(path, dtype=_ENTRY, comments=None, ndmin=1)
        except ValueError as exc:
            # loadtxt's row numbers skip blank lines; read again for the line
            _parse_lines(path)
            raise ValueError(f"{path}: {exc}") from None
        try:
            return cls._checked(entries["t"], entries["w"], entries["p"])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    @classmethod
    def _checked(cls, source, target, prob) -> "TranslationTable":
        """The table of these entries; ValueError unless every source row
        sums to 1."""
        table = cls(source, target, prob)
        row_of_entry = np.repeat(np.arange(len(table)), np.diff(table._offsets))
        sums = np.bincount(row_of_entry, weights=table._prob, minlength=len(table))
        bad = np.flatnonzero(~(np.abs(sums - 1.0) <= ROW_SUM_TOLERANCE))
        if len(bad):
            raise ValueError(f"source {int(table._rows[bad[0]])}: probabilities sum to "
                             f"{float(sums[bad[0]])!r}, not 1; the file may be cut short")
        return table


def _parse_lines(path) -> None:
    """Raise `<path>: line N: ...` at the first line that is not "t w p"."""
    with text_lines(path) as lines:
        for line in lines:
            parts = line.split()
            if len(parts) != 3:
                raise ValueError("expected 't w p'")
            int(parts[0]), int(parts[1]), float(parts[2])


def identity_table(term_ids) -> TranslationTable:
    """P_tr(w|t) = 1 iff w == t; reduces TLM to the plain language model."""
    ids = np.unique(np.fromiter(term_ids, dtype=np.int64))
    return TranslationTable(ids, ids, np.ones(len(ids)))


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


def _flat(sides) -> tuple[np.ndarray, np.ndarray]:
    lengths = np.fromiter((len(side) for side in sides), dtype=np.int64, count=len(sides))
    tokens = np.fromiter((t for side in sides for t in side), dtype=np.int64,
                         count=int(lengths.sum()))
    return tokens, lengths


def _events(pairs) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """One event per (pair, target token, source token), in that loop order:
    its source id, its target id and its slot, the (pair, target token) it
    belongs to. Also the number of slots."""
    src, src_len = _flat([p.source for p in pairs])
    tgt, tgt_len = _flat([p.target for p in pairs])
    per_slot = np.repeat(src_len, tgt_len)
    slot = np.repeat(np.arange(len(tgt), dtype=np.int32), per_slot)
    # each event's source position: its pair's first source token plus its
    # offset within the slot
    slot_first_src = np.repeat(np.cumsum(src_len) - src_len, tgt_len)
    slot_first_event = np.cumsum(per_slot) - per_slot
    pos = np.arange(len(slot), dtype=np.int64) + np.repeat(slot_first_src - slot_first_event,
                                                           per_slot)
    return src[pos], tgt[slot], slot, len(tgt)


def train_ibm1(pairs, iterations: int = 10,
               prune: float = 0.0) -> TranslationTable:
    """Standard IBM Model 1 EM over the pair list.

    Every (source t, target w) entry is numbered by its first occurrence in
    the loop order pair, target token, source token, and each E- and M-step
    sum is a bincount, which adds in input order: slot denominators over
    source tokens, expected counts in event order and row totals in entry
    order. So the result is deterministic given the pair list, and does not
    depend on the Python version. A positive `prune` drops entries below the
    threshold after the final iteration and renormalizes each source row so
    the per-source normalization invariant survives pruning.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("empty pair list")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")

    source, target, slot, n_slots = _events(pairs)
    width = int(target.max()) + 1 if len(target) else 1
    event_key = source * width + target
    del source, target
    keys, first, inverse = np.unique(event_key, return_index=True, return_inverse=True)
    del event_key
    order = np.argsort(first)  # entries in first-occurrence order
    entry_of_key = np.empty(len(keys), dtype=np.int32)
    entry_of_key[order] = np.arange(len(keys), dtype=np.int32)
    event_entry = entry_of_key[inverse]
    del first, inverse
    entry_source, entry_target = keys[order] // width, keys[order] % width

    t_prob = 1.0 / np.bincount(entry_source)[entry_source]
    for _ in range(iterations):
        p = t_prob[event_entry]
        denom = np.bincount(slot, weights=p, minlength=n_slots)
        counts = np.bincount(event_entry, weights=p / denom[slot], minlength=len(keys))
        totals = np.bincount(entry_source, weights=counts)
        t_prob = counts / totals[entry_source]

    keep = np.ones(len(keys), dtype=bool)
    if prune > 0.0 and len(keys):
        keep, t_prob = _prune(t_prob, entry_source, entry_target, prune)
    by_key = entry_of_key[keep[entry_of_key]]  # kept entries in (t, w) order
    return TranslationTable(entry_source[by_key], entry_target[by_key], t_prob[by_key])


def _prune(t_prob, entry_source, entry_target, prune: float):
    """The entries at or above `prune`, and their probabilities renormalized
    per row in entry order. A row left empty keeps its single best entry:
    the highest probability, the smallest target id among ties."""
    keep = t_prob >= prune
    n_sources = int(entry_source.max()) + 1
    orphans = np.flatnonzero(
        np.bincount(entry_source[keep], minlength=n_sources)[entry_source] == 0)
    if len(orphans):
        best = orphans[np.lexsort((entry_target[orphans], -t_prob[orphans],
                                   entry_source[orphans]))]
        keep[best[np.r_[True, entry_source[best][1:] != entry_source[best][:-1]]]] = True
    totals = np.bincount(entry_source[keep], weights=t_prob[keep], minlength=n_sources)
    return keep, t_prob / totals[entry_source]


def corpus_log_likelihood(table: TranslationTable, pairs) -> float:
    """IBM Model 1 data log-likelihood with the constant length terms omitted:
    sum over pairs and target tokens of ln(sum over source tokens of P_tr(w|s)),
    added left to right.

    A target word with zero translation mass makes the value -inf.
    """
    pairs = list(pairs)
    if not pairs:
        return 0.0
    _, _, slot, n_slots = _events(pairs)
    # in event order: pair, then target token, then source token
    p = np.concatenate([table.columns(pair.target, pair.source).ravel()
                        for pair in pairs])
    inner = np.bincount(slot, weights=p, minlength=n_slots)
    if (inner <= 0.0).any():
        return float("-inf")
    total = 0.0
    for value in inner.tolist():
        total += math.log(value)
    return total
