"""Word translation probabilities P_tr(w|t) from IBM Model 1 EM.

Question/answer pairs are treated as a monolingual parallel corpus. No NULL
token; uniform initialization over co-occurring vocabulary; fixed summation
order so training is bit-reproducible.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus import ROW_SUM_TOLERANCE, Corpus, image_path, load_image, save_image

# Term ids are dense and non-negative; below 2**31 every key
# source * width + target fits in an int64.
_MAX_TERM_ID = 2**31 - 1
_BAD_ID = f"term ids must lie in [0, {_MAX_TERM_ID}]"


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
        try:
            source = np.asarray(source, dtype=np.int64).reshape(-1)
            target = np.asarray(target, dtype=np.int64).reshape(-1)
        except OverflowError:  # an id beyond int64
            raise ValueError(_BAD_ID) from None
        prob = np.asarray(prob, dtype=np.float64).reshape(-1)
        if not len(source) == len(target) == len(prob):
            raise ValueError("source, target and prob differ in length")
        if len(source) and (min(source.min(), target.min()) < 0
                            or max(source.max(), target.max()) > _MAX_TERM_ID):
            raise ValueError(_BAD_ID)
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
        """Read a table written by save, from its image alone. An image that
        load_image refuses, entries that the constructor refuses, or a
        source row whose probabilities do not sum to 1 raise ValueError
        naming the image."""
        arrays = load_image(path, ((np.int64, 1), (np.int64, 1), (np.float64, 1)))
        try:
            table = cls(*arrays)
            row_of_entry = np.repeat(np.arange(len(table)), np.diff(table._offsets))
            sums = np.bincount(row_of_entry, weights=table._prob, minlength=len(table))
            bad = np.flatnonzero(~(np.abs(sums - 1.0) <= ROW_SUM_TOLERANCE))
            if len(bad):
                raise ValueError(f"source {int(table._rows[bad[0]])}: probabilities "
                                 f"sum to {float(sums[bad[0]])!r}, not 1")
        except ValueError as exc:
            raise ValueError(f"{image_path(path)}: {exc}") from None
        return table


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


# The E-step's chunk size in events. A chunk holds whole slots, so a slot
# with more events than this is a chunk of its own.
_CHUNK_EVENTS = 1 << 16


class _Events:
    """The events of a pair list: one per (pair, target token, source
    token), in that loop order. A slot is one (pair, target token); its
    events are its pair's source tokens, in order."""

    def __init__(self, pairs) -> None:
        self.source, source_len = _flat([p.source for p in pairs])
        self.target, target_len = _flat([p.target for p in pairs])  # one per slot
        self._per_slot = np.repeat(source_len, target_len)
        self._first_source = np.repeat(np.cumsum(source_len) - source_len, target_len)
        self.starts = np.r_[0, np.cumsum(self._per_slot)]  # each slot's first event
        self.n_slots = len(self.target)

    def __len__(self) -> int:
        return int(self.starts[-1])

    def chunks(self) -> list[tuple[int, int]]:
        """Consecutive slot ranges [a, b) covering every slot, each of at
        most _CHUNK_EVENTS events or a single slot."""
        cuts = [0]
        while cuts[-1] < self.n_slots:
            a = cuts[-1]
            b = int(np.searchsorted(self.starts, self.starts[a] + _CHUNK_EVENTS, "right")) - 1
            cuts.append(min(max(b, a + 1), self.n_slots))
        return list(zip(cuts, cuts[1:]))

    def between(self, a: int, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The events of slots [a, b): each one's source id, target id and
        slot counted from a (int32)."""
        per_slot = self._per_slot[a:b]
        slot = np.repeat(np.arange(b - a, dtype=np.int32), per_slot)
        # an event's source position: its slot's first source position plus
        # its offset within the slot
        pos = np.repeat(self._first_source[a:b] - (self.starts[a:b] - self.starts[a]),
                        per_slot)
        pos += np.arange(len(slot))
        return self.source[pos], self.target[a:b][slot], slot


def _entries(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Number the events' (source t, target w) entries by first occurrence,
    from their keys t * width + w in event order, which it sorts in place.
    Returns each event's entry id (int32), each entry's key, and the entry
    id of each key in ascending order (int32)."""
    order = np.argsort(keys, kind="stable")  # each key's first event leads its run
    keys.sort()  # keys[order] without a second array
    runs = np.flatnonzero(np.diff(keys, prepend=-1))
    by_first = np.argsort(order[runs])
    entry_of_key = np.empty(len(runs), dtype=np.int32)
    entry_of_key[by_first] = np.arange(len(runs), dtype=np.int32)
    event_entry = np.empty(len(order), dtype=np.int32)
    event_entry[order] = np.repeat(entry_of_key, np.diff(runs, append=len(order)))
    return event_entry, keys[runs[by_first]], entry_of_key


def train_ibm1(pairs, iterations: int = 10,
               prune: float = 0.0) -> TranslationTable:
    """Standard IBM Model 1 EM over the pair list.

    Every (source t, target w) entry is numbered by its first occurrence in
    the loop order pair, target token, source token. Each E-step runs over
    chunks of whole slots of about _CHUNK_EVENTS events, and keeps two int32
    per event, its slot in the chunk and its entry. The slot denominators
    are bincounts over source tokens; np.add.at adds the expected counts
    into one entry buffer, each entry's in event order from 0.0, as one
    bincount over all events would; and the M-step's row totals are a
    bincount in entry order. So the result is deterministic given the pair
    list, and does not depend on the Python version. A positive `prune`
    drops entries below the threshold after the final iteration and
    renormalizes each source row so the per-source normalization invariant
    survives pruning.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("empty pair list")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")

    events = _Events(pairs)
    if len(events) and (min(events.source.min(), events.target.min()) < 0
                        or max(events.source.max(), events.target.max()) > _MAX_TERM_ID):
        raise ValueError(_BAD_ID)  # keys t * width + w then fit an int64
    width = int(events.target.max()) + 1 if events.n_slots else 1
    keys = np.empty(len(events), dtype=np.int64)
    slot = np.empty(len(events), dtype=np.int32)
    chunks = []  # each chunk's event range and slot count
    for a, b in events.chunks():
        lo, hi = int(events.starts[a]), int(events.starts[b])
        source, target, slot[lo:hi] = events.between(a, b)
        keys[lo:hi] = source * width + target
        chunks.append((lo, hi, b - a))
    del events
    event_entry, entry_key, entry_of_key = _entries(keys)
    del keys
    entry_source = entry_key // width

    t_prob = 1.0 / np.bincount(entry_source)[entry_source]
    counts = np.empty_like(t_prob)
    for _ in range(iterations):
        counts.fill(0.0)
        for lo, hi, n_slots in chunks:
            entry, local = event_entry[lo:hi], slot[lo:hi]
            p = t_prob[entry]
            p /= np.bincount(local, weights=p, minlength=n_slots)[local]
            np.add.at(counts, entry, p)
        totals = np.bincount(entry_source, weights=counts)
        np.divide(counts, totals[entry_source], out=t_prob)
    del event_entry, slot, counts

    keep = np.ones(len(entry_key), dtype=bool)
    if prune > 0.0 and len(entry_key):
        keep, t_prob = _prune(t_prob, entry_source, entry_key % width, prune)
    by_key = entry_of_key[keep[entry_of_key]]  # kept entries in (t, w) order
    key, prob = entry_key[by_key], t_prob[by_key]
    # freed first, so that the table's arrays take their place
    del entry_key, entry_of_key, entry_source, t_prob, keep, by_key
    return TranslationTable(*np.divmod(key, width), prob)


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
    events = _Events(pairs)
    slot = events.between(0, events.n_slots)[2]
    # in event order: pair, then target token, then source token
    p = np.concatenate([table.columns(pair.target, pair.source).ravel()
                        for pair in pairs])
    inner = np.bincount(slot, weights=p, minlength=events.n_slots)
    if (inner <= 0.0).any():
        return float("-inf")
    total = 0.0
    for value in inner.tolist():
        total += math.log(value)
    return total
