import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cqarank.translation as translation
import oracle
import reference_scoring
from cqarank.corpus import ingest_corpus, save_image
from cqarank.synth import SynthSpec, write_synth
from cqarank.translation import (ParallelPair, TranslationTable,
                                 corpus_log_likelihood, identity_table,
                                 make_parallel_pairs, train_ibm1)
from conftest import build_corpus


def _pairs(*specs):
    return [ParallelPair(tuple(src), tuple(tgt)) for src, tgt in specs]


def _random_pairs(seed, n_pairs=12, vocab=8):
    rng = random.Random(seed)
    pairs = []
    for _ in range(n_pairs):
        src = [rng.randrange(vocab) for _ in range(rng.randint(1, 5))]
        tgt = [rng.randrange(vocab) for _ in range(rng.randint(1, 5))]
        pairs.append(ParallelPair(tuple(src), tuple(tgt)))
    return pairs


class TestParallelPairs:
    def test_pooled_both_emits_two(self):
        corpus = build_corpus([("p1", "a b", "x", "u1", "u2")])
        pairs = make_parallel_pairs(corpus, "pooled_both")
        assert len(pairs) == 2
        assert pairs[0].source == pairs[1].target

    def test_empty_answer_dropped(self):
        corpus = build_corpus([("p1", "a", "", "u1", "u2")])
        assert make_parallel_pairs(corpus, "pooled_both") == []

    def test_q_to_a_count(self):
        corpus = build_corpus([(f"p{i}", "a b", "x y", "u1", "u2")
                               for i in range(3)])
        assert len(make_parallel_pairs(corpus, "q_to_a")) == 3

    def test_direction_orientation(self):
        corpus = build_corpus([("p1", "a", "x", "u1", "u2")])
        a = corpus.vocabulary.tokens().index("a")
        x = corpus.vocabulary.tokens().index("x")
        fwd = make_parallel_pairs(corpus, "q_to_a")[0]
        rev = make_parallel_pairs(corpus, "a_to_q")[0]
        assert fwd.source == (a,) and fwd.target == (x,)
        assert rev.source == (x,) and rev.target == (a,)


class TestTraining:
    def test_uniform_initialization(self):
        pairs = _pairs(([0, 1], [10, 11]), ([0], [12]))
        init = reference_scoring.uniform_init(pairs)
        # source 0 co-occurs with {10, 11, 12}; source 1 with {10, 11}
        assert init[0] == {10: 1 / 3, 11: 1 / 3, 12: 1 / 3}
        assert init[1] == {10: 0.5, 11: 0.5}

    def test_single_pair_forces_mass(self):
        table = train_ibm1(_pairs(([0], [1])), iterations=1)
        assert table.row(0).get(1, 0.0) == 1.0

    def test_two_pair_corpus_concentrates(self):
        # ("a","b") -> ("x","y") plus ("a",) -> ("x",): EM pins x to a
        pairs = _pairs(([0, 1], [2, 3]), ([0], [2]))
        table = train_ibm1(pairs, iterations=20)
        assert table.row(0).get(2, 0.0) > 0.9

    def test_matches_hand_rolled_em(self):
        pairs = _pairs(([0, 1], [2, 3]), ([0], [2]))
        for iterations in (1, 5, 20):
            table = train_ibm1(pairs, iterations=iterations)
            ref = oracle.ibm1_em([(list(p.source), list(p.target)) for p in pairs],
                                 iterations)
            for (s, w), p in ref.items():
                assert table.row(s).get(w, 0.0) == pytest.approx(p, abs=1e-12)

    def test_deterministic_bit_identical(self):
        pairs = _random_pairs(5)
        t1 = train_ibm1(pairs, iterations=7)
        t2 = train_ibm1(pairs, iterations=7)
        for s in t1.sources():
            assert t1.row(s) == t2.row(s)

    def test_per_source_normalization_every_iteration(self):
        pairs = _random_pairs(9)
        for iterations in range(1, 6):
            table = train_ibm1(pairs, iterations=iterations)
            for s in table.sources():
                assert abs(sum(table.row(s).values()) - 1.0) < 1e-9

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            train_ibm1([], iterations=1)

    @pytest.mark.parametrize("bad", [-1, 2**31, 2**40])
    def test_term_ids_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match=re.escape("term ids must lie in [0, 2147483647]")):
            train_ibm1(_pairs(([0, bad], [1]), ([1], [bad])), iterations=1)

    def test_prune_keeps_rows_normalized(self):
        pairs = _random_pairs(3, n_pairs=20)
        table = train_ibm1(pairs, iterations=10, prune=1e-2)
        for s in table.sources():
            row = table.row(s)
            assert all(p >= 1e-2 or len(row) == 1 for p in row.values())
            assert abs(sum(row.values()) - 1.0) < 1e-9


class TestLookup:
    def test_trained_entry_and_sparsity(self):
        table = train_ibm1(_pairs(([0], [1])), iterations=2)
        assert table.row(0).get(1, 0.0) == 1.0
        assert table.row(0).get(5, 0.0) == 0.0
        assert table.row(7).get(1, 0.0) == 0.0

    def test_identity_table(self):
        table = identity_table([3, 4])
        assert table.row(3).get(3, 0.0) == 1.0
        assert table.row(3).get(4, 0.0) == 0.0


class TestLogLikelihood:
    def test_forced_pair_is_zero(self):
        pairs = _pairs(([0], [1]))
        table = train_ibm1(pairs, iterations=1)
        assert corpus_log_likelihood(table, pairs) == 0.0

    def test_matches_oracle_after_one_iteration(self):
        pairs = _pairs(([0, 1], [2, 3]), ([0], [2]))
        table = train_ibm1(pairs, iterations=1)
        ref_table = oracle.ibm1_em([(list(p.source), list(p.target)) for p in pairs], 1)
        ref_ll = oracle.ibm1_log_likelihood(
            ref_table, [(list(p.source), list(p.target)) for p in pairs])
        assert corpus_log_likelihood(table, pairs) == pytest.approx(ref_ll, abs=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_em_monotone(self, seed):
        pairs = _random_pairs(seed)
        lls = [corpus_log_likelihood(train_ibm1(pairs, iterations=i), pairs)
               for i in range(1, 15)]
        for prev, cur in zip(lls, lls[1:]):
            assert cur >= prev - 1e-10

    def test_unseen_target_is_neg_inf(self):
        table = train_ibm1(_pairs(([0], [1])), iterations=1)
        ll = corpus_log_likelihood(table, _pairs(([0], [9])))
        assert ll == float("-inf")


def _save_entries(path, text) -> None:
    """Write the "t w p" lines `text` to `path`, and beside it the image that
    save writes for those entries, in that order."""
    path.write_text(text)
    rows = [line.split() for line in text.splitlines()]
    save_image(path, (np.array([int(r[0]) for r in rows], dtype=np.int64),
                      np.array([int(r[1]) for r in rows], dtype=np.int64),
                      np.array([float(r[2]) for r in rows], dtype=np.float64)))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        pairs = _random_pairs(11)
        table = train_ibm1(pairs, iterations=6)
        path = tmp_path / "table.tsv"
        table.save(path)
        loaded = TranslationTable.load(path)
        for s in table.sources():
            assert loaded.row(s) == table.row(s)

    def test_sorted_by_source_then_target(self, tmp_path):
        table = TranslationTable([2, 2, 0], [5, 1, 3], [0.5, 0.5, 1.0])
        path = tmp_path / "table.tsv"
        table.save(path)
        firsts = [tuple(int(x) for x in line.split()[:2])
                  for line in path.read_text().splitlines()]
        assert firsts == sorted(firsts)

    def test_constructor_sorts_and_rejects_repeats(self):
        table = TranslationTable([2, 0, 2], [5, 3, 1], [0.25, 1.0, 0.75])
        assert table.sources() == [0, 2]
        assert table.row(2) == {1: 0.75, 5: 0.25}
        with pytest.raises(ValueError, match="repeated"):
            TranslationTable([1, 1], [2, 2], [0.5, 0.5])

    @pytest.mark.parametrize("text", ["0 3 0.5\n", "0 3 0.5\n0 4 0.6\n",
                                      "0 3 nan\n", "0 3 inf\n"])
    def test_row_off_one_names_path(self, tmp_path, text):
        path = tmp_path / "table.tsv"
        _save_entries(path, f"1 1 1.0\n{text}")
        with pytest.raises(ValueError, match=re.escape(f"{path}.npy: source 0: ")):
            TranslationTable.load(path)

    @pytest.mark.parametrize("text, message", [("0 3 0.5\n0 3 0.5\n", "repeated"),
                                               ("-1 3 1.0\n", "term ids")])
    def test_bad_entries_name_path(self, tmp_path, text, message):
        path = tmp_path / "table.tsv"
        _save_entries(path, text)
        with pytest.raises(ValueError, match=re.escape(f"{path}.npy: ") + message):
            TranslationTable.load(path)

    def test_empty_file_is_empty_table(self, tmp_path):
        path = tmp_path / "table.tsv"
        TranslationTable([], [], []).save(path)
        assert path.read_text() == ""
        table = TranslationTable.load(path)
        assert len(table) == 0 and table.row(1).get(1, 0.0) == 0.0
        assert table.columns([1, 2], [3]).tolist() == [[0.0], [0.0]]


class TestColumns:
    def test_columns_equal_row_lookups(self):
        table = train_ibm1(_random_pairs(4, n_pairs=20), iterations=3)
        targets = [0, 3, 7, 8, 100, 5]
        sources = [7, 1, 0, 9, 2, 250]
        grid = table.columns(targets, sources)
        assert grid.shape == (6, 6)
        for i, w in enumerate(targets):
            for j, t in enumerate(sources):
                assert grid[i, j] == table.row(t).get(w, 0.0)

    @pytest.mark.parametrize("table", [
        identity_table([1, 4]),
        TranslationTable([0, 0, 3, 3, 3], [2, 9, 0, 2, 5], [0.5, 0.5, 0.2, 0.3, 0.5]),
        TranslationTable([], [], []),
    ], ids=["identity", "gaps", "empty"])
    def test_edges_equal_row_lookups(self, table):
        """Targets past the table's width, negative ids, ids past int32, and
        targets inside the width with no entry (1 and 3 in "gaps") read 0."""
        ids = [-2**40, -1, 0, 1, 2, 3, 4, 5, 9, 10, 2**31 - 1, 2**31, 2**40]
        grid = table.columns(ids, ids)
        for i, w in enumerate(ids):
            for j, t in enumerate(ids):
                assert grid[i, j] == table.row(t).get(w, 0.0), (w, t)
        assert table.columns([], ids).shape == (0, len(ids))

    def test_empty_sources(self):
        table = identity_table([1, 2])
        assert table.columns([1, 2], []).shape == (2, 0)


def _edge_pairs(seed, n_pairs=40, vocab=25):
    """Random pairs with repeated tokens, tokens on both sides and one-token
    sides."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(n_pairs):
        src = [rng.randrange(vocab) for _ in range(rng.choice([1, 1, 2, 3, 6, 9]))]
        tgt = [rng.randrange(vocab) for _ in range(rng.choice([1, 1, 2, 4, 7, 12]))]
        if rng.random() < 0.3:
            tgt.append(rng.choice(src))
        if rng.random() < 0.3:
            src.append(rng.choice(src))
        pairs.append(ParallelPair(tuple(src), tuple(tgt)))
    return pairs


def _rows(table):
    return {t: table.row(t) for t in table.sources()}


@pytest.fixture(scope="module")
def synth_500_pairs(tmp_path_factory):
    """The pairs of criterion 1's 500-pair synthetic corpus."""
    paths = write_synth(SynthSpec(size=500, topics=8, seed=500),
                        tmp_path_factory.mktemp("synth500"))
    return make_parallel_pairs(ingest_corpus(paths["qa"], paths["users"]), "pooled_both")


class TestReferenceEM:
    """train_ibm1 equals the nested-dict EM loop entry for entry, with ==."""

    @pytest.mark.parametrize("iterations", [1, 10])
    @pytest.mark.parametrize("prune", [0.0, 1e-2])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_pairs(self, seed, prune, iterations):
        pairs = _edge_pairs(seed)
        want = reference_scoring.ibm1_em(pairs, iterations, prune)
        assert _rows(train_ibm1(pairs, iterations, prune)) == want

    @pytest.mark.parametrize("iterations", [1, 10])
    @pytest.mark.parametrize("prune", [0.0, 1e-2])
    def test_criterion_1_corpus(self, synth_500_pairs, prune, iterations):
        want = reference_scoring.ibm1_em(synth_500_pairs, iterations, prune)
        assert _rows(train_ibm1(synth_500_pairs, iterations, prune)) == want

    @pytest.mark.parametrize("prune", [0.0, 1e-2])
    def test_pairs_without_sources_give_an_empty_table(self, prune):
        pairs = _pairs(([], [1, 2]), ([], [3]))
        assert reference_scoring.ibm1_em(pairs, 2, prune) == {}
        assert len(train_ibm1(pairs, 2, prune)) == 0

    def test_prune_keeps_best_of_an_emptied_row(self):
        # source 0 spreads over 4 targets, all below the threshold; ties go
        # to the smaller target id
        pairs = _pairs(([0], [3, 2, 5, 4]))
        table = train_ibm1(pairs, iterations=1, prune=0.5)
        assert table.row(0) == {2: 1.0}
        assert _rows(table) == reference_scoring.ibm1_em(pairs, 1, 0.5)


@pytest.fixture(scope="module")
def longtail_corpus(tmp_path_factory):
    """A synthetic archive padded with Zipf filler words, as the long-tail
    benchmark archive is: a few frequent words and many rare ones, so most
    entries are seen once."""
    paths = write_synth(SynthSpec(size=200, topics=4, seed=25),
                        tmp_path_factory.mktemp("longtail"))
    corpus = ingest_corpus(paths["qa"], paths["users"])
    words = corpus.vocabulary.tokens()
    filler = [f"f{r}" for r in range(400)]
    weights = [(r + 1) ** -1.1 for r in range(len(filler))]
    rng = random.Random(25)

    def padded(tokens, low, high):
        return " ".join([words[t] for t in tokens]
                        + rng.choices(filler, weights, k=rng.randint(low, high)))

    return build_corpus([(p.id, padded(p.question_tokens, 3, 12),
                          padded(p.answer_tokens, 8, 30), p.asker_id, p.answerer_id)
                         for p in corpus.pairs])


class TestStreamedEM:
    """The E-step runs over chunks of whole slots, one slot being one (pair,
    target token), and the table equals the nested-dict EM loop with ==."""

    @pytest.mark.parametrize("prune", [0.0, 1e-2])
    @pytest.mark.parametrize("direction", ["q_to_a", "a_to_q", "pooled_both"])
    def test_long_tail_corpus(self, longtail_corpus, monkeypatch, direction, prune):
        """In one chunk, and in chunks of at most 500 events."""
        pairs = make_parallel_pairs(longtail_corpus, direction)
        want = reference_scoring.ibm1_em(pairs, 3, prune)
        assert _rows(train_ibm1(pairs, 3, prune)) == want
        monkeypatch.setattr(translation, "_CHUNK_EVENTS", 500)
        assert len(translation._Events(pairs).chunks()) > 10
        assert _rows(train_ibm1(pairs, 3, prune)) == want

    @pytest.mark.parametrize("prune", [0.0, 5e-2])
    def test_a_slot_longer_than_a_chunk_is_a_chunk_of_its_own(self, monkeypatch, prune):
        monkeypatch.setattr(translation, "_CHUNK_EVENTS", 8)
        pairs = _pairs(([0, 1], [2, 3]), (list(range(20)), [4, 2]), ([1, 5], [6]))
        # slots of 2, 2, 20, 20 and 2 events
        assert translation._Events(pairs).chunks() == [(0, 2), (2, 3), (3, 4), (4, 5)]
        assert _rows(train_ibm1(pairs, 4, prune)) == reference_scoring.ibm1_em(pairs, 4, prune)

    @pytest.mark.parametrize("prune", [0.0, 0.3])
    def test_pairs_with_an_empty_side(self, monkeypatch, prune):
        """A pair without sources has slots without events, one without
        targets has no slot; neither changes the table, also where chunks of
        3 events end next to them."""
        pairs = _pairs(([], [1, 2]), ([0, 1], []), ([0, 1], [2, 3]), ([], []),
                       ([1], [3]), ([], [4]), ([2, 0], [1]))
        want = reference_scoring.ibm1_em(pairs, 5, prune)
        assert _rows(train_ibm1(pairs, 5, prune)) == want
        monkeypatch.setattr(translation, "_CHUNK_EVENTS", 3)
        assert _rows(train_ibm1(pairs, 5, prune)) == want

    def test_chunked_add_at_equals_one_bincount_bit_for_bit(self):
        """np.add.at adds each index's values in order from 0.0, as bincount
        does, so cutting the events into chunks changes no bit."""
        rng = np.random.default_rng(7)
        index = rng.integers(0, 50, size=20000).astype(np.int32)
        values = rng.random(20000) * 10.0 ** rng.integers(-8, 8, size=20000)
        want = np.bincount(index, weights=values, minlength=50)
        got = np.zeros(50)
        for lo in range(0, len(index), 777):
            np.add.at(got, index[lo:lo + 777], values[lo:lo + 777])
        assert got.tobytes() == want.tobytes()
        # the sums depend on the order of addition
        backwards = np.bincount(index[::-1], weights=values[::-1], minlength=50)
        assert backwards.tobytes() != want.tobytes()

    def test_traced_peak_fits_the_byte_budget(self, longtail_corpus):
        """At most 32 bytes per event and 48 per entry: the E-step keeps two
        int32 per event, and the int64 event keys live only while entries
        are numbered. On this corpus (150,820 events, 39,101 entries, a
        budget of 6,703,088 bytes) the peak measured 5,753,359 bytes with
        numpy 2.4.6, where the single-bincount EM it replaced peaked at
        8,626,124; argsort's scratch is part of the peak."""
        pairs = make_parallel_pairs(longtail_corpus, "pooled_both")
        events = sum(len(p.source) * len(p.target) for p in pairs)
        tracemalloc.start()
        try:
            table = train_ibm1(pairs, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        entries = sum(len(table.row(t)) for t in table.sources())
        assert peak <= 32 * events + 48 * entries, (peak, events, entries)


@st.composite
def _normalized_tables(draw):
    """A TranslationTable whose rows sum to 1 and whose every entry is at
    least 1e-4."""
    sources = draw(st.lists(st.integers(0, 60), min_size=1, max_size=4,
                            unique=True))
    src, tgt, prob = [], [], []
    for t in sources:
        targets = draw(st.lists(st.integers(0, 60), min_size=1, max_size=5, unique=True))
        weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=len(targets),
                                max_size=len(targets)))
        total = sum(weights)
        src += [t] * len(targets)
        tgt += targets
        prob += [x / total for x in weights]
    return TranslationTable(src, tgt, prob)


_PROPERTY = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


class TestRoundTripProperties:
    @_PROPERTY
    @given(table=_normalized_tables())
    def test_save_load_save_is_byte_identical(self, tmp_path_factory, table):
        path = tmp_path_factory.mktemp("rt") / "table.tsv"
        table.save(path)
        saved = path.read_bytes()
        loaded = TranslationTable.load(path)
        assert _rows(loaded) == _rows(table)
        loaded.save(path)
        assert path.read_bytes() == saved
