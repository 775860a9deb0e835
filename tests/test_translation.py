import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
import reference_scoring
from cqarank.corpus import ingest_corpus
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


class TestSerialization:
    def test_round_trip(self, tmp_path):
        pairs = _random_pairs(11)
        table = train_ibm1(pairs, iterations=6)
        path = tmp_path / "table.tsv"
        table.save(path)
        loaded = TranslationTable.load(path)
        for s in table.sources():
            assert loaded.row(s) == table.row(s)

    @pytest.mark.parametrize("bad", ["1 2", "1 2 0.5 7", "1 x 0.5", "1.5 2 0.5",
                                     "1 2 half"])
    def test_bad_line_names_path_and_line(self, tmp_path, bad):
        path = tmp_path / "table.tsv"
        path.write_text(f"0 3 1.0\n{bad}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: ")):
            TranslationTable.load(path)

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
        path.write_text(f"1 1 1.0\n{text}")
        with pytest.raises(ValueError, match=re.escape(f"{path}: source 0: ")):
            TranslationTable.load(path)

    @pytest.mark.parametrize("text, message", [("0 3 0.5\n0 3 0.5\n", "repeated"),
                                               ("-1 3 1.0\n", "term ids"),
                                               ("0 99999999999999999999 1.0\n",
                                                "term ids")])
    def test_bad_entries_name_path(self, tmp_path, text, message):
        path = tmp_path / "table.tsv"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + message):
            TranslationTable.load(path)

    def test_blank_lines_keep_line_numbers(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_text("0 3 1.0\n\n\n1 x 0.5\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 4: ")):
            TranslationTable.load(path)

    def test_empty_file_is_empty_table(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_text("")
        table = TranslationTable.load(path)
        assert len(table) == 0 and table.row(1).get(1, 0.0) == 0.0
        assert table.columns([1, 2], [3]).tolist() == [[0.0], [0.0]]

    def test_text_load_keeps_only_its_columns(self, tmp_path):
        """Loaded from text with no image, the target and prob columns are
        C-contiguous and own their data: the buffer under each is its own
        size, so the parsed "t w p" rows are freed."""
        path = tmp_path / "table.tsv"
        path.write_text("0 3 0.25\n0 4 0.75\n2 1 1.0\n")
        table = TranslationTable.load(path)
        for column in (table._target, table._prob):
            buffer = column
            while buffer.base is not None:
                buffer = buffer.base
            assert column.flags.c_contiguous and buffer.nbytes == column.nbytes

    def test_unsorted_file_loads_sorted(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_text("2 5 0.5\n0 3 1.0\n2 1 0.5\n")
        table = TranslationTable.load(path)
        table.save(path)
        assert path.read_text() == "0 3 1.0\n2 1 0.5\n2 5 0.5\n"


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


@st.composite
def _normalized_tables(draw, min_rows=1):
    """A TranslationTable whose rows sum to 1 and whose every entry is at
    least 1e-4."""
    sources = draw(st.lists(st.integers(0, 60), min_size=min_rows, max_size=4,
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

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(table=_normalized_tables(min_rows=2))
    def test_every_cut_raises_or_is_a_row_prefix(self, tmp_path_factory, table):
        path = tmp_path_factory.mktemp("cut") / "table.tsv"
        table.save(path)
        data = path.read_bytes()
        rows = _rows(table)
        prefixes, offset = {0: {}}, 0
        for t in table.sources():
            offset += sum(len(f"{t} {w} {p!r}\n") for w, p in rows[t].items())
            prefixes[offset] = {s: rows[s] for s in table.sources() if s <= t}
        assert offset == len(data)
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            try:
                loaded = TranslationTable.load(path)
            except ValueError as exc:
                assert str(exc).startswith(f"{path}: ")
                continue
            assert _rows(loaded) == prefixes.get(cut), cut
