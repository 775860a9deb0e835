import json
import math
import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from cqarank.evaluation import (MetricReport, Qrels, RankedRun, SystemMetrics,
                                average_precision_at_k, comparison_table,
                                evaluate_run, ndcg_at_k, read_qrels, read_run,
                                report_records, write_run)
from cqarank.pipeline import evaluate_runs


class TestAveragePrecision:
    def test_graded_pattern(self):
        # grades at ranks 1..4: [1, 0, 2, 0]; R = 2 judged-relevant
        grades = {"d1": 1, "d2": 0, "d3": 2, "d4": 0}
        ranked = ["d1", "d2", "d3", "d4"]
        got = average_precision_at_k(ranked, grades, k=10)
        assert got == pytest.approx((1 / 1 + 2 / 3) / 2, abs=1e-9)
        assert got == pytest.approx(0.8333, abs=1e-4)
        assert got == pytest.approx(oracle.average_precision([1, 0, 2, 0], 2, 10))

    def test_all_relevant_is_one(self):
        grades = {f"d{i}": 1 for i in range(12)}
        ranked = [f"d{i}" for i in range(12)]
        assert average_precision_at_k(ranked, grades, k=10) == pytest.approx(1.0)

    def test_no_relevant_is_zero(self):
        assert average_precision_at_k(["d1"], {"d1": 0}, k=10) == 0.0

    def test_denominator_min_r_k(self):
        # 3 judged-relevant but k=2: denominator is 2
        grades = {"d1": 1, "d2": 1, "d3": 1}
        assert average_precision_at_k(["d1", "d2", "d3"], grades, k=2) == \
            pytest.approx(1.0)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            average_precision_at_k([], {}, k=0)


class TestNDCG:
    def test_ideal_ordering_is_one(self):
        grades = {"a": 2, "b": 1, "c": 0}
        assert ndcg_at_k(["a", "b", "c"], grades, k=3) == pytest.approx(1.0)

    def test_swapped_pair(self):
        grades = {"good": 2, "bad": 0}
        got = ndcg_at_k(["bad", "good"], grades, k=2)
        assert got == pytest.approx(0.6309, abs=1e-4)
        assert got == pytest.approx((3.0 / math.log2(3.0)) / 3.0, abs=1e-12)
        assert got == pytest.approx(oracle.dcg([0, 2], 2) / oracle.dcg([2, 0], 2))

    def test_all_zero_grades(self):
        assert ndcg_at_k(["a"], {"a": 0}, k=5) == 0.0

    def test_relabeling_invariance(self):
        rng = random.Random(5)
        grades = {f"d{i}": rng.choice([0, 1, 2]) for i in range(8)}
        ranked = sorted(grades, key=lambda d: rng.random())
        renamed = {f"x{i}": grades[d] for i, d in enumerate(sorted(grades))}
        mapping = {d: f"x{i}" for i, d in enumerate(sorted(grades))}
        ranked_renamed = [mapping[d] for d in ranked]
        assert ndcg_at_k(ranked, grades, 5) == pytest.approx(
            ndcg_at_k(ranked_renamed, renamed, 5))
        assert average_precision_at_k(ranked, grades, 5) == pytest.approx(
            average_precision_at_k(ranked_renamed, renamed, 5))

    def test_appending_zeros_below_k_changes_nothing(self):
        grades = {"a": 2, "b": 1}
        ranked = ["a", "b"]
        longer = ranked + [f"junk{i}" for i in range(10)]
        for k in (1, 2):
            assert ndcg_at_k(ranked, grades, k) == ndcg_at_k(longer, grades, k)
            assert average_precision_at_k(ranked, grades, k) == \
                average_precision_at_k(longer, grades, k)

    def test_agreement_swap_never_decreases(self):
        grades = {"a": 2, "b": 0, "c": 1}
        worse = ["b", "c", "a"]
        better = ["a", "c", "b"]
        assert ndcg_at_k(better, grades, 3) >= ndcg_at_k(worse, grades, 3)


class TestEvaluateRun:
    def _qrels(self):
        qrels = Qrels()
        qrels.add("q1", "d1", 2)
        qrels.add("q1", "d2", 1)
        qrels.add("q2", "d3", 1)
        return qrels

    def test_perfect_single_query(self):
        qrels = self._qrels()
        run = RankedRun(tag="sys")
        run.add_query("q1", [("d1", 2.0), ("d2", 1.0)])
        m = evaluate_run(run, qrels, 10, 1)
        assert m.map_at_k == pytest.approx(1.0)
        assert m.ndcg_at_k == pytest.approx(1.0)

    def test_mean_over_queries(self):
        qrels = self._qrels()
        run = RankedRun(tag="sys")
        run.add_query("q1", [("d1", 2.0), ("d2", 1.0)])      # AP 1.0
        run.add_query("q2", [("dx", 2.0), ("d3", 1.0)])      # AP 0.5
        assert evaluate_run(run, qrels, 10, 1).map_at_k == pytest.approx(0.75)

    def test_query_set_scores_missing_queries_zero(self):
        qrels = self._qrels()
        run = RankedRun(tag="sys")
        run.add_query("q1", [("d1", 2.0), ("d2", 1.0)])      # AP 1.0
        m = evaluate_run(run, qrels, 10, 1, queries=["q1", "q2"])
        assert (m.map_at_k, m.ndcg_at_k, m.missing) == (0.5, 0.5, 1)
        assert (m.per_query["q2"].ap, m.per_query["q2"].ndcg) == (0.0, 0.0)
        default = evaluate_run(run, qrels, 10, 1)
        assert (default.map_at_k, default.missing) == (1.0, 0)

    def test_run_query_outside_query_set_rejected(self):
        run = RankedRun(tag="sys")
        run.add_query("q1", [("d1", 1.0)])
        with pytest.raises(ValueError, match="outside the evaluated queries"):
            evaluate_run(run, self._qrels(), 10, 1, queries=["q2"])

    def test_unknown_query_rejected(self):
        run = RankedRun(tag="sys")
        run.add_query("mystery", [("d1", 1.0)])
        with pytest.raises(ValueError, match="unknown query"):
            evaluate_run(run, self._qrels(), 10, 1)

    def test_flagging_no_relevant(self):
        qrels = Qrels()
        qrels.add("q1", "d1", 0)
        run = RankedRun(tag="sys")
        run.add_query("q1", [("d1", 1.0)])
        assert evaluate_run(run, qrels, 10, 1).per_query["q1"].flagged

    def test_metrics_in_unit_interval(self):
        rng = random.Random(17)
        qrels = Qrels()
        run = RankedRun(tag="sys")
        for q in range(6):
            docs = [f"q{q}d{i}" for i in range(15)]
            for d in docs[:8]:
                qrels.add(f"q{q}", d, rng.choice([0, 1, 2]))
            scored = sorted(((rng.random(), d) for d in docs), reverse=True)
            run.add_query(f"q{q}", [(d, s) for s, d in scored])
        m = evaluate_run(run, qrels, 10, 1)
        assert 0.0 <= m.map_at_k <= 1.0
        assert 0.0 <= m.ndcg_at_k <= 1.0


class TestQrelsIO:
    def test_grammar(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d9 2\nq1 0 d3 0\n")
        qrels = read_qrels(path)
        assert qrels.grade("q1", "d9") == 2
        assert qrels.grade("q1", "d3") == 0
        assert qrels.grade("q1", "unjudged") == 0

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d9 2\nq1 0 d9 1\n")
        with pytest.raises(ValueError, match="line 2"):
            read_qrels(path)

    def test_bad_grade(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d9 7\n")
        with pytest.raises(ValueError, match="line 1"):
            read_qrels(path)

    def test_reads_every_judgment(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d2 2\nq2 0 d1 1\n")
        loaded = read_qrels(path)
        assert loaded.judged("q1") == {"d2": 2}
        assert loaded.judged("q2") == {"d1": 1}

    @pytest.mark.parametrize("text, line", [
        ("q1 0 d9\n", 1), ("q1 0 d9 x\n", 1), ("q1 0 d9 2\n\nq1 0 d9 1\n", 3)])
    def test_bad_line_names_path_and_line(self, tmp_path, text, line):
        path = tmp_path / "qrels.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: line {line}: ")):
            read_qrels(path)


class TestRunIO:
    def test_round_trip_random(self, tmp_path):
        rng = random.Random(23)
        run = RankedRun(tag="mysys")
        for q in range(5):
            scored = sorted(((rng.random(), f"d{i}") for i in range(12)),
                            reverse=True)
            run.add_query(f"q{q}", [(d, s) for s, d in scored])
        path = tmp_path / "run.txt"
        write_run(run, path)
        loaded = read_run(path)
        assert loaded.tag == "mysys"
        for q in run.queries():
            assert loaded.ranking(q) == run.ranking(q)

    def test_rank_sequence_validated(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 0.9 sys\nq1 Q0 d2 5 0.5 sys\n")
        with pytest.raises(ValueError, match="line 2"):
            read_run(path)

    @pytest.mark.parametrize("text, line", [
        ("q1 Q0 d1 1 0.9\n", 1), ("q1 Q1 d1 1 0.9 sys\n", 1),
        ("q1 Q0 d1 1 0.9 sys\nq1 Q0 d2 2 high sys\n", 2)])
    def test_bad_line_names_path_and_line(self, tmp_path, text, line):
        path = tmp_path / "run.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: line {line}: ")):
            read_run(path)

    def test_unordered_ranking_names_path(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 0.1 sys\nq1 Q0 d2 2 0.9 sys\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: scores not")):
            read_run(path)

    def test_duplicate_doc_rejected(self):
        run = RankedRun()
        with pytest.raises(ValueError, match="duplicate doc"):
            run.add_query("q1", [("d1", 1.0), ("d1", 0.5)])

    def test_increasing_scores_rejected(self):
        run = RankedRun()
        with pytest.raises(ValueError, match="non-increasing"):
            run.add_query("q1", [("d1", 0.1), ("d2", 0.9)])


# ids and tags: no whitespace, as the run format needs
_NAME = st.text("abcdefghijklmnopqrstuvwxyz0123456789+-_.", min_size=1, max_size=6)


@st.composite
def _runs(draw):
    run = RankedRun(tag=draw(_NAME))
    for qid in draw(st.lists(_NAME, min_size=1, max_size=3, unique=True)):
        docs = draw(st.lists(_NAME, min_size=1, max_size=4, unique=True))
        scores = draw(st.lists(st.floats(allow_nan=False), min_size=len(docs),
                               max_size=len(docs)))
        run.add_query(qid, list(zip(docs, sorted(scores, reverse=True))))
    return run


_PROPERTY = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


class TestRunRoundTripProperties:
    @_PROPERTY
    @given(run=_runs())
    def test_write_read_write_is_byte_identical(self, tmp_path_factory, run):
        path = tmp_path_factory.mktemp("rt") / "run.txt"
        write_run(run, path)
        saved = path.read_bytes()
        loaded = read_run(path)
        assert loaded.tag == run.tag
        assert {q: loaded.ranking(q) for q in loaded.queries()} == \
            {q: run.ranking(q) for q in run.queries()}
        write_run(loaded, path)
        assert path.read_bytes() == saved

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(run=_runs())
    def test_every_cut_raises_or_is_a_line_prefix(self, tmp_path_factory, run):
        """A cut inside a line can still parse, with the tag or a doc id cut
        short, so only a cut at a line boundary may load."""
        path = tmp_path_factory.mktemp("cut") / "run.txt"
        write_run(run, path)
        data = path.read_bytes()
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            try:
                loaded = read_run(path)
            except ValueError as exc:
                assert str(exc).startswith(f"{path}: ")
                continue
            assert cut == 0 or data[cut - 1:cut] == b"\n", cut
            write_run(loaded, path)
            assert path.read_bytes() == data[:cut]

    def test_missing_final_newline_names_path(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 0.9 t2lm+\nq1 Q0 d2 2 0.5 t2l")
        with pytest.raises(ValueError, match=re.escape(f"{path}: last line has no newline")):
            read_run(path)


class TestReport:
    # published MAPs from the comparison the report format mirrors,
    # used purely as formatting fixtures
    FIXTURE = [("vsm", 0.3475), ("bm25", 0.3506), ("lm", 0.3583),
               ("tlm", 0.3746), ("iblm", 0.3916), ("t2lm", 0.4361),
               ("t2lm+", 0.4695)]

    def _fixture_report(self):
        report = MetricReport(k=10)
        for name, value in self.FIXTURE:
            report.systems[name] = SystemMetrics(map_at_k=value, ndcg_at_k=0.0)
        return report

    def test_delta_matrix_values(self):
        text = comparison_table(self._fixture_report())
        assert "0.3475" in text and "0.4695" in text
        assert "+0.31" in text    # bm25 over vsm
        assert "+12.20" in text   # t2lm+ over vsm
        assert "+3.34" in text    # t2lm+ over t2lm
        assert "N/A" in text

    def test_records_are_json(self):
        report = MetricReport(k=10, systems={"a": SystemMetrics(0.5, 0.6),
                                             "b": SystemMetrics(0.7, 0.8)})
        records = report_records(report)
        systems = [r for r in records if r["type"] == "system"]
        assert [r["system"] for r in systems] == ["a", "b"]
        for rec in records:
            json.dumps(rec)  # serializable


class TestEvaluateRuns:
    def _qrels(self):
        qrels = Qrels()
        qrels.add("q1", "d1", 2)
        qrels.add("q2", "d2", 1)
        return qrels

    def test_one_report_in_run_order(self):
        good, bad = RankedRun(tag="good"), RankedRun(tag="bad")
        good.add_query("q1", [("d1", 1.0)])
        bad.add_query("q1", [("d9", 1.0)])
        report = evaluate_runs([("z", good), ("a", bad)], self._qrels(), 10, 1,
                               queries=["q1", "q2"])
        assert report.k == 10 and list(report.systems) == ["z", "a"]
        assert report.systems["z"] == evaluate_run(good, self._qrels(), 10, 1,
                                                   ["q1", "q2"])
        assert (report.systems["z"].map_at_k, report.systems["a"].map_at_k) == (0.5, 0.0)

    def test_repeated_system_rejected(self):
        run = RankedRun(tag="sys")
        run.add_query("q1", [("d1", 1.0)])
        with pytest.raises(ValueError, match="duplicate system 'sys'"):
            evaluate_runs([(run.tag, run), (run.tag, run)], self._qrels(), 10, 1)
