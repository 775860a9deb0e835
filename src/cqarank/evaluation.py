"""Graded relevance judgments, MAP@k and NDCG@k, TREC-style run IO, and
multi-system comparison reports.

Unjudged (query, doc) pairs count as grade 0. MAP binarizes at grade >= 1
by default; both the depth and the threshold are caller-controlled.
"""

import json
import math
from dataclasses import dataclass, field

from .corpus import text_lines


class Qrels:
    """Graded judgments: (query_id, doc_id) -> grade in {0, 1, 2}."""

    def __init__(self) -> None:
        self._by_query: dict[str, dict[str, int]] = {}

    def add(self, query_id: str, doc_id: str, grade: int) -> None:
        if grade not in (0, 1, 2):
            raise ValueError(f"grade must be in {{0,1,2}}, got {grade}")
        docs = self._by_query.setdefault(query_id, {})
        if doc_id in docs:
            raise ValueError(f"duplicate qrels entry ({query_id}, {doc_id})")
        docs[doc_id] = grade

    def grade(self, query_id: str, doc_id: str) -> int:
        return self._by_query.get(query_id, {}).get(doc_id, 0)

    def has_query(self, query_id: str) -> bool:
        return query_id in self._by_query

    def judged(self, query_id: str) -> dict[str, int]:
        return dict(self._by_query.get(query_id, {}))

    def queries(self) -> list[str]:
        return list(self._by_query.keys())


class RankedRun:
    """Per-query ordered doc lists with scores."""

    def __init__(self, tag: str = "run") -> None:
        self.tag = tag
        self._queries: dict[str, list[tuple[str, float]]] = {}

    def add_query(self, query_id: str, ranked: list[tuple[str, float]]) -> None:
        if query_id in self._queries:
            raise ValueError(f"duplicate run query {query_id!r}")
        seen = set()
        prev = math.inf
        for doc_id, score in ranked:
            if doc_id in seen:
                raise ValueError(f"duplicate doc {doc_id!r} for query {query_id!r}")
            seen.add(doc_id)
            if score > prev:
                raise ValueError(f"scores not non-increasing for query {query_id!r}")
            prev = score
        self._queries[query_id] = list(ranked)

    def ranking(self, query_id: str) -> list[tuple[str, float]]:
        return list(self._queries[query_id])

    def queries(self) -> list[str]:
        return list(self._queries.keys())


def average_precision_at_k(ranked_doc_ids, query_grades: dict[str, int], k: int,
                           rel_threshold: int = 1) -> float:
    """AP@k with binary relevance grade >= rel_threshold and denominator
    min(R, k), R = judged-relevant count for the query. R = 0 gives 0."""
    if k < 1:
        raise ValueError("k must be >= 1")
    relevant_total = sum(1 for g in query_grades.values() if g >= rel_threshold)
    if relevant_total == 0:
        return 0.0
    hits = 0
    precision_sum = 0.0
    for rank, doc_id in enumerate(ranked_doc_ids[:k], start=1):
        if query_grades.get(doc_id, 0) >= rel_threshold:
            hits += 1
            precision_sum += hits / rank
    return precision_sum / min(relevant_total, k)


def ndcg_at_k(ranked_doc_ids, query_grades: dict[str, int], k: int) -> float:
    """NDCG@k with gain 2^grade - 1 and discount 1/log2(1 + rank); the ideal
    ordering comes from the query's judged grades."""
    if k < 1:
        raise ValueError("k must be >= 1")
    idcg = 0.0  # a plain loop: sum() is compensated from Python 3.12 on
    for rank, g in enumerate(sorted(query_grades.values(), reverse=True)[:k], start=1):
        idcg += (2.0 ** g - 1.0) / math.log2(1.0 + rank)
    if idcg == 0.0:
        return 0.0
    dcg = 0.0
    for rank, doc_id in enumerate(ranked_doc_ids[:k], start=1):
        g = query_grades.get(doc_id, 0)
        dcg += (2.0 ** g - 1.0) / math.log2(1.0 + rank)
    return dcg / idcg


@dataclass(frozen=True)
class QueryMetrics:
    ap: float
    ndcg: float
    flagged: bool  # no judged-relevant docs for this query


@dataclass
class SystemMetrics:
    map_at_k: float
    ndcg_at_k: float
    per_query: dict[str, QueryMetrics] = field(default_factory=dict)
    missing: int = 0  # averaged-over queries the run lacks, each scored 0


@dataclass
class MetricReport:
    k: int
    systems: dict[str, SystemMetrics] = field(default_factory=dict)


def evaluate_run(run: RankedRun, qrels: Qrels, k: int, rel_threshold: int,
                 queries=None) -> SystemMetrics:
    """MAP@k and NDCG@k averaged over `queries`, by default the run's own.

    A query the run lacks scores AP = NDCG = 0 (trec_eval -c) and is
    counted in `missing`; a run query outside `queries` is an error. Both
    means add left to right, not by sum(), so they do not depend on the
    Python version.
    """
    in_run = set(run.queries())
    for qid in sorted(in_run):
        if not qrels.has_query(qid):
            raise ValueError(f"run references unknown query id {qid!r}")
    targets = sorted(in_run if queries is None else set(queries))
    outside = sorted(in_run.difference(targets))
    if outside:
        raise ValueError(f"run query {outside[0]!r} is outside the evaluated queries")
    per_query: dict[str, QueryMetrics] = {}
    for qid in targets:
        grades = qrels.judged(qid)
        docs = [doc_id for doc_id, _ in run.ranking(qid)] if qid in in_run else []
        flagged = not any(g >= rel_threshold for g in grades.values())
        per_query[qid] = QueryMetrics(
            ap=average_precision_at_k(docs, grades, k, rel_threshold),
            ndcg=ndcg_at_k(docs, grades, k),
            flagged=flagged,
        )
    if not per_query:
        raise ValueError("run has no queries")
    ap_sum = ndcg_sum = 0.0
    for q in per_query.values():
        ap_sum += q.ap
        ndcg_sum += q.ndcg
    n = len(per_query)
    return SystemMetrics(map_at_k=ap_sum / n, ndcg_at_k=ndcg_sum / n,
                         per_query=per_query, missing=n - len(in_run))


def comparison_table(report: MetricReport, notes=()) -> str:
    """Aligned text table: per-system MAP/NDCG, then each line of `notes`,
    then the pairwise MAP delta matrix in percentage points (column system
    minus row system)."""
    names = list(report.systems.keys())
    width = max([len(n) for n in names] + [8])
    lines = [f"{'system':<{width}}  {'MAP@%d' % report.k:>8}  {'NDCG@%d' % report.k:>8}"
             f"  {'queries':>7}  {'missing':>7}"]
    for name in names:
        m = report.systems[name]
        lines.append(f"{name:<{width}}  {m.map_at_k:8.4f}  {m.ndcg_at_k:8.4f}"
                     f"  {len(m.per_query):>7}  {m.missing:>7}")
    if any(m.missing for m in report.systems.values()):
        lines.append("(a query missing from a run scores AP = NDCG = 0)")
    lines.extend(notes)
    if len(names) > 1:
        lines.append("")
        lines.append("pairwise MAP deltas (x100, column minus row)")
        header = " " * width + "  " + "  ".join(f"{n:>8}" for n in names)
        lines.append(header)
        for row in names:
            cells = []
            for col in names:
                ci = names.index(col)
                ri = names.index(row)
                if ci <= ri:
                    cells.append(f"{'N/A':>8}")
                else:
                    delta = (report.systems[col].map_at_k
                             - report.systems[row].map_at_k) * 100.0
                    cells.append(f"{delta:>+8.2f}")
            lines.append(f"{row:<{width}}  " + "  ".join(cells))
    return "\n".join(lines) + "\n"


def report_records(report: MetricReport) -> list[dict]:
    """Machine-readable JSON records: one summary per system, then one per
    (system, query)."""
    records = []
    for name, m in report.systems.items():
        records.append({"type": "system", "system": name, "k": report.k,
                        "map": m.map_at_k, "ndcg": m.ndcg_at_k,
                        "queries": len(m.per_query), "missing": m.missing})
    for name, m in report.systems.items():
        for qid, q in m.per_query.items():
            records.append({"type": "query", "system": name, "query": qid,
                            "ap": q.ap, "ndcg": q.ndcg, "flagged": q.flagged})
    return records


def write_report(report: MetricReport, text_path, jsonl_path, notes=()) -> None:
    with open(text_path, "w", encoding="utf-8") as f:
        f.write(comparison_table(report, notes))
    with open(jsonl_path, "w", encoding="utf-8") as f:
        for record in report_records(report):
            f.write(json.dumps(record, sort_keys=True) + "\n")


def read_qrels(path) -> Qrels:
    """TREC qrels: `<qid> 0 <docid> <grade>` per line."""
    qrels = Qrels()
    with text_lines(path) as lines:
        for line in lines:
            parts = line.split()
            if len(parts) != 4:
                raise ValueError("expected '<qid> 0 <docid> <grade>'")
            try:
                grade = int(parts[3])
            except ValueError:
                raise ValueError(f"bad grade {parts[3]!r}") from None
            qrels.add(parts[0], parts[2], grade)
    return qrels


def write_run(run: RankedRun, path) -> None:
    """TREC run format: `<qid> Q0 <docid> <rank> <score> <tag>`."""
    with open(path, "w", encoding="utf-8") as f:
        for qid in sorted(run.queries()):
            for rank, (doc_id, score) in enumerate(run.ranking(qid), start=1):
                f.write(f"{qid} Q0 {doc_id} {rank} {score!r} {run.tag}\n")


def read_run(path) -> RankedRun:
    """A run file as write_run writes it. A last line without its newline
    raises ValueError naming the path and line: a file cut inside its last
    line can still parse, with the tag or a doc id cut short."""
    rankings: dict[str, list[tuple[str, float]]] = {}
    tag = "run"
    with text_lines(path, whole=True) as lines:
        for line in lines:
            parts = line.split()
            if len(parts) != 6 or parts[1] != "Q0":
                raise ValueError("expected '<qid> Q0 <docid> <rank> <score> <tag>'")
            qid, _, doc_id, rank_s, score_s, tag = parts
            try:
                rank = int(rank_s)
                score = float(score_s)
            except ValueError:
                raise ValueError("bad rank or score") from None
            entries = rankings.setdefault(qid, [])
            if rank != len(entries) + 1:
                raise ValueError(f"rank {rank} out of sequence")
            entries.append((doc_id, score))
    run = RankedRun(tag=tag)
    for qid in rankings:
        try:
            run.add_query(qid, rankings[qid])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return run
