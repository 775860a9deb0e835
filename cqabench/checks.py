"""Independent checks of a pipeline run and of served rankings.

Each check recomputes what it verifies from the files the pipeline wrote
(or from the inputs the program was given), using its own parsers and the
definitions in the cqarank module docstrings, and raises CheckError on the
first mismatch. Nothing is compared with a stored copy of earlier output.
"""

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

TOL = 1e-9


class CheckError(AssertionError):
    pass


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class Artifacts:
    """The pipeline outputs the checks read, parsed without cqarank."""

    def __init__(self, outdir: Path) -> None:
        outdir = Path(outdir)
        corpus = json.loads((outdir / "corpus.json").read_text(encoding="utf-8"))
        self.pairs = {p["id"]: p for p in corpus["pairs"]}
        self.freq = corpus["frequencies"]
        self.total_tokens = sum(self.freq)
        self.best_answers = dict(corpus["users"])
        self.table = read_translation(outdir / "translation.tsv")
        self.topics = read_topics(outdir / "topics.txt")
        self.ranker = read_ranker(outdir / "ranker.txt")
        split = json.loads((outdir / "split.json").read_text(encoding="utf-8"))
        self.test_ids = split["test"]

    def background(self, w: int) -> float:
        """P_ml(w|C), with the 1/(10 N) floor for unseen terms."""
        count = self.freq[w] if 0 <= w < len(self.freq) else 0
        if count == 0:
            return 1.0 / (10.0 * self.total_tokens)
        return count / self.total_tokens


# ---- file readers ---------------------------------------------------------

def read_translation(path: Path) -> dict[int, dict[int, float]]:
    table: dict[int, dict[int, float]] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            t, w, p = line.split()
            table.setdefault(int(t), {})[int(w)] = float(p)
    return table


def read_topics(path: Path) -> dict:
    with open(path, encoding="utf-8") as f:
        k, v, alpha, beta, _seed, _iters = f.readline().split()
        totals = [int(x) for x in f.readline().split()]
        phi = [[float(x) for x in f.readline().split()] for _ in range(int(k))]
    return {"K": int(k), "V": int(v), "alpha": float(alpha), "beta": float(beta),
            "totals": totals, "phi": phi}


def read_ranker(path: Path) -> dict:
    """Trees as nested tuples: ("L", value) or ("S", feature, threshold, left, right)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    fields = dict(line.split(" ", 1) for line in lines[1:6])
    pos = 6

    def node():
        nonlocal pos
        parts = lines[pos].split()
        pos += 1
        if parts[0] == "L":
            return ("L", float(parts[1]))
        return ("S", int(parts[1]), float(parts[2]), node(), node())

    trees = []
    for _ in range(int(fields["num_trees"])):
        pos += 1  # "tree <i> <lines>"
        trees.append(node())
    return {"shrinkage": float(fields["shrinkage"]), "trees": trees}


def read_qrels(path: Path) -> dict[str, dict[str, int]]:
    qrels: dict[str, dict[str, int]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        qid, _, doc, grade = line.split()
        qrels.setdefault(qid, {})[doc] = int(grade)
    return qrels


def read_run(path: Path) -> dict[str, list[str]]:
    run: dict[str, list[tuple[int, str]]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        qid, _, doc, rank, _score, _tag = line.split()
        run.setdefault(qid, []).append((int(rank), doc))
    return {qid: [doc for _, doc in sorted(entries)] for qid, entries in run.items()}


# ---- report metrics -------------------------------------------------------

def average_precision(docs: list[str], grades: dict[str, int], k: int) -> float:
    relevant = sum(1 for g in grades.values() if g >= 1)
    if relevant == 0:
        return 0.0
    hits, total = 0, 0.0
    for rank, doc in enumerate(docs[:k], start=1):
        if grades.get(doc, 0) >= 1:
            hits += 1
            total += hits / rank
    return total / min(relevant, k)


def ndcg(docs: list[str], grades: dict[str, int], k: int) -> float:
    def dcg(gains):
        return sum((2.0 ** g - 1.0) / math.log2(1.0 + r)
                   for r, g in enumerate(gains, start=1))
    ideal = dcg(sorted(grades.values(), reverse=True)[:k])
    if ideal == 0.0:
        return 0.0
    return dcg([grades.get(doc, 0) for doc in docs[:k]]) / ideal


def check_report(outdir: Path, qrels_path: Path, systems, depth: int = 10
                 ) -> dict[str, tuple[float, float]]:
    """Recompute MAP@depth and NDCG@depth of every system from its run file
    and the qrels; every judged test query must be in every run, and the
    report must agree. Returns {system: (map, ndcg)}."""
    outdir = Path(outdir)
    qrels = read_qrels(qrels_path)
    test_ids = json.loads((outdir / "split.json").read_text(encoding="utf-8"))["test"]
    judged = [q for q in test_ids if q in qrels]
    if not judged:
        raise CheckError("no judged test queries")
    reported = {}
    for line in (outdir / "report.jsonl").read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        if rec["type"] == "system":
            reported[rec["system"]] = (rec["map"], rec["ndcg"])
    result = {}
    for system in systems:
        run = read_run(outdir / f"run_{system.replace('+', 'p')}.txt")
        missing = [q for q in judged if q not in run]
        if missing:
            raise CheckError(f"run {system} lacks judged test queries {missing[:5]}")
        m = sum(average_precision(run[q], qrels[q], depth) for q in judged) / len(judged)
        n = sum(ndcg(run[q], qrels[q], depth) for q in judged) / len(judged)
        if system not in reported:
            raise CheckError(f"report lacks system {system}")
        if not (_close(m, reported[system][0], 1e-12)
                and _close(n, reported[system][1], 1e-12)):
            raise CheckError(f"{system}: recomputed MAP/NDCG {m:.12f}/{n:.12f} "
                             f"!= reported {reported[system]}")
        result[system] = (m, n)
    return result


def check_planted(scores: dict[str, tuple[float, float]]) -> None:
    """Acceptance criterion 8: the fused ranker and the term-weighted scorer
    do at least as well as the LM baseline on MAP."""
    lm = scores["lm"][0]
    for system in ("t2lm+5", "t2lm+"):
        if scores[system][0] < lm:
            raise CheckError(f"{system} MAP {scores[system][0]:.4f} < lm MAP {lm:.4f}")


# ---- normalization --------------------------------------------------------

def check_normalization(art: Artifacts, thetas) -> None:
    """Every translation row, phi row and query theta sums to 1."""
    for t, row in art.table.items():
        if not _close(math.fsum(row.values()), 1.0):
            raise CheckError(f"translation row {t} sums to {math.fsum(row.values())!r}")
    for z, row in enumerate(art.topics["phi"]):
        if not _close(math.fsum(row), 1.0):
            raise CheckError(f"phi row {z} sums to {math.fsum(row)!r}")
    for qid, theta in thetas:
        if not _close(math.fsum(theta), 1.0):
            raise CheckError(f"theta of {qid} sums to {math.fsum(theta)!r}")


# ---- BM25 candidates ------------------------------------------------------

class BruteForceBM25:
    """Okapi BM25 over every pair (question plus answer tokens), idf =
    ln((N - df + 0.5)/(df + 0.5) + 1), query term frequency multiplying
    each term's contribution."""

    def __init__(self, art: Artifacts, k1: float, b: float) -> None:
        self.k1, self.b = k1, b
        self.docs = {qa_id: Counter(p["q"] + p["a"]) for qa_id, p in art.pairs.items()}
        self.lens = {qa_id: len(p["q"]) + len(p["a"]) for qa_id, p in art.pairs.items()}
        self.avgdl = sum(self.lens.values()) / len(self.lens)
        self.df = Counter()
        for counts in self.docs.values():
            self.df.update(counts.keys())

    def scores(self, query_tokens) -> dict[str, float]:
        """Score of every pair sharing a term with the query."""
        n = len(self.docs)
        qtf = Counter(query_tokens)
        scores = {}
        for qa_id, counts in self.docs.items():
            score, matched = 0.0, False
            for term in dict.fromkeys(query_tokens):
                tf = counts.get(term, 0)
                if tf == 0:
                    continue
                matched = True
                df = self.df[term]
                idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
                norm = tf + self.k1 * (1.0 - self.b + self.b * self.lens[qa_id] / self.avgdl)
                score += qtf[term] * (idf * tf * (self.k1 + 1.0) / norm)
            if matched:
                scores[qa_id] = score
        return scores


def check_candidates(bm25: BruteForceBM25, query_id: str, query_tokens,
                     candidates: list[tuple[str, float]], k: int) -> None:
    """The served candidates are the brute-force BM25 top-k: same length,
    equal scores rank by rank, and each doc's own score agrees."""
    mine = bm25.scores(query_tokens)
    expected = sorted(mine.items(), key=lambda item: (-item[1], item[0]))[:k]
    if len(expected) != len(candidates):
        raise CheckError(f"{query_id}: {len(candidates)} candidates, "
                         f"brute force finds {len(expected)}")
    for (doc, score), (_, want) in zip(candidates, expected):
        if not (_close(score, want) and doc in mine and _close(mine[doc], score)):
            raise CheckError(f"{query_id}: candidate {doc} score {score!r}, "
                             f"brute force {mine.get(doc)!r} (rank score {want!r})")


# ---- F1-F4, term weights and the fused ranking ----------------------------

def _phi_column(topics: dict, w: int) -> list[float]:
    """P(w|z) for every topic; words outside the model get beta/(n_z + V beta)."""
    if 0 <= w < topics["V"]:
        return [row[w] for row in topics["phi"]]
    beta, v = topics["beta"], topics["V"]
    return [beta / (n + v * beta) for n in topics["totals"]]


def term_weights(art: Artifacts, theta, query_tokens) -> dict[int, float]:
    """W(w) = [-sum_i theta_i p(w|z_i) ln p(w|z_i)] / [the same summed over
    the query's token occurrences]."""
    nums = {}
    for w in query_tokens:
        if w not in nums:
            nums[w] = -sum(t * p * math.log(p)
                           for t, p in zip(theta, _phi_column(art.topics, w)))
    denom = sum(nums[w] for w in query_tokens)
    return {w: n / denom for w, n in nums.items()}


def _ml(tokens) -> dict[int, float]:
    return {t: c / len(tokens) for t, c in Counter(tokens).items()}


def relevance_features(art: Artifacts, query_tokens, qa_id: str, theta,
                       weights) -> tuple[float, ...]:
    """F1..F4 and the asker/answerer authority columns of one pair.

    Per query token w, with lam = 1/(len + 1) of the side read and
    P_ml(w|C) the background:
      F1: W(w) P_ml(w|q);  F2: sum_t P_tr(w|t) P_ml(t|q);
      F3: sum_i theta_i P(w|z_i) sum_t P(t|z_i) P_ml(t|q);  F4: W(w) P_ml(w|a);
    each smoothed as (1 - lam) x + lam P_ml(w|C) and log-summed.
    Authority is min(sqrt(best answers), 20) / 20.
    """
    pair = art.pairs[qa_id]
    q_ml = _ml(pair["q"])
    a_ml = _ml(pair["a"]) if pair["a"] else {}
    lam_q = 1.0 / (len(pair["q"]) + 1)
    lam_a = 1.0 / (len(pair["a"]) + 1)
    phi_q = [0.0] * art.topics["K"]
    for t, p_t in q_ml.items():
        for i, p in enumerate(_phi_column(art.topics, t)):
            phi_q[i] += p * p_t
    f = [0.0, 0.0, 0.0, 0.0]
    for w in query_tokens:
        pc = art.background(w)
        exact = weights[w] * q_ml.get(w, 0.0)
        trans = sum(art.table.get(t, {}).get(w, 0.0) * p_t for t, p_t in q_ml.items())
        topic = sum(th * p * pq for th, p, pq
                    in zip(theta, _phi_column(art.topics, w), phi_q))
        answer = weights[w] * a_ml.get(w, 0.0)
        f[0] += math.log((1.0 - lam_q) * exact + lam_q * pc)
        f[1] += math.log((1.0 - lam_q) * trans + lam_q * pc)
        f[2] += math.log((1.0 - lam_q) * topic + lam_q * pc)
        f[3] += math.log((1.0 - lam_a) * answer + lam_a * pc)

    def authority(user):
        return min(math.sqrt(art.best_answers.get(user, 0)), 20.0) / 20.0

    return tuple(f) + (authority(pair["asker"]), authority(pair["answerer"]))


def check_features(art: Artifacts, query_id: str, query_tokens, theta,
                   weights: dict[int, float],
                   rows: list[tuple[str, tuple[float, ...]]]) -> None:
    """The program's term weights and feature rows match the definitions."""
    mine = term_weights(art, theta, query_tokens)
    if mine.keys() != weights.keys() or not all(_close(mine[w], weights[w]) for w in mine):
        raise CheckError(f"{query_id}: term weights {weights} != {mine}")
    for doc, features in rows:
        expected = relevance_features(art, query_tokens, doc, theta, weights)
        if len(features) != len(expected) or not all(
                _close(a, b) for a, b in zip(features, expected)):
            raise CheckError(f"{query_id}/{doc}: features {features} != {expected}")


def read_letor_rows(path: Path) -> dict[str, list[tuple[str, tuple[float, ...]]]]:
    rows: dict[str, list[tuple[str, tuple[float, ...]]]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        body, doc = line.split("#", 1)
        parts = body.split()
        feats = tuple(float(item.split(":", 1)[1]) for item in parts[2:])
        rows.setdefault(parts[1][len("qid:"):], []).append((doc.strip(), feats))
    return rows


def tree_score(ranker: dict, x) -> float:
    total = 0
    for node in ranker["trees"]:
        while node[0] == "S":
            node = node[3] if x[node[1]] <= node[2] else node[4]
        total += ranker["shrinkage"] * node[1]
    return total


def check_fused_order(art: Artifacts, query_id: str,
                      rows: list[tuple[str, tuple[float, ...]]],
                      served: list[tuple[str, float]]) -> None:
    """The served t2lm+5 ranking equals the feature rows ranked by a walk of
    the parsed ranker trees, score descending, ties by ascending doc id."""
    walked = sorted(((doc, tree_score(art.ranker, x)) for doc, x in rows),
                    key=lambda item: (-item[1], item[0]))
    if [d for d, _ in walked] != [d for d, _ in served] or not all(
            _close(a, b, 1e-12) for (_, a), (_, b) in zip(walked, served)):
        raise CheckError(f"{query_id}: served order {served[:3]}... "
                         f"!= tree walk {walked[:3]}...")


# ---- idempotent rerun -----------------------------------------------------

def artifact_hashes(outdir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(outdir).iterdir()) if p.is_file()}


def check_rerun(pipeline_module, cfg) -> None:
    """A second run_pipeline on the same outdir executes no stage and
    leaves every artifact byte-identical."""
    before = artifact_hashes(cfg.outdir)
    runners = []
    original = pipeline_module.StageRunner

    class RecordingRunner(original):
        def __init__(self) -> None:
            super().__init__()
            runners.append(self)

    pipeline_module.StageRunner = RecordingRunner
    try:
        pipeline_module.run_pipeline(cfg)
    finally:
        pipeline_module.StageRunner = original
    executed = [name for r in runners for name in r.executed]
    if executed:
        raise CheckError(f"rerun executed stages {executed}")
    after = artifact_hashes(cfg.outdir)
    if after != before:
        changed = sorted(k for k in before.keys() | after.keys()
                         if before.get(k) != after.get(k))
        raise CheckError(f"rerun changed artifacts {changed}")
