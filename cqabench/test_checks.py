"""Each benchmark check accepts a clean pipeline run and rejects a
deliberately corrupted output.

Run from the repository root: python -m pytest cqabench/test_checks.py
"""

import inspect
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import cqarank.pipeline as pipeline  # noqa: E402
from checks import CheckError  # noqa: E402
from cqarank.corpus import load_queries  # noqa: E402
from cqarank.synth import SynthSpec, write_synth  # noqa: E402
from tracing import FUNCTIONS, Tracer  # noqa: E402


def _config(paths, outdir):
    return pipeline.PipelineConfig(
        qa_path=str(paths["qa"]), users_path=str(paths["users"]),
        queries_path=str(paths["queries"]), qrels_path=str(paths["qrels"]),
        outdir=str(outdir), topics=3, gibbs_iters=20, em_iters=5, top_k=30,
        burn_in=10, samples=5, trees=8, min_leaf=5, seed=3, split_seed=4)


@pytest.fixture
def run(tmp_path):
    """A fresh pipeline run and one served test query:
    (paths, cfg, art, assets, qid, prepared, ranking)."""
    paths = write_synth(SynthSpec(size=60, topics=3, seed=99, queries=12),
                        tmp_path / "data")
    outdir = tmp_path / "exp"
    cfg = _config(paths, outdir)
    pipeline.run_pipeline(cfg)
    corpus = pipeline.load_corpus(outdir / "corpus.json")
    assets = pipeline.ScoringAssets(
        corpus=corpus, index=pipeline.build_index(corpus, cfg.field),
        table=pipeline.TranslationTable.load(outdir / "translation.tsv"),
        model=pipeline.TopicModel.load(outdir / "topics.txt"), cfg=cfg,
        ranker=pipeline.LambdaMARTModel.load(outdir / "ranker.txt"))
    art = checks.Artifacts(outdir)
    queries = {q.id: q for q in load_queries(paths["queries"], corpus.vocabulary)}
    qid = art.test_ids[0]
    prepared = pipeline.prepare_query(assets, queries[qid])
    ranking = pipeline.system_ranking("t2lm+5", assets, prepared)
    return paths, cfg, art, assets, qid, prepared, ranking


def _rows(assets, prepared):
    return [(r.doc_id, r.features) for r in pipeline.feature_rows(assets, prepared, None)]


def _rewrite(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("".join(line + "\n" for line in edit(lines)), encoding="utf-8")


def test_clean_run_passes_every_check(run):
    paths, cfg, art, assets, qid, prepared, ranking = run
    checks.check_report(cfg.outdir, paths["qrels"], cfg.systems, cfg.depth)
    checks.check_normalization(art, [(qid, prepared.theta.theta.tolist())])
    checks.check_candidates(checks.BruteForceBM25(art, cfg.k1, cfg.b), qid,
                            prepared.record.tokens,
                            [(c.qa_id, c.score) for c in prepared.candidates], cfg.top_k)
    rows = _rows(assets, prepared)
    theta = prepared.theta.theta.tolist()
    checks.check_features(art, qid, prepared.record.tokens, theta, prepared.weights, rows)
    letor = checks.read_letor_rows(Path(cfg.outdir) / "test.letor")
    checks.check_features(art, qid, prepared.record.tokens, theta, prepared.weights,
                          letor[qid])
    checks.check_fused_order(art, qid, rows, ranking)
    checks.check_rerun(pipeline, cfg)


def test_report_check_rejects_run_missing_a_query(run):
    paths, cfg, art, *_ = run
    victim = art.test_ids[0]
    _rewrite(Path(cfg.outdir) / "run_t2lmp5.txt",
             lambda lines: [x for x in lines if x.split()[0] != victim])
    with pytest.raises(CheckError, match="lacks judged test queries"):
        checks.check_report(cfg.outdir, paths["qrels"], cfg.systems, cfg.depth)


def test_report_check_rejects_misreported_map(run):
    paths, cfg, *_ = run

    def bump(lines):
        out = []
        for line in lines:
            rec = json.loads(line)
            if rec["type"] == "system" and rec["system"] == "lm":
                rec["map"] += 1e-6
            out.append(json.dumps(rec, sort_keys=True))
        return out

    _rewrite(Path(cfg.outdir) / "report.jsonl", bump)
    with pytest.raises(CheckError, match="lm: recomputed"):
        checks.check_report(cfg.outdir, paths["qrels"], cfg.systems, cfg.depth)


def test_planted_check_rejects_fused_below_lm():
    checks.check_planted({"lm": (0.3, 0.5), "t2lm+": (0.3, 0.5), "t2lm+5": (0.4, 0.6)})
    with pytest.raises(CheckError, match="t2lm\\+5"):
        checks.check_planted({"lm": (0.3, 0.5), "t2lm+": (0.4, 0.6),
                              "t2lm+5": (0.29, 0.6)})


def test_normalization_check_rejects_translation_row_off_one(run):
    _, cfg, _, _, qid, prepared, _ = run
    path = Path(cfg.outdir) / "translation.tsv"

    def scale_first(lines):
        t, w, p = lines[0].split()
        return [f"{t} {w} {float(p) * 1.01!r}"] + lines[1:]

    _rewrite(path, scale_first)
    with pytest.raises(CheckError, match="translation row"):
        checks.check_normalization(checks.Artifacts(cfg.outdir),
                                   [(qid, prepared.theta.theta.tolist())])


def test_normalization_check_rejects_phi_and_theta_off_one(run):
    _, _, art, _, qid, prepared, _ = run
    theta = prepared.theta.theta.tolist()
    art.topics["phi"][1][0] += 1e-6
    with pytest.raises(CheckError, match="phi row 1"):
        checks.check_normalization(art, [(qid, theta)])
    art.topics["phi"][1][0] -= 1e-6
    with pytest.raises(CheckError, match="theta"):
        checks.check_normalization(art, [(qid, [x * 1.001 for x in theta])])


def test_candidate_check_rejects_dropped_or_rescored_candidates(run):
    _, cfg, art, _, qid, prepared, _ = run
    bm25 = checks.BruteForceBM25(art, cfg.k1, cfg.b)
    cands = [(c.qa_id, c.score) for c in prepared.candidates]
    tokens = prepared.record.tokens
    with pytest.raises(CheckError, match="candidates"):
        checks.check_candidates(bm25, qid, tokens, cands[:-1], cfg.top_k)
    rescored = [cands[0]] + [(cands[1][0], cands[1][1] * (1 + 1e-6))] + cands[2:]
    with pytest.raises(CheckError, match="score"):
        checks.check_candidates(bm25, qid, tokens, rescored, cfg.top_k)
    swapped = [cands[-1]] + cands[1:-1] + [cands[0]]
    with pytest.raises(CheckError):
        checks.check_candidates(bm25, qid, tokens, swapped, cfg.top_k)


@pytest.mark.parametrize("column", range(6))
def test_feature_check_rejects_a_perturbed_feature(run, column):
    _, _, art, assets, qid, prepared, _ = run
    rows = _rows(assets, prepared)
    doc, x = rows[0]
    x = list(x)
    x[column] += 1e-6 * max(1.0, abs(x[column]))
    with pytest.raises(CheckError, match="features"):
        checks.check_features(art, qid, prepared.record.tokens,
                              prepared.theta.theta.tolist(), prepared.weights,
                              [(doc, tuple(x))] + rows[1:])


def test_feature_check_rejects_perturbed_term_weights(run):
    _, _, art, assets, qid, prepared, _ = run
    weights = dict(prepared.weights)
    w = next(iter(weights))
    weights[w] *= 1.0 + 1e-6
    with pytest.raises(CheckError, match="term weights"):
        checks.check_features(art, qid, prepared.record.tokens,
                              prepared.theta.theta.tolist(), weights,
                              _rows(assets, prepared))


def test_fused_order_check_rejects_reordered_ranking(run):
    _, _, art, assets, qid, prepared, ranking = run
    rows = _rows(assets, prepared)
    distinct = next(i for i in range(len(ranking) - 1)
                    if ranking[i][1] != ranking[i + 1][1])
    swapped = list(ranking)
    swapped[distinct], swapped[distinct + 1] = swapped[distinct + 1], swapped[distinct]
    with pytest.raises(CheckError, match="served order"):
        checks.check_fused_order(art, qid, rows, swapped)
    rescored = [(d, s + 1e-6) for d, s in ranking]
    with pytest.raises(CheckError, match="served order"):
        checks.check_fused_order(art, qid, rows, rescored)


def test_rerun_check_rejects_a_changed_artifact(run):
    _, cfg, *_ = run
    _rewrite(Path(cfg.outdir) / "test.letor", lambda lines: lines[:-1])
    with pytest.raises(CheckError, match="rerun executed stages"):
        checks.check_rerun(pipeline, cfg)


def test_rerun_check_rejects_an_extra_stage_output(run, monkeypatch):
    _, cfg, *_ = run
    original = pipeline.run_pipeline

    def writes_more(c):
        report = original(c)
        (Path(c.outdir) / "report.txt").write_text("changed\n", encoding="utf-8")
        return report

    monkeypatch.setattr(pipeline, "run_pipeline", writes_more)
    with pytest.raises(CheckError, match="rerun changed artifacts"):
        checks.check_rerun(pipeline, cfg)


def test_tracer_counts_calls_and_restores_every_name(run):
    _, _, _, assets, _, prepared, _ = run
    originals = [inspect.getattr_static(owner, attr) for owner, attr, _, _ in FUNCTIONS]
    tracer = Tracer()
    with tracer.installed():
        tracer.phase = "serve"
        pipeline.system_ranking("t2lm+5", assets, prepared)
    assert tracer.calls("pipeline.system_ranking", ("serve",)) == 1
    assert tracer.calls("relevance.f1f4", ("serve",)) == len(prepared.candidates)
    assert tracer.calls("ltr.predict", ("serve",)) == len(prepared.candidates)
    assert [inspect.getattr_static(owner, attr)
            for owner, attr, _, _ in FUNCTIONS] == originals
