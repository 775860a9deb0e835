"""Benchmark of cqarank through its public API, one workload per process.

Run from the repository root:

    python3 cqabench/run.py --workload archive --seed 1 --seconds 10 --trace 0

Phases of one run:
  1. run_pipeline into an empty outdir, up to the report;
  2. load the trained artifacts as `cqarank rank` does (load_corpus,
     TranslationTable.load, TopicModel.load, LambdaMARTModel.load,
     build_index), repeated and reported as the median;
  3. a closed loop with one client: each query is prepare_query followed by
     system_ranking("t2lm+5"), for --seconds and at least MIN_SERVED
     queries and one pass over the stream.
Untimed independent checks follow (see checks.py). The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}, holding the
end-to-end metrics with --trace 0 and the per-layer metrics with --trace 1.
"""

import argparse
import contextlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

MIN_SERVED = 200          # the p95 then has at least ten samples beyond it
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.5
SETUP_MAX_REPEATS = 60
CHECK_QUERIES = 6         # per kind (test split, extra) for the sampled checks
FUSED = "t2lm+5"


def _import_program():
    """Import cqarank from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import cqarank
    except ImportError as exc:
        raise SystemExit(f"cqabench: cannot import cqarank from {ROOT / 'src'}: {exc}")
    if not Path(cqarank.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"cqabench: cqarank imported from {cqarank.__file__}, "
                         f"not from {ROOT / 'src'}")


def _load_assets(pipeline, cfg):
    """Phase 2: the artifacts `cqarank rank` loads, through the same calls."""
    outdir = Path(cfg.outdir)
    corpus = pipeline.load_corpus(outdir / "corpus.json")
    table = pipeline.TranslationTable.load(outdir / "translation.tsv")
    model = pipeline.TopicModel.load(outdir / "topics.txt")
    ranker = pipeline.LambdaMARTModel.load(outdir / "ranker.txt")
    index = pipeline.build_index(corpus, cfg.field)
    return pipeline.ScoringAssets(corpus=corpus, index=index, table=table,
                                  model=model, cfg=cfg, ranker=ranker)


def _setup(pipeline, cfg):
    samples = []
    while True:
        start = time.perf_counter()
        assets = _load_assets(pipeline, cfg)
        samples.append(time.perf_counter() - start)
        if (len(samples) >= SETUP_MIN_REPEATS and sum(samples) >= SETUP_MIN_SECONDS
                or len(samples) >= SETUP_MAX_REPEATS):
            return assets, samples
        del assets


def _serve(pipeline, assets, stream, seconds):
    """Phase 3; returns per-query latencies, the loop's wall time,
    {query id: (prepared, ranking)} for the first answer to each query, and
    the failure count."""
    latencies, served, failed = [], {}, 0
    need = max(MIN_SERVED, len(stream))
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < need or time.perf_counter() < deadline:
        query = stream[i % len(stream)]
        i += 1
        t0 = time.perf_counter()
        try:
            prepared = pipeline.prepare_query(assets, query)
            ranking = pipeline.system_ranking(FUSED, assets, prepared)
        except Exception as exc:  # counted, reported, and the loop goes on
            failed += 1
            print(f"query {query.id} failed: {exc!r}", file=sys.stderr)
            continue
        latencies.append(time.perf_counter() - t0)
        served.setdefault(query.id, (prepared, ranking))
    return latencies, time.perf_counter() - start, served, failed


def _run_checks(pipeline, cfg, paths, assets, served, seed):
    """The independent output checks; raises checks.CheckError."""
    import checks

    scores = checks.check_report(cfg.outdir, paths["qrels"], cfg.systems, cfg.depth)
    checks.check_planted(scores)
    art = checks.Artifacts(cfg.outdir)
    checks.check_normalization(
        art, [(qid, p.theta.theta.tolist()) for qid, (p, _) in served.items()])

    rng = random.Random(seed)
    test = set(art.test_ids)
    test_ids = sorted(q for q in served if q in test)
    extra_ids = sorted(q for q in served if q not in test)
    sample = (rng.sample(test_ids, min(CHECK_QUERIES, len(test_ids)))
              + rng.sample(extra_ids, min(CHECK_QUERIES, len(extra_ids))))
    bm25 = checks.BruteForceBM25(art, cfg.k1, cfg.b)
    letor = checks.read_letor_rows(Path(cfg.outdir) / "test.letor")
    for qid in sample:
        prepared, ranking = served[qid]
        tokens = prepared.record.tokens
        theta = prepared.theta.theta.tolist()
        checks.check_candidates(bm25, qid, tokens,
                                [(c.qa_id, c.score) for c in prepared.candidates],
                                cfg.top_k)
        rows = [(r.doc_id, r.features)
                for r in pipeline.feature_rows(assets, prepared, None)]
        checks.check_features(art, qid, tokens, theta, prepared.weights, rows)
        if qid in test:
            checks.check_features(art, qid, tokens, theta, prepared.weights, letor[qid])
        checks.check_fused_order(art, qid, rows, ranking)
    checks.check_rerun(pipeline, cfg)
    return scores


def _end_to_end(pipeline_s, setup, latencies, serve_s, rss_mb, scores):
    ms = [x * 1000.0 for x in latencies]
    return {
        "pipeline_s": (pipeline_s, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "queries_per_s": (len(latencies) / serve_s, "1/s"),
        "query_p50_ms": (statistics.median(ms), "ms"),
        "query_p95_ms": (statistics.quantiles(ms, n=20)[18], "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "map10": (scores[FUSED][0], "score"),
        "ndcg10": (scores[FUSED][1], "score"),
        "map10_t2lmp": (scores["t2lm+"][0], "score"),
    }


def _per_layer(tracer, pipeline_s, assets, served, test_ids, qrels_path):
    import checks

    P, S, Q = ("pipeline",), ("setup",), ("serve",)
    ALL = ("pipeline", "setup", "serve")
    m = {f"pipeline.{stage}_s": (tracer.seconds(f"pipeline.{stage}", P), "s")
         for stage in ("ingest", "train-tm", "train-lda", "features",
                       "train-ranker", "rank", "evaluate")}
    m["pipeline.total_s"] = (pipeline_s, "s")
    m["pipeline.prepare_query_ms"] = (tracer.per_call("pipeline.prepare_query", Q, 1e3), "ms")
    m["pipeline.system_ranking_ms"] = (tracer.per_call("pipeline.system_ranking", Q, 1e3), "ms")

    corpus = assets.corpus
    m["corpus.load_corpus_s"] = (tracer.per_call("corpus.load_corpus", S), "s")
    m["corpus.tokens"] = (sum(len(p.question_tokens) + len(p.answer_tokens)
                              for p in corpus.pairs), "count")

    qrels = checks.read_qrels(qrels_path)
    relevant = found = 0
    for qid in (q for q in test_ids if q in served):
        grades = qrels.get(qid, {})
        wanted = {d for d, g in grades.items() if g >= 1}
        relevant += len(wanted)
        found += len(wanted & {c.qa_id for c in served[qid][0].candidates})
    m["index.build_index_s"] = (tracer.per_call("index.build_index", S), "s")
    m["index.retrieve_us"] = (tracer.per_call("index.retrieve", Q, 1e6), "us")
    m["index.vsm_us"] = (tracer.per_call("index.vsm", P, 1e6), "us")
    m["index.candidates_per_query"] = (
        statistics.fmean(len(p.candidates) for p, _ in served.values()), "count")
    m["index.candidate_recall"] = (found / relevant if relevant else 0.0, "ratio")

    m["translation.train_ibm1_s"] = (tracer.seconds("translation.train_ibm1", P), "s")
    m["translation.em_us_per_pair_iter"] = (
        tracer.per_work("translation.train_ibm1", P, 1e6), "us")
    m["translation.load_s"] = (tracer.per_call("translation.load", S), "s")
    m["translation.table_entries"] = (
        sum(len(assets.table.row(t)) for t in assets.table.sources()), "count")

    m["topics.train_lda_s"] = (tracer.seconds("topics.train_lda", P), "s")
    m["topics.gibbs_us_per_token_sweep"] = (tracer.per_work("topics.train_lda", P, 1e6), "us")
    m["topics.infer_ms"] = (tracer.per_call("topics.infer", Q, 1e3), "ms")
    m["topics.infer_us_per_token_sweep"] = (tracer.per_work("topics.infer", Q, 1e6), "us")
    m["topics.load_s"] = (tracer.per_call("topics.load", S), "s")
    m["topics.oov_fallback_queries"] = (
        sum(1 for p, _ in served.values() if p.theta.oov_fallback), "count")

    m["relevance.f1f4_us"] = (tracer.per_call("relevance.f1f4", ALL, 1e6), "us")
    m["relevance.f1f4_calls"] = (tracer.calls("relevance.f1f4", P), "count")
    for scorer in ("score_lm", "score_tlm", "score_t2lm", "score_t2lm_plus"):
        m[f"relevance.{scorer}_us"] = (tracer.per_call(f"relevance.{scorer}", P, 1e6), "us")
    m["relevance.term_weights_us"] = (tracer.per_call("relevance.term_weights", ALL, 1e6), "us")
    m["quality.quality_feature_us"] = (
        tracer.per_call("quality.quality_feature", ALL, 1e6), "us")

    m["ltr.train_s"] = (tracer.seconds("ltr.train", P), "s")
    m["ltr.fit_tree_s"] = (tracer.seconds("ltr.fit_tree", P), "s")
    m["ltr.compute_lambdas_s"] = (tracer.seconds("ltr.compute_lambdas", P), "s")
    m["ltr.predict_matrix_s"] = (tracer.seconds("ltr.predict_matrix", P), "s")
    m["ltr.predict_us"] = (tracer.per_call("ltr.predict", ALL, 1e6), "us")
    m["ltr.load_s"] = (tracer.per_call("ltr.load", S), "s")
    m["evaluation.evaluate_run_s"] = (tracer.seconds("evaluation.evaluate_run", P), "s")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import cqarank.pipeline as pipeline
    from cqarank.corpus import load_queries
    from checks import CheckError
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    paths = workload.write_archive(work / "data")
    cfg = workload.config(paths, work / "exp")

    tracer = Tracer()
    with tracer.installed() if args.trace else contextlib.nullcontext():
        tracer.phase = "pipeline"
        start = time.perf_counter()
        pipeline.run_pipeline(cfg)
        pipeline_s = time.perf_counter() - start

        tracer.phase = "setup"
        assets, setup = _setup(pipeline, cfg)

        test_ids = json.loads((work / "exp" / "split.json").read_text())["test"]
        workload.write_served(paths, test_ids, args.seed, work / "served.jsonl")
        stream = load_queries(work / "served.jsonl", assets.corpus.vocabulary, cfg.mode)
        random.Random(args.seed).shuffle(stream)
        tracer.phase = "serve"
        latencies, serve_s, served, failed = _serve(pipeline, assets, stream,
                                                    args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct = True
    try:
        scores = _run_checks(pipeline, cfg, paths, assets, served, args.seed)
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct, scores = False, None

    if args.trace:
        metrics = _per_layer(tracer, pipeline_s, assets, served, test_ids,
                             paths["qrels"])
    elif scores is not None:
        metrics = _end_to_end(pipeline_s, setup, latencies, serve_s, rss_mb, scores)
    else:
        metrics = {}
    attempted = 1 + len(setup) + len(latencies) + failed + 1
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
