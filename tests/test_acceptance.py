"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they execute.
"""

import json
import math
import time

import numpy as np
import pytest

import oracle
from cqarank.corpus import ingest_corpus, load_queries
from cqarank.evaluation import average_precision_at_k, ndcg_at_k
from cqarank.index import bm25_score, build_index, vsm_score
from cqarank.ltr import RankingInstance, TrainConfig, compute_lambdas, train
from cqarank.pipeline import PipelineConfig, run_pipeline
from cqarank.quality import authority_score
from cqarank.relevance import (MixtureWeights, features_f1_f4, score_lm,
                               score_t2lm, score_t2lm_plus, score_tlm,
                               term_weights)
from cqarank.synth import SynthSpec, write_synth
from cqarank.topics import infer_query_topics, train_lda
from cqarank.translation import (corpus_log_likelihood, identity_table,
                                 make_parallel_pairs, train_ibm1)
from conftest import build_corpus

import random


def check(criterion: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{status}] criterion {criterion}: {description}{suffix}")
    assert passed, f"criterion {criterion} failed: {description} {detail}"


@pytest.fixture(scope="module")
def synth_500(tmp_path_factory):
    """500-pair synthetic corpus with trained translation and topic models."""
    start = time.monotonic()
    root = tmp_path_factory.mktemp("synth500")
    paths = write_synth(SynthSpec(size=500, topics=8, seed=500), root)
    corpus = ingest_corpus(paths["qa"], paths["users"])
    table = train_ibm1(make_parallel_pairs(corpus, "pooled_both"), iterations=10)
    docs = [p.question_tokens + p.answer_tokens for p in corpus.pairs]
    model = train_lda(docs, num_topics=8, alpha=0.5, beta=0.01,
                      iterations=120, seed=11, vocab_size=len(corpus.vocabulary))
    queries = load_queries(paths["queries"], corpus.vocabulary)
    return corpus, table, model, queries, time.monotonic() - start


@pytest.fixture(scope="module")
def toy_setup():
    """<= 5 Q&A pairs and <= 3 queries for oracle equivalence."""
    corpus = build_corpus([
        ("p1", "install python linux", "use apt python setup", "u1", "expert"),
        ("p2", "python crash error", "check stack trace error", "u2", "mid"),
        ("p3", "cook rice fast", "use pressure cooker rice", "u3", "expert"),
        ("p4", "rice burn pan", "lower heat stir rice", "u4", "u5"),
        ("p5", "linux boot slow", "", "u1", "u2"),
    ], users={"expert": 400, "mid": 49})
    table = train_ibm1(make_parallel_pairs(corpus, "pooled_both"), iterations=10)
    docs = [p.question_tokens + p.answer_tokens for p in corpus.pairs]
    model = train_lda(docs, num_topics=2, alpha=0.5, beta=0.01,
                      iterations=150, seed=3, vocab_size=len(corpus.vocabulary))
    intern = corpus.vocabulary.intern_all
    queries = [
        tuple(intern("python error".split())),
        tuple(intern("cook rice".split())),
        tuple(intern("python unseenword linux".split())),
    ]
    corpus_tokens = []
    for p in corpus.pairs:
        corpus_tokens.extend(p.question_tokens)
        corpus_tokens.extend(p.answer_tokens)
    table_dict = {(t, w): p for t in table.sources()
                  for w, p in table.row(t).items()}
    return corpus, table, model, queries, corpus_tokens, table_dict


def test_criterion_1_normalization_suite(synth_500):
    start = time.monotonic()
    corpus, table, model, queries, build_seconds = synth_500

    tm_ok = all(abs(sum(table.row(t).values()) - 1.0) < 1e-9
                for t in table.sources())
    phi_ok = bool(np.all(np.abs(model.phi.sum(axis=1) - 1.0) < 1e-9))

    theta_ok = True
    weights_ok = True
    for query in queries[:25]:
        theta = infer_query_topics(model, query.tokens, burn_in=30,
                                   samples=10, seed=5)
        theta_ok &= abs(float(theta.theta.sum()) - 1.0) < 1e-9
        if len(set(query.tokens)) == len(query.tokens):
            weights = term_weights(model, theta, query.tokens)
            weights_ok &= abs(sum(weights.values()) - 1.0) < 1e-9

    elapsed = build_seconds + (time.monotonic() - start)
    check(1, "normalization suite on a 500-pair synthetic corpus",
          tm_ok and phi_ok and theta_ok and weights_ok and elapsed < 60.0,
          f"tm={tm_ok} phi={phi_ok} theta={theta_ok} weights={weights_ok} "
          f"elapsed={elapsed:.1f}s")


def test_criterion_2_em_monotonicity(tmp_path):
    ok = True
    worst = 0.0
    for seed in (101, 102, 103):
        paths = write_synth(SynthSpec(size=60, topics=3, seed=seed),
                            tmp_path / f"em{seed}")
        corpus = ingest_corpus(paths["qa"], paths["users"])
        pairs = make_parallel_pairs(corpus, "pooled_both")
        lls = [corpus_log_likelihood(train_ibm1(pairs, iterations=i), pairs)
               for i in range(1, 21)]
        for prev, cur in zip(lls, lls[1:]):
            worst = min(worst, cur - prev)
            ok &= cur >= prev - 1e-10
    check(2, "IBM Model 1 log-likelihood non-decreasing over 20 iterations "
             "on three seeded corpora", ok, f"worst step={worst:.2e}")


def test_criterion_3_reduction_identities(toy_setup):
    corpus, table, model, queries, _, _ = toy_setup
    mu_default = MixtureWeights(0.3, 0.3, 0.2, 0.2)
    mu_lm = MixtureWeights(1.0, 0.0, 0.0, 0.0)
    ident = identity_table(range(len(corpus.vocabulary)))
    ones = np.ones(model.num_topics)

    worst = 0.0
    for query in queries:
        unit_w = {w: 1.0 for w in query}
        for pair in corpus.pairs:
            plus = score_t2lm_plus(query, pair, mu_default, table, model,
                                   ones, unit_w, corpus.stats)
            base = score_t2lm(query, pair, mu_default, table, model, corpus.stats)
            worst = max(worst, abs(plus - base))

            t2lm_mu1 = score_t2lm(query, pair, mu_lm, table, model, corpus.stats)
            lm = score_lm(query, pair.question_tokens, corpus.stats)
            worst = max(worst, abs(t2lm_mu1 - lm))

            tlm_ident = score_tlm(query, pair.question_tokens, ident, corpus.stats)
            worst = max(worst, abs(tlm_ident - lm))
    check(3, "reduction identities hold in log domain at 1e-12",
          worst <= 1e-12, f"worst |diff|={worst:.2e}")


def test_criterion_4_oracle_equivalence(toy_setup):
    corpus, table, model, queries, corpus_tokens, table_dict = toy_setup
    mu = MixtureWeights(0.25, 0.25, 0.25, 0.25)
    index = build_index(corpus, "question_and_answer")
    docs = {p.id: list(p.question_tokens + p.answer_tokens)
            for p in corpus.pairs}
    ones = [1.0] * model.num_topics

    worst = 0.0
    for query in queries:
        theta = infer_query_topics(model, query, seed=7)
        weights = term_weights(model, theta, query)
        for pair in corpus.pairs:
            got = features_f1_f4(query, pair, table, model, theta, weights,
                                 corpus.stats)
            want = oracle.feature_products(
                list(query), list(pair.question_tokens),
                list(pair.answer_tokens), table_dict, model.phi,
                model.topic_totals, model.beta, model.vocab_size,
                list(theta.theta), weights, corpus_tokens)
            for got_v, want_p in zip(got.as_tuple(), want):
                worst = max(worst, abs(got_v - math.log(want_p)))

            got_t2lm = score_t2lm(query, pair, mu, table, model, corpus.stats)
            want_t2lm = math.log(oracle.mixed_product(
                list(query), list(pair.question_tokens),
                list(pair.answer_tokens), mu.as_tuple(), table_dict, model.phi,
                model.topic_totals, model.beta, model.vocab_size, ones,
                {w: 1.0 for w in query}, corpus_tokens))
            worst = max(worst, abs(got_t2lm - want_t2lm))

            got_plus = score_t2lm_plus(query, pair, mu, table, model, theta,
                                       weights, corpus.stats)
            want_plus = math.log(oracle.mixed_product(
                list(query), list(pair.question_tokens),
                list(pair.answer_tokens), mu.as_tuple(), table_dict, model.phi,
                model.topic_totals, model.beta, model.vocab_size,
                list(theta.theta), weights, corpus_tokens))
            worst = max(worst, abs(got_plus - want_plus))

            worst = max(worst, abs(bm25_score(query, pair.id, index)
                                   - oracle.bm25(list(query), docs, pair.id)))
            worst = max(worst, abs(vsm_score(query, pair.id, index)
                                   - oracle.vsm(list(query), docs, pair.id)))
    check(4, "F1-F4, mixed scorers, BM25, VSM match the brute-force oracle",
          worst <= 1e-9, f"worst |diff|={worst:.2e}")


def test_criterion_5_authority_exactness():
    values = [authority_score(a) for a in (0, 100, 400, 10000)]
    check(5, "authority score returns 0.0, 0.5, 1.0, 1.0 exactly",
          values == [0.0, 0.5, 1.0, 1.0], f"got {values}")


def test_criterion_6_lambdamart():
    start = time.monotonic()
    rng = random.Random(6)
    sums_ok = True
    for _ in range(30):
        n = rng.randint(2, 40)
        scores = [rng.uniform(-5, 5) for _ in range(n)]
        labels = [rng.choice([0, 1, 2]) for _ in range(n)]
        lam, _ = compute_lambdas(scores, labels, truncation=10)
        sums_ok &= abs(float(lam.sum())) < 1e-9

    dataset = []
    for q in range(20):
        for d in range(10):
            f1 = rng.random()
            dataset.append(RankingInstance(
                query_id=f"q{q}", doc_id=f"q{q}d{d}",
                features=(f1, rng.random(), rng.random()),
                label=int(f1 > 0.5)))
    config = TrainConfig(trees=50, leaves=4, learning_rate=0.2,
                         min_leaf_instances=30, ndcg_truncation=10)
    model = train(dataset, config, seed=0)
    reached = model.training_ndcg[-1]
    elapsed = time.monotonic() - start
    check(6, "per-query lambda sums are 0 and the separable dataset reaches "
             "training NDCG@10 = 1.0 under the 50/4/0.2/30 config",
          sums_ok and reached == pytest.approx(1.0) and elapsed < 10.0,
          f"sums_ok={sums_ok} ndcg={reached:.4f} elapsed={elapsed:.1f}s")


def test_criterion_7_metric_oracles():
    ap = average_precision_at_k(["d1", "d2", "d3", "d4"],
                                {"d1": 1, "d2": 0, "d3": 2, "d4": 0}, k=10)
    ndcg = ndcg_at_k(["bad", "good"], {"good": 2, "bad": 0}, k=2)
    perfect_ap = average_precision_at_k(["a", "b"], {"a": 2, "b": 1}, k=10)
    perfect_ndcg = ndcg_at_k(["a", "b"], {"a": 2, "b": 1}, k=10)
    ok = (abs(ap - 0.8333) < 1e-4 and abs(ndcg - 0.6309) < 1e-4
          and perfect_ap == 1.0 and perfect_ndcg == pytest.approx(1.0))
    check(7, "AP@10 = 0.8333, NDCG@2 = 0.6309, perfect ranking scores 1.0",
          ok, f"ap={ap:.4f} ndcg={ndcg:.4f}")


def _direction_cfg(paths, outdir) -> PipelineConfig:
    return PipelineConfig(
        qa_path=str(paths["qa"]), users_path=str(paths["users"]),
        queries_path=str(paths["queries"]), qrels_path=str(paths["qrels"]),
        outdir=str(outdir),
        topics=6, gibbs_iters=150, em_iters=10, top_k=100,
        burn_in=30, samples=10,
        trees=50, leaves=4, learning_rate=0.2, min_leaf=30, ndcg_cutoff=10,
        depth=10, seed=7, split_seed=13,
    )


def test_criterion_8_planted_direction(tmp_path):
    start = time.monotonic()
    paths = write_synth(SynthSpec(size=240, topics=6, seed=20260810, queries=48),
                        tmp_path / "data")
    run_pipeline(_direction_cfg(paths, tmp_path / "out"))
    records = [json.loads(line)
               for line in (tmp_path / "out" / "report.jsonl").read_text().splitlines()]
    maps = {r["system"]: r["map"] for r in records if r["type"] == "system"}
    elapsed = time.monotonic() - start
    check(8, "fused ranker and term-weighted scorer beat the LM baseline "
             "on test MAP@10",
          maps["t2lm+5"] >= maps["lm"] and maps["t2lm+"] >= maps["lm"]
          and elapsed < 300.0,
          f"lm={maps['lm']:.4f} t2lm+={maps['t2lm+']:.4f} "
          f"fused={maps['t2lm+5']:.4f} elapsed={elapsed:.1f}s")


def test_criterion_9_determinism(tmp_path):
    paths = write_synth(SynthSpec(size=60, topics=3, seed=99, queries=12),
                        tmp_path / "data")

    def cfg(outdir):
        return PipelineConfig(
            qa_path=str(paths["qa"]), users_path=str(paths["users"]),
            queries_path=str(paths["queries"]), qrels_path=str(paths["qrels"]),
            outdir=str(outdir),
            topics=3, gibbs_iters=60, em_iters=8, top_k=60,
            burn_in=15, samples=8, trees=20, min_leaf=10,
            seed=21, split_seed=22,
        )

    run_pipeline(cfg(tmp_path / "a"))
    run_pipeline(cfg(tmp_path / "b"))
    model_files = ["translation.tsv", "translation.tsv.npy", "topics.txt",
                   "topics.txt.npy", "ranker.txt"]
    run_files = sorted(p.name for p in (tmp_path / "a").glob("run_*.txt"))
    identical = True
    for name in model_files + run_files:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        identical &= a == b
    check(9, "identical config and seed give bit-identical run and model files",
          identical and len(run_files) == 7,
          f"{len(model_files) + len(run_files)} files compared")
