"""Command-line front end: one subcommand per pipeline stage plus the
one-shot `pipeline` and `synth` commands.

A plain-text key=value config file (--config) supplies defaults for the
pipeline subcommand; explicit flags override it. CQARANK_OUTDIR sets the
default output directory.
"""

import argparse
import os
import sys

from .corpus import ingest_corpus, load_corpus, load_queries, save_corpus
from .evaluation import (MetricReport, RankedRun, comparison_table,
                         evaluate_run, read_qrels, read_run, write_report,
                         write_run)
from .index import build_index, retrieve_candidates, save_index
from .ltr import LambdaMARTModel, TrainConfig, read_letor, train, write_letor
from .pipeline import (PipelineConfig, PipelineError, PreparedQuery,
                       ScoringAssets, feature_rows, prepare_query,
                       run_pipeline, system_ranking)
from .synth import SynthSpec, write_synth
from .topics import TopicModel, train_lda
from .translation import TranslationTable, make_parallel_pairs, train_ibm1


def _default_outdir() -> str:
    return os.environ.get("CQARANK_OUTDIR", "out")


def _read_config_file(path: str) -> dict:
    """key=value lines; '#' starts a comment; values are coerced to
    bool/int/float when they look like one."""
    values = {}
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value")
            key, raw = line.split("=", 1)
            key = key.strip().replace("-", "_")
            raw = raw.strip()
            if raw.lower() in ("true", "yes", "on"):
                value = True
            elif raw.lower() in ("false", "no", "off"):
                value = False
            else:
                try:
                    value = int(raw)
                except ValueError:
                    try:
                        value = float(raw)
                    except ValueError:
                        value = raw
            values[key] = value
    return values


def _add_corpus_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=["whitespace", "pretokenized"],
                   default="whitespace")
    p.add_argument("--stopwords", default=None,
                   help="file with one stopword per line (off by default)")


def _add_retrieval_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k1", type=float, default=1.2)
    p.add_argument("--b", type=float, default=0.75)
    p.add_argument("--top-k", type=int, default=500)
    p.add_argument("--field", choices=["question", "question_and_answer"],
                   default="question_and_answer")


def _add_scoring_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mu1", type=float, default=0.3)
    p.add_argument("--mu2", type=float, default=0.3)
    p.add_argument("--mu3", type=float, default=0.2)
    p.add_argument("--mu4", type=float, default=0.2)
    p.add_argument("--rescale-weights", action="store_true")
    p.add_argument("--combine-quality", action="store_true")
    p.add_argument("--burn-in", type=int, default=50)
    p.add_argument("--samples", type=int, default=20)


def _add_ltr_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trees", type=int, default=50)
    p.add_argument("--leaves", type=int, default=4)
    p.add_argument("--learning-rate", type=float, default=0.2)
    p.add_argument("--min-leaf", type=int, default=30)
    p.add_argument("--ndcg-cutoff", type=int, default=10)


def _stopword_set(path):
    if path is None:
        return None
    with open(path, encoding="utf-8") as f:
        return frozenset(line.strip() for line in f if line.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cqarank",
                                     description="community question retrieval toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="read Q&A + users JSONL into a corpus artifact")
    p.add_argument("--qa", required=True)
    p.add_argument("--users", default=None)
    p.add_argument("--out", required=True)
    _add_corpus_flags(p)

    p = sub.add_parser("build-index", help="build and save an inverted index")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    _add_retrieval_flags(p)

    p = sub.add_parser("train-tm", help="train IBM Model 1 translation table")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--em-iters", type=int, default=10)
    p.add_argument("--direction", choices=["q_to_a", "a_to_q", "pooled_both"],
                   default="pooled_both")
    p.add_argument("--prune", type=float, default=0.0)

    p = sub.add_parser("train-lda", help="train the LDA topic model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--topics", type=int, default=50)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=0.01)
    p.add_argument("--gibbs-iters", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("features", help="compute LETOR feature rows for queries")
    p.add_argument("--corpus", required=True)
    p.add_argument("--translation", required=True)
    p.add_argument("--topics-model", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--qrels", default=None, help="labels; omitted means all 0")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pad-candidates", action="store_true")
    _add_corpus_flags(p)
    _add_retrieval_flags(p)
    _add_scoring_flags(p)

    p = sub.add_parser("train-ranker", help="train LambdaMART from a LETOR file")
    p.add_argument("--letor", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_ltr_flags(p)

    p = sub.add_parser("rank", help="rank candidates for queries with one method")
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--method", required=True,
                   choices=["vsm", "bm25", "lm", "tlm", "t2lm", "t2lm+", "t2lm+5"])
    p.add_argument("--out", required=True)
    p.add_argument("--translation", default=None)
    p.add_argument("--topics-model", default=None)
    p.add_argument("--ranker", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pad-candidates", action="store_true")
    _add_corpus_flags(p)
    _add_retrieval_flags(p)
    _add_scoring_flags(p)

    p = sub.add_parser("evaluate", help="score a run file against qrels")
    p.add_argument("--run", action="append", required=True,
                   help="run file; repeat for a multi-system comparison")
    p.add_argument("--qrels", required=True)
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--rel-threshold", type=int, default=1)
    p.add_argument("--report", default=None)
    p.add_argument("--report-jsonl", default=None)

    p = sub.add_parser("pipeline", help="run every stage end to end")
    p.add_argument("--config", default=None, help="key=value defaults file")
    p.add_argument("--qa")
    p.add_argument("--users", default=None)
    p.add_argument("--queries")
    p.add_argument("--qrels", default=None)
    p.add_argument("--outdir", default=_default_outdir())
    p.add_argument("--ranker", default=None,
                   help="apply this model instead of training one")
    p.add_argument("--em-iters", type=int, default=10)
    p.add_argument("--direction", choices=["q_to_a", "a_to_q", "pooled_both"],
                   default="pooled_both")
    p.add_argument("--prune", type=float, default=0.0)
    p.add_argument("--topics", type=int, default=50)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=0.01)
    p.add_argument("--gibbs-iters", type=int, default=500)
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--rel-threshold", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--pad-candidates", action="store_true")
    p.add_argument("--systems", default=",".join(
        ("vsm", "bm25", "lm", "tlm", "t2lm", "t2lm+", "t2lm+5")))
    _add_corpus_flags(p)
    _add_retrieval_flags(p)
    _add_scoring_flags(p)
    _add_ltr_flags(p)

    p = sub.add_parser("synth", help="generate a planted synthetic corpus")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--topics", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--queries", type=int, default=None)
    p.add_argument("--outdir", default=_default_outdir())

    return parser


def _cmd_ingest(args) -> int:
    corpus = ingest_corpus(args.qa, args.users, args.mode,
                           _stopword_set(args.stopwords))
    save_corpus(corpus, args.out)
    print(f"ingested {len(corpus.pairs)} pairs, vocabulary {len(corpus.vocabulary)}, "
          f"{corpus.stats.total_tokens} tokens -> {args.out}")
    return 0


def _cmd_build_index(args) -> int:
    corpus = load_corpus(args.corpus)
    index = build_index(corpus, args.field)
    save_index(index, args.out)
    print(f"indexed {index.doc_count} docs (field={args.field}, "
          f"avgdl={index.avgdl:.2f}) -> {args.out}")
    return 0


def _cmd_train_tm(args) -> int:
    corpus = load_corpus(args.corpus)
    pairs = make_parallel_pairs(corpus, args.direction)
    table = train_ibm1(pairs, args.em_iters, prune=args.prune)
    table.save(args.out)
    print(f"trained translation table over {len(pairs)} pairs "
          f"({args.em_iters} EM iterations) -> {args.out}")
    return 0


def _cmd_train_lda(args) -> int:
    corpus = load_corpus(args.corpus)
    docs = [p.question_tokens + p.answer_tokens for p in corpus.pairs]
    model = train_lda(docs, args.topics, args.alpha, args.beta,
                      args.gibbs_iters, args.seed,
                      vocab_size=len(corpus.vocabulary))
    model.save(args.out)
    print(f"trained {args.topics}-topic model ({args.gibbs_iters} sweeps) -> {args.out}")
    return 0


def _assets_from_args(args, need_ranker: bool = False) -> ScoringAssets:
    corpus = load_corpus(args.corpus)
    cfg = PipelineConfig(
        qa_path="", queries_path="",
        mode=args.mode, field=args.field, k1=args.k1, b=args.b,
        top_k=args.top_k, burn_in=args.burn_in, samples=args.samples,
        mu1=args.mu1, mu2=args.mu2, mu3=args.mu3, mu4=args.mu4,
        rescale_weights=args.rescale_weights,
        combine_quality=args.combine_quality,
        seed=args.seed, pad_candidates=args.pad_candidates,
    )
    table = TranslationTable.load(args.translation) if args.translation else None
    model = TopicModel.load(args.topics_model) if args.topics_model else None
    ranker = None
    if need_ranker:
        if args.ranker is None:
            raise ValueError("this method needs --ranker")
        ranker = LambdaMARTModel.load(args.ranker)
    return ScoringAssets(corpus=corpus, index=build_index(corpus, args.field),
                         table=table, model=model, cfg=cfg, ranker=ranker)


def _cmd_features(args) -> int:
    assets = _assets_from_args(args)
    queries = load_queries(args.queries, assets.corpus.vocabulary, args.mode)
    qrels = read_qrels(args.qrels) if args.qrels else None
    rows = []
    for query in queries:
        rows.extend(feature_rows(assets, prepare_query(assets, query), qrels))
    write_letor(rows, args.out)
    print(f"wrote {len(rows)} feature rows for {len(queries)} queries -> {args.out}")
    return 0


def _cmd_train_ranker(args) -> int:
    dataset = read_letor(args.letor)
    config = TrainConfig(trees=args.trees, leaves=args.leaves,
                         learning_rate=args.learning_rate,
                         min_leaf_instances=args.min_leaf,
                         ndcg_truncation=args.ndcg_cutoff)
    model = train(dataset, config, seed=args.seed)
    model.save(args.out)
    print(f"trained {len(model.trees)} trees; final training NDCG@"
          f"{config.ndcg_truncation} = {model.training_ndcg[-1]:.4f} -> {args.out}")
    return 0


def _cmd_rank(args) -> int:
    method = args.method
    needs_tm = method in ("tlm", "t2lm", "t2lm+", "t2lm+5")
    needs_lda = method in ("t2lm", "t2lm+", "t2lm+5")
    if needs_tm and args.translation is None:
        raise ValueError(f"method {method} needs --translation")
    if needs_lda and args.topics_model is None:
        raise ValueError(f"method {method} needs --topics-model")
    assets = _assets_from_args(args, need_ranker=(method == "t2lm+5"))
    queries = load_queries(args.queries, assets.corpus.vocabulary, args.mode)
    run = RankedRun(tag=method)
    for query in queries:
        if needs_lda:
            prepared = prepare_query(assets, query)
        else:
            candidates = retrieve_candidates(query.tokens, assets.index,
                                             args.top_k, args.k1, args.b)
            prepared = PreparedQuery(record=query, candidates=candidates,
                                     theta=None, weights={})
        if not prepared.candidates:
            continue
        run.add_query(query.id, system_ranking(method, assets, prepared))
    write_run(run, args.out)
    print(f"ranked {len(run.queries())} queries with {method} -> {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    qrels = read_qrels(args.qrels)
    report = MetricReport(k=args.depth)
    lacking = []
    for run_path in args.run:
        run = read_run(run_path)
        report = report.merge(evaluate_run(run, qrels, args.depth,
                                           args.rel_threshold))
        absent = set(qrels.queries()).difference(run.queries())
        lacking.append(f"{run.tag} lacks {len(absent)} of {len(qrels.queries())} "
                       f"qrels queries (not averaged)")
    sys.stdout.write(comparison_table(report, lacking))
    if args.report or args.report_jsonl:
        report_txt = args.report or (str(args.run[0]) + ".report.txt")
        report_jsonl = args.report_jsonl or (str(args.run[0]) + ".report.jsonl")
        write_report(report, report_txt, report_jsonl, lacking)
    return 0


def _cmd_pipeline(args) -> int:
    cfg = PipelineConfig(
        qa_path=args.qa, users_path=args.users, queries_path=args.queries,
        qrels_path=args.qrels, outdir=args.outdir, ranker_path=args.ranker,
        mode=args.mode, stopwords_path=args.stopwords,
        field=args.field, k1=args.k1, b=args.b,
        top_k=args.top_k,
        em_iters=args.em_iters, direction=args.direction, prune=args.prune,
        topics=args.topics, alpha=args.alpha, beta=args.beta,
        gibbs_iters=args.gibbs_iters, burn_in=args.burn_in,
        samples=args.samples,
        mu1=args.mu1, mu2=args.mu2, mu3=args.mu3, mu4=args.mu4,
        rescale_weights=args.rescale_weights,
        combine_quality=args.combine_quality,
        trees=args.trees, leaves=args.leaves, learning_rate=args.learning_rate,
        min_leaf=args.min_leaf, ndcg_cutoff=args.ndcg_cutoff,
        depth=args.depth, rel_threshold=args.rel_threshold,
        seed=args.seed, split_seed=args.split_seed,
        pad_candidates=args.pad_candidates,
        systems=tuple(s.strip() for s in args.systems.split(",") if s.strip()),
    )
    report_path = run_pipeline(cfg)
    with open(report_path, encoding="utf-8") as f:
        sys.stdout.write(f.read())
    print(f"report: {report_path}")
    return 0


def _cmd_synth(args) -> int:
    spec = SynthSpec(size=args.size, topics=args.topics, seed=args.seed,
                     queries=args.queries)
    paths = write_synth(spec, args.outdir)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "build-index": _cmd_build_index,
    "train-tm": _cmd_train_tm,
    "train-lda": _cmd_train_lda,
    "features": _cmd_features,
    "train-ranker": _cmd_train_ranker,
    "rank": _cmd_rank,
    "evaluate": _cmd_evaluate,
    "pipeline": _cmd_pipeline,
    "synth": _cmd_synth,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()

    # config file supplies defaults for the pipeline subcommand
    if argv and argv[0] == "pipeline" and ("--config" in argv):
        pre, _ = parser.parse_known_args(argv)
        if pre.config:
            config_values = _read_config_file(pre.config)
            sub_actions = [a for a in parser._subparsers._group_actions][0]
            pipeline_parser = sub_actions.choices["pipeline"]
            known = {a.dest for a in pipeline_parser._actions}
            unknown = set(config_values) - known
            if unknown:
                raise SystemExit(f"config file has unknown keys: {sorted(unknown)}")
            pipeline_parser.set_defaults(**config_values)

    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (PipelineError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
