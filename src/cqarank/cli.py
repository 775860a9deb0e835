"""Command-line front end: one subcommand per pipeline stage plus the
one-shot `pipeline` and `synth` commands.

Every pipeline option is a PipelineConfig field, and its flag is made from
the field: `--` + the field name without a `_path` suffix and with `-` for
`_` (qa_path -> --qa, top_k -> --top-k), converted to the field's type. A
command's config is, lowest precedence first: the field defaults,
CQARANK_OUTDIR for outdir, the --config file of the `pipeline` command, and
the flags given. The config file has key=value lines whose keys are flag
names without the dashes; each value is converted as its flag's would be.
"""

import argparse
import dataclasses
import os
import sys
import typing

from .corpus import load_corpus, load_queries, save_corpus, text_lines
from .evaluation import (comparison_table, read_qrels, read_run, write_report,
                         write_run)
from .index import build_index
from .ltr import LambdaMARTModel, read_letor
from .pipeline import (ALL_SYSTEMS, STAGES, SYSTEMS, PipelineConfig,
                       PipelineError, ScoringAssets, evaluate_runs, ingest,
                       prepare_query, rank_queries, run_pipeline, train_ranker,
                       train_topics, train_translation, write_features)
from .synth import SynthSpec, write_synth
from .topics import TopicModel
from .translation import TranslationTable

FIELDS = {f.name: f for f in dataclasses.fields(PipelineConfig)}
# qa_path and queries_path have no default; a command without them leaves None
DEFAULTS = {name: None if f.default is dataclasses.MISSING else f.default
            for name, f in FIELDS.items()}

CHOICES = {
    "mode": ("whitespace", "pretokenized"),
    "field": ("question", "question_and_answer"),
    "direction": ("q_to_a", "a_to_q", "pooled_both"),
}
HELP = {
    "qrels_path": "graded judgments, 'query 0 doc grade' lines (features "
                  "without them label every row 0)",
    "ranker_path": "LambdaMART model to apply (pipeline: instead of training one)",
    "stopwords_path": "file with one stopword per line (off by default)",
    "systems": "comma-separated systems to rank and evaluate",
}


def flag_name(name: str) -> str:
    return "--" + name.removesuffix("_path").replace("_", "-")


def _parse_bool(raw: str) -> bool:
    word = raw.lower()
    if word in ("true", "yes", "on"):
        return True
    if word in ("false", "no", "off"):
        return False
    raise ValueError(f"expected true or false, got {raw!r}")


def _parse_list(raw: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in raw.split(",") if s.strip())


def _converter(name: str):
    """str -> the field's type (the non-None member of an optional one)."""
    kind = FIELDS[name].type
    if typing.get_origin(kind) is tuple:
        return _parse_list
    kind = next(t for t in typing.get_args(kind) or (kind,) if t is not type(None))
    return _parse_bool if kind is bool else kind


def _add_field_flags(p: argparse.ArgumentParser, names, required=()) -> None:
    """One flag per field. A flag not given leaves nothing in the parsed
    namespace, so config_from_args can tell given flags from defaults."""
    for name in names:
        flag = flag_name(name)
        if FIELDS[name].type is bool:
            kind = {"action": "store_true"}
        elif name in CHOICES:
            kind = {"type": _converter(name), "choices": CHOICES[name]}
        else:
            kind = {"type": _converter(name),
                    "metavar": flag[2:].upper().replace("-", "_")}
        p.add_argument(flag, dest=name, default=argparse.SUPPRESS,
                       required=name in required, help=HELP.get(name), **kind)


def _default_outdir() -> str:
    return os.environ.get("CQARANK_OUTDIR", DEFAULTS["outdir"])


def _read_config_file(path: str) -> dict:
    """key=value lines; '#' starts a comment. Returns converted values by
    field name; a bad line or a key given twice, under either spelling,
    raises ValueError naming the path and line."""
    by_key = {flag_name(name)[2:]: name for name in FIELDS}
    values = {}
    with text_lines(path) as lines:
        for line in lines:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, raw = (part.strip() for part in line.partition("="))
            name = by_key.get(key.replace("_", "-"))
            if not sep:
                raise ValueError("expected key=value")
            if name is None:
                raise ValueError(f"unknown key {key!r}")
            if name in values:
                raise ValueError(f"repeated key {key!r}")
            value = _converter(name)(raw)
            if name in CHOICES and value not in CHOICES[name]:
                raise ValueError(f"{key} must be one of {', '.join(CHOICES[name])}")
            values[name] = value
    return values


def config_from_args(args: argparse.Namespace) -> PipelineConfig:
    """The command's config: field defaults, CQARANK_OUTDIR, the --config
    file, then the flags given, each overriding the ones before."""
    values = {**DEFAULTS, "outdir": _default_outdir()}
    if getattr(args, "config", None) is not None:
        values.update(_read_config_file(args.config))
    values.update((k, v) for k, v in vars(args).items() if k in FIELDS)
    return PipelineConfig(**values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cqarank",
                                     description="community question retrieval toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="read Q&A + users JSONL into a corpus artifact")
    p.add_argument("--out", required=True)
    _add_field_flags(p, STAGES["ingest"], required={"qa_path"})

    p = sub.add_parser("train-tm", help="train IBM Model 1 translation table")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    _add_field_flags(p, STAGES["train-tm"])

    p = sub.add_parser("train-lda", help="train the LDA topic model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    _add_field_flags(p, STAGES["train-lda"])

    p = sub.add_parser("features", help="compute LETOR feature rows for queries")
    p.add_argument("--corpus", required=True)
    p.add_argument("--translation", required=True)
    p.add_argument("--topics-model", required=True)
    p.add_argument("--out", required=True)
    _add_field_flags(p, STAGES["features"], required={"queries_path"})

    p = sub.add_parser("train-ranker", help="train LambdaMART from a LETOR file")
    p.add_argument("--letor", required=True)
    p.add_argument("--out", required=True)
    _add_field_flags(p, STAGES["train-ranker"])

    p = sub.add_parser("rank", help="rank candidates for queries with one method")
    p.add_argument("--corpus", required=True)
    p.add_argument("--method", required=True, choices=ALL_SYSTEMS)
    p.add_argument("--out", required=True)
    p.add_argument("--translation", default=None)
    p.add_argument("--topics-model", default=None)
    _add_field_flags(p, STAGES["rank"], required={"queries_path"})

    p = sub.add_parser("evaluate", help="score a run file against qrels")
    p.add_argument("--run", action="append", required=True,
                   help="run file; repeat for a multi-system comparison")
    p.add_argument("--report", default=None)
    p.add_argument("--report-jsonl", default=None)
    _add_field_flags(p, STAGES["evaluate"], required={"qrels_path"})

    p = sub.add_parser("pipeline", help="run every stage end to end")
    p.add_argument("--config", default=None, help="key=value config file")
    _add_field_flags(p, FIELDS)

    p = sub.add_parser("synth", help="generate a planted synthetic corpus")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--topics", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--queries", type=int, default=None)
    p.add_argument("--outdir", default=_default_outdir())

    return parser


def _cmd_ingest(args) -> int:
    corpus = ingest(config_from_args(args))
    save_corpus(corpus, args.out)
    print(f"ingested {len(corpus.pairs)} pairs, vocabulary {len(corpus.vocabulary)}, "
          f"{corpus.stats.total_tokens} tokens -> {args.out}")
    return 0


def _cmd_train_tm(args) -> int:
    cfg = config_from_args(args)
    table = train_translation(cfg, load_corpus(args.corpus))
    table.save(args.out)
    print(f"trained translation table over {len(table)} source terms "
          f"({cfg.em_iters} EM iterations) -> {args.out}")
    return 0


def _cmd_train_lda(args) -> int:
    cfg = config_from_args(args)
    train_topics(cfg, load_corpus(args.corpus)).save(args.out)
    print(f"trained {cfg.topics}-topic model ({cfg.gibbs_iters} sweeps) -> {args.out}")
    return 0


def _scoring_assets(args, cfg: PipelineConfig, needs) -> ScoringAssets:
    """The corpus and index, and only the models in `needs`."""
    corpus = load_corpus(args.corpus)
    table = TranslationTable.load(args.translation) if "translation" in needs else None
    model = TopicModel.load(args.topics_model) if "topics" in needs else None
    ranker = LambdaMARTModel.load(cfg.ranker_path) if "ranker" in needs else None
    return ScoringAssets(corpus=corpus, index=build_index(corpus, cfg.field),
                         table=table, model=model, cfg=cfg, ranker=ranker)


def _cmd_features(args) -> int:
    cfg = config_from_args(args)
    assets = _scoring_assets(args, cfg, ("translation", "topics"))
    queries = load_queries(cfg.queries_path, assets.corpus.vocabulary, cfg.mode)
    qrels = read_qrels(cfg.qrels_path) if cfg.qrels_path else None
    rows = write_features(assets, (prepare_query(assets, query) for query in queries),
                          qrels, args.out)
    print(f"wrote {len(rows)} feature rows for {len(queries)} queries -> {args.out}")
    return 0


def _cmd_train_ranker(args) -> int:
    cfg = config_from_args(args)
    model = train_ranker(cfg, read_letor(args.letor))
    model.save(args.out)
    print(f"trained {len(model.trees)} trees; final training NDCG@"
          f"{cfg.ndcg_cutoff} = {model.training_ndcg[-1]:.4f} -> {args.out}")
    return 0


def _cmd_rank(args) -> int:
    cfg = config_from_args(args)
    method = args.method
    given = {"translation": ("--translation", args.translation),
             "topics": ("--topics-model", args.topics_model),
             "ranker": ("--ranker", cfg.ranker_path)}
    for model in SYSTEMS[method].needs:
        flag, path = given[model]
        if path is None:
            raise ValueError(f"method {method} needs {flag}")
    assets = _scoring_assets(args, cfg, SYSTEMS[method].needs)
    queries = load_queries(cfg.queries_path, assets.corpus.vocabulary, cfg.mode)
    prepared = (prepare_query(assets, query) for query in queries)
    run = rank_queries(assets, prepared, (method,))[method]
    write_run(run, args.out)
    print(f"ranked {len(run.queries())} queries with {method} -> {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    cfg = config_from_args(args)
    qrels = read_qrels(cfg.qrels_path)
    runs = [read_run(run_path) for run_path in args.run]
    report = evaluate_runs([(run.tag, run) for run in runs], qrels, cfg.depth,
                           cfg.rel_threshold)
    lacking = []
    for run in runs:
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
    report_path = run_pipeline(config_from_args(args))
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
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (PipelineError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
