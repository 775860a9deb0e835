"""End-to-end experiment pipeline: ingest -> translation/topic models ->
split -> features -> ranker -> runs -> report.

Every artifact gets a sidecar manifest (input hashes, parameters, output
hash); re-running a stage whose manifest still matches is a no-op, and a
failing stage removes its partial outputs. Each stage hands its result to
the stages after it in memory; an artifact is read back only when the stage
that wrote it was up to date and skipped.
"""

import json
import os
import random
import zlib
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .corpus import (Corpus, QueryRecord, file_sha256, image_path, ingest_corpus,
                     load_corpus, load_queries, save_corpus, text_lines)
from .evaluation import (MetricReport, Qrels, RankedRun, _check_cutoff, evaluate_run,
                         read_qrels, read_run, write_report, write_run)
from .index import (DEFAULT_B, DEFAULT_K1, InvertedIndex, ScoredCandidate,
                    _check_bm25_params, build_index, retrieve_candidates, vsm_scores)
from .ltr import LambdaMARTModel, RankingInstance, TrainConfig, read_letor, train, write_letor
from .quality import quality_feature
# vsm_score, features_f1_f4 and score_* stay imported: per-layer tracing
# looks them up here
from .index import vsm_score
from .relevance import (ComponentTable, MixtureWeights, PairTerms, features_f1_f4,
                        score_lm, score_t2lm, score_t2lm_plus, score_tlm,
                        term_weights)
from .topics import TopicModel, _check_fold_in, infer_query_topics, train_lda
from .translation import TranslationTable, make_parallel_pairs, train_ibm1

PAD_TO = 20  # --pad-candidates fills shorter candidate lists to this length


class PipelineError(RuntimeError):
    pass


def _manifest_path(artifact: Path) -> Path:
    return artifact.with_name(artifact.name + ".manifest.json")


def _manifest_key(path: Path, base: Path) -> str:
    """`path` relative to `base` when it lies inside it, else as given, so a
    copied or moved output directory keeps its manifests valid."""
    try:
        return path.resolve().relative_to(base.resolve()).as_posix()
    except ValueError:
        return str(path)


class StageRunner:
    """Runs pipeline stages with manifest-based idempotence.

    Manifests key each output, and each input inside the outputs'
    directory, by its path relative to that directory.
    """

    def __init__(self) -> None:
        self.executed: list[str] = []
        self.skipped: list[str] = []

    def run(self, name: str, inputs: list[Path], outputs: list[Path],
            params: dict, fn, load=None):
        """Run the stage unless its outputs are up to date, and return its
        value: what `fn` returned when the stage executes; when it is
        skipped, what `load` reads back from its outputs, or None without a
        `load`. Every float in an artifact is written by repr, so the value
        a stage hands on equals the one its files would load as."""
        inputs = [Path(p) for p in inputs]
        outputs = [Path(p) for p in outputs]
        for path in inputs:
            if not path.exists():
                raise PipelineError(f"stage {name} failed: missing input {path}")
        base = Path(os.path.commonpath([str(out.resolve().parent)
                                        for out in outputs]))
        body = {
            "stage": name,
            "inputs": {_manifest_key(p, base): file_sha256(p).hex() for p in inputs},
            "params": params,
        }
        if self._up_to_date(outputs, body, base):
            self.skipped.append(name)
            return None if load is None else load()
        try:
            value = fn()
            for out in outputs:
                if not out.exists():
                    raise RuntimeError(f"stage did not produce {out}")
        except Exception as exc:
            for out in outputs:
                out.unlink(missing_ok=True)
                _manifest_path(out).unlink(missing_ok=True)
            raise PipelineError(f"stage {name} failed: {exc}") from exc
        for out in outputs:
            manifest = dict(body)
            manifest["output"] = {_manifest_key(out, base): file_sha256(out).hex()}
            with open(_manifest_path(out), "w", encoding="utf-8") as f:
                json.dump(manifest, f, sort_keys=True, indent=1)
                f.write("\n")
        self.executed.append(name)
        return value

    @staticmethod
    def _up_to_date(outputs: list[Path], body: dict, base: Path) -> bool:
        for out in outputs:
            mpath = _manifest_path(out)
            if not out.exists() or not mpath.exists():
                return False
            try:
                with open(mpath, encoding="utf-8") as f:
                    manifest = json.load(f)
            except (OSError, ValueError):  # JSON and UTF-8 decode errors are ValueErrors
                return False
            if not isinstance(manifest, dict):
                return False
            recorded_output = manifest.pop("output", None)
            if manifest != body:
                return False
            if recorded_output != {_manifest_key(out, base): file_sha256(out).hex()}:
                return False
        return True


def query_scoring_seed(base_seed: int, query_id: str) -> int:
    """Stable per-query seed for fold-in inference, independent of process
    hash randomization."""
    return (base_seed * 1000003 + zlib.crc32(query_id.encode("utf-8"))) % (2 ** 31)


@dataclass
class ScoringAssets:
    """Everything needed to score queries against the archive."""

    corpus: Corpus
    index: InvertedIndex
    table: TranslationTable | None
    model: TopicModel | None
    cfg: "PipelineConfig"
    ranker: LambdaMARTModel | None = None
    # the fold-in generator, reseeded for every query. Quoted and built by
    # a lambda: numpy loads numpy.random on first access, and an import of
    # this module should not load it
    rng: "np.random.RandomState" = field(
        default_factory=lambda: np.random.RandomState(), repr=False, compare=False)
    # the last prepared query scored and its component table, which every
    # system ranking that query shares; one table is kept, however many
    # prepared queries a caller holds. Like the pair arrays and `rng`, it
    # belongs to one thread.
    last_table: "tuple[PreparedQuery, ComponentTable] | None" = field(
        default=None, repr=False, compare=False)

    @cached_property
    def term_store(self) -> PairTerms:
        """Every pair's scoring inputs, in index order; built by the first
        component table, so loading and the systems that read no table
        never build it."""
        pairs = [self.corpus.pair(qa_id) for qa_id in self.index.doc_ids]
        return PairTerms.build([p.question_tokens for p in pairs],
                               [p.answer_tokens for p in pairs], self.model)

    @cached_property
    def quality_columns(self) -> np.ndarray:
        """Every pair's quality columns, one row each in index order; built
        by the first feature row, since only the ranker reads them."""
        return np.array([quality_feature(self.corpus.pair(qa_id), self.corpus)
                         .as_columns(self.cfg.combine_quality)
                         for qa_id in self.index.doc_ids], dtype=np.float64)


@dataclass
class PreparedQuery:
    record: QueryRecord
    candidates: list
    theta: object
    weights: dict[int, float]


def _rows(assets: ScoringAssets, prepared: PreparedQuery) -> np.ndarray:
    """The pair numbers of the prepared query's candidates, in candidate
    order."""
    return np.array([assets.index.pair_of[c.qa_id] for c in prepared.candidates],
                    dtype=np.int64)


def _component_table(assets: ScoringAssets,
                     prepared: PreparedQuery) -> ComponentTable:
    """The prepared query's component table over its candidates, built once
    for all the systems that rank it in a row."""
    if assets.last_table is None or assets.last_table[0] is not prepared:
        assets.last_table = (prepared, ComponentTable(
            prepared.record.tokens, assets.term_store,
            _rows(assets, prepared), assets.corpus.stats, assets.table,
            assets.model, prepared.theta, prepared.weights))
    return assets.last_table[1]


def prepare_query(assets: ScoringAssets, query: QueryRecord) -> PreparedQuery:
    """The query's candidates and, when a topic model is loaded, its topic
    posterior and term weights (otherwise None and {})."""
    cfg = assets.cfg
    candidates = retrieve_candidates(query.tokens, assets.index, cfg.top_k,
                                     cfg.k1, cfg.b)
    if cfg.pad_candidates and len(candidates) < PAD_TO:
        candidates = _pad(candidates, assets.corpus, cfg, query.id)
    theta, weights = None, {}
    if assets.model is not None:
        theta = infer_query_topics(assets.model, query.tokens, cfg.burn_in,
                                   cfg.samples,
                                   seed=query_scoring_seed(cfg.seed, query.id),
                                   rng=assets.rng)
        weights = term_weights(assets.model, theta, query.tokens,
                               cfg.rescale_weights)
    return PreparedQuery(record=query, candidates=candidates, theta=theta,
                         weights=weights)


def _pad(candidates, corpus: Corpus, cfg: "PipelineConfig", query_id: str):
    """Top candidate lists shorter than PAD_TO get random extra pairs, the
    protocol's labeling-workload padding."""
    have = {c.qa_id for c in candidates}
    pool = sorted(p.id for p in corpus.pairs if p.id not in have)
    need = min(PAD_TO - len(candidates), len(pool))
    if need <= 0:
        return candidates
    rng = random.Random(query_scoring_seed(cfg.seed + 1, query_id))
    extras = rng.sample(pool, need)
    return candidates + [ScoredCandidate(qa_id=qa_id, score=0.0) for qa_id in extras]


def _feature_matrix(assets: ScoringAssets, prepared: PreparedQuery) -> np.ndarray:
    """F1..F4 plus the quality columns, one row per candidate."""
    table = _component_table(assets, prepared)
    return np.column_stack([table.features(), assets.quality_columns[table.rows]])


def feature_rows(assets: ScoringAssets, prepared: PreparedQuery,
                 qrels: Qrels | None) -> list[RankingInstance]:
    """F1..F4 plus the quality columns for every candidate; labels from
    qrels (unjudged pairs default to 0)."""
    query_id = prepared.record.id
    return [RankingInstance(
                query_id=query_id, doc_id=cand.qa_id, features=tuple(x),
                label=qrels.grade(query_id, cand.qa_id) if qrels is not None else 0)
            for cand, x in zip(prepared.candidates,
                               _feature_matrix(assets, prepared).tolist())]


def _fused_scores(assets: ScoringAssets, prepared: PreparedQuery) -> list[float]:
    if assets.ranker is None:
        raise ValueError("fused system needs a trained ranker")
    return assets.ranker.predict_matrix(_feature_matrix(assets, prepared)).tolist()


@dataclass(frozen=True)
class System:
    """One scoring system: the scores of a prepared query's candidates, in
    candidate order, and the models they read, a subset of ("translation",
    "topics", "ranker") in that order."""

    score: Callable[[ScoringAssets, PreparedQuery], list[float]]
    needs: tuple[str, ...] = ()


SYSTEMS = {
    "vsm": System(lambda assets, prepared: vsm_scores(prepared.record.tokens, assets.index)[
        _rows(assets, prepared)].tolist()),
    "bm25": System(lambda assets, prepared: [c.score for c in prepared.candidates]),
    "lm": System(lambda assets, prepared:
                 _component_table(assets, prepared).lm().tolist()),
    "tlm": System(lambda assets, prepared:
                  _component_table(assets, prepared).tlm().tolist(),
                  ("translation",)),
    "t2lm": System(lambda assets, prepared: _component_table(assets, prepared).mixture(
        assets.cfg.mixture(), weighted=False).tolist(), ("translation", "topics")),
    "t2lm+": System(lambda assets, prepared: _component_table(assets, prepared).mixture(
        assets.cfg.mixture(), weighted=True).tolist(), ("translation", "topics")),
    "t2lm+5": System(_fused_scores, ("translation", "topics", "ranker")),
}
ALL_SYSTEMS = tuple(SYSTEMS)


@dataclass
class PipelineConfig:
    qa_path: str
    queries_path: str
    qrels_path: str | None = None
    users_path: str | None = None
    outdir: str = "out"
    ranker_path: str | None = None  # apply an existing model instead of training

    mode: str = "whitespace"
    stopwords_path: str | None = None
    field: str = "question_and_answer"
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B
    top_k: int = 500

    em_iters: int = 10
    direction: str = "pooled_both"
    prune: float = 0.0

    topics: int = 50
    alpha: float | None = None
    beta: float = 0.01
    gibbs_iters: int = 500
    burn_in: int = 50
    samples: int = 20

    mu1: float = 0.3
    mu2: float = 0.3
    mu3: float = 0.2
    mu4: float = 0.2
    rescale_weights: bool = False
    combine_quality: bool = False

    trees: int = 50
    leaves: int = 4
    learning_rate: float = 0.2
    min_leaf: int = 30
    ndcg_cutoff: int = 10

    depth: int = 10
    rel_threshold: int = 1

    seed: int = 0
    split_seed: int = 0
    pad_candidates: bool = False
    systems: tuple[str, ...] = ALL_SYSTEMS

    def mixture(self) -> MixtureWeights:
        return MixtureWeights(self.mu1, self.mu2, self.mu3, self.mu4)

    def ltr_config(self) -> TrainConfig:
        return TrainConfig(trees=self.trees, leaves=self.leaves,
                           learning_rate=self.learning_rate,
                           min_leaf_instances=self.min_leaf,
                           ndcg_truncation=self.ndcg_cutoff)


def system_ranking(system: str, assets: ScoringAssets,
                   prepared: PreparedQuery) -> list[tuple[str, float]]:
    """Rank the prepared query's candidates under one scoring system."""
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}")
    if not prepared.candidates:
        return []
    scores = SYSTEMS[system].score(assets, prepared)
    scored = sorted(zip(scores, (c.qa_id for c in prepared.candidates)),
                    key=lambda item: (-item[0], item[1]))
    return [(qa_id, score) for score, qa_id in scored]


def split_queries(queries: list[QueryRecord], split_seed: int):
    """Seeded 1:1 shuffle split; odd counts put the extra query in train."""
    shuffled = list(queries)
    random.Random(split_seed).shuffle(shuffled)
    cut = (len(shuffled) + 1) // 2
    return shuffled[:cut], shuffled[cut:]


# The PipelineConfig fields each stage reads: its command's flags (split has
# no command) and, apart from the `_path` fields, whose files are hashed as
# inputs, its manifest params.
_SCORING = ("mode", "field", "k1", "b", "top_k", "burn_in", "samples", "seed",
            "rescale_weights", "combine_quality", "pad_candidates")
STAGES = {
    "ingest": ("qa_path", "users_path", "mode", "stopwords_path"),
    "train-tm": ("em_iters", "direction", "prune"),
    "train-lda": ("topics", "alpha", "beta", "gibbs_iters", "seed"),
    "split": ("queries_path", "split_seed"),
    "features": ("queries_path", "qrels_path", *_SCORING),
    "train-ranker": ("trees", "leaves", "learning_rate", "min_leaf",
                     "ndcg_cutoff", "seed"),
    "rank": ("queries_path", "ranker_path", *_SCORING,
             "mu1", "mu2", "mu3", "mu4"),
    "evaluate": ("qrels_path", "depth", "rel_threshold"),
}


def _params(cfg: PipelineConfig, stage: str) -> dict:
    return {name: getattr(cfg, name) for name in STAGES[stage]
            if not name.endswith("_path")}


# One recipe per stage, shared by run_pipeline and the stage commands.

def ingest(cfg: PipelineConfig) -> Corpus:
    """The ingest stage: the Q&A and users files, without the stopwords
    listed one per line in the stopwords file, if one is configured."""
    stopwords = None
    if cfg.stopwords_path is not None:
        with text_lines(cfg.stopwords_path) as lines:
            stopwords = frozenset(lines)
    return ingest_corpus(cfg.qa_path, cfg.users_path, cfg.mode, stopwords)


def train_translation(cfg: PipelineConfig, corpus: Corpus) -> TranslationTable:
    """The train-tm stage."""
    return train_ibm1(make_parallel_pairs(corpus, cfg.direction), cfg.em_iters,
                      prune=cfg.prune)


def train_topics(cfg: PipelineConfig, corpus: Corpus) -> TopicModel:
    """The train-lda stage, over each pair's question and answer tokens."""
    docs = [p.question_tokens + p.answer_tokens for p in corpus.pairs]
    return train_lda(docs, cfg.topics, cfg.alpha, cfg.beta, cfg.gibbs_iters,
                     cfg.seed, vocab_size=len(corpus.vocabulary))


def write_features(assets: ScoringAssets, prepared, qrels: Qrels | None,
                   path) -> list[RankingInstance]:
    """The features stage: writes the LETOR rows of the prepared queries to
    `path` and returns them."""
    rows = [row for query in prepared for row in feature_rows(assets, query, qrels)]
    write_letor(rows, path)
    return rows


def train_ranker(cfg: PipelineConfig, rows: list[RankingInstance]) -> LambdaMARTModel:
    """The train-ranker stage, over the train split's LETOR rows."""
    return train(rows, cfg.ltr_config(), seed=cfg.seed)


def rank_queries(assets: ScoringAssets, prepared, systems) -> dict[str, RankedRun]:
    """The rank stage: each system's run over the prepared queries. A query
    without candidates is left out of every run."""
    runs = {system: RankedRun(tag=system) for system in systems}
    for query in prepared:
        if not query.candidates:
            continue
        for system in systems:
            runs[system].add_query(query.record.id,
                                   system_ranking(system, assets, query))
    return runs


def evaluate_runs(runs, qrels: Qrels, depth: int, rel_threshold: int,
                  queries=None) -> MetricReport:
    """The evaluate stage of both run_pipeline and `cqarank evaluate`: the
    report of each (system, run) pair in order, each run averaged over
    `queries`, by default its own queries. A repeated system name is an
    error."""
    report = MetricReport(k=depth)
    for system, run in runs:
        if system in report.systems:
            raise ValueError(f"duplicate system {system!r}")
        report.systems[system] = evaluate_run(run, qrels, depth, rel_threshold,
                                              queries)
    return report


def _saved(save, value, path):
    """`value` after `save` writes it to `path`: a stage's value."""
    save(value, path)
    return value


def run_pipeline(cfg: PipelineConfig) -> Path:
    """Execute every stage the requested systems need; returns the report
    path. A model no requested system reads is neither trained nor loaded.
    Each stage's result goes to the stages that read it in memory: the
    corpus, the models, the train split's LETOR rows, the test split's
    prepared queries and the runs. A stage that reads one parses its file
    only when the stage that wrote the file was up to date and skipped.
    Raises PipelineError naming the failing stage."""
    for label, path in (("qa", cfg.qa_path), ("queries", cfg.queries_path)):
        if path is None or not Path(path).exists():
            raise PipelineError(f"stage validate failed: missing {label} input {path}")
    if cfg.users_path is not None and not Path(cfg.users_path).exists():
        raise PipelineError(f"stage validate failed: missing users input {cfg.users_path}")
    if cfg.qrels_path is None:
        raise PipelineError("stage validate failed: no preference signal source "
                            "(qrels required to train or evaluate)")
    if not Path(cfg.qrels_path).exists():
        raise PipelineError(f"stage validate failed: missing qrels input {cfg.qrels_path}")
    if not cfg.systems:
        raise PipelineError("stage validate failed: no systems to rank")
    for i, system in enumerate(cfg.systems):
        if system not in SYSTEMS or system in cfg.systems[:i]:
            problem = "unknown" if system not in SYSTEMS else "repeated"
            raise PipelineError(f"stage validate failed: {problem} system {system!r}")
    cfg.mixture()  # validates the mu sum early
    cfg.ltr_config()  # and the ranker settings
    _check_bm25_params(cfg.k1, cfg.b)
    _check_cutoff(cfg.top_k, "top_k")
    _check_cutoff(cfg.depth, "depth")
    needed = {model for system in cfg.systems for model in SYSTEMS[system].needs}
    if "topics" in needed:  # only fold-in reads these
        _check_fold_in(cfg.burn_in, cfg.samples)

    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    runner = StageRunner()

    corpus_path = outdir / "corpus.json"
    corpus = runner.run(
        "ingest",
        [Path(path) for path in (cfg.qa_path, cfg.users_path, cfg.stopwords_path)
         if path is not None],
        [corpus_path],
        _params(cfg, "ingest"),
        lambda: _saved(save_corpus, ingest(cfg), corpus_path),
        lambda: load_corpus(corpus_path),
    )
    model_paths = []  # the model files the requested systems read

    table = None
    if "translation" in needed:
        table_path = outdir / "translation.tsv"
        table = runner.run("train-tm", [corpus_path], [table_path, image_path(table_path)],
                           _params(cfg, "train-tm"),
                           lambda: _saved(TranslationTable.save,
                                          train_translation(cfg, corpus), table_path),
                           lambda: TranslationTable.load(table_path))
        model_paths.append(table_path)

    model = None
    if "topics" in needed:
        lda_path = outdir / "topics.txt"
        model = runner.run("train-lda", [corpus_path], [lda_path, image_path(lda_path)],
                           _params(cfg, "train-lda"),
                           lambda: _saved(TopicModel.save, train_topics(cfg, corpus),
                                          lda_path),
                           lambda: TopicModel.load(lda_path))
        model_paths.append(lda_path)

    # loaded after training: interning query words grows the vocabulary
    queries = load_queries(cfg.queries_path, corpus.vocabulary, cfg.mode)
    if not queries:
        raise PipelineError("stage split failed: no queries")
    train_split, test_split = split_queries(queries, cfg.split_seed)
    split_path = outdir / "split.json"

    def _split() -> None:
        with open(split_path, "w", encoding="utf-8") as f:
            json.dump({"train": [q.id for q in train_split],
                       "test": [q.id for q in test_split]},
                      f, sort_keys=True)
            f.write("\n")

    runner.run("split", [Path(cfg.queries_path)], [split_path],
               _params(cfg, "split"), _split)

    qrels = read_qrels(cfg.qrels_path)
    index = build_index(corpus, cfg.field)
    assets = ScoringAssets(corpus=corpus, index=index, table=table,
                           model=model, cfg=cfg)

    # handed on by features when it executes: the train rows, and the test
    # split's candidates, theta and weights, so rank folds in no query again.
    # features and rank give no `load`: only a later stage's recipe reads
    # their values, and it reads their files itself when it executes, so an
    # up-to-date rerun parses none of them
    train_rows = test_prepared = None
    if "ranker" in needed:
        # the train rows are the ranker's training data: an existing ranker
        # needs none
        train_letor = outdir / "train.letor" if cfg.ranker_path is None else None
        test_letor = outdir / "test.letor"

        def _features():
            # the test rows first, so they are gone before the train rows
            # that are handed on are built
            prepared = [prepare_query(assets, query) for query in test_split]
            write_features(assets, prepared, qrels, test_letor)
            if train_letor is None:
                return None, prepared
            rows = write_features(assets, (prepare_query(assets, query)
                                           for query in train_split),
                                  qrels, train_letor)
            return rows, prepared

        train_rows, test_prepared = runner.run(
            "features", [corpus_path, *model_paths, split_path,
                         Path(cfg.queries_path), Path(cfg.qrels_path)],
            [path for path in (train_letor, test_letor) if path is not None],
            _params(cfg, "features"), _features) or (None, None)
        if cfg.ranker_path is not None:
            ranker_path = Path(cfg.ranker_path)
            if not ranker_path.exists():
                raise PipelineError(f"stage train-ranker failed: missing model {ranker_path}")
            assets.ranker = LambdaMARTModel.load(ranker_path)
        else:
            ranker_path = outdir / "ranker.txt"

            def _train_ranker() -> LambdaMARTModel:
                rows = read_letor(train_letor) if train_rows is None else train_rows
                return _saved(LambdaMARTModel.save, train_ranker(cfg, rows), ranker_path)

            assets.ranker = runner.run("train-ranker", [train_letor], [ranker_path],
                                       _params(cfg, "train-ranker"), _train_ranker,
                                       lambda: LambdaMARTModel.load(ranker_path))
            train_rows = None
        model_paths.append(ranker_path)

    run_paths = {system: outdir / f"run_{system.replace('+', 'p')}.txt"
                 for system in cfg.systems}

    def _rank() -> dict[str, RankedRun]:
        prepared = test_prepared if test_prepared is not None else (
            prepare_query(assets, query) for query in test_split)
        runs = rank_queries(assets, prepared, cfg.systems)
        for system, run in runs.items():
            write_run(run, run_paths[system])
        return runs

    runs = runner.run(
        "rank",
        [corpus_path, *model_paths, split_path, Path(cfg.queries_path)],
        list(run_paths.values()),
        _params(cfg, "rank"),
        _rank,
    )
    test_prepared = None

    report_txt = outdir / "report.txt"
    report_jsonl = outdir / "report.jsonl"

    def _evaluate() -> None:
        # every judged test query counts; one missing from a run scores 0
        judged = [q.id for q in test_split if qrels.has_query(q.id)]
        pairs = ((system, read_run(run_paths[system]) if runs is None else runs[system])
                 for system in cfg.systems)
        write_report(evaluate_runs(pairs, qrels, cfg.depth, cfg.rel_threshold,
                                   judged), report_txt, report_jsonl)

    runner.run(
        "evaluate",
        list(run_paths.values()) + [split_path, Path(cfg.qrels_path)],
        [report_txt, report_jsonl],
        # the report lists the systems in this order
        {**_params(cfg, "evaluate"), "systems": list(cfg.systems)},
        _evaluate,
    )
    return report_txt
