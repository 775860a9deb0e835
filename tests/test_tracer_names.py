"""The benchmark's per-layer tracer (cqabench/tracing.py) replaces cqarank
names by (owner, attribute). A renamed or removed name would stop it from
installing, so every one of them must still resolve; its work counters
read the traced calls' arguments by parameter name, so those names must
still be parameters; and a call moved out of the traced namespace would
leave its metric reading 0, so a traced run must still call each name."""

import ast
import inspect
import sys
import textwrap
from pathlib import Path

import cqarank.pipeline as pipeline
from cqarank.corpus import load_queries
from cqarank.synth import SynthSpec, write_synth
from cqarank.translation import ParallelPair

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "cqabench"))

import tracing  # noqa: E402

TRACED = [(owner, attr) for owner, attr, _, _ in tracing.FUNCTIONS]
TRACED.append((pipeline.StageRunner, "run"))


def test_every_traced_name_resolves():
    missing = []
    for owner, attr in TRACED:
        try:
            inspect.getattr_static(owner, attr)
        except AttributeError:
            missing.append(f"{owner.__name__}.{attr}")
    assert missing == []


def test_tracer_installs_and_restores_every_name():
    originals = [inspect.getattr_static(owner, attr) for owner, attr in TRACED]
    with tracing.Tracer().installed():
        wrapped = [inspect.getattr_static(owner, attr) for owner, attr in TRACED]
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert [inspect.getattr_static(owner, attr) for owner, attr in TRACED] == originals


def _arguments_read(work):
    """The names a work counter `work(arguments, result)` reads as
    arguments["name"]."""
    func = ast.parse(textwrap.dedent(inspect.getsource(work))).body[0]
    arguments = func.args.args[0].arg
    return {node.slice.value for node in ast.walk(func)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == arguments and isinstance(node.slice, ast.Constant)}


def test_work_counters_read_parameters_of_the_traced_function():
    """A counter reads the traced call's bound arguments by parameter name,
    so a renamed parameter would fail only in a traced run."""
    read = {}
    for owner, attr, _, work in tracing.FUNCTIONS:
        if work is None:
            continue
        function = inspect.getattr_static(owner, attr)
        if isinstance(function, classmethod):
            function = function.__func__
        names = _arguments_read(work)
        assert names <= set(inspect.signature(function).parameters), attr
        read[attr] = names
    assert read == {
        "train_ibm1": {"pairs", "iterations"},
        "train_lda": {"docs", "iterations"},
        "infer_query_topics": {"model", "query_tokens", "burn_in", "samples"},
    }


def test_work_counters_count_traced_calls():
    docs = [[0, 1, 1], [2, 0]]
    pairs = [ParallelPair(source=(0, 1), target=(2,)),
             ParallelPair(source=(1,), target=(0, 2))]
    with tracing.Tracer().installed() as tracer:
        pipeline.train_ibm1(pairs, 3)
        model = pipeline.train_lda(docs, 2, iterations=4, seed=0)
        pipeline.infer_query_topics(model, [0, 9, 2], burn_in=2, samples=3)
        pipeline.infer_query_topics(model, [9], burn_in=2, samples=3)
    work = {name: entry[2] for (_, name), entry in tracer.table.items()}
    assert work == {"translation.train_ibm1": 2 * 3, "topics.train_lda": 5 * 4,
                    "topics.infer": 2 * (2 + 3)}


def test_a_traced_run_calls_every_live_name(tmp_path):
    """A pipeline run and one served query, as the benchmark runs them,
    call every traced name but those the serving path left: it scores a
    candidate list from one ComponentTable and one predict_matrix call, and
    the vsm system reads its candidates' entries from one vsm_scores call."""
    data = write_synth(SynthSpec(size=50, topics=3, seed=1), tmp_path / "data")
    cfg = pipeline.PipelineConfig(
        qa_path=str(data["qa"]), users_path=str(data["users"]),
        queries_path=str(data["queries"]), qrels_path=str(data["qrels"]),
        outdir=str(tmp_path / "exp"), topics=3, gibbs_iters=20, trees=5)
    exp = tmp_path / "exp"
    with tracing.Tracer().installed() as tracer:
        pipeline.run_pipeline(cfg)
        corpus = pipeline.load_corpus(exp / "corpus.json")
        assets = pipeline.ScoringAssets(
            corpus=corpus, index=pipeline.build_index(corpus, cfg.field),
            table=pipeline.TranslationTable.load(exp / "translation.tsv"),
            model=pipeline.TopicModel.load(exp / "topics.txt"), cfg=cfg,
            ranker=pipeline.LambdaMARTModel.load(exp / "ranker.txt"))
        query = load_queries(cfg.queries_path, corpus.vocabulary, cfg.mode)[0]
        prepared = pipeline.prepare_query(assets, query)
        assert pipeline.system_ranking("t2lm+5", assets, prepared)
    called = {name for _, name in tracer.table}
    never = {name for _, _, name, _ in tracing.FUNCTIONS} - called
    assert never == {"index.vsm", "ltr.predict", "relevance.f1f4", "relevance.score_lm",
                     "relevance.score_tlm", "relevance.score_t2lm",
                     "relevance.score_t2lm_plus"}
