"""Per-layer timing from outside the program.

Tracer replaces the public names that cqarank.pipeline and cqarank.ltr
call (module globals, methods and classmethods) with wrappers that add the
call's wall time and a work count to a table keyed by (phase, name), and
puts the originals back on exit. Times are inclusive: a wrapped call made
inside another wrapped call counts toward both.
"""

import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

import cqarank.ltr as ltr
import cqarank.pipeline as pipeline
from cqarank.ltr import LambdaMARTModel, RegressionTree
from cqarank.topics import TopicModel
from cqarank.translation import TranslationTable


def _pair_iterations(a, result):
    return len(a["pairs"]) * a["iterations"]


def _token_sweeps(a, result):
    return sum(len(d) for d in a["docs"]) * a["iterations"]


def _fold_in_token_sweeps(a, result):
    if result.oov_fallback:
        return 0
    in_vocab = sum(1 for w in a["query_tokens"] if 0 <= w < a["model"].vocab_size)
    return in_vocab * (a["burn_in"] + a["samples"])


# (owner, attribute, metric name, work count or None)
FUNCTIONS = [
    (pipeline, "run_pipeline", "pipeline.run_pipeline", None),
    (pipeline, "prepare_query", "pipeline.prepare_query", None),
    (pipeline, "system_ranking", "pipeline.system_ranking", None),
    (pipeline, "load_corpus", "corpus.load_corpus", None),
    (pipeline, "build_index", "index.build_index", None),
    (pipeline, "retrieve_candidates", "index.retrieve", None),
    (pipeline, "vsm_score", "index.vsm", None),
    (pipeline, "train_ibm1", "translation.train_ibm1", _pair_iterations),
    (pipeline, "train_lda", "topics.train_lda", _token_sweeps),
    (pipeline, "infer_query_topics", "topics.infer", _fold_in_token_sweeps),
    (pipeline, "term_weights", "relevance.term_weights", None),
    (pipeline, "features_f1_f4", "relevance.f1f4", None),
    (pipeline, "score_lm", "relevance.score_lm", None),
    (pipeline, "score_tlm", "relevance.score_tlm", None),
    (pipeline, "score_t2lm", "relevance.score_t2lm", None),
    (pipeline, "score_t2lm_plus", "relevance.score_t2lm_plus", None),
    (pipeline, "quality_feature", "quality.quality_feature", None),
    (pipeline, "train", "ltr.train", None),
    (pipeline, "evaluate_run", "evaluation.evaluate_run", None),
    (ltr, "compute_lambdas", "ltr.compute_lambdas", None),
    (ltr, "fit_tree", "ltr.fit_tree", None),
    (RegressionTree, "predict_matrix", "ltr.predict_matrix", None),
    (LambdaMARTModel, "predict", "ltr.predict", None),
    (TranslationTable, "load", "translation.load", None),
    (TopicModel, "load", "topics.load", None),
    (LambdaMARTModel, "load", "ltr.load", None),
]


class Tracer:
    """Accumulates [calls, seconds, work] per (phase, name)."""

    def __init__(self) -> None:
        self.phase = "none"
        self.table = defaultdict(lambda: [0, 0.0, 0])

    def _timed(self, fn, name, work):
        """`work(arguments, result)` gets the call's bound arguments."""
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            entry = self.table[(self.phase, name)]
            entry[0] += 1
            entry[1] += elapsed
            if work is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                entry[2] += work(bound.arguments, result)
            return result
        return wrapper

    def _stage_timed(self, run):
        def wrapper(runner, name, *args, **kwargs):
            start = time.perf_counter()
            try:
                return run(runner, name, *args, **kwargs)
            finally:
                entry = self.table[(self.phase, f"pipeline.{name}")]
                entry[0] += 1
                entry[1] += time.perf_counter() - start
        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, work in FUNCTIONS:
                static = inspect.getattr_static(owner, attr)
                saved.append((owner, attr, static))
                if isinstance(static, classmethod):
                    setattr(owner, attr, classmethod(self._timed(static.__func__, name, work)))
                else:
                    setattr(owner, attr, self._timed(static, name, work))
            static = inspect.getattr_static(pipeline.StageRunner, "run")
            saved.append((pipeline.StageRunner, "run", static))
            pipeline.StageRunner.run = self._stage_timed(static)
            yield self
        finally:
            for owner, attr, static in reversed(saved):
                setattr(owner, attr, static)

    def _total(self, name, phases, column):
        return sum(self.table[(p, name)][column] for p in phases
                   if (p, name) in self.table)

    def calls(self, name, phases) -> int:
        return self._total(name, phases, 0)

    def seconds(self, name, phases) -> float:
        return self._total(name, phases, 1)

    def per_call(self, name, phases, scale=1.0) -> float:
        calls = self._total(name, phases, 0)
        return scale * self._total(name, phases, 1) / calls if calls else 0.0

    def per_work(self, name, phases, scale=1.0) -> float:
        work = self._total(name, phases, 2)
        return scale * self._total(name, phases, 1) / work if work else 0.0
