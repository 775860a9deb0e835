"""The benchmark's idempotence check (cqabench/checks.py, check_rerun) on a
small synthetic run, so a stage layout that broke manifest idempotence
fails here and not only in the benchmark."""

import sys
from pathlib import Path

import pytest

import cqarank.pipeline as pipeline
from cqarank.synth import SynthSpec, write_synth

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "cqabench"))

import checks  # noqa: E402


@pytest.fixture
def finished_run(tmp_path):
    data = write_synth(SynthSpec(size=30, topics=3, seed=4, queries=8),
                       tmp_path / "data")
    cfg = pipeline.PipelineConfig(
        qa_path=str(data["qa"]), users_path=str(data["users"]),
        queries_path=str(data["queries"]), qrels_path=str(data["qrels"]),
        outdir=str(tmp_path / "out"), topics=3, gibbs_iters=20, em_iters=3,
        top_k=30, burn_in=5, samples=3, trees=4, min_leaf=5, seed=1,
        split_seed=2)
    pipeline.run_pipeline(cfg)
    return cfg


def test_rerun_executes_no_stage(finished_run):
    checks.check_rerun(pipeline, finished_run)


def test_rerun_check_sees_a_stage_execute(finished_run):
    (Path(finished_run.outdir) / "split.json.manifest.json").unlink()
    with pytest.raises(checks.CheckError, match=r"rerun executed stages \['split'"):
        checks.check_rerun(pipeline, finished_run)
