"""The benchmark's per-layer tracer (cqabench/tracing.py) replaces cqarank
names by (owner, attribute). A renamed or removed name would stop it from
installing, so every one of them must still resolve."""

import inspect
import sys
from pathlib import Path

import cqarank.pipeline as pipeline

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
