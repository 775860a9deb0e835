"""The binary image `<path>.npy` that TranslationTable.save and
TopicModel.save write beside their text: load reads it when it is current
and passes the text's checks, and the text in every other case."""

import hashlib
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

import cqarank.topics as topics
import cqarank.translation as translation
from cqarank.corpus import image_path, save_image
from cqarank.pipeline import ingest, train_topics, train_translation
from cqarank.topics import TopicModel
from cqarank.translation import TranslationTable

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "cqabench"))

from workloads import WORKLOADS  # noqa: E402

@pytest.fixture(scope="module")
def models(tmp_path_factory):
    """(name, table, model) of each benchmark archive, then a one-entry
    table and a one-topic, one-word model."""
    root = tmp_path_factory.mktemp("workloads")
    found = []
    for name, workload in WORKLOADS.items():
        cfg = workload.config(workload.write_archive(root / name), root / name / "out")
        corpus = ingest(cfg)
        found.append((name, train_translation(cfg, corpus), train_topics(cfg, corpus)))
    found.append(("one", TranslationTable([4], [2], [1.0]),
                  TopicModel(phi=np.ones((1, 1)), topic_totals=np.array([3]),
                             alpha=0.5, beta=0.01, vocab_size=1, iterations=1,
                             seed=0)))
    return found


CASES = [(name, kind) for name in (*WORKLOADS, "one") for kind in ("table", "model")]


@pytest.fixture(scope="module")
def originals(models, tmp_path_factory):
    """Each case's model and the path it was saved to, saved once."""
    root = tmp_path_factory.mktemp("saved")
    found = {}
    for name, table, model in models:
        for kind, value, file_name in (("table", table, "translation.tsv"),
                                       ("model", model, "topics.txt")):
            path = root / name / file_name
            path.parent.mkdir(exist_ok=True)
            value.save(path)
            found[name, kind] = value, path
    return found


@pytest.fixture(params=CASES, ids=[f"{name}-{kind}" for name, kind in CASES])
def saved(request, originals, tmp_path):
    """A saved model: its class, the path of a copy of its text and image,
    and the model."""
    value, original = originals[request.param]
    path = tmp_path / original.name
    shutil.copyfile(original, path)
    shutil.copyfile(image_path(original), image_path(path))
    return type(value), path, value


@pytest.fixture
def text_parses(monkeypatch):
    """The path of each load that went on to parse its text."""
    calls = []
    for module in (translation, topics):
        original = module.text_lines

        def recording(path, *args, original=original, **kwargs):
            calls.append(path)
            return original(path, *args, **kwargs)

        monkeypatch.setattr(module, "text_lines", recording)
    return calls


def _arrays(value) -> dict:
    if isinstance(value, TranslationTable):
        return {"rows": value._rows, "offsets": value._offsets,
                "target": value._target, "prob": value._prob}
    return {"phi": value.phi, "topic_totals": value.topic_totals}


def _scalars(value) -> tuple:
    if isinstance(value, TranslationTable):
        return ()
    return tuple((x, type(x)) for x in (value.alpha, value.beta, value.vocab_size,
                                        value.iterations, value.seed))


def assert_bit_equal(a, b) -> None:
    for (name, x), y in zip(_arrays(a).items(), _arrays(b).values()):
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name
    assert _scalars(a) == _scalars(b)


def from_text(cls, path):
    """The value the text alone loads as."""
    copy = path.with_name("text-only-" + path.name)
    shutil.copyfile(path, copy)
    return cls.load(copy)


def test_the_image_loads_bit_equal_to_the_text_without_parsing_it(saved, text_parses):
    cls, path, value = saved
    assert image_path(path).exists()
    loaded = cls.load(path)
    assert text_parses == []
    assert_bit_equal(loaded, from_text(cls, path))
    assert_bit_equal(loaded, value)
    assert len(text_parses) == 1


def test_two_saves_write_the_same_image_bytes(saved, tmp_path):
    cls, path, value = saved
    again = tmp_path / ("again-" + path.name)
    cls.load(path).save(again)
    value.save(path)
    assert image_path(again).read_bytes() == image_path(path).read_bytes()
    assert again.read_bytes() == path.read_bytes()


def test_images_need_no_hashing_newer_than_python_3_10(saved, tmp_path, monkeypatch,
                                                       text_parses):
    # hashlib.file_digest is new in Python 3.11; pyproject allows 3.10
    monkeypatch.delattr(hashlib, "file_digest", raising=False)
    cls, path, value = saved
    again = tmp_path / ("again-" + path.name)
    value.save(again)
    assert image_path(again).read_bytes() == image_path(path).read_bytes()
    assert_bit_equal(cls.load(again), value)
    assert text_parses == []


# a model of each kind unlike every saved one
OTHER = {TranslationTable: TranslationTable([1, 1], [2, 3], [0.25, 0.75]),
         TopicModel: TopicModel(phi=np.array([[0.5, 0.5]]), topic_totals=np.array([2]),
                                alpha=1.0, beta=0.5, vocab_size=2, iterations=3,
                                seed=5)}


def test_a_stale_image_loads_the_text(saved, tmp_path, text_parses):
    cls, path, value = saved
    # another model's text written over this one's, as by an edit after save
    other = tmp_path / "other" / path.name
    other.parent.mkdir()
    OTHER[cls].save(other)
    shutil.copyfile(other, path)
    loaded = cls.load(path)
    assert text_parses == [path]
    assert_bit_equal(loaded, OTHER[cls])


def _cut_points(size: int) -> list[int]:
    return sorted({0, 1, 8, 60, 128, size // 2, size - 9, size - 1})


def test_a_cut_image_loads_the_text(saved, text_parses):
    cls, path, value = saved
    image = image_path(path).read_bytes()
    for cut in _cut_points(len(image)):
        image_path(path).write_bytes(image[:cut])
        assert_bit_equal(cls.load(path), value)
    assert len(text_parses) == len(_cut_points(len(image)))


def test_an_image_with_data_after_its_arrays_loads_the_text(saved, text_parses):
    cls, path, value = saved
    with open(image_path(path), "ab") as f:
        np.save(f, np.zeros(1))
    assert_bit_equal(cls.load(path), value)
    assert text_parses == [path]


def _image_arrays(cls, value) -> list[np.ndarray]:
    """The arrays save writes after the digest."""
    if cls is TranslationTable:
        return [np.repeat(value._rows, np.diff(value._offsets)), value._target,
                value._prob]
    return [np.array([value.alpha, value.beta]),
            np.array([value.seed, value.iterations, value.vocab_size]),
            value.topic_totals.astype(np.int64), value.phi.copy()]


# each a change to the arrays of a digest-matching image that the image's
# reader refuses
UNREADABLE = {
    "pickled": lambda arrays: [np.array([object()] * len(arrays[0]), dtype=object),
                               *arrays[1:]],
    "wrong dtype": lambda arrays: [arrays[0].astype(np.int32), *arrays[1:]],
    "float32": lambda arrays: [*arrays[:-1], arrays[-1].astype(np.float32)],
    "big-endian": lambda arrays: [arrays[0].astype(arrays[0].dtype.newbyteorder(">")),
                                  *arrays[1:]],
    "wrong ndim": lambda arrays: [arrays[0][None, :], *arrays[1:]],
    "an array short": lambda arrays: arrays[:-1],
}


def _write_image(path, arrays) -> None:
    """An image of `arrays` with the digest of the text at `path`, written
    allowing pickles."""
    digest = hashlib.sha256(path.read_bytes()).digest()
    with open(image_path(path), "wb") as f:
        for array in (np.frombuffer(digest, dtype=np.uint8), *arrays):
            np.save(f, array, allow_pickle=True)


@pytest.mark.parametrize("change", UNREADABLE)
def test_an_unreadable_image_loads_the_text(saved, text_parses, change):
    cls, path, value = saved
    _write_image(path, UNREADABLE[change](_image_arrays(cls, value)))
    assert_bit_equal(cls.load(path), value)
    assert text_parses == [path]


def test_a_phi_not_in_c_order_loads_the_text(models, tmp_path, text_parses):
    # a 1 x 1 phi is in both orders
    models = [(name, table, model) for name, table, model in models
              if model.phi.shape != (1, 1)]
    for name, _, model in models:
        path = tmp_path / f"{name}.txt"
        model.save(path)
        arrays = _image_arrays(TopicModel, model)
        _write_image(path, [*arrays[:-1], np.asfortranarray(arrays[-1])])
        assert_bit_equal(TopicModel.load(path), model)
        assert text_parses[-1] == path
    assert len(text_parses) == len(models)


def _edited(arrays, i, edit):
    """`arrays` with a copy of array i, changed in place by `edit`."""
    arrays = list(arrays)
    arrays[i] = arrays[i].copy()
    edit(arrays[i])
    return arrays


def _bump(a):
    a.flat[0] += 1e-6


def _negate(a):
    a.flat[0] = -1


def _grow_vocabulary(ints):
    ints[2] += 1


# changes to a digest-matching image's arrays that the text's checks reject
FAILING = {
    "row sum off by 1e-6": {TranslationTable: lambda a: _edited(a, 2, _bump),
                            TopicModel: lambda a: _edited(a, 3, _bump)},
    "a negative id or total": {TranslationTable: lambda a: _edited(a, 0, _negate),
                               TopicModel: lambda a: _edited(a, 2, _negate)},
    "sizes disagree": {TranslationTable: lambda a: [a[0], a[1][:-1], a[2]],
                       TopicModel: lambda a: _edited(a, 1, _grow_vocabulary)},
    "a repeated entry or a negative alpha": {
        TranslationTable: lambda a: [np.r_[x, x[:1]] for x in a],
        TopicModel: lambda a: _edited(a, 0, _negate)},
}


@pytest.mark.parametrize("change", FAILING)
def test_an_image_failing_a_check_loads_the_text(saved, text_parses, change):
    cls, path, value = saved
    save_image(path, FAILING[change][cls](_image_arrays(cls, value)))
    assert_bit_equal(cls.load(path), value)
    assert text_parses == [path]


def test_a_text_without_an_image_loads_as_before(saved, text_parses):
    cls, path, value = saved
    image_path(path).unlink()
    assert_bit_equal(cls.load(path), value)
    assert text_parses == [path]
