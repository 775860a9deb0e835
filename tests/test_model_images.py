"""The binary image `<path>.npy` that TranslationTable.save and
TopicModel.save write beside their text: load reads the image alone, and
raises ValueError naming it when the image is missing, stale, cut short or
unreadable, or its arrays fail a check. The text stays a complete export:
each `*_loads_the_text` test also reads the text beside a refused image with
the benchmark's own text reader and finds the model in it, so a refused
image loses nothing that the text holds."""

import hashlib
import io
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from cqarank.corpus import image_path, save_image
from cqarank.pipeline import ingest, train_topics, train_translation
from cqarank.topics import TopicModel
from cqarank.translation import TranslationTable

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "cqabench"))

from checks import read_topics, read_translation  # noqa: E402
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


def test_the_image_loads_bit_equal_to_the_text_without_parsing_it(saved):
    # every float of the text is the repr of the saved model's, so the saved
    # model is the value the text holds
    cls, path, value = saved
    assert_bit_equal(cls.load(path), value)


def test_two_saves_write_the_same_image_bytes(saved, tmp_path):
    cls, path, value = saved
    again = tmp_path / ("again-" + path.name)
    cls.load(path).save(again)
    value.save(path)
    assert image_path(again).read_bytes() == image_path(path).read_bytes()
    assert again.read_bytes() == path.read_bytes()


def test_images_need_no_hashing_newer_than_python_3_10(saved, tmp_path, monkeypatch):
    # hashlib.file_digest is new in Python 3.11; pyproject allows 3.10
    monkeypatch.delattr(hashlib, "file_digest", raising=False)
    cls, path, value = saved
    again = tmp_path / ("again-" + path.name)
    value.save(again)
    assert image_path(again).read_bytes() == image_path(path).read_bytes()
    assert_bit_equal(cls.load(again), value)


# a model of each kind unlike every saved one
OTHER = {TranslationTable: TranslationTable([1, 1], [2, 3], [0.25, 0.75]),
         TopicModel: TopicModel(phi=np.array([[0.5, 0.5]]), topic_totals=np.array([2]),
                                alpha=1.0, beta=0.5, vocab_size=2, iterations=3,
                                seed=5)}


# each text parsed so far, by its sha256: the same text is parsed once
_PARSED: dict = {}


def assert_the_text_loads(path, value) -> None:
    """The text at `path`, read by the benchmark's reader of its kind and so
    without cqarank, holds exactly `value`."""
    cls = type(value)
    digest = hashlib.sha256(path.read_bytes()).digest()
    if digest not in _PARSED:
        reader = read_translation if cls is TranslationTable else read_topics
        _PARSED[digest] = reader(path)
    parsed = _PARSED[digest]
    if cls is TranslationTable:
        expected: dict = {}
        for t, w, p in zip(np.repeat(value._rows, np.diff(value._offsets)).tolist(),
                           value._target.tolist(), value._prob.tolist()):
            expected.setdefault(t, {})[w] = p
    else:
        expected = {"K": value.phi.shape[0], "V": value.vocab_size,
                    "alpha": value.alpha, "beta": value.beta,
                    "totals": value.topic_totals.tolist(), "phi": value.phi.tolist()}
    assert parsed == expected


def raises_naming_the_image(path, *words):
    """pytest.raises for a ValueError that starts with the image's path and
    then holds `words` in order."""
    return pytest.raises(ValueError, match="^" + ".*".join(
        re.escape(w) for w in (f"{image_path(path)}: ", *words)))


def test_a_stale_image_loads_the_text(saved, tmp_path):
    cls, path, value = saved
    # another model's text written over this one's, as by an edit after save
    other = tmp_path / "other" / path.name
    other.parent.mkdir()
    OTHER[cls].save(other)
    shutil.copyfile(other, path)
    with raises_naming_the_image(path, "digest", str(path)):
        cls.load(path)
    assert_the_text_loads(path, OTHER[cls])


def _cut_points(size: int) -> list[int]:
    return sorted({0, 1, 8, 60, 128, size // 2, size - 9, size - 1})


def test_a_cut_image_loads_the_text(saved):
    cls, path, value = saved
    image = image_path(path).read_bytes()
    for cut in _cut_points(len(image)):
        image_path(path).write_bytes(image[:cut])
        with raises_naming_the_image(path):
            cls.load(path)
    assert_the_text_loads(path, value)


def test_an_image_with_data_after_its_arrays_loads_the_text(saved):
    cls, path, value = saved
    with open(image_path(path), "ab") as f:
        np.save(f, np.zeros(1))
    with raises_naming_the_image(path, "after the last array"):
        cls.load(path)
    assert_the_text_loads(path, value)


def _image_arrays(cls, value) -> list[np.ndarray]:
    """The arrays save writes after the digest."""
    if cls is TranslationTable:
        return [np.repeat(value._rows, np.diff(value._offsets)), value._target,
                value._prob]
    return [np.array([value.alpha, value.beta]),
            np.array([value.seed, value.iterations, value.vocab_size]),
            value.topic_totals.astype(np.int64), value.phi.copy()]


def _huge_header(arrays):
    """The first array's bytes with a header that claims 10**12 entries, as
    many as no memory holds."""
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {**np.lib.format.header_data_from_array_1_0(arrays[0]),
                 "shape": (10**12,)})
    return [header.getvalue() + arrays[0].tobytes(), *arrays[1:]]


# each a change to the arrays of a digest-matching image that the image's
# reader refuses; a bytes entry is written as it is
UNREADABLE = {
    "pickled": lambda arrays: [np.array([object()] * len(arrays[0]), dtype=object),
                               *arrays[1:]],
    "wrong dtype": lambda arrays: [arrays[0].astype(np.int32), *arrays[1:]],
    "float32": lambda arrays: [*arrays[:-1], arrays[-1].astype(np.float32)],
    "big-endian": lambda arrays: [arrays[0].astype(arrays[0].dtype.newbyteorder(">")),
                                  *arrays[1:]],
    "wrong ndim": lambda arrays: [arrays[0][None, :], *arrays[1:]],
    "an array short": lambda arrays: arrays[:-1],
    "a huge header": _huge_header,
}


def _write_image(path, arrays) -> None:
    """An image of `arrays` with the digest of the text at `path`, written
    allowing pickles."""
    digest = hashlib.sha256(path.read_bytes()).digest()
    with open(image_path(path), "wb") as f:
        for array in (np.frombuffer(digest, dtype=np.uint8), *arrays):
            if isinstance(array, bytes):
                f.write(array)
            else:
                np.save(f, array, allow_pickle=True)


@pytest.mark.parametrize("change", UNREADABLE)
def test_an_unreadable_image_loads_the_text(saved, change):
    cls, path, value = saved
    _write_image(path, UNREADABLE[change](_image_arrays(cls, value)))
    with raises_naming_the_image(path):
        cls.load(path)
    assert_the_text_loads(path, value)


def test_a_phi_not_in_c_order_loads_the_text(models, tmp_path):
    # a 1 x 1 phi is in both orders
    models = [(name, table, model) for name, table, model in models
              if model.phi.shape != (1, 1)]
    assert models
    for name, _, model in models:
        path = tmp_path / f"{name}.txt"
        model.save(path)
        arrays = _image_arrays(TopicModel, model)
        _write_image(path, [*arrays[:-1], np.asfortranarray(arrays[-1])])
        with raises_naming_the_image(path, "Fortran order"):
            TopicModel.load(path)
        assert_the_text_loads(path, model)


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


def _id_past_the_limit(ids):
    ids[0] = 2**31


def _zero_entry(phi):
    """phi[0, 0] set to 0, its mass moved to the next entry of its row, so
    only the entry breaks the row (a 1-entry row loses its sum too)."""
    if phi.shape[1] > 1:
        phi[0, 1] += phi[0, 0]
    phi[0, 0] = 0.0


# changes to a digest-matching image's arrays that load's checks reject
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
    "an id past 2**31 - 1 or a zero phi entry": {
        TranslationTable: lambda a: _edited(a, 1, _id_past_the_limit),
        TopicModel: lambda a: _edited(a, 3, _zero_entry)},
}


@pytest.mark.parametrize("change", FAILING)
def test_an_image_failing_a_check_loads_the_text(saved, change):
    cls, path, value = saved
    save_image(path, FAILING[change][cls](_image_arrays(cls, value)))
    with raises_naming_the_image(path):
        cls.load(path)
    assert_the_text_loads(path, value)


def test_a_text_without_an_image_loads_as_before(saved):
    cls, path, value = saved
    image_path(path).unlink()
    with raises_naming_the_image(path, "cannot read the model image"):
        cls.load(path)
    assert_the_text_loads(path, value)


def test_an_image_without_its_text_raises(saved):
    cls, path, value = saved
    path.unlink()
    with raises_naming_the_image(path, f"cannot read the text {path}"):
        cls.load(path)
