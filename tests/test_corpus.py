import json
import random
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cqarank.corpus import (doc_distribution, image_path, ingest_corpus,
                            load_corpus, load_queries, save_corpus, tokenize)
from cqarank.evaluation import RankedRun, read_qrels, read_run, write_run
from cqarank.ltr import RankingInstance, read_letor, write_letor
from cqarank.topics import TopicModel
from cqarank.translation import TranslationTable
from conftest import build_corpus, write_jsonl


def _rec(pid, q, a, asker="u1", answerer="u2"):
    return {"id": pid, "question": q, "answer": a, "asker": asker,
            "answerer": answerer}


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("How Much") == ["how", "much"]

    def test_empty(self):
        assert tokenize("") == []

    def test_whitespace_collapsing(self):
        assert tokenize("a  b\tc") == ["a", "b", "c"]

    def test_pretokenized_is_verbatim(self):
        assert tokenize("Hello World", "pretokenized") == ["Hello", "World"]

    def test_idempotent_on_single_space_text(self):
        tokens = tokenize("already tokenized text")
        assert tokenize(" ".join(tokens)) == tokens
        assert tokenize(" ".join(tokens), "pretokenized") == tokens

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            tokenize("x", "bogus")


class TestIngest:
    def test_counts_two_pairs(self, qa_file):
        path = qa_file([_rec("p1", "a b", "c"), _rec("p2", "a", "b")])
        corpus = ingest_corpus(path)
        assert len(corpus.vocabulary) == 3
        # 2 + 1 + 1 + 1 tokens over both fields
        assert corpus.stats.total_tokens == 5
        assert sum(corpus.stats.frequencies.values()) == corpus.stats.total_tokens

    def test_empty_file(self, qa_file):
        path = qa_file([])
        with pytest.raises(ValueError, match="empty corpus"):
            ingest_corpus(path)

    def test_unknown_answerer_defaults_to_zero(self, qa_file):
        path = qa_file([_rec("p1", "a", "b", answerer="ghost")])
        corpus = ingest_corpus(path)
        assert corpus.best_answer_count("ghost") == 0

    def test_malformed_line_names_line_number(self, qa_file, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(_rec("p1", "a", "b")) + "\nnot json\n")
        with pytest.raises(ValueError, match="line 2"):
            ingest_corpus(path)

    @pytest.mark.parametrize("bad", ["not json", "[1, 2]",
                                     json.dumps({"id": "p2", "question": "a"}),
                                     json.dumps(_rec("p2", "", "b")),
                                     json.dumps(_rec("p1", "c", "d")),
                                     # unreadable from a run file
                                     json.dumps(_rec("p 2", "c", "d")),
                                     json.dumps(_rec("", "c", "d"))])
    def test_bad_qa_line_names_path_and_line(self, tmp_path, bad):
        path = tmp_path / "qa.jsonl"
        path.write_text(json.dumps(_rec("p1", "a", "b")) + f"\n\n{bad}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: ")):
            ingest_corpus(path)

    @pytest.mark.parametrize("field, value", [
        ("question", 5), ("answer", ["b"]), ("question_tokens", 5),
        ("question_tokens", "rice"), ("answer_tokens", [["a"]]),
        ("answer_tokens", [True]), ("answer_tokens", {"a": 1})])
    def test_wrong_typed_field_names_path_and_line(self, tmp_path, field, value):
        rec = _rec("p2", "a", "b")
        rec[field] = value
        path = tmp_path / "qa.jsonl"
        path.write_text(json.dumps(_rec("p1", "a", "b")) + f"\n{json.dumps(rec)}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: {field!r} must be")):
            ingest_corpus(path)

    def test_numeric_tokens_become_strings(self, qa_file):
        rec = _rec("p1", "ignored", "ignored")
        rec["question_tokens"] = [7, 2.5, "x"]
        corpus = ingest_corpus(qa_file([rec]))
        assert corpus.vocabulary.tokens()[:3] == ["7", "2.5", "x"]

    @pytest.mark.parametrize("bad", ["{", '{"user": "u9"}',
                                     '{"user": "u9", "best_answers": -1}',
                                     '{"user": "u1", "best_answers": 2}'])
    def test_bad_users_line_names_path_and_line(self, qa_file, tmp_path, bad):
        users = tmp_path / "users.jsonl"
        users.write_text(f'{{"user": "u1", "best_answers": 1}}\n{bad}\n')
        with pytest.raises(ValueError, match=re.escape(f"{users}: line 2: ")):
            ingest_corpus(qa_file([_rec("p1", "a", "b")]), users)

    def test_empty_corpus_names_path(self, qa_file):
        path = qa_file([])
        with pytest.raises(ValueError, match=re.escape(f"{path}: empty corpus")):
            ingest_corpus(path)

    def test_duplicate_id(self, qa_file):
        path = qa_file([_rec("p1", "a", "b"), _rec("p1", "c", "d")])
        with pytest.raises(ValueError, match="duplicate pair id"):
            ingest_corpus(path)

    def test_empty_question_rejected(self, qa_file):
        path = qa_file([_rec("p1", "", "b")])
        with pytest.raises(ValueError, match="empty question"):
            ingest_corpus(path)

    def test_token_arrays_override_text(self, qa_file):
        rec = _rec("p1", "ignored text", "also ignored")
        rec["question_tokens"] = ["X", "Y"]
        rec["answer_tokens"] = ["Z"]
        corpus = ingest_corpus(qa_file([rec]))
        vocab = corpus.vocabulary
        assert vocab.tokens() == ["X", "Y", "Z"]

    def test_users_file(self, qa_file, tmp_path):
        qa = qa_file([_rec("p1", "a", "b", asker="ann", answerer="bob")])
        users = write_jsonl(tmp_path / "users.jsonl",
                            [{"user": "bob", "best_answers": 100}])
        corpus = ingest_corpus(qa, users)
        assert corpus.best_answer_count("bob") == 100
        assert corpus.best_answer_count("ann") == 0

    def test_stopword_filtering_is_flag_controlled(self, qa_file):
        path = qa_file([_rec("p1", "the cat", "the mat")])
        plain = ingest_corpus(path)
        assert plain.stats.total_tokens == 4
        filtered = ingest_corpus(path, stopwords={"the"})
        assert filtered.stats.total_tokens == 2

    def test_order_insensitive_statistics(self, qa_file):
        records = [_rec(f"p{i}", f"a b w{i}", f"c w{i} w{i}") for i in range(6)]
        corpus_a = ingest_corpus(qa_file(records, "fwd.jsonl"))
        corpus_b = ingest_corpus(qa_file(records[::-1], "rev.jsonl"))
        tokens_a = corpus_a.vocabulary.tokens()
        tokens_b = corpus_b.vocabulary.tokens()
        by_token_a = {tokens_a[t]: c for t, c in corpus_a.stats.frequencies.items()}
        by_token_b = {tokens_b[t]: c for t, c in corpus_b.stats.frequencies.items()}
        assert by_token_a == by_token_b
        assert corpus_a.stats.total_tokens == corpus_b.stats.total_tokens


class TestProbabilities:
    """P_ml(w|doc) through doc_distribution, P_ml(w|C) through
    CollectionStats.prob."""

    def test_ml_prob_direct_count(self):
        assert doc_distribution([0, 1, 0])[0] == pytest.approx(2 / 3)

    def test_ml_prob_absent(self):
        assert 9 not in doc_distribution([0, 1])

    def test_ml_prob_single(self):
        assert doc_distribution([0]) == {0: 1.0}

    def test_ml_prob_empty_doc(self):
        # an empty side (say, a missing answer) has no terms to weigh
        assert doc_distribution([]) == {}

    def test_ml_prob_sums_to_one(self):
        rng = random.Random(42)
        for _ in range(20):
            doc = [rng.randrange(7) for _ in range(rng.randint(1, 40))]
            total = sum(doc_distribution(doc).values())
            assert abs(total - 1.0) < 1e-12

    def test_collection_prob_direct(self, qa_file):
        corpus = ingest_corpus(qa_file([_rec("p1", "a a", "b")]))
        a_id = corpus.vocabulary.tokens().index("a")
        assert corpus.stats.prob(a_id) == pytest.approx(2 / 3)

    def test_collection_prob_unseen_floor(self, qa_file):
        corpus = ingest_corpus(qa_file([_rec("p1", "a a", "b")]))
        assert corpus.stats.prob(999) == pytest.approx(1 / 30)

    def test_collection_prob_sums_to_one(self, qa_file):
        records = [_rec(f"p{i}", f"w{i} w{i % 3} shared", "x y") for i in range(8)]
        corpus = ingest_corpus(qa_file(records))
        total = sum(corpus.stats.prob(t) for t in range(len(corpus.vocabulary)))
        assert abs(total - 1.0) < 1e-9

    def test_doc_distribution_preserves_first_occurrence_order(self):
        dist = doc_distribution([3, 1, 3, 2])
        assert list(dist.keys()) == [3, 1, 2]
        assert dist[3] == pytest.approx(0.5)


class TestArtifacts:
    def test_corpus_round_trip(self, qa_file, tmp_path):
        qa = qa_file([_rec("p1", "a b", "c d d"), _rec("p2", "b", "")])
        users = write_jsonl(tmp_path / "users.jsonl",
                            [{"user": "u2", "best_answers": 9}])
        corpus = ingest_corpus(qa, users)
        out = tmp_path / "corpus.json"
        save_corpus(corpus, out)
        loaded = load_corpus(out)
        assert [p.id for p in loaded.pairs] == ["p1", "p2"]
        assert loaded.pair("p1").question_tokens == corpus.pair("p1").question_tokens
        assert loaded.stats.frequencies == corpus.stats.frequencies
        assert loaded.best_answer_count("u2") == 9

    @pytest.mark.parametrize("key", ["vocabulary", "frequencies", "pairs", "users"])
    def test_corpus_missing_key_names_path(self, qa_file, tmp_path, key):
        out = tmp_path / "corpus.json"
        save_corpus(ingest_corpus(qa_file([_rec("p1", "a b", "c")])), out)
        payload = json.loads(out.read_text())
        del payload[key]
        out.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"corpus.json: missing key '{key}'"):
            load_corpus(out)

    def test_edited_frequency_names_path(self, qa_file, tmp_path):
        """A frequency that is not its token's count in the pairs would move
        P(w|C), and with it every smoothed score."""
        out = tmp_path / "corpus.json"
        save_corpus(ingest_corpus(qa_file([_rec("p1", "a b", "c a")])), out)
        payload = json.loads(out.read_text())
        payload["frequencies"][0] += 1000
        out.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(
                f"{out}: malformed corpus: frequencies differ from the token counts")):
            load_corpus(out)

    def test_corpus_not_json_names_path(self, tmp_path):
        out = tmp_path / "corpus.json"
        out.write_text('{"format": "cqarank-corpus-v1", "voc')
        with pytest.raises(ValueError, match="corpus.json"):
            load_corpus(out)

    def test_load_queries_interns_new_words(self, qa_file, tmp_path):
        corpus = ingest_corpus(qa_file([_rec("p1", "a b", "c")]))
        v_before = len(corpus.vocabulary)
        qpath = write_jsonl(tmp_path / "queries.jsonl",
                            [{"id": "q1", "text": "a zzz"}])
        queries = load_queries(qpath, corpus.vocabulary)
        assert len(queries) == 1
        assert len(corpus.vocabulary) == v_before + 1
        assert queries[0].tokens[0] == corpus.vocabulary.tokens().index("a")

    def test_load_queries_rejects_empty(self, tmp_path, qa_file):
        corpus = ingest_corpus(qa_file([_rec("p1", "a", "b")]))
        qpath = write_jsonl(tmp_path / "queries.jsonl", [{"id": "q1", "text": ""}])
        with pytest.raises(ValueError, match="line 1"):
            load_queries(qpath, corpus.vocabulary)

    @pytest.mark.parametrize("bad", ["oops", "7", '{"text": "a"}', '{"id": "q2"}',
                                     '{"id": "q2", "text": ""}',
                                     '{"id": "q1", "text": "a"}',
                                     # unreadable from a run or LETOR file
                                     '{"id": "q\\t2", "text": "a"}',
                                     '{"id": "q#2", "text": "a"}',
                                     '{"id": "", "text": "a"}'])
    def test_bad_query_line_names_path_and_line(self, tmp_path, qa_file, bad):
        corpus = ingest_corpus(qa_file([_rec("p1", "a", "b")]))
        qpath = tmp_path / "queries.jsonl"
        qpath.write_text(f'{{"id": "q1", "text": "a"}}\n{bad}\n')
        with pytest.raises(ValueError, match=re.escape(f"{qpath}: line 2: ")):
            load_queries(qpath, corpus.vocabulary)

    @pytest.mark.parametrize("bad, field", [
        ('{"id": "q2", "tokens": 5}', "tokens"),
        ('{"id": "q2", "tokens": "rice"}', "tokens"),
        ('{"id": "q2", "tokens": [["a"]]}', "tokens"),
        ('{"id": "q2", "tokens": [null]}', "tokens"),
        ('{"id": "q2", "text": 5}', "text"),
        ('{"id": "q2", "text": null}', "text")])
    def test_wrong_typed_query_field_names_path_and_line(self, tmp_path, qa_file,
                                                         bad, field):
        corpus = ingest_corpus(qa_file([_rec("p1", "a", "b")]))
        qpath = tmp_path / "queries.jsonl"
        qpath.write_text(f'{{"id": "q1", "tokens": ["a", 3]}}\n{bad}\n')
        with pytest.raises(ValueError,
                           match=re.escape(f"{qpath}: line 2: {field!r} must be")):
            load_queries(qpath, corpus.vocabulary)


_USERS = ("u1", "u2", "ü3")


@st.composite
def _corpora(draw):
    """A corpus of 1-4 pairs over a small vocabulary, with any pair ids."""
    ids = draw(st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True))
    words = st.lists(st.sampled_from(["a", "bb", "c", "dé", "e"]), max_size=4)
    specs = [(qa_id, " ".join(draw(words) or ["a"]), " ".join(draw(words)),
              draw(st.sampled_from(_USERS)), draw(st.sampled_from(_USERS)))
             for qa_id in ids]
    return build_corpus(specs, draw(st.dictionaries(st.sampled_from(_USERS),
                                                    st.integers(0, 50))))


def _set_token(payload, value):
    payload["pairs"][0]["q"][0] = value


# each edit leaves valid JSON that breaks one rule of the format
CORRUPTIONS = {
    "token id past the vocabulary": lambda p: _set_token(p, len(p["vocabulary"])),
    "negative token id": lambda p: _set_token(p, -1),
    "bool token id": lambda p: _set_token(p, False),
    "float token id": lambda p: _set_token(p, 0.0),
    "question as a string": lambda p: p["pairs"][0].update(q="abc"),
    "frequencies cut short": lambda p: p["frequencies"].pop(),
    "negative frequency": lambda p: p["frequencies"].__setitem__(0, -1),
    "frequency off by one": lambda p: p["frequencies"].__setitem__(0, p["frequencies"][0] + 1),
    "repeated vocabulary token": lambda p: p["vocabulary"].append(p["vocabulary"][0]),
    "numeric pair id": lambda p: p["pairs"][0].update(id=7),
    "numeric asker": lambda p: p["pairs"][0].update(asker=1),
    "repeated pair": lambda p: p["pairs"].append(p["pairs"][0]),
    "negative best-answer count": lambda p: p["users"][0].__setitem__(1, -1),
    "numeric user id": lambda p: p["users"][0].__setitem__(0, 3),
    "repeated user": lambda p: p["users"].append(p["users"][0]),
}

_PROPERTY = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


class TestCorpusFileProperties:
    @_PROPERTY
    @given(corpus=_corpora())
    def test_save_load_save_is_byte_identical(self, tmp_path_factory, corpus):
        path = tmp_path_factory.mktemp("rt") / "corpus.json"
        save_corpus(corpus, path)
        saved = path.read_bytes()
        loaded = load_corpus(path)
        assert loaded.pairs == corpus.pairs and loaded.users == corpus.users
        save_corpus(loaded, path)
        assert path.read_bytes() == saved

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(corpus=_corpora())
    def test_every_cut_raises_but_the_final_newline(self, tmp_path_factory, corpus):
        path = tmp_path_factory.mktemp("cut") / "corpus.json"
        save_corpus(corpus, path)
        data = path.read_bytes()
        for cut in range(len(data) - 1):
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
                load_corpus(path)
        path.write_bytes(data[:-1])
        save_corpus(load_corpus(path), path)
        assert path.read_bytes() == data

    @_PROPERTY
    @given(corpus=_corpora(), corruption=st.sampled_from(sorted(CORRUPTIONS)))
    def test_each_corruption_names_the_path(self, tmp_path_factory, corpus, corruption):
        path = tmp_path_factory.mktemp("bad") / "corpus.json"
        save_corpus(corpus, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        CORRUPTIONS[corruption](payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: malformed corpus: ")):
            load_corpus(path)


def _letor(path):
    write_letor([RankingInstance("q1", "d12", (0.5, 1.0), 1),
                 RankingInstance("q1", "d1", (0.25, 0.0), 0)], path)
    return read_letor


def _run(path):
    run = RankedRun(tag="t2lm+")
    run.add_query("q1", [("d1", 0.9), ("d2", 0.5)])
    write_run(run, path)
    return read_run


def _table(path):
    TranslationTable([0, 0, 1], [3, 4, 1], [0.5, 0.5, 1.0]).save(path)
    image_path(path).unlink()
    return TranslationTable.load


def _model(path):
    TopicModel(phi=np.array([[0.5, 0.25, 0.25], [0.2, 0.3, 0.5]]),
               topic_totals=np.array([4, 6]), alpha=0.5, beta=0.01, vocab_size=3,
               iterations=9, seed=0).save(path)
    image_path(path).unlink()
    return TopicModel.load


# each line file the pipeline writes and reads back, the models without
# their images: a writer that returns the file's reader
WRITTEN = {"read_letor": _letor, "read_run": _run,
           "TranslationTable.load": _table, "TopicModel.load": _model}


@pytest.mark.parametrize("reader", WRITTEN)
def test_a_file_cut_inside_its_last_line_names_path_and_line(tmp_path, reader):
    """A cut inside the last line can leave a line that still parses, so
    every such cut raises, at that line."""
    path = tmp_path / "saved.txt"
    read = WRITTEN[reader](path)
    data = path.read_bytes()
    last = data.count(b"\n")
    for cut in range(data.rindex(b"\n", 0, -1) + 2, len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line {last}: last line has no newline; the file is cut short")):
            read(path)


def test_hand_made_input_may_end_without_newline(tmp_path):
    qa = tmp_path / "qa.jsonl"
    qa.write_text(json.dumps(_rec("p1", "a b", "c")))
    users = tmp_path / "users.jsonl"
    users.write_text('{"user": "u2", "best_answers": 3}')
    corpus = ingest_corpus(qa, users)
    assert corpus.best_answer_count("u2") == 3
    queries = tmp_path / "queries.jsonl"
    queries.write_text('{"id": "q1", "text": "a"}')
    assert [q.id for q in load_queries(queries, corpus.vocabulary)] == ["q1"]
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("q1 0 p1 2")
    assert read_qrels(qrels).judged("q1") == {"p1": 2}
