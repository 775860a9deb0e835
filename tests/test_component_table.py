"""The component table against the pair-by-pair reference in
reference_scoring.py: every score, feature row and ranking must be equal
with ==, not merely close."""

import dataclasses
import json
from functools import cached_property

import numpy as np
import pytest

import cqarank.pipeline as pipeline
import reference_scoring as ref
from cqarank.corpus import (CollectionStats, doc_distribution, load_corpus,
                            load_queries)
from cqarank.index import build_index
from cqarank.ltr import LambdaMARTModel
from cqarank.pipeline import (ALL_SYSTEMS, PipelineConfig, ScoringAssets,
                              feature_rows, prepare_query, rank_queries,
                              run_pipeline, system_ranking)
from cqarank.relevance import ComponentTable, PairTerms, smoothing_lambda
from cqarank.synth import SynthSpec, write_synth
from cqarank.topics import TopicModel
from cqarank.translation import TranslationTable

EMPTY_ANSWER_ID = "empty-answer"


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    """A trained synth archive with one empty-answer pair, plus queries
    holding out-of-vocabulary words and a repeated term."""
    root = tmp_path_factory.mktemp("table")
    data = write_synth(SynthSpec(size=40, topics=3, seed=4, queries=10),
                       root / "data")
    first = json.loads(data["queries"].read_text().splitlines()[0])
    words = first["text"].split()
    with open(data["qa"], "a", encoding="utf-8") as f:
        f.write(json.dumps({"id": EMPTY_ANSWER_ID, "question": " ".join(words),
                            "answer": "", "asker": "u0", "answerer": "u1"}) + "\n")
    # 20 topics: a topic dot product summed in another order shows in the
    # last bit at this length, and not at 3
    cfg = PipelineConfig(
        qa_path=str(data["qa"]), users_path=str(data["users"]),
        queries_path=str(data["queries"]), qrels_path=str(data["qrels"]),
        outdir=str(root / "out"), topics=20, gibbs_iters=30, em_iters=4,
        top_k=30, burn_in=5, samples=3, trees=6, min_leaf=5, seed=1,
        split_seed=2)
    run_pipeline(cfg)
    extra = root / "extra.jsonl"
    extra.write_text("".join(json.dumps(q) + "\n" for q in [
        {"id": "oov", "text": f"{words[0]} zzunseen {words[-1]} zzother"},
        {"id": "repeat", "text": f"{words[0]} {words[0]} {words[-1]} {words[0]}"},
        {"id": "only-oov", "text": "zzunseen zzother"},
    ]))
    return cfg, data, extra


def _assets(cfg, rescale):
    out = cfg.outdir
    corpus = load_corpus(f"{out}/corpus.json")
    return ScoringAssets(
        corpus=corpus, index=build_index(corpus, cfg.field),
        table=TranslationTable.load(f"{out}/translation.tsv"),
        model=TopicModel.load(f"{out}/topics.txt"),
        cfg=dataclasses.replace(cfg, rescale_weights=rescale),
        ranker=LambdaMARTModel.load(f"{out}/ranker.txt"))


@pytest.mark.parametrize("rescale", [False, True])
def test_table_equals_pair_by_pair_reference(archive, rescale):
    cfg, data, extra = archive
    assets = _assets(cfg, rescale)
    queries = (load_queries(data["queries"], assets.corpus.vocabulary)
               + load_queries(extra, assets.corpus.vocabulary))
    seen_empty_answer = False
    scored_queries = 0
    for query in queries:
        prepared = prepare_query(assets, query)
        if not prepared.candidates:
            assert all(system_ranking(s, assets, prepared) == [] for s in ALL_SYSTEMS)
            continue
        scored_queries += 1
        seen_empty_answer |= any(c.qa_id == EMPTY_ANSWER_ID
                                 for c in prepared.candidates)
        got_rows = [(r.doc_id, r.features)
                    for r in feature_rows(assets, prepared, None)]
        assert got_rows == ref.feature_rows(assets, prepared)
        for system in ALL_SYSTEMS:
            want = ref.system_ranking(system, assets, prepared)
            assert system_ranking(system, assets, prepared) == want, system
    assert seen_empty_answer
    assert scored_queries == len(queries) - 1  # only "only-oov" finds nothing


def test_unknown_system_rejected(archive):
    cfg, data, _ = archive
    assets = _assets(cfg, False)
    query = load_queries(data["queries"], assets.corpus.vocabulary)[0]
    with pytest.raises(ValueError, match="unknown system"):
        system_ranking("bm26", assets, prepare_query(assets, query))


def _all_queries(data, extra, assets):
    return (load_queries(data["queries"], assets.corpus.vocabulary)
            + load_queries(extra, assets.corpus.vocabulary))


def test_prepared_query_does_not_depend_on_query_order(archive):
    """Fold-in reseeds the assets' one generator per query, so theta and the
    term weights are those of a query prepared first, also right after an
    OOV-only query's fallback."""
    cfg, data, extra = archive
    assets = _assets(cfg, False)
    queries = _all_queries(data, extra, assets)
    only_oov = next(q for q in queries if q.id == "only-oov")
    alone = {}
    for query in queries:
        prepared = prepare_query(_assets(cfg, False), query)
        alone[query.id] = (prepared.theta.theta.tolist(), prepared.weights)
    assert prepare_query(assets, only_oov).theta.oov_fallback
    for order in (queries, queries[::-1]):
        for query in order:
            prepared = prepare_query(assets, query)
            assert (prepared.theta.theta.tolist(), prepared.weights) == alone[query.id]
            prepare_query(assets, only_oov)


def test_store_equals_the_per_pair_definitions(archive):
    """The store holds, in index order, each pair's doc_distribution, its
    smoothing lambdas and its phi-weighted question distribution, added
    term by term, all equal with ==."""
    cfg, _, _ = archive
    assets = _assets(cfg, False)
    store = assets.term_store
    model = assets.model
    assert len(store.lam_q) == len(assets.index.doc_ids) == len(assets.corpus.pairs)
    for d, qa_id in enumerate(assets.index.doc_ids):
        qa = assets.corpus.pair(qa_id)
        for got, tokens in ((store.question([d]), qa.question_tokens),
                            (store.answer([d]), qa.answer_tokens)):
            terms, probs, owner = got
            assert list(zip(terms.tolist(), probs.tolist())) == list(
                doc_distribution(tokens).items())
            assert owner.tolist() == [0] * len(terms)
        assert store.lam_q[d] == smoothing_lambda(len(qa.question_tokens))
        assert store.lam_a[d] == smoothing_lambda(len(qa.answer_tokens))
        phi_q = np.zeros(model.num_topics, dtype=np.float64)
        for t, p_t in doc_distribution(qa.question_tokens).items():
            phi_q += model.phi_column(t) * p_t
        assert store.phi_q[d].tolist() == phi_q.tolist()
    empty = assets.index.pair_of[EMPTY_ANSWER_ID]
    assert store.answer([empty])[0].size == 0 and store.lam_a[empty] == 1.0


def test_gathers_keep_candidate_order(archive):
    """A repeated pair number is gathered once per place it holds, and an
    empty gather is empty."""
    cfg, _, _ = archive
    assets = _assets(cfg, False)
    store = assets.term_store
    empty = assets.index.pair_of[EMPTY_ANSWER_ID]
    rows = [3, empty, 0, 3]
    for side, gather in (("question_tokens", store.question),
                         ("answer_tokens", store.answer)):
        dists = [doc_distribution(getattr(assets.corpus.pair(
            assets.index.doc_ids[d]), side)) for d in rows]
        terms, probs, owner = gather(rows)
        assert list(zip(terms.tolist(), probs.tolist(), owner.tolist())) == [
            (t, p, c) for c, dist in enumerate(dists) for t, p in dist.items()]
        terms, probs, owner = gather([])
        assert terms.size == probs.size == owner.size == 0
        assert terms.dtype == np.int64 and probs.dtype == np.float64


def _left_to_right_topic(u_w, phi_q):
    total = 0.0
    for a, b in zip(u_w.tolist(), phi_q.tolist()):
        total += a * b
    return total


@pytest.mark.parametrize("num_topics", [1, 6, 20, 50])
@pytest.mark.parametrize("num_candidates", [1, 40])
def test_topic_entries_add_topics_left_to_right(num_topics, num_candidates):
    """Each topic entry is sum_i tau_i phi_i(w) phi_q_i added in topic index
    order, whatever the number of topics and candidates."""
    rng = np.random.RandomState(num_topics * 100 + num_candidates)
    vocab = 30
    phi = rng.gamma(0.3, size=(num_topics, vocab))
    phi /= phi.sum(axis=1, keepdims=True)
    model = TopicModel(phi=phi, topic_totals=np.full(num_topics, 50), alpha=0.5,
                       beta=0.01, vocab_size=vocab, iterations=1, seed=0)
    questions = [rng.randint(0, vocab, size=rng.randint(1, 9)).tolist()
                 for _ in range(num_candidates)]
    pairs = PairTerms.build(questions, [()] * num_candidates, model)
    query = [3, 7, 3, 29, 31]  # a repeated word and one outside the model
    theta = rng.dirichlet(np.ones(num_topics))
    stats = CollectionStats({w: 1 for w in range(32)})
    table = ComponentTable(query, pairs, range(num_candidates), stats,
                           model=model, theta=theta)
    for got, tau in ((table.topic, theta), (table.topic_flat, np.ones(num_topics))):
        want = [[_left_to_right_topic(tau * model.phi_column(w), phi_q)
                 for phi_q in pairs.phi_q] for w in table.words]
        assert got.tolist() == want


def _count_components(monkeypatch):
    """Counts, per ComponentTable component, how often it is computed."""
    calls = {}
    for name in ("_question", "exact", "answer", "trans", "topic", "topic_flat",
                 "weight"):
        def counted(self, _name=name, _compute=ComponentTable.__dict__[name].func):
            calls[_name] = calls.get(_name, 0) + 1
            return _compute(self)
        memo = cached_property(counted)
        memo.__set_name__(ComponentTable, name)
        monkeypatch.setattr(ComponentTable, name, memo)
    return calls


def test_rank_queries_builds_one_table_per_query(archive, monkeypatch):
    cfg, data, extra = archive
    assets = _assets(cfg, False)
    queries = _all_queries(data, extra, assets)
    built = []

    class CountedTable(ComponentTable):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(pipeline, "ComponentTable", CountedTable)
    calls = _count_components(monkeypatch)
    runs = rank_queries(assets, [prepare_query(assets, q) for q in queries],
                        ALL_SYSTEMS)
    answered = len(runs["bm25"].queries())
    assert answered == len(queries) - 1  # only "only-oov" finds nothing
    assert len(built) == answered
    # every system but vsm and bm25 reads the table; together they need
    # every component, each computed once per table
    assert calls == dict.fromkeys(calls, answered) and len(calls) == 7


def test_scorers_share_each_component(archive, monkeypatch):
    cfg, data, _ = archive
    assets = _assets(cfg, True)
    query = load_queries(data["queries"], assets.corpus.vocabulary)[0]
    calls = _count_components(monkeypatch)
    prepared = prepare_query(assets, query)
    for system in ALL_SYSTEMS + ALL_SYSTEMS:
        system_ranking(system, assets, prepared)
    feature_rows(assets, prepared, None)
    assert calls == dict.fromkeys(calls, 1) and len(calls) == 7
    # another prepared query, even of the same query, gets its own table
    system_ranking("t2lm", assets, prepare_query(assets, query))
    assert calls["trans"] == 2
