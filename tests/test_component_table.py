"""The component table against the pair-by-pair reference in
reference_scoring.py: every score, feature row and ranking must be equal
with ==, not merely close."""

import dataclasses
import json

import pytest

import reference_scoring as ref
from cqarank.corpus import load_corpus, load_queries
from cqarank.index import build_index
from cqarank.ltr import LambdaMARTModel
from cqarank.pipeline import (ALL_SYSTEMS, PipelineConfig, ScoringAssets,
                              feature_rows, prepare_query, run_pipeline,
                              system_ranking)
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
