import argparse
import dataclasses
import json
import math
import shutil
from pathlib import Path

import pytest

import cqarank.cli as cli
import cqarank.pipeline as pipeline
from cqarank.cli import build_parser, config_from_args, flag_name, main
from cqarank.corpus import load_corpus, load_queries
from cqarank.evaluation import read_qrels, read_run
from cqarank.index import build_index, retrieve_candidates
from cqarank.ltr import LambdaMARTModel
from cqarank.pipeline import (ALL_SYSTEMS, STAGES, PipelineConfig,
                              PipelineError, ScoringAssets, prepare_query,
                              run_pipeline, system_ranking)
from cqarank.relevance import score_lm, score_tlm
from cqarank.synth import SynthSpec, generate, write_synth
from cqarank.topics import TopicModel
from cqarank.translation import TranslationTable


def small_pipeline_cfg(data, outdir, **overrides) -> PipelineConfig:
    base = dict(
        qa_path=str(data["qa"]), users_path=str(data["users"]),
        queries_path=str(data["queries"]), qrels_path=str(data["qrels"]),
        outdir=str(outdir),
        topics=3, gibbs_iters=40, em_iters=5, top_k=50,
        burn_in=10, samples=5, trees=8, min_leaf=5,
        seed=1, split_seed=2,
    )
    base.update(overrides)
    return PipelineConfig(**base)


@pytest.fixture
def synth_data(tmp_path):
    return write_synth(SynthSpec(size=30, topics=3, seed=4, queries=8),
                       tmp_path / "data")


@pytest.fixture
def stage_runners(monkeypatch):
    """The StageRunner of each run_pipeline call the test makes, in order."""
    runners = []

    class RecordingRunner(pipeline.StageRunner):
        def __init__(self) -> None:
            super().__init__()
            runners.append(self)

    monkeypatch.setattr(pipeline, "StageRunner", RecordingRunner)
    return runners


class TestSynth:
    def test_same_seed_identical(self):
        spec = SynthSpec(size=50, topics=2, seed=9)
        assert generate(spec) == generate(spec)

    def test_different_seed_differs(self):
        a = generate(SynthSpec(size=50, topics=2, seed=9))
        b = generate(SynthSpec(size=50, topics=2, seed=10))
        assert a != b

    def test_vocabulary_partitions_by_topic(self):
        data = generate(SynthSpec(size=100, topics=2, seed=0))
        for line in data["qa"]:
            rec = json.loads(line)
            for token in rec["question"].split() + rec["answer"].split():
                assert token.startswith(("t0", "t1", "common"))

    def test_planted_duplicate_gets_grade_two(self, tmp_path):
        paths = write_synth(SynthSpec(size=40, topics=2, seed=3), tmp_path)
        qrels = read_qrels(paths["qrels"])
        queries = [json.loads(l)["id"]
                   for l in paths["queries"].read_text().splitlines()]
        for qid in queries:
            assert 2 in qrels.judged(qid).values()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(size=5, topics=2, seed=0)
        with pytest.raises(ValueError):
            SynthSpec(size=50, topics=1, seed=0)

    def test_write_files_deterministic(self, tmp_path):
        spec = SynthSpec(size=30, topics=2, seed=1)
        p1 = write_synth(spec, tmp_path / "a")
        p2 = write_synth(spec, tmp_path / "b")
        for key in p1:
            assert p1[key].read_bytes() == p2[key].read_bytes()


class TestSubcommands:
    def test_stagewise_chain(self, synth_data, tmp_path, capsys):
        out = tmp_path / "work"
        out.mkdir()
        corpus = out / "corpus.json"
        assert main(["ingest", "--qa", str(synth_data["qa"]),
                     "--users", str(synth_data["users"]),
                     "--out", str(corpus)]) == 0
        assert main(["train-tm", "--corpus", str(corpus), "--em-iters", "5",
                     "--out", str(out / "tm.tsv")]) == 0
        assert main(["train-lda", "--corpus", str(corpus), "--topics", "3",
                     "--gibbs-iters", "30", "--out", str(out / "lda.txt")]) == 0
        assert main(["features", "--corpus", str(corpus),
                     "--translation", str(out / "tm.tsv"),
                     "--topics-model", str(out / "lda.txt"),
                     "--queries", str(synth_data["queries"]),
                     "--qrels", str(synth_data["qrels"]),
                     "--top-k", "30", "--burn-in", "10", "--samples", "5",
                     "--out", str(out / "all.letor")]) == 0
        assert main(["train-ranker", "--letor", str(out / "all.letor"),
                     "--trees", "8", "--min-leaf", "5",
                     "--out", str(out / "ranker.txt")]) == 0
        assert main(["rank", "--corpus", str(corpus),
                     "--queries", str(synth_data["queries"]),
                     "--method", "t2lm+",
                     "--translation", str(out / "tm.tsv"),
                     "--topics-model", str(out / "lda.txt"),
                     "--top-k", "30", "--burn-in", "10", "--samples", "5",
                     "--out", str(out / "run.txt")]) == 0
        assert main(["evaluate", "--run", str(out / "run.txt"),
                     "--qrels", str(synth_data["qrels"])]) == 0
        captured = capsys.readouterr()
        assert "MAP@10" in captured.out

    def test_stage_commands_reproduce_pipeline_artifacts(self, synth_data, tmp_path):
        """A stage command given the pipeline's options writes the same bytes
        as that pipeline stage."""
        stopwords = tmp_path / "stop.txt"
        stopwords.write_text("common0\ncommon1\n")
        exp = tmp_path / "exp"
        run_pipeline(small_pipeline_cfg(synth_data, exp,
                                         stopwords_path=str(stopwords)))
        out = tmp_path / "stages"
        out.mkdir()
        corpus = str(out / "corpus.json")
        assert main(["ingest", "--qa", str(synth_data["qa"]),
                     "--users", str(synth_data["users"]),
                     "--stopwords", str(stopwords), "--out", corpus]) == 0
        assert main(["train-tm", "--corpus", corpus, "--em-iters", "5",
                     "--out", str(out / "translation.tsv")]) == 0
        assert main(["train-lda", "--corpus", corpus, "--topics", "3",
                     "--gibbs-iters", "40", "--seed", "1",
                     "--out", str(out / "topics.txt")]) == 0
        assert main(["train-ranker", "--letor", str(exp / "train.letor"),
                     "--trees", "8", "--min-leaf", "5", "--seed", "1",
                     "--out", str(out / "ranker.txt")]) == 0
        for name in ("corpus.json", "translation.tsv", "topics.txt", "ranker.txt"):
            assert (out / name).read_bytes() == (exp / name).read_bytes(), name

    def test_rank_loads_only_the_models_its_method_reads(self, synth_data,
                                                         tmp_path, monkeypatch):
        """A model file the method does not read is not loaded, so it adds no
        fold-in and leaves the run file as it is."""
        corpus = tmp_path / "corpus.json"
        main(["ingest", "--qa", str(synth_data["qa"]), "--out", str(corpus)])
        args = ["rank", "--corpus", str(corpus), "--method", "bm25",
                "--queries", str(synth_data["queries"])]
        assert main(args + ["--out", str(tmp_path / "plain.txt")]) == 0

        def forbidden(*args, **kwargs):
            raise AssertionError("bm25 loaded a topic model")

        monkeypatch.setattr(TopicModel, "load", forbidden)
        assert main(args + ["--topics-model", "x",
                            "--out", str(tmp_path / "given.txt")]) == 0
        assert ((tmp_path / "given.txt").read_bytes()
                == (tmp_path / "plain.txt").read_bytes())

    def test_rank_with_truncated_ranker_fails_cleanly(self, synth_data, tmp_path,
                                                      capsys):
        out = tmp_path / "w"
        out.mkdir()
        corpus = out / "corpus.json"
        main(["ingest", "--qa", str(synth_data["qa"]), "--out", str(corpus)])
        main(["train-tm", "--corpus", str(corpus), "--em-iters", "3",
              "--out", str(out / "tm.tsv")])
        main(["train-lda", "--corpus", str(corpus), "--topics", "2",
              "--gibbs-iters", "10", "--out", str(out / "lda.txt")])
        ranker = out / "rk.txt"
        ranker.write_text("cqarank-lambdamart-v1\nfeature_count 6\nshrinka")
        capsys.readouterr()
        assert main(["rank", "--corpus", str(corpus),
                     "--queries", str(synth_data["queries"]), "--method", "t2lm+5",
                     "--translation", str(out / "tm.tsv"),
                     "--topics-model", str(out / "lda.txt"),
                     "--ranker", str(ranker), "--out", str(out / "r.txt")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {ranker}: line 3: ")

    @pytest.mark.parametrize("record", ['{"id": "q1", "tokens": 5}',
                                        '{"id": "q1", "text": 5}',
                                        '{"id": "q1", "tokens": "rice"}'])
    def test_rank_wrong_typed_query_fails_cleanly(self, synth_data, tmp_path,
                                                  capsys, record):
        corpus = tmp_path / "corpus.json"
        main(["ingest", "--qa", str(synth_data["qa"]), "--out", str(corpus)])
        queries = tmp_path / "q.jsonl"
        queries.write_text(record + "\n")
        capsys.readouterr()
        assert main(["rank", "--corpus", str(corpus), "--queries", str(queries),
                     "--method", "bm25", "--out", str(tmp_path / "r.txt")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {queries}: line 1: ")

    def test_rank_with_cut_translation_table_fails_cleanly(self, synth_data,
                                                          tmp_path, capsys):
        corpus = tmp_path / "corpus.json"
        table = tmp_path / "tm.tsv"
        main(["ingest", "--qa", str(synth_data["qa"]), "--out", str(corpus)])
        main(["train-tm", "--corpus", str(corpus), "--em-iters", "3",
              "--out", str(table)])
        lines = table.read_text().splitlines(keepends=True)
        table.write_text("".join(lines[:-1]))  # the last row loses an entry
        capsys.readouterr()
        assert main(["rank", "--corpus", str(corpus),
                     "--queries", str(synth_data["queries"]), "--method", "tlm",
                     "--translation", str(table), "--out", str(tmp_path / "r.txt")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {table}: source ")

    def test_rank_method_validation(self, synth_data, tmp_path, capsys):
        """Every method, run without one model it needs, exits 1 naming that
        model's flag, and runs given only the models it needs."""
        exp = tmp_path / "exp"
        run_pipeline(small_pipeline_cfg(synth_data, exp))
        models = {"--translation": exp / "translation.tsv",
                  "--topics-model": exp / "topics.txt",
                  "--ranker": exp / "ranker.txt"}
        needs = {"vsm": (), "bm25": (), "lm": (), "tlm": ("--translation",),
                 "t2lm": ("--translation", "--topics-model"),
                 "t2lm+": ("--translation", "--topics-model"),
                 "t2lm+5": ("--translation", "--topics-model", "--ranker")}
        assert set(needs) == set(ALL_SYSTEMS)
        run = tmp_path / "run.txt"
        for method, flags in needs.items():
            args = ["rank", "--corpus", str(exp / "corpus.json"),
                    "--queries", str(synth_data["queries"]), "--method", method,
                    "--top-k", "20", "--burn-in", "5", "--samples", "3",
                    "--out", str(run)]
            for missing in flags:
                given = [x for f in flags if f != missing for x in (f, str(models[f]))]
                assert main(args + given) == 1, (method, missing)
                assert capsys.readouterr().err == (
                    f"error: method {method} needs {missing}\n")
            run.unlink(missing_ok=True)
            assert main(args + [x for f in flags for x in (f, str(models[f]))]) == 0
            assert run.read_text().splitlines(), method

    @pytest.mark.parametrize("method", ["vsm", "bm25", "lm", "tlm", "t2lm",
                                        "t2lm+", "t2lm+5"])
    def test_rank_supports_every_method(self, synth_data, tmp_path, method):
        out = tmp_path / "w"
        out.mkdir()
        corpus = out / "corpus.json"
        main(["ingest", "--qa", str(synth_data["qa"]),
              "--users", str(synth_data["users"]), "--out", str(corpus)])
        main(["train-tm", "--corpus", str(corpus), "--em-iters", "4",
              "--out", str(out / "tm.tsv")])
        main(["train-lda", "--corpus", str(corpus), "--topics", "3",
              "--gibbs-iters", "20", "--out", str(out / "lda.txt")])
        main(["features", "--corpus", str(corpus),
              "--translation", str(out / "tm.tsv"),
              "--topics-model", str(out / "lda.txt"),
              "--queries", str(synth_data["queries"]),
              "--qrels", str(synth_data["qrels"]),
              "--top-k", "20", "--burn-in", "5", "--samples", "3",
              "--out", str(out / "rows.letor")])
        main(["train-ranker", "--letor", str(out / "rows.letor"),
              "--trees", "4", "--min-leaf", "5", "--out", str(out / "rk.txt")])
        args = ["rank", "--corpus", str(corpus),
                "--queries", str(synth_data["queries"]),
                "--method", method, "--top-k", "20",
                "--burn-in", "5", "--samples", "3",
                "--out", str(out / f"run_{method.replace('+', 'p')}.txt")]
        if method in ("tlm", "t2lm", "t2lm+", "t2lm+5"):
            args += ["--translation", str(out / "tm.tsv")]
        if method in ("t2lm", "t2lm+", "t2lm+5"):
            args += ["--topics-model", str(out / "lda.txt")]
        if method == "t2lm+5":
            args += ["--ranker", str(out / "rk.txt")]
        assert main(args) == 0
        run_file = out / f"run_{method.replace('+', 'p')}.txt"
        assert run_file.read_text().splitlines()

    def test_rank_methods_match_direct_scoring(self, synth_data, tmp_path):
        """lm and tlm rank without a topic model (theta=None) and agree with
        the one-candidate scorers; t2lm+5 agrees with system_ranking."""
        out = tmp_path / "w"
        out.mkdir()
        corpus_path = out / "corpus.json"
        main(["ingest", "--qa", str(synth_data["qa"]),
              "--users", str(synth_data["users"]), "--out", str(corpus_path)])
        main(["train-tm", "--corpus", str(corpus_path), "--em-iters", "4",
              "--out", str(out / "tm.tsv")])
        main(["train-lda", "--corpus", str(corpus_path), "--topics", "3",
              "--gibbs-iters", "20", "--out", str(out / "lda.txt")])
        scoring = ["--top-k", "20", "--burn-in", "5", "--samples", "3"]
        main(["features", "--corpus", str(corpus_path),
              "--translation", str(out / "tm.tsv"),
              "--topics-model", str(out / "lda.txt"),
              "--queries", str(synth_data["queries"]),
              "--qrels", str(synth_data["qrels"]),
              "--out", str(out / "rows.letor")] + scoring)
        main(["train-ranker", "--letor", str(out / "rows.letor"),
              "--trees", "4", "--min-leaf", "5", "--out", str(out / "rk.txt")])
        rank = ["rank", "--corpus", str(corpus_path),
                "--queries", str(synth_data["queries"])] + scoring
        assert main(rank + ["--method", "lm", "--out", str(out / "lm.txt")]) == 0
        assert main(rank + ["--method", "tlm", "--translation", str(out / "tm.tsv"),
                            "--out", str(out / "tlm.txt")]) == 0
        assert main(rank + ["--method", "t2lm+5",
                            "--translation", str(out / "tm.tsv"),
                            "--topics-model", str(out / "lda.txt"),
                            "--ranker", str(out / "rk.txt"),
                            "--out", str(out / "fused.txt")]) == 0

        corpus = load_corpus(corpus_path)
        index = build_index(corpus)
        table = TranslationTable.load(out / "tm.tsv")
        queries = load_queries(synth_data["queries"], corpus.vocabulary)
        cfg = PipelineConfig(qa_path="", queries_path="", top_k=20, burn_in=5,
                             samples=3)
        assets = ScoringAssets(corpus=corpus, index=index, table=table,
                               model=TopicModel.load(out / "lda.txt"), cfg=cfg,
                               ranker=LambdaMARTModel.load(out / "rk.txt"))
        runs = {name: read_run(out / f"{name}.txt")
                for name in ("lm", "tlm", "fused")}
        for query in queries:
            candidates = retrieve_candidates(query.tokens, index, 20)
            if not candidates:
                assert query.id not in runs["lm"].queries()
                continue
            stats = corpus.stats
            for name, score in (
                    ("lm", lambda q: score_lm(query.tokens, q, stats)),
                    ("tlm", lambda q: score_tlm(query.tokens, q, table, stats))):
                want = sorted(((score(corpus.pair(c.qa_id).question_tokens), c.qa_id)
                               for c in candidates),
                              key=lambda item: (-item[0], item[1]))
                assert runs[name].ranking(query.id) == [(d, s) for s, d in want]
            fused = system_ranking("t2lm+5", assets, prepare_query(assets, query))
            assert runs["fused"].ranking(query.id) == fused

    def test_rank_reproduces_pipeline_runs(self, tmp_path):
        """`cqarank rank` over the pipeline's artifacts, with its scoring
        flags, ranks every test query as the pipeline's rank stage did, for
        every system."""
        data = write_synth(SynthSpec(size=60, topics=3, seed=99, queries=12),
                           tmp_path / "data")
        exp = tmp_path / "exp"
        cfg = small_pipeline_cfg(data, exp, gibbs_iters=20, top_k=30, seed=3,
                                 split_seed=4)
        run_pipeline(cfg)
        flags = []
        for name in (n for n in STAGES["rank"] if not n.endswith("_path")):
            value = getattr(cfg, name)
            if isinstance(value, bool):
                flags += [flag_name(name)] if value else []
            else:
                flags += [flag_name(name), str(value)]
        checked = 0
        for system in ALL_SYSTEMS:
            tag = system.replace("+", "p")
            out = tmp_path / f"cli_{tag}.txt"
            assert main(["rank", "--corpus", str(exp / "corpus.json"),
                         "--queries", str(data["queries"]), "--method", system,
                         "--translation", str(exp / "translation.tsv"),
                         "--topics-model", str(exp / "topics.txt"),
                         "--ranker", str(exp / "ranker.txt"),
                         "--out", str(out)] + flags) == 0
            want, got = read_run(exp / f"run_{tag}.txt"), read_run(out)
            assert want.queries(), system
            for qid in want.queries():
                assert got.ranking(qid) == want.ranking(qid), (system, qid)
                checked += 1
        assert checked == len(ALL_SYSTEMS) * 6

    def test_evaluate_malformed_run_names_path(self, synth_data, tmp_path, capsys):
        run = tmp_path / "bad.run"
        run.write_text("q0 Q0 d1 1 0.5 bm25\nq0 Q0 d2 3 0.4 bm25\n")
        assert main(["evaluate", "--run", str(run),
                     "--qrels", str(synth_data["qrels"])]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {run}: line 2: rank 3 out of sequence")

    def test_features_without_qrels_labels_zero(self, synth_data, tmp_path):
        out = tmp_path / "w"
        out.mkdir()
        corpus = out / "corpus.json"
        main(["ingest", "--qa", str(synth_data["qa"]), "--out", str(corpus)])
        main(["train-tm", "--corpus", str(corpus), "--em-iters", "3",
              "--out", str(out / "tm.tsv")])
        main(["train-lda", "--corpus", str(corpus), "--topics", "2",
              "--gibbs-iters", "15", "--out", str(out / "lda.txt")])
        assert main(["features", "--corpus", str(corpus),
                     "--translation", str(out / "tm.tsv"),
                     "--topics-model", str(out / "lda.txt"),
                     "--queries", str(synth_data["queries"]),
                     "--top-k", "10", "--burn-in", "5", "--samples", "3",
                     "--out", str(out / "rows.letor")]) == 0
        labels = {line.split()[0]
                  for line in (out / "rows.letor").read_text().splitlines()}
        assert labels == {"0"}

    def test_evaluate_writes_report_files(self, synth_data, tmp_path, capsys):
        out = tmp_path / "w"
        out.mkdir()
        corpus = out / "corpus.json"
        main(["ingest", "--qa", str(synth_data["qa"]), "--out", str(corpus)])
        main(["rank", "--corpus", str(corpus),
              "--queries", str(synth_data["queries"]),
              "--method", "bm25", "--top-k", "15",
              "--out", str(out / "run.txt")])
        assert main(["evaluate", "--run", str(out / "run.txt"),
                     "--qrels", str(synth_data["qrels"]),
                     "--report", str(out / "rep.txt"),
                     "--report-jsonl", str(out / "rep.jsonl")]) == 0
        assert "MAP@10" in (out / "rep.txt").read_text()
        lacking = len(set(read_qrels(synth_data["qrels"]).queries())
                      - set(read_run(out / "run.txt").queries()))
        line = f"bm25 lacks {lacking} of 8 qrels queries (not averaged)"
        printed = capsys.readouterr().out
        written = (out / "rep.txt").read_text()
        assert line in printed and line in written
        # the run's own queries are averaged, so none scores as missing
        assert "scores AP = NDCG = 0" not in printed + written
        records = [json.loads(l) for l in (out / "rep.jsonl").read_text().splitlines()]
        assert any(r["type"] == "system" for r in records)


class TestPipeline:
    def test_end_to_end_and_idempotence(self, synth_data, tmp_path):
        cfg = small_pipeline_cfg(synth_data, tmp_path / "out")
        report = run_pipeline(cfg)
        assert report.exists()
        artifacts = sorted((tmp_path / "out").glob("*"))
        assert (tmp_path / "out" / "ranker.txt") in artifacts
        for artifact in artifacts:
            if artifact.suffix != ".json" or artifact.name == "corpus.json":
                manifest = artifact.with_name(artifact.name + ".manifest.json")
                if artifact.name.endswith(".manifest.json"):
                    continue
                assert manifest.exists(), f"missing manifest for {artifact.name}"

        # rerun: every stage is a no-op, nothing is rewritten
        stamps = {p: p.stat().st_mtime_ns
                  for p in (tmp_path / "out").glob("*") if p.is_file()}
        run_pipeline(cfg)
        for p, stamp in stamps.items():
            assert p.stat().st_mtime_ns == stamp, f"{p.name} was rewritten"

    def test_copied_outdir_is_up_to_date(self, synth_data, tmp_path, stage_runners):
        run_pipeline(small_pipeline_cfg(synth_data, tmp_path / "out"))
        shutil.copytree(tmp_path / "out", tmp_path / "copy")
        run_pipeline(small_pipeline_cfg(synth_data, tmp_path / "copy"))
        assert stage_runners[-1].executed == []
        assert len(stage_runners[-1].skipped) == 8

    def test_an_outdir_without_model_images_retrains_only_the_models(
            self, default_run, tmp_path, stage_runners):
        # as an outdir written before the models kept images
        data, full = default_run
        out = tmp_path / "out"
        shutil.copytree(full, out)
        for name in ("translation.tsv.npy", "topics.txt.npy"):
            (out / name).unlink()
            (out / f"{name}.manifest.json").unlink()
        run_pipeline(small_pipeline_cfg(data, out))
        assert stage_runners[-1].executed == ["train-tm", "train-lda"]
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in full.iterdir())
        for path in full.iterdir():
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    @pytest.mark.parametrize("body", ["[]", '"x"', "1"])
    def test_manifest_not_an_object_reruns_the_stage(self, synth_data, tmp_path,
                                                    stage_runners, body):
        cfg = small_pipeline_cfg(synth_data, tmp_path / "out", systems=("bm25",))
        run_pipeline(cfg)
        (tmp_path / "out" / "corpus.json.manifest.json").write_text(body + "\n")
        run_pipeline(cfg)
        assert stage_runners[-1].executed == ["ingest"]

    def test_query_without_candidates_scores_zero(self, tmp_path):
        """A judged test query that retrieval cannot answer stays in the
        MAP/NDCG denominator with AP = NDCG = 0."""
        data = write_synth(SynthSpec(size=240, topics=6, seed=1), tmp_path / "data")
        with open(data["queries"], "a", encoding="utf-8") as f:
            f.write(json.dumps({"id": "qzz", "text": "nothinglikethis unseenword"}) + "\n")
        with open(data["qrels"], "a", encoding="utf-8") as f:
            f.write("qzz 0 qa0000 1\n")
        cfg = small_pipeline_cfg(data, tmp_path / "out", topics=6,
                                 gibbs_iters=10, split_seed=6)
        run_pipeline(cfg)
        out = tmp_path / "out"
        test_ids = json.loads((out / "split.json").read_text())["test"]
        assert "qzz" in test_ids and len(test_ids) == 24
        assert "qzz" not in read_run(out / "run_t2lmp5.txt").queries()
        records = [json.loads(line) for line in
                   (out / "report.jsonl").read_text().splitlines()]
        for rec in records:
            if rec["type"] == "system":
                assert (rec["queries"], rec["missing"]) == (24, 1)
                aps = [r["ap"] for r in records if r["type"] == "query"
                       and r["system"] == rec["system"]]
                assert len(aps) == 24
                assert rec["map"] == sum(aps) / 24
            elif rec["query"] == "qzz":
                assert rec["ap"] == 0.0 and rec["ndcg"] == 0.0
        header, first = (out / "report.txt").read_text().splitlines()[:2]
        assert header.split()[-2:] == ["queries", "missing"]
        assert first.split()[-2:] == ["24", "1"]
        assert "(a query missing from a run scores AP = NDCG = 0)" in \
            (out / "report.txt").read_text()

    def test_bit_identical_across_fresh_runs(self, synth_data, tmp_path):
        cfg_a = small_pipeline_cfg(synth_data, tmp_path / "a")
        cfg_b = small_pipeline_cfg(synth_data, tmp_path / "b")
        run_pipeline(cfg_a)
        run_pipeline(cfg_b)
        names = ["corpus.json", "translation.tsv", "topics.txt", "train.letor",
                 "test.letor", "ranker.txt", "run_lm.txt", "run_t2lmp.txt",
                 "run_t2lmp5.txt", "report.txt", "report.jsonl"]
        for name in names:
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_config_change_invalidates_stage(self, synth_data, tmp_path):
        out = tmp_path / "out"
        run_pipeline(small_pipeline_cfg(synth_data, out))
        before = (out / "topics.txt").stat().st_mtime_ns
        run_pipeline(small_pipeline_cfg(synth_data, out, gibbs_iters=41))
        after = (out / "topics.txt").stat().st_mtime_ns
        assert after != before

    def test_missing_qrels_is_preference_error(self, synth_data, tmp_path):
        cfg = small_pipeline_cfg(synth_data, tmp_path / "out", qrels_path=None)
        with pytest.raises(PipelineError, match="no preference signal source"):
            run_pipeline(cfg)

    def test_failing_stage_names_itself_and_cleans_up(self, synth_data, tmp_path):
        # all-zero labels starve the ranker
        zero_qrels = tmp_path / "zero_qrels.txt"
        lines = Path(synth_data["qrels"]).read_text().splitlines()
        zero_qrels.write_text("".join(f"{l.rsplit(' ', 1)[0]} 0\n" for l in lines))
        cfg = small_pipeline_cfg(synth_data, tmp_path / "out",
                                 qrels_path=str(zero_qrels))
        with pytest.raises(PipelineError, match="train-ranker"):
            run_pipeline(cfg)
        assert not (tmp_path / "out" / "ranker.txt").exists()
        assert (tmp_path / "out" / "train.letor").exists()

    def test_bad_lda_prior_fails_train_lda_and_leaves_no_model(self, synth_data,
                                                              tmp_path):
        out = tmp_path / "out"
        cfg = small_pipeline_cfg(synth_data, out, beta=0.0)
        with pytest.raises(PipelineError, match="stage train-lda failed: alpha "
                                                "and beta must be positive"):
            run_pipeline(cfg)
        assert not (out / "topics.txt").exists()
        assert not (out / "topics.txt.manifest.json").exists()

    def test_missing_input_fails_at_start(self, tmp_path):
        cfg = PipelineConfig(qa_path=str(tmp_path / "absent.jsonl"),
                             queries_path=str(tmp_path / "q.jsonl"),
                             qrels_path=str(tmp_path / "qr.txt"),
                             outdir=str(tmp_path / "out"))
        with pytest.raises(PipelineError, match="missing qa input"):
            run_pipeline(cfg)

    @pytest.mark.parametrize("systems, problem", [
        ((), "no systems to rank"),
        (("bm25", "bogus"), "unknown system 'bogus'"),
        (("bm25", "lm", "bm25"), "repeated system 'bm25'"),
    ])
    def test_bad_systems_fail_before_any_stage(self, synth_data, tmp_path,
                                               systems, problem):
        cfg = small_pipeline_cfg(synth_data, tmp_path / "out", systems=systems)
        with pytest.raises(PipelineError, match=f"stage validate failed: {problem}"):
            run_pipeline(cfg)
        assert not (tmp_path / "out" / "corpus.json").exists()

    @pytest.mark.parametrize("setting, problem", [
        ({"learning_rate": math.nan}, "learning rate nan is not positive and finite"),
        ({"trees": 0}, "all training parameters must be positive"),
    ])
    def test_bad_ranker_settings_fail_before_any_stage(self, synth_data, tmp_path,
                                                       setting, problem):
        cfg = small_pipeline_cfg(synth_data, tmp_path / "out", **setting)
        with pytest.raises(ValueError, match=problem):
            run_pipeline(cfg)
        assert not (tmp_path / "out" / "corpus.json").exists()

    def test_apply_existing_ranker(self, synth_data, tmp_path):
        first = small_pipeline_cfg(synth_data, tmp_path / "train_run")
        run_pipeline(first)
        second = small_pipeline_cfg(
            synth_data, tmp_path / "apply_run",
            ranker_path=str(tmp_path / "train_run" / "ranker.txt"))
        report = run_pipeline(second)
        assert report.exists()
        # nothing is trained, so no training rows are written
        assert not (tmp_path / "apply_run" / "ranker.txt").exists()
        assert not (tmp_path / "apply_run" / "train.letor").exists()
        # same data and scoring config: the test rows and the fused run must
        # be identical
        for name in ("test.letor", "run_t2lmp5.txt"):
            assert ((tmp_path / "apply_run" / name).read_bytes()
                    == (tmp_path / "train_run" / name).read_bytes()), name

    def test_question_field_variant(self, synth_data, tmp_path):
        cfg = small_pipeline_cfg(synth_data, tmp_path / "out",
                                 field="question")
        assert run_pipeline(cfg).exists()

    def test_pad_candidates_fills_to_twenty(self, synth_data, tmp_path):
        cfg = small_pipeline_cfg(synth_data, tmp_path / "out",
                                 top_k=5, pad_candidates=True)
        run_pipeline(cfg)
        per_query = {}
        for line in (tmp_path / "out" / "train.letor").read_text().splitlines():
            qid = line.split()[1]
            per_query[qid] = per_query.get(qid, 0) + 1
        assert all(n == 20 for n in per_query.values())

    def test_exit_status_via_cli(self, synth_data, tmp_path):
        args = ["pipeline",
                "--qa", str(synth_data["qa"]),
                "--users", str(synth_data["users"]),
                "--queries", str(synth_data["queries"]),
                "--qrels", str(synth_data["qrels"]),
                "--outdir", str(tmp_path / "out"),
                "--topics", "3", "--gibbs-iters", "30", "--em-iters", "5",
                "--top-k", "40", "--burn-in", "10", "--samples", "5",
                "--trees", "6", "--min-leaf", "5"]
        assert main(args) == 0
        assert main(["pipeline", "--qa", "nope.jsonl",
                     "--queries", "also-nope.jsonl",
                     "--outdir", str(tmp_path / "out2")]) == 1


BASELINE_STAGES = ("ingest", "split", "rank", "evaluate")
TLM_STAGES = ("ingest", "train-tm", "split", "rank", "evaluate")
TOPIC_STAGES = ("ingest", "train-tm", "train-lda", "split", "rank", "evaluate")
ALL_STAGES = ("ingest", "train-tm", "train-lda", "split", "features",
              "train-ranker", "rank", "evaluate")
# the files a run writes only when it runs the stage; the LETOR rows are
# the ranker's training data
STAGE_FILES = {"train-tm": ("translation.tsv", "translation.tsv.npy"),
               "train-lda": ("topics.txt", "topics.txt.npy"),
               "features": ("train.letor", "test.letor"),
               "train-ranker": ("ranker.txt",)}


@pytest.fixture(scope="class")
def default_run(tmp_path_factory):
    """A run of every system; returns its data files and outdir."""
    root = tmp_path_factory.mktemp("default")
    data = write_synth(SynthSpec(size=30, topics=3, seed=4, queries=8),
                       root / "data")
    run_pipeline(small_pipeline_cfg(data, root / "out"))
    return data, root / "out"


class TestSystemSubsets:
    @pytest.mark.parametrize("systems, stages", [
        (("vsm",), BASELINE_STAGES), (("bm25",), BASELINE_STAGES),
        (("lm",), BASELINE_STAGES), (("tlm",), TLM_STAGES),
        (("t2lm",), TOPIC_STAGES), (("t2lm+",), TOPIC_STAGES),
        (("t2lm+5",), ALL_STAGES), (("bm25", "lm"), BASELINE_STAGES),
    ])
    def test_runs_only_the_stages_its_systems_need(self, default_run, tmp_path,
                                                   stage_runners, systems, stages):
        data, full = default_run
        out = tmp_path / "out"
        run_pipeline(small_pipeline_cfg(data, out, systems=systems))
        assert tuple(stage_runners[0].executed) == stages
        runs = [f"run_{s.replace('+', 'p')}.txt" for s in systems]
        files = ["corpus.json", "split.json", "report.txt", "report.jsonl", *runs]
        for stage in stages:
            files += STAGE_FILES.get(stage, ())
        assert sorted(p.name for p in out.iterdir()) == sorted(
            files + [name + ".manifest.json" for name in files])
        for name in runs:
            assert (out / name).read_bytes() == (full / name).read_bytes(), name

    def test_baseline_run_loads_no_model(self, default_run, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a baseline run read a model")

        for owner, name in ((TranslationTable, "load"), (TopicModel, "load"),
                            (LambdaMARTModel, "load"),
                            (pipeline, "infer_query_topics")):
            monkeypatch.setattr(owner, name, forbidden)
        data, _ = default_run
        run_pipeline(small_pipeline_cfg(data, tmp_path / "out",
                                        systems=("vsm", "bm25", "lm")))

    def test_runs_without_the_ranker_compute_no_quality_column(
            self, default_run, tmp_path, monkeypatch):
        """Only the ranker's feature rows read the quality columns."""
        def forbidden(*args, **kwargs):
            raise AssertionError("quality_feature was called")

        monkeypatch.setattr(pipeline, "quality_feature", forbidden)
        data, full = default_run
        out = tmp_path / "out"
        systems = ("bm25", "vsm", "lm", "tlm", "t2lm", "t2lm+")
        run_pipeline(small_pipeline_cfg(data, out, systems=systems))
        for system in systems:
            name = f"run_{system.replace('+', 'p')}.txt"
            assert (out / name).read_bytes() == (full / name).read_bytes(), name

    def test_subset_rank_stage_lists_only_the_models_it_reads(self, default_run,
                                                              tmp_path):
        data, _ = default_run
        out = tmp_path / "out"
        run_pipeline(small_pipeline_cfg(data, out, systems=("lm", "tlm")))
        manifests = {name: json.loads((out / f"{name}.manifest.json").read_text())
                     for name in ("split.json", "run_tlm.txt")}
        assert sorted(manifests["split.json"]["inputs"]) == [str(data["queries"])]
        assert sorted(manifests["run_tlm.txt"]["inputs"]) == sorted(
            ["corpus.json", "translation.tsv", "split.json", str(data["queries"])])


class TestServingCaches:
    """Loading builds no serving cache: the translation table's by-target
    view and the ranker's routing tables are built by the first query that
    reads them, so loading the artifacts costs no more than reading them."""

    def test_first_query_builds_what_loading_does_not(self, default_run):
        data, out = default_run
        cfg = small_pipeline_cfg(data, out)
        corpus = load_corpus(out / "corpus.json")
        table = TranslationTable.load(out / "translation.tsv")
        ranker = LambdaMARTModel.load(out / "ranker.txt")
        assets = ScoringAssets(corpus=corpus, index=build_index(corpus, cfg.field),
                               table=table, model=TopicModel.load(out / "topics.txt"),
                               cfg=cfg, ranker=ranker)
        owners = [table, ranker, *ranker.trees]
        assert not any({"_by_target", "_router"} & vars(o).keys() for o in owners)
        assert not assets.terms and not assets.qualities
        query = load_queries(cfg.queries_path, corpus.vocabulary, cfg.mode)[0]
        assert system_ranking("t2lm+5", assets, prepare_query(assets, query))
        assert "_by_target" in vars(table) and "_router" in vars(ranker)


# the outputs of each stage that reads a value another stage hands over
HANDED_TO = {"features": ("train.letor", "test.letor"),
             "train-ranker": ("ranker.txt",),
             "rank": tuple(f"run_{s.replace('+', 'p')}.txt" for s in ALL_SYSTEMS),
             "evaluate": ("report.txt", "report.jsonl")}


class TestHandover:
    """Each stage hands its result to the stages that read it in memory. A
    fresh run parses none of its own outputs and prepares each query once;
    a stage whose producer was up to date reads the producer's files."""

    def test_a_fresh_run_reads_back_nothing_it_wrote(self, default_run, tmp_path,
                                                     monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a fresh run parsed its own output")

        for owner, name in ((pipeline, "load_corpus"), (TranslationTable, "load"),
                            (TopicModel, "load"), (LambdaMARTModel, "load"),
                            (pipeline, "read_letor"), (pipeline, "read_run")):
            monkeypatch.setattr(owner, name, forbidden)
        prepared = []
        prepare = pipeline.prepare_query

        def counted(assets, query):
            prepared.append(query.id)
            return prepare(assets, query)

        monkeypatch.setattr(pipeline, "prepare_query", counted)
        data, full = default_run
        out = tmp_path / "out"
        run_pipeline(small_pipeline_cfg(data, out))
        split = json.loads((out / "split.json").read_text())
        assert sorted(prepared) == sorted(split["train"] + split["test"])
        for path in full.iterdir():
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    @pytest.mark.parametrize("stage", HANDED_TO)
    def test_a_stage_rerun_alone_reads_its_inputs_from_files(
            self, default_run, tmp_path, stage_runners, stage):
        data, full = default_run
        out = tmp_path / "out"
        shutil.copytree(full, out)
        for name in HANDED_TO[stage]:
            (out / name).unlink()
            (out / f"{name}.manifest.json").unlink()
        run_pipeline(small_pipeline_cfg(data, out))
        assert stage_runners[-1].executed == [stage]
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in full.iterdir())
        for path in full.iterdir():
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name


# another valid value of every setting; the mixture weights change in
# pairs, to keep their sum 1
CHANGED = {
    "mode": {"mode": "pretokenized"}, "field": {"field": "question"},
    "k1": {"k1": 1.5}, "b": {"b": 0.5}, "top_k": {"top_k": 40},
    "em_iters": {"em_iters": 4}, "direction": {"direction": "q_to_a"},
    "prune": {"prune": 0.001}, "topics": {"topics": 2}, "alpha": {"alpha": 0.5},
    "beta": {"beta": 0.02}, "gibbs_iters": {"gibbs_iters": 30},
    "burn_in": {"burn_in": 8}, "samples": {"samples": 4},
    "mu1": {"mu1": 0.2, "mu3": 0.3}, "mu2": {"mu2": 0.2, "mu4": 0.3},
    "mu3": {"mu3": 0.1, "mu4": 0.3}, "mu4": {"mu4": 0.1, "mu3": 0.3},
    "rescale_weights": {"rescale_weights": True},
    "combine_quality": {"combine_quality": True},
    "trees": {"trees": 7}, "leaves": {"leaves": 3},
    "learning_rate": {"learning_rate": 0.1}, "min_leaf": {"min_leaf": 4},
    "ndcg_cutoff": {"ndcg_cutoff": 5}, "depth": {"depth": 5},
    "rel_threshold": {"rel_threshold": 2}, "seed": {"seed": 2},
    "split_seed": {"split_seed": 3}, "pad_candidates": {"pad_candidates": True},
    "systems": {"systems": tuple(reversed(ALL_SYSTEMS))},
}


class TestStageFields:
    """STAGES names the config fields each stage reads, and a stage's
    manifest records them. A field read but not recorded would leave a
    stale artifact marked up to date."""

    def test_each_command_reads_its_stage_fields(self, synth_data, tmp_path,
                                                 monkeypatch):
        log: list[str] = []

        class RecordingConfig(PipelineConfig):
            def __getattribute__(self, name):
                if name in PipelineConfig.__dataclass_fields__:
                    log.append(name)
                return super().__getattribute__(name)

        monkeypatch.setattr(cli, "PipelineConfig", RecordingConfig)
        reads: dict[str, set[str]] = {}

        def run(command, *argv):
            log.clear()
            assert main([command, *map(str, argv)]) == 0, (command, argv)
            assert set(log) <= set(STAGES[command]), (command, argv)
            reads.setdefault(command, set()).update(log)

        stopwords = tmp_path / "stop.txt"
        stopwords.write_text("common0\n")
        corpus, letor = tmp_path / "corpus.json", tmp_path / "rows.letor"
        models = {"--translation": tmp_path / "tm.tsv",
                  "--topics-model": tmp_path / "lda.txt",
                  "--ranker": tmp_path / "rk.txt"}
        queries = ("--queries", synth_data["queries"])
        run("ingest", "--qa", synth_data["qa"], "--users", synth_data["users"],
            "--stopwords", stopwords, "--out", corpus)
        run("train-tm", "--corpus", corpus, "--em-iters", 3,
            "--out", models["--translation"])
        run("train-lda", "--corpus", corpus, "--topics", 2, "--gibbs-iters", 10,
            "--out", models["--topics-model"])
        run("features", "--corpus", corpus, *queries,
            "--qrels", synth_data["qrels"], "--burn-in", 5, "--samples", 3,
            "--translation", models["--translation"],
            "--topics-model", models["--topics-model"], "--out", letor)
        run("train-ranker", "--letor", letor, "--trees", 3, "--min-leaf", 5,
            "--out", models["--ranker"])
        for method in ALL_SYSTEMS:
            given = [x for flag, path in models.items() for x in (flag, path)]
            run("rank", "--corpus", corpus, *queries, "--method", method,
                "--burn-in", 5, "--samples", 3, *given,
                "--out", tmp_path / "run.txt")
        run("evaluate", "--run", tmp_path / "run.txt",
            "--qrels", synth_data["qrels"])
        assert {command: set(STAGES[command]) for command in reads} == reads
        assert set(STAGES) - set(reads) == {"split"}  # a pipeline-only stage

    def test_every_setting_has_a_changed_value(self):
        settings = {name for name in PipelineConfig.__dataclass_fields__
                    if not name.endswith("_path") and name != "outdir"}
        assert set(CHANGED) == settings

    @pytest.mark.parametrize("setting", sorted(CHANGED))
    def test_changed_setting_reruns_the_stages_that_read_it(
            self, default_run, tmp_path, stage_runners, setting):
        """Rerunning a finished outdir with one setting changed executes
        every stage that reads it, and ends with the files a fresh run
        writes."""
        data, full = default_run
        out = tmp_path / "out"
        shutil.copytree(full, out)
        run_pipeline(small_pipeline_cfg(data, out, **CHANGED[setting]))
        executed = stage_runners[0].executed
        for stage, names in STAGES.items():
            if setting in names:
                assert stage in executed, stage
        if setting not in STAGES["ingest"]:
            assert "ingest" not in executed
        run_pipeline(small_pipeline_cfg(data, tmp_path / "fresh",
                                        **CHANGED[setting]))
        for path in (tmp_path / "fresh").iterdir():
            if not path.name.endswith(".manifest.json"):
                assert (out / path.name).read_bytes() == path.read_bytes(), path.name


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, synth_data, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(
            f"qa = {synth_data['qa']}\n"
            f"users = {synth_data['users']}\n"
            f"queries = {synth_data['queries']}\n"
            f"qrels = {synth_data['qrels']}\n"
            f"outdir = {tmp_path / 'out'}\n"
            "topics = 3\n"
            "gibbs-iters = 30\n"
            "em-iters = 5\n"
            "top-k = 40\n"
            "burn-in = 10\n"
            "samples = 5\n"
            "trees = 6\n"
            "min-leaf = 5\n"
            "# a comment line\n")
        assert main(["pipeline", "--config", str(config), "--topics", "2"]) == 0
        header = (tmp_path / "out" / "topics.txt").read_text().split()[0]
        assert header == "2"  # the flag beat the config file

    def test_unknown_key_rejected(self, synth_data, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text("no-such-flag = 1\n")
        assert main(["pipeline", "--config", str(config)]) == 1
        assert "no-such-flag" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["topics 3", "topics = three",
                                      "rescale-weights = maybe",
                                      "direction = sideways", "alpha = none"])
    def test_bad_line_names_path_and_line(self, tmp_path, capsys, line):
        config = tmp_path / "exp.cfg"
        config.write_text(f"# header\nseed = 1\n{line}\n")
        assert main(["pipeline", f"--config={config}"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {config}:3: ")

    def test_missing_file_names_path(self, tmp_path, capsys):
        config = tmp_path / "absent.cfg"
        assert main(["pipeline", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(config) in err

    def test_precedence(self, tmp_path, monkeypatch):
        """Field defaults < CQARANK_OUTDIR < config file < flags given, and
        `--config=path` reads the file like `--config path`."""
        monkeypatch.setenv("CQARANK_OUTDIR", "from-env")
        config = tmp_path / "exp.cfg"
        config.write_text("topics = 3\nprune = 0\nrescale_weights = yes\n"
                          "systems = bm25, lm\nqa = a.jsonl\n")
        parser = build_parser()
        cfg = config_from_args(parser.parse_args(
            ["pipeline", f"--config={config}", "--topics", "7"]))
        assert (cfg.outdir, cfg.topics, cfg.qa_path) == ("from-env", 7, "a.jsonl")
        assert cfg.prune == 0.0 and isinstance(cfg.prune, float)
        assert cfg.rescale_weights is True and cfg.systems == ("bm25", "lm")
        config.write_text("outdir = from-file\n")
        cfg = config_from_args(parser.parse_args(["pipeline", "--config", str(config)]))
        assert cfg.outdir == "from-file"
        cfg = config_from_args(parser.parse_args(
            ["pipeline", "--config", str(config), "--outdir", "from-flag"]))
        assert cfg.outdir == "from-flag"


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


# each stage command with only its required flags
STAGE_ARGV = {
    "ingest": ["--qa", "qa.jsonl", "--out", "o"],
    "train-tm": ["--corpus", "c", "--out", "o"],
    "train-lda": ["--corpus", "c", "--out", "o"],
    "features": ["--corpus", "c", "--translation", "t", "--topics-model", "m",
                 "--queries", "q", "--out", "o"],
    "train-ranker": ["--letor", "l", "--out", "o"],
    "rank": ["--corpus", "c", "--queries", "q", "--method", "bm25", "--out", "o"],
    "evaluate": ["--run", "r", "--qrels", "q"],
}


class TestFlagsMirrorConfig:
    """Flags are generated from PipelineConfig, so no command restates a
    field default."""

    def test_one_pipeline_flag_per_field(self):
        flags = {a.dest: a.option_strings
                 for a in _subparsers()["pipeline"]._actions
                 if a.dest not in ("help", "config")}
        fields = [f.name for f in dataclasses.fields(PipelineConfig)]
        assert sorted(flags) == sorted(fields)
        for name in fields:
            assert flags[name] == [flag_name(name)]
        assert flag_name("qa_path") == "--qa" and flag_name("top_k") == "--top-k"

    def test_bare_pipeline_gives_field_defaults(self, monkeypatch):
        monkeypatch.delenv("CQARANK_OUTDIR", raising=False)
        cfg = config_from_args(build_parser().parse_args(["pipeline"]))
        assert cfg == PipelineConfig(qa_path=None, queries_path=None)

    def test_mixture_flags_only_where_read(self):
        parsers = _subparsers()
        for command, wanted in (("features", False), ("rank", True),
                                ("pipeline", True)):
            dests = {a.dest for a in parsers[command]._actions}
            assert all((name in dests) == wanted
                       for name in ("mu1", "mu2", "mu3", "mu4")), command
        with pytest.raises(SystemExit):
            build_parser().parse_args(["features"] + STAGE_ARGV["features"]
                                      + ["--mu1", "0.5"])

    def test_stage_flag_defaults_are_field_defaults(self, monkeypatch):
        monkeypatch.delenv("CQARANK_OUTDIR", raising=False)
        parsers = _subparsers()
        defaults = PipelineConfig(qa_path=None, queries_path=None)
        for command, argv in STAGE_ARGV.items():
            field_flags = [a for a in parsers[command]._actions
                           if a.dest in PipelineConfig.__dataclass_fields__]
            assert field_flags, command
            for action in field_flags:
                assert action.default is argparse.SUPPRESS, (command, action.dest)
            cfg = config_from_args(build_parser().parse_args([command] + argv))
            for action in field_flags:
                if not action.required:
                    assert (getattr(cfg, action.dest)
                            == getattr(defaults, action.dest)), (command, action.dest)


class TestOutdirEnv:
    def test_env_var_sets_default_outdir(self, synth_data, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("CQARANK_OUTDIR", str(target))
        assert main(["synth", "--size", "20", "--topics", "2", "--seed", "1"]) == 0
        assert (target / "qa.jsonl").exists()
