"""The benchmark's workloads: a fixed archive per workload and the query
stream served against it.

Each archive comes from `cqarank.synth` at a fixed synth seed, so training
work and the quality metrics repeat exactly from run to run. The workload
seed only draws the extra served queries and the serving order.
"""

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

from cqarank.pipeline import PipelineConfig
from cqarank.synth import SynthSpec, generate

# Pipeline settings shared by every workload (the README quickstart's).
EM_ITERS = 10
TOP_K = 100
PIPELINE_SEED = 7
SPLIT_SEED = 13

# Extra served queries per run, drawn from cqarank.synth at the workload seed.
EXTRA_QUERIES = 200


@dataclass(frozen=True)
class Filler:
    """Zipf-distributed filler words padded into every question and answer.

    Word f<r> (r = 0 .. vocab-1) is drawn with probability proportional to
    (r + 1) ** -exponent; each side gets a uniform count in its range.
    """

    vocab: int
    exponent: float
    question: tuple[int, int]
    answer: tuple[int, int]
    seed: int

    def pad(self, qa_lines: list[str]) -> list[str]:
        rng = random.Random(self.seed)
        words = [f"f{r}" for r in range(self.vocab)]
        cum = list(itertools.accumulate((r + 1) ** -self.exponent
                                        for r in range(self.vocab)))

        def padded(text: str, count: tuple[int, int]) -> str:
            tokens = text.split() + rng.choices(words, cum_weights=cum,
                                                k=rng.randint(*count))
            rng.shuffle(tokens)
            return " ".join(tokens)

        out = []
        for line in qa_lines:
            rec = json.loads(line)
            rec["question"] = padded(rec["question"], self.question)
            rec["answer"] = padded(rec["answer"], self.answer)
            out.append(json.dumps(rec, sort_keys=True))
        return out


@dataclass(frozen=True)
class Workload:
    name: str
    archive: SynthSpec
    gibbs_iters: int
    filler: Filler | None = None

    def write_archive(self, datadir: Path) -> dict[str, Path]:
        """qa.jsonl, users.jsonl, queries.jsonl and qrels.txt of the archive."""
        data = generate(self.archive)
        if self.filler is not None:
            data["qa"] = self.filler.pad(data["qa"])
        datadir.mkdir(parents=True, exist_ok=True)
        paths = {"qa": datadir / "qa.jsonl", "users": datadir / "users.jsonl",
                 "queries": datadir / "queries.jsonl",
                 "qrels": datadir / "qrels.txt"}
        for key, path in paths.items():
            path.write_text("".join(line + "\n" for line in data[key]),
                            encoding="utf-8")
        return paths

    def config(self, paths: dict[str, Path], outdir: Path) -> PipelineConfig:
        return PipelineConfig(
            qa_path=str(paths["qa"]), users_path=str(paths["users"]),
            queries_path=str(paths["queries"]), qrels_path=str(paths["qrels"]),
            outdir=str(outdir), topics=self.archive.topics,
            gibbs_iters=self.gibbs_iters, em_iters=EM_ITERS, top_k=TOP_K,
            seed=PIPELINE_SEED, split_seed=SPLIT_SEED)

    def write_served(self, paths: dict[str, Path], test_ids: list[str],
                     seed: int, out: Path) -> None:
        """Every test-split query of the archive, then EXTRA_QUERIES queries
        that cqarank.synth generates at `seed` over the same topic
        vocabulary, as one queries JSONL."""
        test = set(test_ids)
        lines = [line for line in paths["queries"].read_text(encoding="utf-8").splitlines()
                 if json.loads(line)["id"] in test]
        spec = SynthSpec(size=self.archive.size, topics=self.archive.topics,
                         seed=seed, queries=EXTRA_QUERIES)
        for line in generate(spec)["queries"]:
            rec = json.loads(line)
            rec["id"] = f"x{rec['id']}"
            lines.append(json.dumps(rec, sort_keys=True))
        out.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


WORKLOADS = {
    # The README quickstart: train-lda dominates, every other layer is light.
    "quickstart": Workload("quickstart", SynthSpec(size=240, topics=6, seed=1),
                           gibbs_iters=150),
    # A wider archive with few sweeps: features, ranker and rank dominate,
    # and serving sees long postings and many candidates per query.
    "archive": Workload("archive", SynthSpec(size=1200, topics=20, seed=11,
                                             queries=300),
                        gibbs_iters=5),
    # The archive's planted structure on fewer pairs, padded with a long
    # tail of filler words: a large vocabulary and translation table make
    # train-tm, TranslationTable.load and memory matter.
    "longtail": Workload("longtail", SynthSpec(size=800, topics=20, seed=11,
                                               queries=200),
                         gibbs_iters=5,
                         filler=Filler(vocab=30000, exponent=1.05,
                                       question=(3, 8), answer=(12, 30),
                                       seed=23)),
}
