"""Random Text Writer: the paper's first real MapReduce application.

"Random Text Writer ... generates a huge sequence of random sentences
formed from a list of predefined words.  Random text writer exhibits an
access pattern corresponding to concurrent massively parallel writes to
different files" — i.e. it is a map-only job in which every map task
writes a large output file, stressing the storage layer's concurrent-write
path exactly like the E3 microbenchmark, but through the whole MapReduce
stack.
"""

from __future__ import annotations

import random
from typing import Iterable

from ..job import Job, JobConf, TaskContext
from ..splitter import SyntheticInputFormat

__all__ = ["WORD_LIST", "random_sentence", "make_random_text_writer_job"]

#: Predefined word list the sentences are drawn from (a subset of Hadoop's
#: RandomTextWriter vocabulary).
WORD_LIST: tuple[str, ...] = (
    "diurnalness", "homoiousian", "spiranthic", "tetragynian", "silverhead",
    "ungreat", "lithograph", "exploiter", "physiologian", "by", "hellbender",
    "Filipendula", "undeterring", "antiscolic", "pentagamist", "hypoid",
    "cacuminal", "sertularian", "schoolmasterism", "nonuple", "gallybeggar",
    "phytonic", "swearingly", "nebular", "Confervales", "thermochemically",
    "characinoid", "cocksuredom", "fallacious", "feasibleness", "debromination",
    "playfellowship", "tramplike", "testa", "participatingly", "unaccessible",
    "bromate", "experientialist", "roughcast", "docimastical", "choralcelo",
    "blightbird", "peptonate", "sombreroed", "unschematized", "antiabolitionist",
    "besagne", "mastication", "bromic", "sviatonosite",
)


def random_sentence(rng: random.Random, *, min_words: int = 5, max_words: int = 12) -> str:
    """Build one random sentence from the predefined word list."""
    count = rng.randint(min_words, max_words)
    return " ".join(rng.choice(WORD_LIST) for _ in range(count))


def _random_text_mapper(key: int, value: int, context: TaskContext) -> None:
    """Generate ``bytes_per_map`` bytes of random sentences as output pairs."""
    conf = context.job_conf
    bytes_per_map = int(conf.get("random_text.bytes_per_map", 1024 * 1024))
    seed = int(conf.get("random_text.seed", 0)) + int(key)
    rng = random.Random(seed)
    produced = 0
    sentence_index = 0
    while produced < bytes_per_map:
        sentence = random_sentence(rng)
        record_key = f"{key}-{sentence_index}"
        context.emit(record_key, sentence)
        # Account for the bytes the text output format will actually write:
        # key, separator, value and the trailing newline.
        produced += len(record_key) + 1 + len(sentence) + 1
        sentence_index += 1
        context.counters.increment("random_text.bytes_generated", len(sentence))


def make_random_text_writer_job(
    *,
    output_dir: str = "/random-text",
    num_map_tasks: int = 4,
    bytes_per_map: int = 1024 * 1024,
    seed: int = 0,
) -> Job:
    """Build the Random Text Writer job (map-only, synthetic input).

    Parameters mirror Hadoop's ``randomtextwriter``: the number of map
    tasks and the amount of data each map generates.
    """
    conf = JobConf(
        name="random-text-writer",
        input_paths=(),
        output_dir=output_dir,
        num_reduce_tasks=0,
        num_map_tasks=num_map_tasks,
        properties={
            "random_text.bytes_per_map": bytes_per_map,
            "random_text.seed": seed,
        },
    )
    return Job(
        conf=conf,
        mapper=_random_text_mapper,
        input_format=SyntheticInputFormat(),
    )


def total_bytes_written(counters: Iterable[tuple[str, int]] | dict[str, int]) -> int:
    """Helper extracting the generated-bytes counter from a job's counters."""
    if isinstance(counters, dict):
        return counters.get("random_text.bytes_generated", 0)
    return dict(counters).get("random_text.bytes_generated", 0)
