"""Banks and request streams of the benchmark's workloads.

Every bank is built from a fixed-seed ``SyntheticSpec``, so set-up does the
same work on every run. Each stream starts with a fixed *panel* of
``PANEL_SIZE`` requests that is the same for every ``--seed``: the served
digest and the quality metrics are taken over it, so they compare across
seeds and across commits. The traffic after the panel is drawn from the
seed. The program under test only ever sees the generated requests.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from exsim.corpus import Corpus, Exercise, SyntheticSpec, SyntheticTruth
from exsim.rerank import ABILITIES, STAGE_MODES, StudentProfile

# The step config of the ROADMAP baseline; every other key stays at DEFAULTS.
BASE_CONFIG = {"encoder.epochs": "3", "finetune.epochs": "1", "rank.epochs": "1"}

BANKS = {
    # The ROADMAP baseline bank, N=1000.
    "1k": SyntheticSpec(n_templates=20, per_template=50, seed=3),
    # N=5000. With 100 templates the default 400-word pool would wrap and
    # templates would share topic words; 2000 words keep them distinct.
    "5k": SyntheticSpec(n_templates=100, per_template=50, vocab_size=2000, seed=3),
    # For the smoke test only: one template per grade, 24 exercises.
    "tiny": SyntheticSpec(n_templates=3, per_template=8, seed=3),
}

PANEL_SEED = 20230320
PANEL_SIZE = 40
PROBE_EVERY = 10            # cold streams: every tenth request is a probe
STUDENTS = 16
ZIPF_S = 1.0
# Every block of 20 student requests holds exactly this mix, in seed order:
# requests without a profile, near-duplicate probes sent with the profile, a
# student re-sending their previous request, and a new Zipf draw. Fixed counts
# keep the hit ratio, and so throughput, steady from seed to seed. Anonymous
# misses skip the filters and cost more; at about 28% of the misses neither
# the 50th nor the 80th latency percentile sits on the edge between the two.
STUDENT_BLOCK = {"anonymous": 5, "probe": 5, "revisit": 5, "new": 5}
STUDENT_STREAM_LEN = 4000
# With the default 256 slots a run of this length never fills the cache, so
# students-1k shrinks it until its distinct keys exceed it and the LRU evicts.
STUDENT_CACHE_SIZE = 32


@dataclass(frozen=True)
class Workload:
    name: str
    bank: str
    kind: str                       # "cold" or "students"
    config: dict


WORKLOADS = {
    "cold-1k": Workload("cold-1k", "1k", "cold", BASE_CONFIG),
    "cold-5k": Workload("cold-5k", "5k", "cold", BASE_CONFIG),
    "students-1k": Workload("students-1k", "1k", "students",
                            {**BASE_CONFIG, "cache.size": str(STUDENT_CACHE_SIZE)}),
}


@dataclass(frozen=True)
class Request:
    query: Union[str, Exercise]
    profile: Optional[StudentProfile]
    source: str                     # bank id whose template mates are relevant
    probe: bool

    @property
    def query_id(self) -> str:
        return self.query if isinstance(self.query, str) else self.query.id


def probe_of(ex: Exercise, year: int) -> Exercise:
    """A near-duplicate of ``ex``: the year phrase ``generate_dedup_pairs``
    labels duplicate, under an id that is not in the bank."""
    return dataclasses.replace(ex, id=f"{ex.id}-probe{year}",
                               stem=f"{ex.stem} in {year}")


def _year(rng: np.random.Generator) -> int:
    return 2018 + int(rng.integers(0, 8))


def cold_stream(corpus: Corpus, truth: SyntheticTruth, seed: int) -> list[Request]:
    """Every bank id once, every tenth one sent as a probe.

    Requests cycle through the templates in one fixed order, so every seed
    sends the same mix of templates, whose query costs differ by up to 2x;
    the seed picks the member of each template and places the probes. All
    keys are distinct, so every request misses the cache.
    """
    templates = sorted(truth.groups)
    fixed = np.random.default_rng(PANEL_SEED)
    order = [templates[int(i)] for i in fixed.permutation(len(templates))]
    rng = np.random.default_rng(seed)
    members = {t: [truth.groups[t][int(i)] for i in rng.permutation(len(truth.groups[t]))]
               for t in order}
    offset = int(rng.integers(0, PROBE_EVERY))
    out = []
    for r in range(max(len(m) for m in members.values())):
        for t in order:
            if r >= len(members[t]):
                continue
            ex = corpus[members[t][r]]
            if (len(out) + offset) % PROBE_EVERY == 0:
                out.append(Request(probe_of(ex, _year(rng)), None, ex.id, True))
            else:
                out.append(Request(ex.id, None, ex.id, False))
    return out


class StudentPopulation:
    """A fixed set of students, each with a profile in grades 7-9, and a
    fixed Zipf popularity order over each grade's exercises."""

    def __init__(self, corpus: Corpus):
        rng = np.random.default_rng(PANEL_SEED)
        self.corpus = corpus
        self.grades = sorted({ex.learning_stage[0] for ex in corpus})
        self.profiles = [
            StudentProfile(ability=str(rng.choice(ABILITIES)),
                           stage_mode=str(rng.choice(STAGE_MODES)),
                           current_stage=(self.grades[s % len(self.grades)],
                                          int(rng.integers(1, 3))))
            for s in range(STUDENTS)]
        self.pools = {}
        for g in self.grades:
            ids = [ex.id for ex in corpus if ex.learning_stage[0] == g]
            order = [ids[int(i)] for i in rng.permutation(len(ids))]
            weights = 1.0 / np.arange(1, len(order) + 1) ** ZIPF_S
            self.pools[g] = (order, weights / weights.sum())

    def draw(self, rng: np.random.Generator, grade: int) -> Exercise:
        order, p = self.pools[grade]
        return self.corpus[order[int(rng.choice(len(order), p=p))]]

    def stream(self, seed: int, n: int) -> list[Request]:
        rng = np.random.default_rng(seed)
        kinds = [kind for kind, count in STUDENT_BLOCK.items() for _ in range(count)]
        out: list[Request] = []
        last: dict[int, Request] = {}
        while len(out) < n:
            students = rng.permutation(len(self.profiles))
            for j, row in enumerate(rng.permutation(len(kinds))):
                kind = kinds[int(row)]
                student = int(students[j % len(students)])
                profile = self.profiles[student]
                if kind == "revisit" and student in last:
                    out.append(last[student])
                elif kind == "anonymous":
                    ex = self.draw(rng, self.grades[int(rng.integers(0, len(self.grades)))])
                    out.append(Request(ex.id, None, ex.id, False))
                else:
                    ex = self.draw(rng, profile.current_stage[0])
                    query = probe_of(ex, _year(rng)) if kind == "probe" else ex.id
                    last[student] = Request(query, profile, ex.id, kind == "probe")
                    out.append(last[student])
        return out[:n]


def make_stream(workload: Workload, corpus: Corpus, truth: SyntheticTruth,
                seed: int) -> list[Request]:
    """The fixed panel, then the seed's traffic."""
    if workload.kind == "cold":
        panel = cold_stream(corpus, truth, PANEL_SEED)[:PANEL_SIZE]
        taken = {r.source for r in panel}
        return panel + [r for r in cold_stream(corpus, truth, seed)
                        if r.source not in taken]
    population = StudentPopulation(corpus)
    return (population.stream(PANEL_SEED, PANEL_SIZE)
            + population.stream(seed, STUDENT_STREAM_LEN))
