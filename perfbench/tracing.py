"""Spans around exsim's public entry points, installed from outside the package.

``Tracer.install`` replaces each entry point in ``ENTRY_POINTS`` with a
wrapper that records one span per call: name, start, end, parent span and
the request id the serving loop set. Functions that other modules imported
by name (``normalize_text``, ``embed_text``) are wrapped where each module
binds them. ``Tracer.uninstall`` puts the originals back. Spans stay in
memory until ``write`` saves them at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from collections import defaultdict
from typing import Callable, Optional

SETUP = -1  # request id of spans recorded while building the bank

# (module, attribute path, span name, output kept per request or None)
ENTRY_POINTS = [
    ("exsim.pipeline", "Pipeline.query_with_cache_info", "pipeline.query", None),
    ("exsim.pipeline", "Pipeline.load", "pipeline.load", None),
    ("exsim.pipeline", "step_synth", "pipeline.step_synth", None),
    ("exsim.pipeline", "step_pretrain", "pipeline.step_pretrain", None),
    ("exsim.pipeline", "step_finetune", "pipeline.step_finetune", None),
    ("exsim.pipeline", "step_index", "pipeline.step_index", None),
    ("exsim.pipeline", "step_train_rank", "pipeline.step_train_rank", None),
    ("exsim.recall", "Recaller.recall", "recall.recall", list),
    ("exsim.recall", "Recaller.query_embedding", "recall.query_embed", None),
    ("exsim.recall", "LexicalIndex.search", "recall.bm25", None),
    ("exsim.recall", "LexicalIndex.score_all", "recall.bm25_score", len),
    ("exsim.recall", "VectorIndex.search", "recall.scan", None),
    ("exsim.recall", "merge_candidates", "recall.merge", list),
    ("exsim.recall", "DuplicateDetector.prob", "recall.dedup", None),
    ("exsim.recall", "LexicalIndex.build", "recall.lexical_build", None),
    ("exsim.recall", "VectorIndex.build", "recall.vector_build", None),
    ("exsim.recall", "train_dedup", "recall.train_dedup", None),
    ("exsim.pairclf", "PairFeaturizer.features", "pairclf.features", None),
    ("exsim.pairclf", "PairFeaturizer.embedding", "pairclf.embedding", None),
    ("exsim.pairclf", "edit_similarity", "pairclf.edit_sim", None),
    ("exsim.pairclf", "PairClassifier.train", "pairclf.train", None),
    ("exsim.encoder", "normalize_text", "textnorm.normalize", None),
    ("exsim.pairclf", "normalize_text", "textnorm.normalize", None),
    ("exsim.recall", "normalize_text", "textnorm.normalize", None),
    ("exsim.ranking", "normalize_text", "textnorm.normalize", None),
    ("exsim.textnorm", "normalize_formula", "formula.normalize", None),
    ("exsim.encoder", "embed_text", "encoder.embed_text", None),
    ("exsim.pairclf", "embed_text", "encoder.embed_text", None),
    ("exsim.recall", "embed_text", "encoder.embed_text", None),
    ("exsim.ranking", "Ranker.rank", "ranking.rank", list),
    ("exsim.rerank", "rerank", "rerank.rerank", None),
    ("exsim.rerank", "stage_filter", "rerank.stage_filter", len),
    ("exsim.rerank", "personalize_filter", "rerank.personalize_filter", len),
    ("exsim.rerank", "VariantClassifier.prob", "rerank.variant", None),
    ("exsim.rerank", "train_variant", "rerank.train_variant", None),
]


class Tracer:
    """Records spans in parallel lists; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.request_id = SETUP
        # (request id, span name) -> kept outputs, in call order
        self.outputs: dict[tuple[int, str], list] = defaultdict(list)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, keep: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.requests.append(self.request_id)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.starts[idx] = start
                self.ends[idx] = end
            if keep is not None:
                self.outputs[(self.request_id, name)].append(keep(out))
            return out
        return traced

    def install(self) -> None:
        for module_name, path, name, keep in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self.wrap(name, raw.__func__, keep))
            else:
                patched = self.wrap(name, raw, keep)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        out = self.durations()
        for dur, parent in zip(self.durations(), self.parents):
            if parent >= 0:
                out[parent] -= dur
        return out

    def totals(self, requests: set[int]) -> tuple[dict, dict, dict]:
        """Call count, inclusive and self seconds per span name over the
        given request ids."""
        calls: dict[str, int] = defaultdict(int)
        incl: dict[str, float] = defaultdict(float)
        excl: dict[str, float] = defaultdict(float)
        for name, req, dur, own in zip(self.names, self.requests,
                                       self.durations(), self.self_times()):
            if req in requests:
                calls[name] += 1
                incl[name] += dur
                excl[name] += own
        return calls, incl, excl

    def write(self, path) -> None:
        """Save every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\trequest\n")
            for i, row in enumerate(zip(self.names, self.starts, self.ends,
                                        self.parents, self.requests)):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n" % ((i,) + row))
