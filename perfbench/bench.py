"""Set-up, the closed request loop, output checks and metrics of one run.

One client sends each request only after the previous one returned, from
this process, with no threads. An untraced run reports the end-to-end
metrics; a traced run reports the per-layer metrics and fails unless its
served digest equals that of an untraced pass over the same panel. Times
are reported at the reference speed of ``speed.py``.
"""

from __future__ import annotations

import hashlib
import math
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from exsim import pipeline
from exsim.corpus import Corpus, SyntheticSpec, SyntheticTruth
from exsim.rerank import RerankedResult

from .speed import Speedometer
from .tracing import SETUP, Tracer
from .workloads import BANKS, PANEL_SIZE, Request, Workload, make_stream

HIT_REPLAY = 32  # recent requests replayed after the loop to time cache hits
# calibrate() calls per speed sample: few between requests, where samples are
# frequent, more around set-up steps, where each sample scales a whole step
SERVE_REPEATS = 3
SETUP_REPEATS = 9


@dataclass
class Served:
    request: Request
    result: Optional[RerankedResult]
    hit: bool
    at: float                       # perf_counter() when the request was sent
    seconds: float
    error: Optional[str] = None


@dataclass
class Bank:
    workdir: Path
    corpus: Corpus
    truth: SyntheticTruth
    config: pipeline.Config
    mates: dict = field(default_factory=dict)

    def __post_init__(self):
        for members in self.truth.groups.values():
            group = set(members)
            for ex_id in members:
                self.mates[ex_id] = group - {ex_id}

    def load(self) -> pipeline.Pipeline:
        return pipeline.Pipeline.load(self.workdir, self.config)


def build_bank(workdir: Path, spec: SyntheticSpec, config: pipeline.Config,
               between: Callable[[], None]) -> tuple[Bank, pipeline.Pipeline]:
    """The product build path; ``between`` runs before, between and after
    the steps. step_clean and step_eval are left out (see README.md)."""
    between()
    corpus, truth, _ = pipeline.step_synth(workdir, spec)
    for step in (pipeline.step_pretrain, pipeline.step_finetune,
                 pipeline.step_index, pipeline.step_train_rank):
        between()
        step(workdir, config)
    between()
    pipe = pipeline.Pipeline.load(workdir, config)
    between()
    return Bank(workdir, corpus, truth, config), pipe


def check(req: Request, result: RerankedResult, corpus: Corpus,
          threshold: float) -> Optional[str]:
    """Why a served result is wrong, or None."""
    ids = result.all_ids()
    if len(set(ids)) != len(ids):
        return "an id is served twice"
    if any(ex_id not in corpus for ex_id in ids):
        return "a served id is not in the bank"
    if req.query_id in ids:
        return "the query is served to itself"
    for item in result.variant + result.similar:
        if not math.isfinite(item.score):
            return f"score of {item.ex_id} is not finite"
        if item.variant_prob is not None and not math.isfinite(item.variant_prob):
            return f"variant_prob of {item.ex_id} is not finite"
    if any(i.variant_prob is None or i.variant_prob < threshold for i in result.variant):
        return "a variant item is below the variant threshold"
    if any(i.variant_prob is not None and i.variant_prob >= threshold
           for i in result.similar):
        return "a similar item is at or above the variant threshold"
    return None


def digest(served: list[Served]) -> str:
    """sha256 over the served ids, scores and variant probabilities, bit exact."""
    h = hashlib.sha256()
    for s in served:
        if s.result is None:
            h.update(b"error\n")
            continue
        for part in (s.result.variant, s.result.similar):
            for i in part:
                vp = "-" if i.variant_prob is None else float(i.variant_prob).hex()
                h.update(f"{i.ex_id} {float(i.score).hex()} {vp};".encode())
            h.update(b"|")
        h.update(b"\n")
    return h.hexdigest()


def serve(pipe: pipeline.Pipeline, stream: list[Request], seconds: float,
          min_requests: int, speed: Speedometer, tracer: Optional[Tracer] = None
          ) -> list[Served]:
    """Closed loop over the stream: until ``seconds`` have passed and at
    least ``min_requests`` were sent, or the stream ends. Calibration
    samples are taken between requests."""
    out: list[Served] = []
    speed.sample()
    deadline = time.perf_counter() + seconds
    for i, req in enumerate(stream):
        if i >= min_requests and time.perf_counter() >= deadline:
            break
        if speed.due():
            speed.sample()
        if tracer is not None:
            tracer.request_id = i
        t0 = time.perf_counter()
        try:
            result, hit = pipe.query_with_cache_info(req.query, req.profile)
        except Exception as exc:  # a failed request is counted, not fatal
            out.append(Served(req, None, False, t0, time.perf_counter() - t0,
                              f"{type(exc).__name__}: {exc}"))
            continue
        out.append(Served(req, result, hit, t0, time.perf_counter() - t0))
    if tracer is not None:
        tracer.request_id = SETUP
    speed.sample()
    return out


def check_all(served: list[Served], bank: Bank) -> None:
    threshold = bank.config.get_float("rerank.variant_threshold")
    for s in served:
        if s.error is None:
            s.error = check(s.request, s.result, bank.corpus, threshold)


def precision_recall(ids: list[str], relevant: set[str], k: int,
                     k_recall: int = 100) -> tuple[float, float]:
    """P@k with k in the denominator, and Recall@k_recall."""
    p = sum(1 for i in ids[:k] if i in relevant) / k
    r = (sum(1 for i in ids[:k_recall] if i in relevant) / len(relevant)
         if relevant else 0.0)
    return p, r


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def cache_key(req: Request) -> tuple:
    q = ("id", req.query) if isinstance(req.query, str) else ("probe", req.query.id)
    p = None if req.profile is None else (req.profile.ability, req.profile.stage_mode,
                                          req.profile.current_stage)
    return q, p


def traffic(stream_prefix: list[Request], cache_size: int) -> dict:
    """Properties of the requests sent that cache and filter claims rest on."""
    seen: set = set()
    repeats = 0
    for req in stream_prefix:
        key = cache_key(req)
        repeats += key in seen
        seen.add(key)
    n = len(stream_prefix)
    return {
        "traffic.repeat_share": repeats / n,
        "traffic.probe_share": sum(r.probe for r in stream_prefix) / n,
        "traffic.profiled_share": sum(r.profile is not None for r in stream_prefix) / n,
        "traffic.distinct_keys": len(seen),
        "traffic.keys_per_cache_slot": len(seen) / cache_size,
    }




def ref_ms(served: list[Served], speed: Speedometer) -> list[float]:
    """Each request's latency in ms at the reference speed."""
    return [s.seconds * 1e3 * speed.factor(s.at) for s in served]


# ---------------------------------------------------------------------------
# One run

class Run:
    """Builds the workload's bank in ``workdir`` and serves its stream."""

    def __init__(self, workload: Workload, seed: int, seconds: float, workdir: Path,
                 spec: Optional[SyntheticSpec] = None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = Path(workdir)
        self.spec = spec or BANKS[workload.bank]
        self.config = pipeline.Config(workload.config)

    def setup(self, speed: Speedometer) -> tuple[Bank, pipeline.Pipeline]:
        """Build the bank with calibration samples around each step."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        return build_bank(self.workdir, self.spec, self.config, speed.sample)

    def untraced(self) -> dict:
        setup_speed, speed = Speedometer(SETUP_REPEATS), Speedometer(SERVE_REPEATS)
        bank, pipe = self.setup(setup_speed)
        setup_raw, setup_ref = setup_speed.between()
        stream = make_stream(self.workload, bank.corpus, bank.truth, self.seed)
        served = serve(pipe, stream, self.seconds, PANEL_SIZE, speed)
        check_all(served, bank)
        ok = [s for s in served if s.error is None]
        latency = ref_ms(ok, speed)
        misses = [ms for ms, s in zip(latency, ok) if not s.hit]
        raw_misses = [s.seconds * 1e3 for s in ok if not s.hit]
        panel = served[:PANEL_SIZE]
        quality = [precision_recall(s.result.all_ids(), bank.mates[s.request.source], 5)
                   for s in panel if s.result is not None]
        probes = [s for s in ok if s.request.probe]
        blocked = [s.request.source not in s.result.all_ids() for s in probes]
        failed = len(served) - len(ok)
        metrics = {
            "setup_s": (setup_ref, "s", 1),
            "miss_p50_ms": (pct(misses, 50), "ms", len(misses)),
            "miss_p80_ms": (pct(misses, 80), "ms", len(misses)),
            "throughput_qps": (len(ok) / (sum(latency) / 1e3), "req/s", len(ok)),
            "p_at_5": (float(np.mean([q[0] for q in quality])), "ratio", len(quality)),
            "recall_at_100": (float(np.mean([q[1] for q in quality])), "ratio",
                              len(quality)),
            "dup_blocked_rate": (float(np.mean(blocked)) if blocked else 1.0, "ratio",
                                 len(blocked)),
            "ok_rate": (1.0 - failed / len(served), "ratio", len(served)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB", 1),
        }
        return self._result(served, metrics, {
            "digest": digest(panel),
            "hit_ratio": sum(s.hit for s in served) / len(served),
            "traffic": traffic([s.request for s in served], pipe.cache_size),
            "raw": {"setup_s": setup_raw, "miss_p50_ms": pct(raw_misses, 50),
                    "miss_p80_ms": pct(raw_misses, 80),
                    "throughput_qps": len(ok) / sum(s.seconds for s in ok)},
            "speed_factor": {"setup": setup_speed.factor(), "serve": speed.factor()},
        })

    def traced(self, spans_path: Optional[Path] = None) -> dict:
        tracer = Tracer()
        setup_speed = Speedometer(SETUP_REPEATS)
        plain_speed, speed = Speedometer(SERVE_REPEATS), Speedometer(SERVE_REPEATS)
        with tracer:
            bank, pipe = self.setup(setup_speed)
        stream = make_stream(self.workload, bank.corpus, bank.truth, self.seed)
        plain = serve(pipe, stream[:PANEL_SIZE], 0.0, PANEL_SIZE, plain_speed)
        pipe = bank.load()  # a fresh cache, so the traced pass misses alike
        with tracer:
            served = serve(pipe, stream, self.seconds, PANEL_SIZE, speed, tracer)
        check_all(served, bank)
        hit_us = [us * speed.factor() for us in self._replay_hits(pipe, served)]
        same = digest(plain) == digest(served[:PANEL_SIZE])
        metrics = self._layer_metrics(tracer, bank, pipe, served, hit_us,
                                      speed.factor(), setup_speed.factor())
        metrics.update(self._overhead(plain, plain_speed, served, speed))
        extra = {
            "digest": digest(served[:PANEL_SIZE]),
            "untraced_digest": digest(plain),
            "self_ms_per_miss": self._self_table(tracer, served, speed.factor()),
            "speed_factor": {"setup": setup_speed.factor(), "serve": speed.factor()},
        }
        if spans_path is not None:
            tracer.write(spans_path)
            extra["spans"] = str(spans_path)
        return self._result(served, metrics, extra, correct=same)

    # -- helpers -------------------------------------------------------------

    def _result(self, served: list[Served], metrics: dict, extra: dict,
                correct: bool = True) -> dict:
        failed = sum(s.error is not None for s in served)
        errors = sorted({s.error for s in served if s.error is not None})
        return {"correct": correct and failed == 0, "attempted": len(served),
                "failed": failed, "metrics": metrics, "errors": errors[:5], **extra}

    @staticmethod
    def _replay_hits(pipe: pipeline.Pipeline, served: list[Served]) -> list[float]:
        """Raw µs of the cache-hit path, on keys the LRU still holds."""
        out = []
        for s in served[-HIT_REPLAY:]:
            t0 = time.perf_counter()
            _, hit = pipe.query_with_cache_info(s.request.query, s.request.profile)
            if hit:
                out.append((time.perf_counter() - t0) * 1e6)
        return out

    @staticmethod
    def _misses(served: list[Served]) -> set[int]:
        return {i for i, s in enumerate(served) if not s.hit and s.result is not None}

    def _self_table(self, tracer: Tracer, served: list[Served], scale: float) -> dict:
        misses = self._misses(served)
        _, _, excl = tracer.totals(misses)
        return {name: round(v * 1e3 * scale / len(misses), 4)
                for name, v in sorted(excl.items())}

    @staticmethod
    def _overhead(plain: list[Served], plain_speed: Speedometer,
                  served: list[Served], speed: Speedometer) -> dict:
        """Traced against untraced latency, on the panel misses of both passes."""
        both = [i for i, s in enumerate(plain)
                if s.result is not None and not s.hit and not served[i].hit]
        untraced = pct(ref_ms([plain[i] for i in both], plain_speed), 50)
        traced = pct(ref_ms([served[i] for i in both], speed), 50)
        return {"trace.untraced_miss_p50_ms": (untraced, "ms", len(both)),
                "trace.traced_miss_p50_ms": (traced, "ms", len(both)),
                "trace.overhead_ratio": (traced / untraced, "ratio", len(both))}

    def _layer_metrics(self, tracer: Tracer, bank: Bank, pipe: pipeline.Pipeline,
                       served: list[Served], hit_us: list[float], scale: float,
                       setup_scale: float) -> dict:
        misses = self._misses(served)
        m = len(misses)
        calls, incl, excl = tracer.totals(misses)
        setup_calls, setup_incl, _ = tracer.totals({SETUP})
        out = {}

        def per_miss_calls(metric, span):
            out[metric] = (calls[span] / m, "count", m)

        def per_miss_ms(metric, span, table=incl):
            out[metric] = (table[span] * 1e3 * scale / m, "ms", m)

        def setup_s(metric, span):
            out[metric] = (setup_incl[span] * setup_scale, "s", setup_calls[span])

        per_miss_calls("textnorm.normalize_calls", "textnorm.normalize")
        per_miss_ms("textnorm.normalize_ms", "textnorm.normalize")
        per_miss_calls("formula.parse_calls", "formula.normalize")
        per_miss_ms("formula.parse_ms", "formula.normalize")
        out["textnorm.setup_normalize_calls"] = (setup_calls["textnorm.normalize"],
                                                 "count", 1)
        out["formula.setup_parse_calls"] = (setup_calls["formula.normalize"], "count", 1)
        per_miss_calls("pairclf.edit_sim_calls", "pairclf.edit_sim")
        per_miss_ms("pairclf.edit_sim_ms", "pairclf.edit_sim")
        per_miss_calls("pairclf.features_calls", "pairclf.features")
        per_miss_ms("pairclf.features_ms", "pairclf.features")
        per_miss_ms("pairclf.features_self_ms", "pairclf.features", excl)
        per_miss_calls("pairclf.embedding_calls", "pairclf.embedding")
        per_miss_calls("encoder.embed_text_calls", "encoder.embed_text")
        per_miss_ms("encoder.embed_text_ms", "encoder.embed_text")
        per_miss_ms("recall.recall_ms", "recall.recall")
        per_miss_ms("recall.recall_self_ms", "recall.recall", excl)
        per_miss_ms("recall.query_embed_ms", "recall.query_embed")
        per_miss_ms("recall.merge_ms", "recall.merge")
        per_miss_ms("recall.bm25_ms", "recall.bm25")
        per_miss_ms("recall.scan_ms", "recall.scan")
        per_miss_ms("recall.dedup_ms", "recall.dedup")
        per_miss_calls("recall.dedup_calls", "recall.dedup")
        per_miss_ms("ranking.rank_ms", "ranking.rank")
        per_miss_ms("ranking.rank_self_ms", "ranking.rank", excl)
        per_miss_ms("rerank.rerank_ms", "rerank.rerank")
        per_miss_ms("rerank.variant_ms", "rerank.variant")
        per_miss_calls("rerank.variant_calls", "rerank.variant")
        per_miss_ms("pipeline.miss_ms", "pipeline.query")
        per_miss_ms("pipeline.query_self_ms", "pipeline.query", excl)

        def kept(i, name):
            return tracer.outputs.get((i, name), [])

        bm25_docs = [n for i in misses for n in kept(i, "recall.bm25_score")]
        out["recall.bm25_candidates"] = (float(np.mean(bm25_docs)), "count",
                                         len(bm25_docs))
        merged = [c for i in misses for lst in kept(i, "recall.merge") for c in lst]
        out["recall.merge_both_share"] = (
            sum(c.source == "both" for c in merged) / max(len(merged), 1), "ratio", m)
        recalled = {i: kept(i, "recall.recall")[0] for i in misses}
        n_recalled = sum(len(v) for v in recalled.values())
        out["recall.dedup_drop_ratio"] = (1.0 - n_recalled / max(len(merged), 1),
                                          "ratio", len(merged))

        # quality at each stage boundary, on the same misses
        stages = {"recall": {i: [c.ex_id for c in v] for i, v in recalled.items()},
                  "ranking": {i: [c.ex_id for c in kept(i, "ranking.rank")[0]]
                              for i in misses},
                  "served": {i: served[i].result.all_ids() for i in misses}}
        for stage, lists in stages.items():
            scores = []
            for i, ids in lists.items():
                relevant = bank.mates[served[i].request.source]
                scores.append((precision_recall(ids, relevant, 1)[0],)
                              + precision_recall(ids, relevant, 5))
            for j, metric in enumerate(("p_at_1", "p_at_5", "recall_at_100")):
                out[f"{stage}.{metric}"] = (float(np.mean([s[j] for s in scores])),
                                            "ratio", len(scores))

        variant = sum(len(served[i].result.variant) for i in misses)
        n_served = sum(len(served[i].result.all_ids()) for i in misses)
        out["rerank.variant_share"] = (variant / max(n_served, 1), "ratio", n_served)
        # the filters only run for profiled requests; they keep all the others
        after_filters = [(kept(i, "rerank.personalize_filter") or [len(recalled[i])])[0]
                         for i in misses]
        profiled = [i for i in misses if kept(i, "rerank.personalize_filter")]
        filtered_in = sum(len(recalled[i]) for i in profiled)
        filtered_out = sum(kept(i, "rerank.personalize_filter")[0] for i in profiled)
        out["rerank.filter_kept_ratio"] = (
            filtered_out / filtered_in if filtered_in else 1.0, "ratio", filtered_in)
        out["traffic.candidates_after_recall"] = (n_recalled / m, "count", m)
        out["traffic.candidates_after_filters"] = (float(np.mean(after_filters)),
                                                   "count", m)
        sent = [s.request for s in served]
        for name, value in traffic(sent, pipe.cache_size).items():
            out[name] = (value, "count" if name == "traffic.distinct_keys" else "ratio",
                         len(sent))

        out["pipeline.cache.hit_ratio"] = (sum(s.hit for s in served) / len(served),
                                           "ratio", len(served))
        out["pipeline.cache.hit_us_p50"] = (pct(hit_us, 50) if hit_us else 0.0, "us",
                                            len(hit_us))
        for step in ("synth", "pretrain", "finetune", "index", "train_rank"):
            setup_s(f"pipeline.step_{step}_s", f"pipeline.step_{step}")
        setup_s("pipeline.load_s", "pipeline.load")
        setup_s("recall.lexical_build_s", "recall.lexical_build")
        setup_s("recall.vector_build_s", "recall.vector_build")
        setup_s("recall.train_dedup_s", "recall.train_dedup")
        setup_s("rerank.train_variant_s", "rerank.train_variant")
        setup_s("pairclf.train_s", "pairclf.train")
        out["snapshots.workspace_bytes"] = (
            sum(p.stat().st_size for p in self.workdir.iterdir()), "bytes", 1)
        return out
