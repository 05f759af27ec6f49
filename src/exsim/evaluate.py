"""Retrieval evaluation: recall at K over the recall stage, precision at K
over the ranked output.

Recall@K averages, over seed exercises, the fraction of each seed's
annotated similars found in the top K:

    Recall@K = (1/N) * sum_i TP_i@K / T_i

Precision@K averages, over queries, the fraction of the top K that is
relevant; a query returning fewer than K results keeps K in the denominator
(missing slots count as misses).
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1


@dataclass
class SeedRecall:
    seed_id: str
    annotated: int      # T_i
    found: int          # TP_i@K


@dataclass
class QueryPrecision:
    query_id: str
    relevant_in_top_k: dict[int, int]


@dataclass
class EvalReport:
    config_hash: str = ""
    k_recall: Optional[int] = None
    recall_at_k: Optional[float] = None
    per_seed: list[SeedRecall] = field(default_factory=list)
    precision_ks: tuple[int, ...] = ()
    precision_at_k: dict[int, float] = field(default_factory=dict)
    per_query: list[QueryPrecision] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "config_hash": self.config_hash,
            "recall": None if self.recall_at_k is None else {
                "k": self.k_recall,
                "value": self.recall_at_k,
                "per_seed": [{"seed_id": s.seed_id, "annotated": s.annotated,
                              "found": s.found} for s in self.per_seed],
            },
            "precision": None if not self.precision_at_k else {
                "ks": list(self.precision_ks),
                "values": {str(k): v for k, v in sorted(self.precision_at_k.items())},
                "per_query": [{"query_id": q.query_id,
                               "relevant_in_top_k": {str(k): v for k, v in
                                                     sorted(q.relevant_in_top_k.items())}}
                              for q in self.per_query],
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)


def config_hash(config: Mapping) -> str:
    canon = json.dumps({str(k): str(v) for k, v in sorted(config.items())},
                       sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Metric cores (pure formula evaluation)

def recall_at_k(per_seed: Sequence[tuple[int, int]]) -> float:
    """Mean over seeds of found/annotated; per_seed holds (T_i, TP_i@K)."""
    if not per_seed:
        raise ValueError("recall needs at least one seed")
    for t, tp in per_seed:
        if t < 1:
            raise ValueError("every seed needs at least one annotated similar")
        if tp > t:
            raise ValueError("found cannot exceed annotated")
    return sum(tp / t for t, tp in per_seed) / len(per_seed)


def precision_at_k(per_query: Sequence[int], k: int) -> float:
    """Mean over queries of relevant-in-top-k / k. k=0 is defined as 0."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if not per_query:
        raise ValueError("precision needs at least one query")
    if k == 0:
        return 0.0
    return sum(c / k for c in per_query) / len(per_query)


# ---------------------------------------------------------------------------
# Harness over ranked id lists

def evaluate_recall(top_k_ids: Mapping[str, Sequence[str]],
                    annotated: Mapping[str, set],
                    k: int) -> tuple[float, list[SeedRecall]]:
    """Score recall lists against annotation sets.

    Seeds without annotations are excluded with a warning; seeds missing
    from top_k_ids count as returning nothing.
    """
    per_seed = []
    for seed_id, similars in annotated.items():
        if not similars:
            log.warning("seed %s has no annotated similars; excluded", seed_id)
            continue
        returned = list(top_k_ids.get(seed_id, ()))[:k]
        found = len(set(returned) & set(similars))
        per_seed.append(SeedRecall(seed_id, len(similars), found))
    if not per_seed:
        raise ValueError("no seeds with annotations")
    value = recall_at_k([(s.annotated, s.found) for s in per_seed])
    return value, per_seed


def evaluate_precision(ranked_ids: Mapping[str, Sequence[str]],
                       relevant: Mapping[str, set],
                       ks: Sequence[int] = (1, 3, 5)) -> tuple[dict[int, float],
                                                               list[QueryPrecision]]:
    """Score ranked lists against relevance sets for each cutoff in ks."""
    per_query = []
    for query_id, rel in relevant.items():
        ranked = list(ranked_ids.get(query_id, ()))
        if len(ranked) < max(ks):
            log.debug("query %s returned %d results; missing top-%d slots count"
                      " as misses", query_id, len(ranked), max(ks))
        counts = {k: len(set(ranked[:k]) & set(rel)) for k in ks}
        per_query.append(QueryPrecision(query_id, counts))
    if not per_query:
        raise ValueError("no queries with relevance labels")
    values = {k: precision_at_k([q.relevant_in_top_k[k] for q in per_query], k)
              for k in ks}
    return values, per_query


def annotated_similars(pairs) -> dict[str, set]:
    """Seed id -> set of annotated similar ids, from labeled pairs; every
    seed has at least one."""
    out: dict[str, set] = {}
    for p in pairs:
        if p.is_similar:
            out.setdefault(p.a_id, set()).add(p.b_id)
            out.setdefault(p.b_id, set()).add(p.a_id)
    return out
