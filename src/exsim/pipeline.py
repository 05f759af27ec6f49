"""End-to-end pipeline: workspace artifacts, configuration, query flow.

A workspace directory holds every trained artifact under fixed names
(corpus snapshot, labeled pairs, the encoder with its vocabulary, ranker
parameters, classifier heads). Build steps write them, :class:`Pipeline`
loads them and answers queries by composing recall, ranking and re-rank.
The two recall indexes are not artifacts: ``Pipeline.load`` builds them in
memory from the corpus and encoder it loads, so they cannot go stale. Each
loaded snapshot's content digest is kept in ``Pipeline.versions``; the
corpus's is the one ``corpus.load_snapshot`` hashed it by. The
query cache belongs to one loaded pipeline, whose artifacts never change: a
retrain takes effect through a new ``Pipeline.load``, which starts with an
empty cache. Its key is the request's profile and either the id string or
the exercise itself, by value: every field, with the image values compared
by ``np.array_equal``. Equal copies of an exercise, and images that differ
only in the sign of a zero, share one entry; an exercise with a NaN image
value is not equal to itself by value, so it hits only as the same object.
An entry holds a reference to the caller's (frozen) exercise until it is
evicted, so at most ``cache.size`` of them. A request by id and one by the
bank's own exercise object are separate entries that serve equal lists.
Steps that read the labeled pairs or ``truth.json`` refuse one naming an id
the corpus lacks; an untrained ranker is refused at load.

Lineage. Every trained snapshot records ``made_from``, the short digests
of the workspace files its step read: the encoder its corpus, and once
fine-tuned the labeled pairs too; the dedup head the encoder and
``truth.json``; the variant head and the ranker (from ``step_train_rank``
or ``step_clean``) the encoder and the labeled pairs. One helper,
``_refuse_stale``, refuses an artifact whose recorded digest is not that
of the file in the workspace now, raising ``ConfigurationError`` that
names the artifact, the file and the step to rerun. Every step after
``step_pretrain`` checks the encoder (``step_finetune`` only its corpus:
it is the step that reads new pairs); ``Pipeline.load`` checks the ranker
and the heads, in one error. So heads or a ranker fitted under another
encoder are never served, nor evaluated.

Per-process contract: a process parses ``corpus.snap`` and
``pairs.jsonl`` once per content, and never a file it saved (see
``corpus``'s persistence section), so a build in one process parses
neither. A step reads ``pairs.jsonl`` once; what it records as made from
``pairs.jsonl`` or ``truth.json`` carries the digest of the bytes it
parsed. The corpus keeps the stem column of its views
(``pairclf.PreparedCorpus``), so in a build in one process no step after
``step_pretrain`` and no ``Pipeline.load`` normalizes a stem:
``step_index`` normalizes only the dedup clones, each once, and
``step_train_rank`` and ``step_clean`` only the analyses they read. Steps
run as processes of their own prepare the bank once each and write the
same bytes. Nothing trained is kept.

Text becomes tokens in one place, ``pairclf``, and is kept as codes. Every
step prepares one view, the rows of the bank. ``step_pretrain`` builds the
vocabulary while it prepares it and writes one snapshot, the encoder with
its vocabulary, only after training succeeds, so a failed run, or a failed
write, leaves the workspace as it was; ``step_finetune`` rewrites it in one
write too. The encoder trains on the view's stem ids, the ranker, the
variant head and the cleaning folds on its rows, and the dedup head on its
rows against clones prepared as served probes (``recall.train_dedup``).
Stems are normalized when a view is made, answers and analyses only when a
step reads them, and embeddings only when a step asks for them.

Query flow. ``Pipeline.load`` builds recall, ranking and re-rank once, and
the recall and ranked lists of ``step_eval``'s report are what those same
stages, ``Pipeline.recaller`` and ``Pipeline.ranker``, return. It prepares
the corpus once (``pairclf.PreparedCorpus``): each stem is read from the
column the corpus keeps, or normalized once in a new process, and embedded
once under the encoder. The recall indexes and the ranker are built from
that one view, whose embedding matrix is the vector index; the dedup and
variant heads are bare ``pairclf.PairClassifier`` s. The ranker keeps a
matrix of its own, each row embedded once under its own backbone at load.
A cache miss prepares the query once, as ``PreparedQuery(exercise, view)``,
and passes it, and only it, to recall, ranking and re-rank. A bank exercise
(the very object the loaded corpus holds, which a request by id resolves
to) reads its prepared row: it is not normalized again, and its embeddings
are its rows of the view and of the ranker's matrix. Any other exercise is
normalized once and embedded once under the encoder and, when it has
candidates to rank, once under the ranker's backbone.
A miss with a student profile runs the stage and difficulty filters once,
in recall, on the merged list, before any pair is scored: the kernel,
dedup, ranking and the variant split see only rows the student can be
served, and the served list has the bits of filtering after ranking.
Re-rank is the variant split alone, by the variant head at
``rerank.variant_threshold``; a workspace without ``variant.params``
serves with no split. The first stage to score pairs, dedup when its head
is loaded, makes the miss's one edit-distance kernel call over the
recalled list and builds the query's one block of feature rows; ranking
reads the similarities back and the variant split the block's rows. The
stages pass candidates as arrays of corpus rows (``recall.Candidates``);
ids are looked up once, for the served list.

Stop words live in the vocabulary (``Vocab.stop_words``), which the encoder
snapshot keeps; every stage normalizes text with its vocabulary's. Only
``step_pretrain`` reads the ``stopwords`` key, to build the vocabulary; every
later step and ``Pipeline.load`` refuse a key that differs from it.

Configuration is a flat key = value file; see DEFAULTS for the full key
list with defaults. ``Config.load`` refuses an unknown key, naming its line,
and a key given twice, naming both lines. A value no query could be served
with (``recall.n`` below 1, a ``recall.dedup_threshold`` not finite and
above 0, a ``recall.concept_boost`` or ``rerank.variant_threshold`` that
is not finite), no training could run with (``encoder.batch`` below 2, an
``encoder.tau`` or a learning rate (``encoder.lr``, ``finetune.lr``,
``rank.lr``) not finite and above 0, an empty ``rank.tasks``,
``rank.alpha`` weights that train nothing with ``rank.moe`` off) or no
report could be cut at (an empty ``eval.ks`` or an entry below 1) is
refused where it is read, naming the key, and so is one that does not
parse as its key's type; each ``get_int`` names its key's minimum.
"""

from __future__ import annotations

import logging
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Union

from . import conflearn, corpus as corpus_mod, encoder as encoder_mod
from . import ranking, recall as recall_mod, rerank as rerank_mod
from .corpus import (Corpus, CorpusError, Exercise, LabeledPair, SyntheticSpec,
                     SyntheticTruth)
from .evaluate import (EvalReport, annotated_similars, config_hash,
                       evaluate_precision, evaluate_recall)
from .pairclf import PairClassifier, PreparedCorpus, PreparedQuery
from .recall import RecallConfig, Recaller
from .rerank import RerankedResult, StudentProfile
from .snapshots import WRITTEN_BY, atomic_write, file_digest, short_digest
from .textnorm import Vocab, canonical_stop_words

log = logging.getLogger(__name__)

EVAL_QUERIES = 60  # bank queries the ground-truth P@k evaluation samples

FILES = {
    "corpus": "corpus.snap",
    "pairs": "pairs.jsonl",
    "pairs_clean": "pairs_clean.jsonl",
    "truth": "truth.json",
    "encoder": "encoder.params",
    "ranker": "ranker.params",
    "dedup": "dedup.params",
    "variant": "variant.params",
    "report": "report.json",
    "cleaning": "cleaning.json",
}

DEFAULTS = {
    "stopwords": "",
    "encoder.d": "32",
    "encoder.epochs": "12",
    "encoder.lr": "0.05",
    "encoder.batch": "32",
    "encoder.tau": "0.1",
    "encoder.seed": "0",
    "finetune.epochs": "4",
    "finetune.lr": "0.01",
    "finetune.negatives": "10",
    "recall.k_exact": "200",
    "recall.k_embed": "200",
    "recall.n": "100",
    "recall.dedup_threshold": "0.5",
    "recall.concept_boost": "0.5",
    "rank.lr": "0.01",
    "rank.epochs": "3",
    "rank.batch_pairs": "16",
    "rank.seed": "0",
    "rank.moe": "on",
    "rank.alpha": "0.3333333333333333,0.3333333333333333,0.3333333333333333",
    "rank.tasks": "t1,t2,t3",
    "cl.folds": "5",
    "cl.seed": "0",
    "rerank.variant_threshold": "0.5",
    "cache.size": "256",
    "eval.k_recall": "100",
    "eval.ks": "1,3,5",
}


_TRUE = ("1", "true", "on", "yes")
_FALSE = ("0", "false", "off", "no")


class ConfigurationError(RuntimeError):
    def __init__(self, missing: list[str]):
        super().__init__("missing, untrained or mismatched components: "
                         + ", ".join(missing))
        self.missing = missing


class NotFoundError(KeyError):
    pass


class Config:
    """Flat key = value configuration with typed accessors."""

    def __init__(self, values: Optional[dict] = None):
        self.values = dict(DEFAULTS)
        if values:
            unknown = set(values) - set(DEFAULTS)
            if unknown:
                raise ValueError(f"unknown config keys: {sorted(unknown)}")
            self.values.update({k: str(v) for k, v in values.items()})

    @classmethod
    def load(cls, path) -> "Config":
        values, line_of = {}, {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key = value")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in DEFAULTS:
                    raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
                if key in line_of:
                    raise ValueError(f"{path}:{lineno}: config key {key!r} given again, "
                                     f"first at line {line_of[key]}")
                values[key], line_of[key] = value, lineno
        return cls(values)

    def get(self, key: str) -> str:
        return self.values[key]

    def get_int(self, key: str, minimum: Optional[int] = None) -> int:
        value = self._parse(key, int, self.values[key], "an integer")
        if minimum is not None and value < minimum:
            raise ValueError(f"config {key} = {value}: expected at least {minimum}")
        return value

    def get_float(self, key: str) -> float:
        return self._parse(key, float, self.values[key], "a number")

    def get_bool(self, key: str) -> bool:
        value = self.values[key]
        if value.lower() in _TRUE:
            return True
        if value.lower() in _FALSE:
            return False
        raise ValueError(f"config {key} = {value!r}: expected one of "
                         + ", ".join(_TRUE + _FALSE))

    def get_list(self, key: str, kind: Callable[[str], Any] = str) -> list:
        """The comma-separated items of ``key``, each converted by ``kind``."""
        raw = self.values[key].strip()
        items = [item.strip() for item in raw.split(",") if item.strip()] if raw else []
        return [self._parse(key, kind, item, f"comma-separated {kind.__name__} values")
                for item in items]

    def _parse(self, key: str, kind: Callable[[str], Any], text: str, expected: str):
        """``kind(text)``; a text that does not convert is refused naming the key."""
        try:
            return kind(text)
        except ValueError:
            raise ValueError(f"config {key} = {self.values[key]!r}: expected {expected}") \
                from None

    def stop_words(self) -> tuple[str, ...]:
        """The configured stop words, canonical (``canonical_stop_words``)."""
        try:
            return canonical_stop_words(self.get_list("stopwords"))
        except ValueError as exc:
            raise ValueError(f"config stopwords = {self.values['stopwords']!r}: {exc}") \
                from None

    def hash(self) -> str:
        return config_hash(self.values)


def _path(workdir, name: str) -> Path:
    return Path(workdir) / FILES[name]


def _versions(workdir, corpus: Corpus, pairs_digest: Optional[str]) -> dict[str, str]:
    """The short digest of each workspace snapshot and input file, by
    ``FILES`` name: the corpus's is the one ``load_snapshot`` hashed, the
    pairs' the one ``load_pairs`` hashed when the step read them
    (``pairs_digest``), and every other file is hashed here."""
    versions = {"corpus": short_digest(corpus.digest)}
    if pairs_digest is not None:
        versions["pairs"] = short_digest(pairs_digest)
    for name in FILES:
        p = _path(workdir, name)
        if name not in versions and name not in ("report", "cleaning") and p.exists():
            versions[name] = file_digest(p)
    return versions


def _refuse_stale(made_from: dict[str, dict[str, str]], versions: dict[str, str]) -> None:
    """The lineage check: ConfigurationError naming each artifact of
    ``made_from`` (``FILES`` name -> the digests its snapshot records) that
    was made from another version of a file than ``versions`` holds now,
    with the files that changed and the step to rerun."""
    stale = []
    for name, sources in made_from.items():
        changed = [source for source, digest in sources.items()
                   if versions.get(source) != digest]
        if changed:
            step = ("step_finetune" if name == "encoder" and "corpus" not in changed
                    else WRITTEN_BY[name])
            stale.append(f"{FILES[name]} (made from another "
                         f"{', '.join(FILES[c] for c in changed)}: rerun {step})")
    if stale:
        raise ConfigurationError(stale)


def _load_trained(workdir, config: Config, lineage=("corpus", "pairs"),
                  read_pairs: bool = False):
    """The corpus, vocabulary, encoder, workspace ``_versions`` and, with
    ``read_pairs``, the labeled pairs (else None) every step after
    step_pretrain reads; the pairs are read once, and their version is the
    digest of the bytes ``load_pairs`` read. ConfigurationError when the
    configured stop words are not the ones the vocabulary was built with, or
    when the encoder was made from another version of a ``lineage`` file;
    CorpusError when a pair names an id the corpus lacks."""
    corpus = corpus_mod.load_snapshot(_path(workdir, "corpus"))
    params, vocab = encoder_mod.load_encoder(_path(workdir, "encoder"))
    configured = config.stop_words()
    if configured != vocab.stop_words:
        raise ConfigurationError([f"{FILES['encoder']} (stop words {list(vocab.stop_words)}, "
                                  f"not {list(configured)}: rerun step_pretrain)"])
    pairs, pairs_digest = (corpus_mod.load_pairs(_path(workdir, "pairs")) if read_pairs
                           else (None, None))
    versions = _versions(workdir, corpus, pairs_digest)
    _refuse_stale({"encoder": {source: digest for source, digest in params.made_from.items()
                               if source in lineage}}, versions)
    if pairs is not None:
        corpus_mod.validate_pairs(corpus, pairs)
    return corpus, vocab, params, versions, pairs


def _load_truth(workdir, corpus: Corpus) -> tuple[Optional[SyntheticTruth], Optional[str]]:
    """The ground truth and the short digest of the bytes it was parsed
    from, (None, None) without a truth file; CorpusError when a group or a
    flipped pair names an id ``corpus`` lacks, as the truth of another bank
    does."""
    path = _path(workdir, "truth")
    if not path.exists():
        return None, None
    truth, digest = corpus_mod.load_truth(path)
    named = [*(ex_id for members in truth.groups.values() for ex_id in members),
             *(f[side] for f in truth.flipped for side in ("a_id", "b_id"))]
    unknown = next((ex_id for ex_id in named if ex_id not in corpus), None)
    if unknown is not None:
        raise CorpusError(f"{path.name} names id {unknown!r}, which the corpus lacks: it is "
                          "another bank's truth; rerun step_synth, or delete it if the "
                          "bank was ingested")
    return truth, short_digest(digest)


def _positive_float(config: Config, key: str) -> float:
    """``key``'s number; ValueError naming the key unless it is finite and
    above 0 (so NaN is refused too)."""
    value = config.get_float(key)
    if not 0 < value < math.inf:
        raise ValueError(f"config {key} = {config.get(key)}: expected above 0 and finite")
    return value


# ---------------------------------------------------------------------------
# Build steps (each reads earlier artifacts, writes its own)

def step_ingest(workdir, jsonl_path, levels: Optional[int] = None) -> Corpus:
    corpus = corpus_mod.load_corpus(jsonl_path, levels=levels)
    Path(workdir).mkdir(parents=True, exist_ok=True)
    corpus_mod.save_snapshot(corpus, _path(workdir, "corpus"))
    return corpus


def step_synth(workdir, spec: SyntheticSpec) -> tuple[Corpus, SyntheticTruth,
                                                      list[LabeledPair]]:
    corpus, truth, pairs = corpus_mod.generate_synthetic(spec)
    Path(workdir).mkdir(parents=True, exist_ok=True)
    corpus_mod.save_snapshot(corpus, _path(workdir, "corpus"))
    corpus_mod.save_pairs(pairs, _path(workdir, "pairs"))
    corpus_mod.save_truth(truth, _path(workdir, "truth"))
    return corpus, truth, pairs


def step_pretrain(workdir, config: Config):
    """Build the vocabulary and pre-train the encoder over it; the encoder
    snapshot, which keeps the vocabulary, is written once training has
    succeeded, in one atomic write."""
    pre_cfg = encoder_mod.PretrainConfig(
        d=config.get_int("encoder.d", minimum=1),
        epochs=config.get_int("encoder.epochs", minimum=0),
        lr=_positive_float(config, "encoder.lr"),
        batch_size=config.get_int("encoder.batch", minimum=2),
        tau=_positive_float(config, "encoder.tau"),
        seed=config.get_int("encoder.seed", minimum=0))
    stop_words = config.stop_words()
    corpus = corpus_mod.load_snapshot(_path(workdir, "corpus"))
    view = PreparedCorpus.with_own_vocab(corpus, stop_words)
    params, history = encoder_mod.pretrain(view, pre_cfg)
    encoder_mod.save_encoder(params, view.vocab, _path(workdir, "encoder"),
                             {"corpus": short_digest(corpus.digest)})
    return params, history


def step_finetune(workdir, config: Config):
    """Fine-tune the encoder on the labeled pairs. Of the encoder's lineage
    only the corpus is checked: this is the step that reads new pairs."""
    corpus, vocab, params, versions, pairs = _load_trained(
        workdir, config, lineage=("corpus",), read_pairs=True)
    ft_cfg = encoder_mod.FinetuneConfig(
        epochs=config.get_int("finetune.epochs", minimum=0),
        lr=_positive_float(config, "finetune.lr"),
        n_negatives=config.get_int("finetune.negatives", minimum=1),
        seed=config.get_int("encoder.seed", minimum=0))
    params, history = encoder_mod.fine_tune(params, pairs, PreparedCorpus(corpus, vocab),
                                            ft_cfg)
    encoder_mod.save_encoder(params, vocab, _path(workdir, "encoder"),
                             {name: versions[name] for name in ("corpus", "pairs")})
    return params, history


def step_index(workdir, config: Config) -> None:
    """Fit the dedup head (given ground truth, ``recall.train_dedup``) and
    the variant head (given variant-labeled pairs), both over one view of
    the bank. Each head records the encoder and the file it was fitted
    from: rerun this step after either changes. A head it cannot fit is
    removed, so the load serves without it rather than refusing one fitted
    from files since removed. The recall indexes are not artifacts:
    ``Pipeline.load`` builds them."""
    corpus, vocab, params, versions, pairs = _load_trained(
        workdir, config, read_pairs=_path(workdir, "pairs").exists())
    truth, truth_version = _load_truth(workdir, corpus)
    variant = any(p.variant is not None for p in pairs or ())
    if truth is None:
        _path(workdir, "dedup").unlink(missing_ok=True)
    if not variant:
        _path(workdir, "variant").unlink(missing_ok=True)
    if truth is None and not variant:
        return
    view = PreparedCorpus(corpus, vocab, params)
    if truth is not None:
        recall_mod.train_dedup(truth, view).save(
            _path(workdir, "dedup"), "dedup",
            {"encoder": versions["encoder"], "truth": truth_version})
    if variant:
        rerank_mod.train_variant(pairs, view).save(
            _path(workdir, "variant"), "variant",
            {name: versions[name] for name in ("encoder", "pairs")})


def _rank_config(config: Config) -> ranking.RankConfig:
    """The ranker's training config. With ``rank.moe`` off the weights of
    ``rank.alpha`` are the loss's coefficients, so they must be at least 0
    and sum above 0 over ``rank.tasks``: zero weights train nothing and a
    negative one ascends its loss."""
    alpha = tuple(config.get_list("rank.alpha", float))
    if len(alpha) != 3:
        raise ValueError(f"config rank.alpha = {config.get('rank.alpha')!r}: "
                         "expected 3 comma-separated task weights")
    try:
        tasks = ranking.resolve_tasks(config.get_list("rank.tasks"))
        if not tasks:
            raise ValueError("expected at least one task")
    except ValueError as exc:
        raise ValueError(f"config rank.tasks = {config.get('rank.tasks')!r}: {exc}") from None
    moe = config.get_bool("rank.moe")
    if not moe and not (all(w >= 0 for w in alpha)
                        and sum(alpha[ranking.TASKS.index(t)] for t in tasks) > 0):
        raise ValueError(f"config rank.alpha = {config.get('rank.alpha')!r}: expected "
                         "weights of at least 0 that sum above 0 over rank.tasks "
                         f"{config.get('rank.tasks')!r}")
    return ranking.RankConfig(
        lr=_positive_float(config, "rank.lr"), epochs=config.get_int("rank.epochs", minimum=0),
        batch_pairs=config.get_int("rank.batch_pairs", minimum=1),
        seed=config.get_int("rank.seed", minimum=0), moe=moe, alpha=alpha, tasks=tasks)


def step_train_rank(workdir, config: Config):
    corpus, vocab, encoder, versions, pairs = _load_trained(workdir, config, read_pairs=True)
    params, history = ranking.train_ranker(pairs, PreparedCorpus(corpus, vocab),
                                           _rank_config(config), encoder=encoder)
    ranking.save_ranker(params, _path(workdir, "ranker"),
                        {name: versions[name] for name in ("encoder", "pairs")})
    return params, history


def step_clean(workdir, config: Config):
    """Confidence-learning cycle over one view of the bank
    (``conflearn.clean``), then the ranker trained and saved on the cleaned
    pairs, once. With ground truth the report scores the prune;
    ``step_eval`` reports the ranker's precision."""
    corpus, vocab, encoder, versions, pairs = _load_trained(workdir, config, read_pairs=True)
    cl_cfg = conflearn.CleanConfig(folds=config.get_int("cl.folds", minimum=2),
                                   seed=config.get_int("cl.seed", minimum=0))
    rank_cfg = _rank_config(config)
    truth, _ = _load_truth(workdir, corpus)
    view = PreparedCorpus(corpus, vocab, encoder)
    cleaned, report = conflearn.clean(pairs, view, cl_cfg)
    if truth is not None:
        report.score_flips(truth.flipped)
    params, _ = ranking.train_ranker(cleaned, view, rank_cfg, encoder=encoder)
    ranking.save_ranker(params, _path(workdir, "ranker"),
                        {name: versions[name] for name in ("encoder", "pairs")})
    corpus_mod.save_pairs(cleaned, _path(workdir, "pairs_clean"))
    with atomic_write(_path(workdir, "cleaning")) as fh:
        fh.write(report.to_json())
    return params, cleaned, report


def _relevant(workdir, corpus: Corpus, pairs) -> dict[str, set[str]]:
    """Evaluation queries and their relevant ids: template mates against
    ground truth when available, else annotated similars."""
    truth, _ = _load_truth(workdir, corpus)
    if truth is not None:
        return {ex_id: truth.mates(ex_id) for ex_id in _eval_query_ids(corpus)}
    return annotated_similars(pairs)


def _eval_query_ids(corpus: Corpus) -> list[str]:
    ids = corpus.ids
    if len(ids) <= EVAL_QUERIES:
        return ids
    step = len(ids) / EVAL_QUERIES
    return [ids[int(i * step)] for i in range(EVAL_QUERIES)]


def _finite_float(config: Config, key: str) -> float:
    """``key``'s number; ValueError naming the key unless it is finite."""
    value = config.get_float(key)
    if not math.isfinite(value):
        raise ValueError(f"config {key} = {config.get(key)}: expected a finite number")
    return value


def _recall_config(config: Config) -> RecallConfig:
    # a threshold not above 0 (NaN too) would make dedup drop every candidate
    threshold = _positive_float(config, "recall.dedup_threshold")
    return RecallConfig(
        k_exact=config.get_int("recall.k_exact", minimum=0),
        k_embed=config.get_int("recall.k_embed", minimum=0),
        n=config.get_int("recall.n", minimum=1),
        dedup_threshold=threshold,
        # NaN scores drop every BM25 candidate
        concept_boost=_finite_float(config, "recall.concept_boost"))


# ---------------------------------------------------------------------------
# Evaluation over the served stages

def step_eval(workdir, config: Config) -> EvalReport:
    """Recall@K over annotations of the loaded pipeline's recall stage, and
    P@k of its ranking, with every query prepared and recalled once over
    the stages' view; writes report.json. Refuses an ``eval.k_recall`` or ``eval.ks``
    entry below 1, which would report a figure of no cut-off, an empty
    ``eval.ks``, labeled pairs or a truth file naming an id the corpus
    lacks (before any artifact is loaded), and whatever ``Pipeline.load``
    refuses."""
    k_recall = config.get_int("eval.k_recall", minimum=1)
    ks = tuple(config.get_list("eval.ks", int))
    if min(ks, default=0) < 1:
        raise ValueError(f"config eval.ks = {config.get('eval.ks')!r}: "
                         "expected at least one cut-off, each at least 1")
    corpus = corpus_mod.load_snapshot(_path(workdir, "corpus"))
    pairs, _ = corpus_mod.load_pairs(_path(workdir, "pairs"))
    corpus_mod.validate_pairs(corpus, pairs)
    relevant = _relevant(workdir, corpus, pairs)
    pipe = Pipeline.load(workdir, config)

    annotated = annotated_similars(pairs)
    recall_ids, ranked_ids = {}, {}
    for ex_id in sorted({*annotated, *relevant}):
        query = PreparedQuery(pipe.corpus[ex_id], pipe.recaller.view)
        recalled = pipe.recaller.recall(query)
        if ex_id in annotated:
            recall_ids[ex_id] = recalled.ids[:k_recall]
        if ex_id in relevant:
            ranked_ids[ex_id] = pipe.ranker.rank(query, recalled).ids
    recall_value, per_seed = evaluate_recall(recall_ids, annotated, k_recall)
    values, per_query = evaluate_precision(ranked_ids, relevant, ks)

    report = EvalReport(config_hash=config.hash(), k_recall=k_recall,
                        recall_at_k=recall_value, per_seed=per_seed,
                        precision_ks=ks, precision_at_k=values, per_query=per_query)
    with atomic_write(_path(workdir, "report")) as fh:
        fh.write(report.to_json())
    return report


# ---------------------------------------------------------------------------
# The serving pipeline

@dataclass
class Pipeline:
    corpus: Corpus
    vocab: Vocab
    recaller: Recaller
    ranker: ranking.Ranker
    variant: Optional[PairClassifier]
    variant_threshold: float
    config: Config
    versions: dict[str, str]
    cache_size: int = 256
    _cache: "OrderedDict[tuple, RerankedResult]" = field(default_factory=OrderedDict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    @classmethod
    def load(cls, workdir, config: Optional[Config] = None) -> "Pipeline":
        config = config or Config()
        recall_config = _recall_config(config)
        # against NaN no probability compares, so nothing would be split
        variant_threshold = _finite_float(config, "rerank.variant_threshold")
        cache_size = config.get_int("cache.size", minimum=0)
        required = ("corpus", "encoder", "ranker")
        missing = [name for name in required if not _path(workdir, name).exists()]
        if missing:
            raise ConfigurationError([FILES[m] for m in missing])
        corpus, vocab, encoder, versions, _ = _load_trained(workdir, config)
        heads = {name: PairClassifier.load(_path(workdir, name), name)
                 for name in ("dedup", "variant") if _path(workdir, name).exists()}
        ranker_params = ranking.load_ranker(_path(workdir, "ranker"))
        if not ranker_params.trained:
            raise ConfigurationError([FILES["ranker"] + " (untrained)"])
        _refuse_stale({"ranker": ranker_params.made_from,
                       **{name: head.made_from for name, head in heads.items()}}, versions)
        # every exercise's text normalized and embedded once, shared by the
        # recall indexes (the vector index is the view's matrix), the dedup
        # and variant heads and the ranker (which embeds each row once more
        # into a matrix of its own, under its own backbone, here at load)
        view = PreparedCorpus(corpus, vocab, encoder)
        recaller = Recaller.build(view, dedup=heads.get("dedup"), config=recall_config)
        return cls(corpus=corpus, vocab=view.vocab, recaller=recaller,
                   ranker=ranking.Ranker(ranker_params, view),
                   variant=heads.get("variant"), variant_threshold=variant_threshold,
                   config=config, versions=versions, cache_size=cache_size)

    # -- query flow ----------------------------------------------------------

    def resolve(self, query: Union[str, Exercise]) -> Exercise:
        if isinstance(query, Exercise):
            return query
        ex = self.corpus.get(query)
        if ex is None:
            raise NotFoundError(f"unknown exercise id {query!r}")
        return ex

    def _cache_key(self, query: Union[str, Exercise],
                   profile: Optional[StudentProfile]) -> tuple:
        """``(query key, profile key)``. An id string is keyed as ``("id",
        id)``; an exercise as ``("exercise", exercise)``, by the value
        ``Exercise.__eq__`` and ``__hash__`` give it: a hash of its fields
        and one ``np.array_equal`` of its images, nothing serialized. Tuples
        compare their items identity first, so an exercise with a NaN image
        value, unequal to itself by value, still hits as the same object."""
        qkey = ("exercise", query) if isinstance(query, Exercise) else ("id", query)
        pkey = None if profile is None else (profile.ability, profile.stage_mode,
                                             profile.current_stage)
        return qkey, pkey

    def query(self, query: Union[str, Exercise],
              profile: Optional[StudentProfile] = None) -> RerankedResult:
        return self.query_with_cache_info(query, profile)[0]

    def query_with_cache_info(self, query: Union[str, Exercise],
                              profile: Optional[StudentProfile] = None
                              ) -> tuple[RerankedResult, bool]:
        key = self._cache_key(query, profile)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                return cached, True
        result = self._compute(self.resolve(query), profile)
        with self._lock:
            self._cache[key] = result
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
        return result, False

    def _compute(self, exercise: Exercise,
                 profile: Optional[StudentProfile]) -> RerankedResult:
        query = PreparedQuery(exercise, self.recaller.view)
        candidates = self.recaller.recall(query, profile)
        ranked = self.ranker.rank(query, candidates)
        return rerank_mod.rerank(query, ranked, profile, self.variant, self.variant_threshold)
