"""End-to-end pipeline: workspace artifacts, configuration, query flow.

A workspace directory holds every trained artifact under fixed names
(corpus snapshot, labeled pairs, vocabulary, encoder and ranker parameters,
classifier heads). Build steps write them, :class:`Pipeline` loads them and
answers queries by composing recall, ranking and re-rank. The two recall
indexes are not artifacts: ``Pipeline.load`` builds them in memory from the
corpus, vocabulary and encoder it loads, so they cannot go stale. Each
loaded snapshot's content digest is kept in ``Pipeline.versions``. The
query cache belongs to one loaded pipeline, whose artifacts never change: a
retrain takes effect through a new ``Pipeline.load``, which starts with an
empty cache. Steps that read the labeled pairs refuse a pair naming an id
the corpus lacks.

Text becomes tokens in one place, ``pairclf.PreparedCorpus``, and each step
prepares the bank once. ``step_pretrain`` builds the vocabulary from the
view's token lists and pre-trains on its ids; ``step_finetune`` reads its
stem ids; ``step_train_rank`` trains the ranker over it, and ``step_clean``
its fold heads and its two ranker trainings (see ``clean_and_retrain``).
Stems are normalized when a view is made, answers and analyses only when a
step reads them, and embeddings only when a step asks for them.

Query flow. A stage is built from one view; a miss passes one
``PreparedQuery`` over it. ``Pipeline.load`` prepares the corpus once
(``pairclf.PreparedCorpus``): each exercise is normalized once and embedded
once under the encoder. The recall indexes, dedup, the variant split and the
ranker are built from that one view alone, and the dedup and variant heads
share one featurizer over it; its embedding matrix is the vector index. The
ranker keeps a matrix of its own, each row embedded once under its own
backbone at load. A cache miss prepares the query once, as
``PreparedQuery(exercise, view)``, and passes it, and only it, to recall,
ranking and re-rank. A bank exercise (the very object the loaded corpus
holds, which a request by id resolves to) reads its prepared row: it is not
normalized again, and its embeddings are its rows of the view and of the
ranker's matrix. Any other exercise is normalized once and embedded once
under the encoder and, when it has candidates to rank, once under the
ranker's backbone, so a miss runs ``embed_text`` twice only for a query
that is not a bank object.
The first stage to score pairs, dedup when its head is loaded, makes the
miss's one edit-distance kernel call over the recalled list; ranking and
the variant split read their subsets back. The stages pass candidates as
arrays of corpus rows (``recall.Candidates``); ids are looked up once, for
the served list. ``step_eval`` and ``step_clean``'s P@5 evaluator build
their recall and ranking stages the same way and prepare their bank queries
over the view those stages are built from.

Stop words live in the vocabulary (``Vocab.stop_words``, the header line of
``vocab.txt``); every stage normalizes text with its vocabulary's. Only
``step_pretrain`` reads the ``stopwords`` key, to build the vocabulary; every
later step and ``Pipeline.load`` refuse a key that differs from it.

Configuration is a flat key = value file; see DEFAULTS for the full key
list with defaults. A value no query could be served with (``recall.n``
below 1, a ``recall.dedup_threshold`` not above 0), no training could run
with (``encoder.batch`` below 2, an empty ``rank.tasks``, ``rank.alpha``
weights that train nothing with ``rank.moe`` off) or no report could be cut
at (an ``eval.ks`` entry below 1) is refused where it is read, naming the
key; each ``get_int`` names its key's minimum.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from . import conflearn, corpus as corpus_mod, encoder as encoder_mod
from . import ranking, recall as recall_mod, rerank as rerank_mod
from .corpus import Corpus, Exercise, LabeledPair, SyntheticSpec, SyntheticTruth
from .evaluate import (EvalReport, annotated_similars, config_hash,
                       evaluate_precision, evaluate_recall)
from .pairclf import PairFeaturizer, PreparedCorpus, PreparedQuery
from .recall import RecallConfig, Recaller
from .rerank import RerankConfig, RerankedResult, StudentProfile, VariantClassifier
from .snapshots import atomic_write, file_digest
from .textnorm import Vocab, canonical_stop_words

log = logging.getLogger(__name__)

EVAL_QUERIES = 60  # bank queries the ground-truth P@k evaluation samples

FILES = {
    "corpus": "corpus.snap",
    "pairs": "pairs.jsonl",
    "pairs_clean": "pairs_clean.jsonl",
    "truth": "truth.json",
    "vocab": "vocab.txt",
    "encoder": "encoder.params",
    "ranker": "ranker.params",
    "dedup": "dedup.params",
    "variant": "variant.params",
    "report": "report.json",
    "cleaning": "cleaning.json",
    "embeddings": "embeddings.txt",
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
    "rerank.enable_variant": "on",
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
        values = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key = value")
                key, value = line.split("=", 1)
                values[key.strip()] = value.strip()
        return cls(values)

    def get(self, key: str) -> str:
        return self.values[key]

    def get_int(self, key: str, minimum: Optional[int] = None) -> int:
        value = int(self.values[key])
        if minimum is not None and value < minimum:
            raise ValueError(f"config {key} = {value}: expected at least {minimum}")
        return value

    def get_float(self, key: str) -> float:
        return float(self.values[key])

    def get_bool(self, key: str) -> bool:
        value = self.values[key]
        if value.lower() in _TRUE:
            return True
        if value.lower() in _FALSE:
            return False
        raise ValueError(f"config {key} = {value!r}: expected one of "
                         + ", ".join(_TRUE + _FALSE))

    def get_list(self, key: str) -> list[str]:
        raw = self.values[key].strip()
        return [item.strip() for item in raw.split(",") if item.strip()] if raw else []

    def stop_words(self) -> tuple[str, ...]:
        return tuple(self.get_list("stopwords"))

    def hash(self) -> str:
        return config_hash(self.values)


def _path(workdir, name: str) -> Path:
    return Path(workdir) / FILES[name]


def _load_vocab(workdir, config: Config) -> Vocab:
    """The workspace vocabulary; ConfigurationError when the configured stop
    words are not the ones it was built with."""
    vocab = Vocab.load(_path(workdir, "vocab"))
    configured = canonical_stop_words(config.stop_words())
    if configured != vocab.stop_words:
        raise ConfigurationError([f"{FILES['vocab']} (stop words {list(vocab.stop_words)}, "
                                  f"not {list(configured)}: rerun step_pretrain)"])
    return vocab


def _load_trained(workdir, config: Config):
    """The corpus, vocabulary and encoder every step after step_pretrain reads."""
    return (corpus_mod.load_snapshot(_path(workdir, "corpus")), _load_vocab(workdir, config),
            encoder_mod.load_encoder(_path(workdir, "encoder")))


def _load_pairs(workdir, corpus: Corpus) -> list[LabeledPair]:
    """The labeled pairs file; CorpusError when a pair names an id not in corpus."""
    pairs = corpus_mod.load_pairs(_path(workdir, "pairs"))
    corpus_mod.validate_pairs(corpus, pairs)
    return pairs


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
    pre_cfg = encoder_mod.PretrainConfig(
        d=config.get_int("encoder.d", minimum=1),
        epochs=config.get_int("encoder.epochs", minimum=0),
        lr=config.get_float("encoder.lr"),
        batch_size=config.get_int("encoder.batch", minimum=2),
        tau=config.get_float("encoder.tau"), seed=config.get_int("encoder.seed"))
    corpus = corpus_mod.load_snapshot(_path(workdir, "corpus"))
    view = PreparedCorpus.with_own_vocab(corpus, config.stop_words())
    view.vocab.save(_path(workdir, "vocab"))
    params, history = encoder_mod.pretrain(corpus, view.vocab, view.stem_ids(),
                                           view.analysis_ids(), pre_cfg)
    encoder_mod.save_encoder(params, _path(workdir, "encoder"))
    return params, history


def step_finetune(workdir, config: Config):
    corpus, vocab, params = _load_trained(workdir, config)
    pairs = _load_pairs(workdir, corpus)
    ft_cfg = encoder_mod.FinetuneConfig(
        epochs=config.get_int("finetune.epochs", minimum=0),
        lr=config.get_float("finetune.lr"),
        n_negatives=config.get_int("finetune.negatives", minimum=1),
        seed=config.get_int("encoder.seed"))
    params, history = encoder_mod.fine_tune(params, pairs, corpus,
                                            PreparedCorpus(corpus, vocab).stem_ids(), ft_cfg)
    encoder_mod.save_encoder(params, _path(workdir, "encoder"))
    return params, history


def step_index(workdir, config: Config) -> None:
    """Fit the dedup head (given ground truth) and the variant head (given
    variant-labeled pairs), each a logistic regression over the pair
    features solved by Newton's method (``PairClassifier.train``). The heads
    are as wide as the encoder's pair features, so rerun this step after
    the encoder changes width. The recall indexes are not artifacts:
    ``Pipeline.load`` builds them."""
    corpus, vocab, params = _load_trained(workdir, config)
    truth_path = _path(workdir, "truth")
    if truth_path.exists():
        truth = corpus_mod.load_truth(truth_path)
        dedup_pairs = corpus_mod.generate_dedup_pairs(corpus, truth, seed=97)
        head = recall_mod.train_dedup(dedup_pairs, vocab, params)
        head.save(_path(workdir, "dedup"), "dedup")
    pairs_path = _path(workdir, "pairs")
    if pairs_path.exists():
        pairs = _load_pairs(workdir, corpus)
        if any(p.variant is not None for p in pairs):
            head = rerank_mod.train_variant(pairs, corpus, vocab, params)
            head.save(_path(workdir, "variant"), "variant")


def _rank_config(config: Config) -> ranking.RankConfig:
    """The ranker's training config. With ``rank.moe`` off the weights of
    ``rank.alpha`` are the loss's coefficients, so they must be at least 0
    and sum above 0 over ``rank.tasks``: zero weights train nothing and a
    negative one ascends its loss."""
    alpha = tuple(float(x) for x in config.get_list("rank.alpha"))
    if len(alpha) != 3:
        raise ValueError(f"config rank.alpha = {config.get('rank.alpha')!r}: "
                         "expected 3 comma-separated task weights")
    tasks = config.get_list("rank.tasks")
    if not tasks:
        raise ValueError(f"config rank.tasks = {config.get('rank.tasks')!r}: "
                         "expected at least one task")
    tasks = ranking.resolve_tasks(tasks)
    moe = config.get_bool("rank.moe")
    if not moe and not (all(w >= 0 for w in alpha)
                        and sum(alpha[ranking.TASKS.index(t)] for t in tasks) > 0):
        raise ValueError(f"config rank.alpha = {config.get('rank.alpha')!r}: expected "
                         "weights of at least 0 that sum above 0 over rank.tasks "
                         f"{config.get('rank.tasks')!r}")
    return ranking.RankConfig(
        lr=config.get_float("rank.lr"), epochs=config.get_int("rank.epochs", minimum=0),
        batch_pairs=config.get_int("rank.batch_pairs", minimum=1),
        seed=config.get_int("rank.seed"), moe=moe, alpha=alpha, tasks=tasks)


def step_train_rank(workdir, config: Config):
    corpus, vocab, encoder = _load_trained(workdir, config)
    pairs = _load_pairs(workdir, corpus)
    params, history = ranking.train_ranker(pairs, PreparedCorpus(corpus, vocab),
                                           _rank_config(config), encoder=encoder)
    ranking.save_ranker(params, _path(workdir, "ranker"))
    return params, history


def step_clean(workdir, config: Config):
    """Confidence-learning cycle over one view of the bank; retrains and saves
    the ranker on clean pairs. With ground truth the report scores the prune."""
    corpus, vocab, encoder = _load_trained(workdir, config)
    pairs = _load_pairs(workdir, corpus)
    cl_cfg = conflearn.CleanConfig(
        folds=config.get_int("cl.folds", minimum=2), seed=config.get_int("cl.seed"),
        retrain=_rank_config(config))
    view = PreparedCorpus(corpus, vocab, encoder)
    eval_fn = _make_p5_eval(workdir, config, corpus, view, pairs)
    params, cleaned, report = conflearn.clean_and_retrain(pairs, view, cl_cfg, eval_fn=eval_fn)
    truth_path = _path(workdir, "truth")
    if truth_path.exists():
        report.score_flips(corpus_mod.load_truth(truth_path).flipped)
    ranking.save_ranker(params, _path(workdir, "ranker"))
    corpus_mod.save_pairs(cleaned, _path(workdir, "pairs_clean"))
    with atomic_write(_path(workdir, "cleaning")) as fh:
        fh.write(report.to_json())
    return params, cleaned, report


def _relevant(workdir, corpus: Corpus, pairs) -> dict[str, set[str]]:
    """Evaluation queries and their relevant ids: template mates against
    ground truth when available, else annotated similars."""
    truth_path = _path(workdir, "truth")
    if truth_path.exists():
        truth = corpus_mod.load_truth(truth_path)
        return {ex_id: truth.mates(ex_id) for ex_id in _eval_query_ids(corpus)}
    return annotated_similars(pairs)


def _make_p5_eval(workdir, config, corpus: Corpus, view: PreparedCorpus, pairs):
    """P@5 evaluator against ground truth when available, else annotations;
    ``view`` holds ``corpus`` under the workspace vocab and encoder."""
    relevant = _relevant(workdir, corpus, pairs)
    recaller = Recaller.build(view, config=_recall_config(config))

    def eval_fn(ranker_params) -> float:
        ranker = ranking.Ranker(ranker_params, view)
        ranked = ranked_lists(recaller, ranker, corpus, list(relevant))
        values, _ = evaluate_precision(ranked, relevant, ks=(5,))
        return values[5]

    return eval_fn


def _eval_query_ids(corpus: Corpus) -> list[str]:
    ids = corpus.ids
    if len(ids) <= EVAL_QUERIES:
        return ids
    step = len(ids) / EVAL_QUERIES
    return [ids[int(i * step)] for i in range(EVAL_QUERIES)]


def _recall_config(config: Config) -> RecallConfig:
    threshold = config.get_float("recall.dedup_threshold")
    if not threshold > 0:  # NaN too: dedup would drop every candidate
        raise ValueError(f"config recall.dedup_threshold = "
                         f"{config.get('recall.dedup_threshold')}: expected above 0")
    return RecallConfig(
        k_exact=config.get_int("recall.k_exact", minimum=0),
        k_embed=config.get_int("recall.k_embed", minimum=0),
        n=config.get_int("recall.n", minimum=1),
        dedup_threshold=threshold,
        concept_boost=config.get_float("recall.concept_boost"))


def step_export_embeddings(workdir, config: Config, out_path=None) -> Path:
    corpus, vocab, params = _load_trained(workdir, config)
    out = Path(out_path) if out_path else _path(workdir, "embeddings")
    encoder_mod.export_embeddings(corpus.ids, PreparedCorpus(corpus, vocab, params).embeddings,
                                  out)
    return out


# ---------------------------------------------------------------------------
# Evaluation harness over built components

def recall_lists(recaller: Recaller, corpus: Corpus, seed_ids: Sequence[str],
                 k: int) -> dict[str, list[str]]:
    """Top-k recall output per seed (merge stage, before ranking), each
    prepared once; returns id lists."""
    out = {}
    for seed_id in seed_ids:
        query = PreparedQuery(corpus[seed_id], recaller.view)
        out[seed_id] = recaller.recall(query).ids[:k]
    return out


def ranked_lists(recaller: Recaller, ranker: ranking.Ranker, corpus: Corpus,
                 query_ids: Sequence[str]) -> dict[str, list[str]]:
    """Recall then rank per query, each prepared once for both; returns
    ranked id lists."""
    out = {}
    for query_id in query_ids:
        query = PreparedQuery(corpus[query_id], recaller.view)
        out[query_id] = ranker.rank(query, recaller.recall(query)).ids
    return out


def step_eval(workdir, config: Config) -> EvalReport:
    """Recall@K over annotations plus P@1/3/5 after ranking; writes report.json.
    Refuses an ``eval.k_recall`` or ``eval.ks`` entry below 1, which would
    report a figure of no cut-off."""
    k_recall = config.get_int("eval.k_recall", minimum=1)
    ks = tuple(int(k) for k in config.get_list("eval.ks"))
    if min(ks, default=1) < 1:
        raise ValueError(f"config eval.ks = {config.get('eval.ks')!r}: expected at least 1")
    corpus, vocab, encoder = _load_trained(workdir, config)
    pairs = _load_pairs(workdir, corpus)
    ranker_params = ranking.load_ranker(_path(workdir, "ranker"))
    view = PreparedCorpus(corpus, vocab, encoder)
    recaller = Recaller.build(view, config=_recall_config(config))
    ranker = ranking.Ranker(ranker_params, view)

    annotated = annotated_similars(pairs)
    seed_ids = sorted(annotated)
    recall_value, per_seed = evaluate_recall(
        recall_lists(recaller, corpus, seed_ids, k_recall), annotated, k_recall)

    relevant = _relevant(workdir, corpus, pairs)
    values, per_query = evaluate_precision(
        ranked_lists(recaller, ranker, corpus, list(relevant)), relevant, ks)

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
    variant_clf: Optional[VariantClassifier]
    config: Config
    rerank_config: RerankConfig
    versions: dict[str, str]
    cache_size: int = 256
    _cache: "OrderedDict[tuple, RerankedResult]" = field(default_factory=OrderedDict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    @classmethod
    def load(cls, workdir, config: Optional[Config] = None) -> "Pipeline":
        config = config or Config()
        recall_config = _recall_config(config)
        rerank_config = RerankConfig(
            variant_threshold=config.get_float("rerank.variant_threshold"),
            enable_variant=config.get_bool("rerank.enable_variant"))
        cache_size = config.get_int("cache.size", minimum=0)
        required = ("corpus", "vocab", "encoder", "ranker")
        missing = [name for name in required if not _path(workdir, name).exists()]
        if missing:
            raise ConfigurationError([FILES[m] for m in missing])
        corpus, vocab, encoder = _load_trained(workdir, config)
        ranker_params = ranking.load_ranker(_path(workdir, "ranker"))
        if not ranker_params.trained:
            raise ConfigurationError([FILES["ranker"] + " (untrained)"])
        # every exercise's text normalized and embedded once, shared by the
        # recall indexes (the vector index is the view's matrix), the dedup
        # and variant heads and the ranker (which embeds each row once more
        # into a matrix of its own, under its own backbone, here at load)
        view = PreparedCorpus(corpus, vocab, encoder)
        featurizer = PairFeaturizer(view)
        dedup = None
        if _path(workdir, "dedup").exists():
            dedup = recall_mod.DuplicateDetector.load(_path(workdir, "dedup"), featurizer)
        variant_clf = None
        if _path(workdir, "variant").exists():
            variant_clf = VariantClassifier.load(_path(workdir, "variant"), featurizer)
        recaller = Recaller.build(view, dedup=dedup, config=recall_config)
        versions = {}
        for name in FILES:
            p = _path(workdir, name)
            if p.exists() and name not in ("report", "cleaning", "embeddings"):
                versions[name] = file_digest(p)
        return cls(corpus=corpus, vocab=vocab, recaller=recaller,
                   ranker=ranking.Ranker(ranker_params, view),
                   variant_clf=variant_clf, config=config,
                   rerank_config=rerank_config, versions=versions,
                   cache_size=cache_size)

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
        if isinstance(query, Exercise):
            digest = hashlib.sha256(
                json.dumps(query.to_record(), sort_keys=True).encode()).hexdigest()
            qkey = ("exercise", digest)
        else:
            qkey = ("id", query)
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
            if key in self._cache:
                self._cache.move_to_end(key)
                return self._cache[key], True
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
        candidates = self.recaller.recall(query)
        ranked = self.ranker.rank(query, candidates)
        return rerank_mod.rerank(query, ranked, profile, self.corpus, self.variant_clf,
                                 self.rerank_config)
