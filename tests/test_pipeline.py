"""The product path end to end on a tiny workspace: every build step, then
Pipeline.load and queries, plus bit-identity of the batched pair scoring
against a per-pair computation written out here."""

import contextlib
import dataclasses
import errno
import functools
import hashlib
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from test_corpus import write_jsonl
from test_pairclf import both_order_fit, both_order_probs, reference_similarity
from test_ranking import directional_features, head_probs
from test_recall import reference_merge

from exsim import conflearn, encoder, pairclf, ranking, recall, rerank, snapshots, textnorm
from exsim import corpus as corpus_mod
from exsim import pipeline as pl
from exsim.corpus import Corpus, CorpusError, LabeledPair, SyntheticSpec, load_corpus, save_pairs
from exsim.encoder import load_encoder
from exsim.evaluate import annotated_similars
from exsim.pairclf import PairFeaturizer, PreparedCorpus, PreparedQuery, pair_features
from exsim.recall import VectorIndex
from exsim.rerank import ABILITIES, STAGE_MODES, StudentProfile
from exsim.snapshots import SnapshotFormatError
from exsim.textnorm import normalize_text, split_tokens

TINY = SyntheticSpec(n_templates=3, per_template=8, seed=3)
CONFIG = {"encoder.epochs": "2", "finetune.epochs": "1",
          "rank.epochs": "1", "cl.folds": "2", "cache.size": "4"}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Every build step over the tiny bank, in product order."""
    workdir = tmp_path_factory.mktemp("workspace")
    config = pl.Config(CONFIG)
    corpus, truth, pairs = pl.step_synth(workdir, TINY)
    pl.step_pretrain(workdir, config)
    pl.step_finetune(workdir, config)
    pl.step_index(workdir, config)
    pl.step_train_rank(workdir, config)
    _, cleaned, report = pl.step_clean(workdir, config)
    assert report.n_pruned == len(pairs) - len(cleaned)
    eval_report = pl.step_eval(workdir, config)
    assert 0.0 <= eval_report.recall_at_k <= 1.0
    return workdir, config, corpus, truth


def probe_of(ex):
    """A near-duplicate outside the corpus: the stem plus a year phrase."""
    return dataclasses.replace(ex, id=ex.id + "-probe", stem=ex.stem + " in 2021")


def test_build_steps_write_every_artifact(workspace):
    """Each artifact once, under its name, and nothing else: no vocabulary
    file beside the encoder snapshot that keeps it, no temporary file."""
    workdir, _, _, _ = workspace
    assert sorted(p.name for p in workdir.iterdir()) == sorted(pl.FILES.values())
    json.loads((workdir / pl.FILES["cleaning"]).read_text())
    json.loads((workdir / pl.FILES["report"]).read_text())


def test_ingest_reads_back_the_bank(workspace, tmp_path):
    _, _, corpus, _ = workspace
    write_jsonl(tmp_path / "bank.jsonl", [ex.to_record() for ex in corpus])
    ingested = pl.step_ingest(tmp_path / "ws", tmp_path / "bank.jsonl")
    assert ingested.ids == corpus.ids
    assert ingested.ids == load_corpus(tmp_path / "bank.jsonl").ids


def exercise_fields(ex):
    """Every field of an exercise but its images, as text that tells the
    types apart (``3`` from ``3.0``, a tuple from a list)."""
    return repr((ex.id, ex.stem, ex.options, ex.answer, ex.analysis, ex.metadata,
                 ex.learning_stage))


@pytest.mark.parametrize("step", ["step_synth", "step_ingest"])
def test_what_a_save_keeps_equals_a_parse_of_its_file(tmp_path, new_process, step):
    """The corpus a build step saves is what a later load in the process
    returns unparsed; it equals a parse of the written file in every field,
    image bits and read-only images included, and its digest is the file's
    sha256."""
    workdir = tmp_path / "ws"
    if step == "step_synth":
        kept, _, _ = pl.step_synth(workdir, TINY)
    else:
        bank, _, _ = corpus_mod.generate_synthetic(TINY)
        write_jsonl(tmp_path / "bank.jsonl", [ex.to_record() for ex in bank])
        kept = pl.step_ingest(workdir, tmp_path / "bank.jsonl")
    corpus_path = workdir / pl.FILES["corpus"]
    assert kept.digest == hashlib.sha256(corpus_path.read_bytes()).hexdigest()
    assert corpus_mod.load_snapshot(corpus_path) is kept
    new_process()
    parsed = corpus_mod.load_snapshot(corpus_path)
    assert parsed is not kept and parsed.digest == kept.digest
    assert (parsed.ids, parsed.levels, parsed.d_img, parsed.exercise_types,
            parsed.concepts) == (kept.ids, kept.levels, kept.d_img, kept.exercise_types,
                                 kept.concepts)
    for ours, theirs in zip(kept, parsed):
        assert exercise_fields(ours) == exercise_fields(theirs)
        for images in (ours.image_features, theirs.image_features):
            assert images.dtype == np.float64 and not images.flags.writeable
        assert ours.image_features.shape == theirs.image_features.shape
        assert ours.image_features.tobytes() == theirs.image_features.tobytes()


def test_the_pairs_a_save_keeps_equal_a_parse_of_its_file(tmp_path, new_process):
    """The pairs step_synth saves are what a later load in the process
    returns unparsed, and they equal a parse of the written file."""
    workdir = tmp_path / "ws"
    _, _, pairs = pl.step_synth(workdir, TINY)
    path = workdir / pl.FILES["pairs"]
    kept, digest = corpus_mod.load_pairs(path)
    assert all(a is b for a, b in zip(kept, pairs)) and len(kept) == len(pairs)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    new_process()
    parsed, parsed_digest = corpus_mod.load_pairs(path)
    assert parsed_digest == digest and parsed[0] is not pairs[0]
    assert [repr(p) for p in parsed] == [repr(p) for p in kept]


def test_a_file_rewritten_after_its_save_is_read_by_content(tmp_path):
    """Bytes copied over the saved files, not through a save, are read for
    what they hold: the slots are keyed by content, not by path. The corpus
    slot holds the last corpus saved, so the copy is parsed; the pairs slot
    still holds the other pairs saved, which are served."""
    other, _, other_pairs = corpus_mod.generate_synthetic(dataclasses.replace(TINY, seed=4))
    corpus_mod.save_snapshot(other, tmp_path / "other.snap")
    corpus_mod.save_pairs(other_pairs, tmp_path / "other.jsonl")
    workdir = tmp_path / "ws"
    kept, _, pairs = pl.step_synth(workdir, TINY)
    shutil.copyfile(tmp_path / "other.snap", workdir / pl.FILES["corpus"])
    shutil.copyfile(tmp_path / "other.jsonl", workdir / pl.FILES["pairs"])
    parsed = corpus_mod.load_snapshot(workdir / pl.FILES["corpus"])
    assert parsed is not kept and parsed is not other and parsed == other != kept
    loaded, digest = corpus_mod.load_pairs(workdir / pl.FILES["pairs"])
    assert loaded == other_pairs != pairs and loaded[0] is other_pairs[0]
    assert digest == hashlib.sha256((tmp_path / "other.jsonl").read_bytes()).hexdigest()


def test_load_refuses_an_empty_workspace(tmp_path):
    with pytest.raises(pl.ConfigurationError):
        pl.Pipeline.load(tmp_path)


def test_config_refuses_an_unknown_bool_spelling():
    with pytest.raises(ValueError, match="rank.moe = 'enabled'"):
        pl.Config({"rank.moe": "enabled"}).get_bool("rank.moe")
    assert pl.Config({"rank.moe": "Off"}).get_bool("rank.moe") is False
    assert pl.Config({"rank.moe": "YES"}).get_bool("rank.moe") is True


# the step-config field (or the function parameter) each config key sets;
# the other keys set no field
KEYED_FIELDS = {
    "encoder.d": (encoder.PretrainConfig, "d"),
    "encoder.epochs": (encoder.PretrainConfig, "epochs"),
    "encoder.lr": (encoder.PretrainConfig, "lr"),
    "encoder.batch": (encoder.PretrainConfig, "batch_size"),
    "encoder.tau": (encoder.PretrainConfig, "tau"),
    "encoder.seed": (encoder.PretrainConfig, "seed"),
    "finetune.epochs": (encoder.FinetuneConfig, "epochs"),
    "finetune.lr": (encoder.FinetuneConfig, "lr"),
    "finetune.negatives": (encoder.FinetuneConfig, "n_negatives"),
    "recall.k_exact": (recall.RecallConfig, "k_exact"),
    "recall.k_embed": (recall.RecallConfig, "k_embed"),
    "recall.n": (recall.RecallConfig, "n"),
    "recall.dedup_threshold": (recall.RecallConfig, "dedup_threshold"),
    "recall.concept_boost": (recall.RecallConfig, "concept_boost"),
    "rank.lr": (ranking.RankConfig, "lr"),
    "rank.epochs": (ranking.RankConfig, "epochs"),
    "rank.batch_pairs": (ranking.RankConfig, "batch_pairs"),
    "rank.seed": (ranking.RankConfig, "seed"),
    "rank.moe": (ranking.RankConfig, "moe"),
    "rank.alpha": (ranking.RankConfig, "alpha"),
    "rank.tasks": (ranking.RankConfig, "tasks"),
    "cl.folds": (conflearn.CleanConfig, "folds"),
    "cl.seed": (conflearn.CleanConfig, "seed"),
    "rerank.variant_threshold": (rerank.rerank, "variant_threshold"),
}


def test_every_keyed_field_defaults_to_its_key():
    """A step config built by the library alone trains as the default
    config file does: each field a config key sets has that key's default
    (``encoder.epochs`` was 12 while ``PretrainConfig.epochs`` was 20)."""
    config = pl.Config()
    assert set(KEYED_FIELDS) | {"stopwords", "cache.size", "eval.k_recall", "eval.ks"} == \
        set(pl.DEFAULTS)
    for key, (cls, name) in KEYED_FIELDS.items():
        default = (inspect.signature(cls).parameters[name].default
                   if inspect.isfunction(cls) else getattr(cls(), name))
        if key == "rank.tasks":
            value = ranking.resolve_tasks(config.get_list(key))
        elif key == "rank.alpha":
            value = tuple(config.get_list(key, float))
        elif isinstance(default, bool):
            value = config.get_bool(key)
        else:
            value = type(default)(config.get(key))
        assert default == value, key
    assert ranking.RankConfig() == pl._rank_config(config)
    assert encoder.FinetuneConfig().seed == encoder.PretrainConfig().seed


def test_config_load_reads_a_file_and_refuses_an_unknown_or_repeated_key(tmp_path):
    """A key given twice used to let its last value win in silence."""
    path = tmp_path / "exsim.conf"
    path.write_text("# budget\nencoder.epochs = 3\n\nrank.moe = off  # no gate\n")
    config = pl.Config.load(path)
    assert config.get_int("encoder.epochs") == 3 and config.get_bool("rank.moe") is False
    assert config.values == {**pl.DEFAULTS, "encoder.epochs": "3", "rank.moe": "off"}
    for text, message in (
            ("encoder.epochs = 3\nrank.moe = off\nencoder.epochs = 4\n",
             ":3: config key 'encoder.epochs' given again, first at line 1$"),
            ("rank.moe = off\n\n encoder.epoch = 4\n", ":3: unknown config key 'encoder.epoch'$"),
            # no key turns the variant split off
            ("rank.moe = off\nrerank.enable_variant = on\n",
             ":2: unknown config key 'rerank.enable_variant'$"),
            ("rank.moe = off\nrank.epochs 4\n", ":2: expected key = value$")):
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            pl.Config.load(path)


def test_load_refuses_a_bad_rerank_key(workspace):
    """A threshold that is not finite used to load: against NaN no
    probability compares, so the variant step ran and split nothing."""
    workdir, config, _, _ = workspace
    for key, value, message in (
            ("rerank.variant_threshold", "nan", "rerank.variant_threshold = nan: "
                                                "expected a finite number"),
            ("rerank.variant_threshold", "inf", "rerank.variant_threshold = inf: "),
            ("rerank.variant_threshold", "-inf", "rerank.variant_threshold = -inf: ")):
        bad = pl.Config({**config.values, key: value})
        with pytest.raises(ValueError, match=message):
            pl.Pipeline.load(workdir, bad)


@pytest.mark.parametrize("key, value", [("recall.n", "0"), ("recall.k_exact", "-1"),
                                        ("recall.k_embed", "-1"), ("cache.size", "-1"),
                                        ("recall.dedup_threshold", "0"),
                                        ("recall.dedup_threshold", "-1"),
                                        ("recall.dedup_threshold", "nan"),
                                        ("recall.dedup_threshold", "inf")])
def test_load_refuses_a_value_no_query_can_be_served_with(workspace, key, value):
    """Such a value used to load and then fail every query: recall.n = 0 in
    the merge, cache.size = -1 evicting from an empty cache; a dedup
    threshold of 0 or less, or NaN, served every query an empty list; an
    infinite one turned dedup off without saying so."""
    workdir, config, _, _ = workspace
    bad = pl.Config({**config.values, key: value})
    with pytest.raises(ValueError,
                       match=f"config {key} = {value}: expected (at least|above)"):
        pl.Pipeline.load(workdir, bad)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_refuses_a_concept_boost_that_is_not_finite(workspace, value):
    """A NaN boost used to load and then make the BM25 channel return no
    candidate for any query; an infinite one ties every concept-sharing
    document at the top."""
    workdir, config, _, _ = workspace
    bad = pl.Config({**config.values, "recall.concept_boost": value})
    with pytest.raises(ValueError,
                       match=f"config recall.concept_boost = {value}: expected a finite"):
        pl.Pipeline.load(workdir, bad)


@pytest.mark.parametrize("step, key, value", [
    (pl.step_pretrain, "encoder.d", "0"),
    (pl.step_pretrain, "encoder.epochs", "-1"),
    (pl.step_pretrain, "encoder.batch", "0"),
    (pl.step_pretrain, "encoder.batch", "1"),
    (pl.step_pretrain, "encoder.seed", "-1"),
    (pl.step_pretrain, "encoder.lr", "0"),
    (pl.step_pretrain, "encoder.lr", "-0.5"),
    (pl.step_pretrain, "encoder.lr", "nan"),
    (pl.step_pretrain, "encoder.lr", "inf"),
    (pl.step_finetune, "finetune.lr", "0"),
    (pl.step_finetune, "finetune.lr", "-0.5"),
    (pl.step_finetune, "finetune.lr", "nan"),
    (pl.step_finetune, "finetune.lr", "inf"),
    (pl.step_finetune, "finetune.epochs", "-1"),
    (pl.step_finetune, "finetune.negatives", "0"),
    (pl.step_finetune, "encoder.seed", "-1"),
    (pl.step_train_rank, "rank.epochs", "-1"),
    (pl.step_train_rank, "rank.batch_pairs", "0"),
    (pl.step_train_rank, "rank.tasks", ""),
    (pl.step_train_rank, "rank.seed", "-1"),
    (pl.step_train_rank, "rank.lr", "0"),
    (pl.step_train_rank, "rank.lr", "-0.5"),
    (pl.step_train_rank, "rank.lr", "nan"),
    (pl.step_train_rank, "rank.lr", "-inf"),
    (pl.step_clean, "cl.folds", "1"),
    (pl.step_clean, "cl.seed", "-1"),
    (pl.step_eval, "eval.k_recall", "-1"),
    (pl.step_eval, "eval.k_recall", "0"),
    (pl.step_eval, "eval.ks", "0"),
    (pl.step_eval, "eval.ks", "1,0,5"),
    (pl.step_eval, "eval.ks", ""),
])
def test_build_steps_refuse_a_value_no_training_can_run_with(workspace, tmp_path,
                                                             step, key, value):
    """Such a value used to train nothing and save the untouched model as
    trained (an empty rank.tasks, encoder.batch = 1, no negatives, a
    learning rate of 0), to run gradient ascent (a negative learning rate),
    to fail deep inside training (a negative seed failed inside numpy,
    naming no key), or to report a figure of no cut-off (k_recall = -1
    cut each recall list at [:-1], eval.ks = 0 wrote a P@0, an empty eval.ks
    ran the whole evaluation and then failed on an empty max()); the step
    now refuses it and writes nothing."""
    workdir, config, _, _ = workspace
    copy = tmp_path / "ws"
    shutil.copytree(workdir, copy)
    before = {f.name: f.read_bytes() for f in copy.iterdir()}
    with pytest.raises(ValueError,
                       match=f"config {key} = '?{value}'?: expected (at least|above 0)"):
        step(copy, pl.Config({**config.values, key: value}))
    assert {f.name: f.read_bytes() for f in copy.iterdir()} == before


@pytest.mark.parametrize("value", ["t4", "t1,stem-stems"])
def test_train_rank_refuses_an_unknown_task_naming_its_key(workspace, tmp_path, value):
    """An unknown task used to fail naming the task alone, not the key."""
    workdir, config, _, _ = workspace
    copy = tmp_path / "ws"
    shutil.copytree(workdir, copy)
    before = {f.name: f.read_bytes() for f in copy.iterdir()}
    unknown = value.split(",")[-1]
    with pytest.raises(ValueError, match=rf"^config rank.tasks = '{value}': "
                                         rf"unknown task '{unknown}'$"):
        pl.step_train_rank(copy, pl.Config({**config.values, "rank.tasks": value}))
    assert {f.name: f.read_bytes() for f in copy.iterdir()} == before


@pytest.mark.parametrize("value", ["0", "-0.1", "nan", "inf"])
def test_pretrain_refuses_a_temperature_not_above_zero(workspace, tmp_path, value):
    """encoder.tau = 0 used to fail inside the contrastive loss after the
    vocabulary was replaced, and NaN to show up only as a diverged loss; the
    step now refuses it by key and writes nothing."""
    workdir, config, _, _ = workspace
    copy = tmp_path / "ws"
    shutil.copytree(workdir, copy)
    before = {f.name: f.read_bytes() for f in copy.iterdir()}
    with pytest.raises(ValueError, match=f"^config encoder.tau = {value}: expected above 0"):
        pl.step_pretrain(copy, pl.Config({**config.values, "encoder.tau": value}))
    assert {f.name: f.read_bytes() for f in copy.iterdir()} == before


def test_a_failed_pretrain_leaves_the_workspace_as_it_was(workspace, tmp_path):
    """The vocabulary used to be written before training, so a run that then
    failed left a new vocabulary beside the old encoder, and a load with the
    new stop words served from the mismatched pair."""
    workdir, config, corpus, _ = workspace
    copy = tmp_path / "ws"
    shutil.copytree(workdir, copy)
    exercises = list(corpus)
    exercises[4] = dataclasses.replace(exercises[4], stem="<p></p>", options=())
    corpus_mod.save_snapshot(Corpus(exercises, levels=corpus.levels, d_img=corpus.d_img),
                             copy / pl.FILES["corpus"])
    before = {f.name: f.read_bytes() for f in copy.iterdir()}
    with pytest.raises(CorpusError, match=f"'{exercises[4].id}'.*no tokens"):
        pl.step_pretrain(copy, pl.Config({**config.values, "stopwords": "the,of"}))
    assert {f.name: f.read_bytes() for f in copy.iterdir()} == before


def test_pretrain_refuses_a_stop_word_that_can_never_match(workspace, tmp_path):
    """Stop words are removed as whole words, so "?" was a silent no-op."""
    workdir, config, _, _ = workspace
    copy = tmp_path / "ws"
    shutil.copytree(workdir, copy)
    before = {f.name: f.read_bytes() for f in copy.iterdir()}
    with pytest.raises(ValueError, match=r"^config stopwords = 'the,\?': stop word '\?'"):
        pl.step_pretrain(copy, pl.Config({**config.values, "stopwords": "the,?"}))
    assert {f.name: f.read_bytes() for f in copy.iterdir()} == before


@pytest.mark.parametrize("step, key, value", [
    (pl.step_train_rank, "rank.lr", "fast"),
    (pl.step_train_rank, "rank.epochs", "1.5"),
    (pl.step_train_rank, "rank.alpha", "a,b,c"),
    (pl.step_eval, "eval.ks", "1,x"),
    (pl.Pipeline.load, "recall.n", "ten"),
    (pl.Pipeline.load, "cache.size", "1.5"),
    (pl.Pipeline.load, "rerank.variant_threshold", ""),
])
def test_a_value_that_does_not_parse_is_refused_naming_its_key(workspace, tmp_path,
                                                               step, key, value):
    """Such a value used to fail with the bare conversion error, naming no
    key; the step now refuses it by key and writes nothing."""
    workdir, config, _, _ = workspace
    copy = tmp_path / "ws"
    shutil.copytree(workdir, copy)
    before = {f.name: f.read_bytes() for f in copy.iterdir()}
    with pytest.raises(ValueError, match=f"^config {key} = '{value}': expected "):
        step(copy, pl.Config({**config.values, key: value}))
    assert {f.name: f.read_bytes() for f in copy.iterdir()} == before


def test_load_accepts_the_smallest_serving_values(workspace):
    workdir, config, corpus, _ = workspace
    pipe = pl.Pipeline.load(workdir, pl.Config({**config.values, "recall.n": "1",
                                                "recall.k_exact": "0", "cache.size": "0"}))
    result, hit = pipe.query_with_cache_info(corpus.ids[5])
    again, hit_again = pipe.query_with_cache_info(corpus.ids[5])
    assert len(result.all_ids()) <= 1 and not hit and not hit_again
    assert again is not result and again.all_ids() == result.all_ids()


def test_loaded_pipeline_keeps_one_copy_of_the_corpus(workspace):
    """The pipeline's corpus and vocabulary are the recall view's, read-only,
    and every view of the corpus reads the corpus's own row tuple."""
    workdir, config, _, _ = workspace
    pipe = pl.Pipeline.load(workdir, config)
    view = pipe.recaller.view
    assert pipe.corpus is view.corpus and pipe.vocab is view.vocab
    assert view.exercises is pipe.corpus.exercises and pipe.ranker.view is view
    assert isinstance(view.exercises, tuple) and list(view.exercises) == list(pipe.corpus)
    assert not {"corpus", "vocab"} & {f.name for f in dataclasses.fields(pipe)}
    with pytest.raises(AttributeError):
        pipe.corpus = view.corpus


@pytest.mark.parametrize("alpha", ["0.5,0.5", "0.2,0.2,0.3,0.3", ""])
def test_rank_alpha_needs_three_weights(alpha):
    with pytest.raises(ValueError, match=f"rank.alpha = '{alpha}'"):
        pl._rank_config(pl.Config({"rank.alpha": alpha}))
    weighted = pl._rank_config(pl.Config({"rank.alpha": "0.5,0.3,0.2"}))
    assert weighted.alpha == (0.5, 0.3, 0.2)


@pytest.mark.parametrize("alpha, tasks", [
    ("0,0,0", "t1,t2,t3"), ("1,0,0", "t2,t3"), ("-1,0,0", "t1"),
])
def test_train_rank_refuses_weights_that_train_nothing(workspace, tmp_path, alpha, tasks):
    """With the gate off, weights summing to 0 over the trained tasks saved
    an untouched ranker marked trained, and a negative one ran gradient
    ascent; the step now refuses them and writes nothing. The gate ignores
    the weights, so it accepts them."""
    workdir, config, _, _ = workspace
    copy = tmp_path / "ws"
    shutil.copytree(workdir, copy)
    before = {f.name: f.read_bytes() for f in copy.iterdir()}
    values = {**config.values, "rank.alpha": alpha, "rank.tasks": tasks}
    with pytest.raises(ValueError, match=f"config rank.alpha = '{alpha}': expected weights "
                                         "of at least 0 that sum above 0"):
        pl.step_train_rank(copy, pl.Config({**values, "rank.moe": "off"}))
    assert {f.name: f.read_bytes() for f in copy.iterdir()} == before
    assert pl._rank_config(pl.Config({**values, "rank.moe": "on"})).alpha == \
        tuple(float(w) for w in alpha.split(","))


def copy_workspace(workspace, tmp_path):
    workdir, config, corpus, _ = workspace
    copy = tmp_path / "ws"
    shutil.copytree(workdir, copy)
    return copy, config, corpus


class DiskFull:
    """A file that takes its first write, then fails as a full disk does."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(data)


def test_a_failed_encoder_write_leaves_the_workspace_serving_as_before(workspace, tmp_path,
                                                                       monkeypatch):
    """The vocabulary used to be a file of its own, replaced before the
    encoder was written: a write that then failed left other stop words and
    ids beside the old encoder, and a load served from the mismatched pair.
    step_pretrain now makes one write, of the snapshot that keeps both."""
    workdir, config, corpus = copy_workspace(workspace, tmp_path)
    served = pl.Pipeline.load(workdir, config).query(corpus.ids[5]).all_ids()
    before = {f.name: f.read_bytes() for f in workdir.iterdir()}
    real = snapshots.atomic_write

    @contextlib.contextmanager
    def full_disk(path, mode="w"):
        with real(path, mode) as fh:
            yield DiskFull(fh)

    monkeypatch.setattr(snapshots, "atomic_write", full_disk)
    with pytest.raises(OSError, match="No space left"):
        pl.step_pretrain(workdir, pl.Config({**config.values, "stopwords": "the,of"}))
    monkeypatch.undo()
    assert {f.name: f.read_bytes() for f in workdir.iterdir()} == before
    assert pl.Pipeline.load(workdir, config).query(corpus.ids[5]).all_ids() == served


def test_a_bank_with_a_lone_surrogate_builds_and_serves(workspace, tmp_path):
    """A JSON bank can hold a lone surrogate (``"\\ud800"``), which becomes a
    token. The vocabulary file could not encode it (UnicodeEncodeError); the
    encoder snapshot's JSON header escapes it."""
    workdir, config, corpus = copy_workspace(workspace, tmp_path)
    exercises = list(corpus)
    exercises[5] = dataclasses.replace(exercises[5], stem=exercises[5].stem + " \ud800")
    corpus_mod.save_snapshot(Corpus(exercises, levels=corpus.levels, d_img=corpus.d_img),
                             workdir / pl.FILES["corpus"])
    for step in (pl.step_pretrain, pl.step_finetune, pl.step_index, pl.step_train_rank):
        step(workdir, config)
    pipe = pl.Pipeline.load(workdir, config)
    assert "\ud800" in pipe.vocab
    assert pipe.vocab.id_of("\ud800") in PreparedQuery(exercises[5], pipe.recaller.view).ids
    assert pipe.query(exercises[5].id).all_ids()


def test_a_ranker_of_another_vocabulary_is_refused(workspace, tmp_path):
    """Rerunning step_pretrain alone with stop words used to leave the old
    ranker, one backbone row per old id, and queries were still served. The
    ranker records the encoder it was trained from, so the load and
    step_eval refuse it by lineage."""
    workdir, config, corpus = copy_workspace(workspace, tmp_path)
    stop = pl.Config({**config.values, "stopwords": "the,of"})
    pl.step_pretrain(workdir, stop)
    rows = len(ranking.load_ranker(workdir / pl.FILES["ranker"]).emb)
    assert rows != len(load_encoder(workdir / pl.FILES["encoder"])[1])
    for load in (pl.Pipeline.load, pl.step_eval):
        with pytest.raises(pl.ConfigurationError,
                           match=r"ranker.params \(made from another encoder.params: "
                                 r"rerun step_train_rank or step_clean\)"):
            load(workdir, stop)
    pl.step_index(workdir, stop)
    pl.step_train_rank(workdir, stop)
    assert pl.Pipeline.load(workdir, stop).query(corpus.ids[5]).all_ids()


def test_a_truth_of_another_bank_is_refused(workspace, tmp_path):
    """The same bank ingested under new ids into a workspace that held a
    synthetic bank: step_eval used to score it against the old truth.json
    and report P@k = 0."""
    workdir, config, corpus = copy_workspace(workspace, tmp_path)
    write_jsonl(tmp_path / "bank.jsonl",
                [{**ex.to_record(), "id": "new-" + ex.id} for ex in corpus])
    pl.step_ingest(workdir, tmp_path / "bank.jsonl", levels=corpus.levels)
    pairs, _ = corpus_mod.load_pairs(workdir / pl.FILES["pairs"])
    save_pairs([dataclasses.replace(p, a_id="new-" + p.a_id, b_id="new-" + p.b_id)
                for p in pairs], workdir / pl.FILES["pairs"])
    pl.step_pretrain(workdir, config)
    # the truth is refused before any artifact of the old encoder is read
    for step in (pl.step_index, pl.step_clean, pl.step_eval):
        with pytest.raises(CorpusError, match=r"truth.json names id '[^n]\S*', which the "
                                              "corpus lacks.*rerun step_synth"):
            step(workdir, config)
    (workdir / pl.FILES["truth"]).unlink()
    # step_eval serves through Pipeline.load, which refuses the old heads
    pl.step_index(workdir, config)
    pl.step_train_rank(workdir, config)
    assert pl.step_eval(workdir, config).per_seed


def test_a_truth_group_given_as_a_string_is_refused(workspace, tmp_path):
    """It used to load, ``mates`` returned its characters, and the steps
    blamed another bank's truth."""
    workdir, config, corpus = copy_workspace(workspace, tmp_path)
    (workdir / pl.FILES["truth"]).write_text(
        json.dumps({"groups": {"t00": corpus.ids[0]}, "flipped": []}))
    with pytest.raises(CorpusError, match=r"truth.json: group 't00' is not a list"):
        pl.step_eval(workdir, config)


def must_not_train(*args, **kwargs):
    raise AssertionError("trained before truth.json was checked")


@pytest.mark.parametrize("flipped, message", [
    ([{}], r'truth.json: "flipped" entry 0 is not an object with string "a_id" and "b_id"'),
    ([{"a_id": "e0002", "b_id": "e0006"}, {"a_id": 1, "b_id": "e0001"}],
     r'truth.json: "flipped" entry 1 is not an object with string "a_id" and "b_id"'),
    ([{"a_id": "e0002", "b_id": "no-such-id"}],
     r"truth.json names id 'no-such-id', which the corpus lacks"),
], ids=["empty-entry", "int-id", "unknown-id"])
def test_a_malformed_flipped_list_is_refused_before_any_training(workspace, tmp_path,
                                                                 monkeypatch, flipped,
                                                                 message):
    """``[{}]`` used to load: step_clean ran every fold and trained its
    ranker, then raised a bare KeyError scoring the flips."""
    workdir, config, _ = copy_workspace(workspace, tmp_path)
    path = workdir / pl.FILES["truth"]
    path.write_text(json.dumps({**json.loads(path.read_text()), "flipped": flipped}))
    monkeypatch.setattr(conflearn, "clean", must_not_train)
    monkeypatch.setattr(recall, "train_dedup", must_not_train)
    for step in (pl.step_index, pl.step_clean, pl.step_eval):
        with pytest.raises(CorpusError, match=message):
            step(workdir, config)


def test_pairs_naming_an_unknown_id_are_refused(workspace, tmp_path):
    workdir, config, corpus = copy_workspace(workspace, tmp_path)
    save_pairs([LabeledPair(corpus.ids[0], "no-such-id", "similar")],
               workdir / pl.FILES["pairs"])
    with pytest.raises(CorpusError, match="no-such-id"):
        pl.step_finetune(workdir, config)


@pytest.mark.parametrize("head", ["dedup", "variant"])
def test_load_refuses_a_head_of_another_width(workspace, tmp_path, head):
    """A head fitted before the encoder changed width is refused at load,
    not at the first query: it records the encoder it was fitted from."""
    workdir, config, _ = copy_workspace(workspace, tmp_path)
    narrow = pl.Config({**config.values, "encoder.d": "8"})
    pl.step_pretrain(workdir, narrow)
    pl.step_finetune(workdir, narrow)
    stale = pairclf.PairClassifier.load(workdir / pl.FILES[head], head)
    assert len(stale.weights) != 4 * 8 + 1
    with pytest.raises(pl.ConfigurationError,
                       match=rf"{head}.params \(made from another encoder.params: "
                             r"rerun step_index\)"):
        pl.Pipeline.load(workdir, narrow)


def test_load_indexes_the_current_encoder(workspace, tmp_path):
    workdir, config, corpus = copy_workspace(workspace, tmp_path)
    before = pl.Pipeline.load(workdir, config).recaller.vector.matrix
    retrain = pl.Config({**CONFIG, "finetune.epochs": "2"})
    pl.step_finetune(workdir, retrain)
    # the heads and the ranker fitted under the old encoder are refused
    with pytest.raises(pl.ConfigurationError, match="rerun step_index"):
        pl.Pipeline.load(workdir, retrain)
    pl.step_index(workdir, retrain)
    pl.step_train_rank(workdir, retrain)
    pipe = pl.Pipeline.load(workdir, retrain)
    current = VectorIndex.build(PreparedCorpus(corpus, pipe.vocab,
                                               load_encoder(workdir / pl.FILES["encoder"])[0]))
    assert not np.array_equal(current.matrix, before)
    assert np.array_equal(pipe.recaller.vector.matrix, current.matrix)
    assert pipe.recaller.vector.matrix is pipe.recaller.view.embeddings
    assert pipe.query(corpus.ids[5]).all_ids()


def made_from(workdir, name):
    """The ``made_from`` the workspace's snapshot ``name`` records."""
    path = workdir / pl.FILES[name]
    if name == "encoder":
        return load_encoder(path)[0].made_from
    if name == "ranker":
        return ranking.load_ranker(path).made_from
    return pairclf.PairClassifier.load(path, name).made_from


def test_each_trained_snapshot_records_the_files_its_step_read(workspace, tmp_path):
    workdir, config, _, _ = workspace
    versions = pl.Pipeline.load(workdir, config).versions
    for name, sources in (("encoder", ("corpus", "pairs")), ("dedup", ("encoder", "truth")),
                          ("variant", ("encoder", "pairs")), ("ranker", ("encoder", "pairs"))):
        assert made_from(workdir, name) == {s: versions[s] for s in sources}, name
    copy, config, _ = copy_workspace(workspace, tmp_path)
    pl.step_pretrain(copy, config)
    assert made_from(copy, "encoder") == {"corpus": versions["corpus"]}


def test_a_reseeded_encoder_refuses_the_heads_and_ranker_fitted_before(workspace, tmp_path):
    """Rerunning step_pretrain and step_finetune under another encoder.seed
    keeps every width, so the heads and the ranker of the old encoder used
    to load and serve another top 5 in silence."""
    workdir, config, corpus = copy_workspace(workspace, tmp_path)
    before = pl.Pipeline.load(workdir, config).versions
    reseeded = pl.Config({**config.values, "encoder.seed": "7"})
    pl.step_pretrain(workdir, reseeded)
    pl.step_finetune(workdir, reseeded)
    for load in (pl.Pipeline.load, pl.step_eval):
        with pytest.raises(pl.ConfigurationError) as refused:
            load(workdir, reseeded)
        assert refused.value.missing == [
            "ranker.params (made from another encoder.params: "
            "rerun step_train_rank or step_clean)",
            "dedup.params (made from another encoder.params: rerun step_index)",
            "variant.params (made from another encoder.params: rerun step_index)"], load
    pl.step_index(workdir, reseeded)
    pl.step_train_rank(workdir, reseeded)
    pipe = pl.Pipeline.load(workdir, reseeded)
    for name in ("encoder", "dedup", "variant", "ranker"):
        assert pipe.versions[name] != before[name], name
    assert pipe.query(corpus.ids[5]).all_ids()


def test_step_eval_refuses_a_dedup_head_fitted_under_another_encoder(workspace, tmp_path):
    """step_eval used to build a recall stage of its own, without the dedup
    head, so it reported on a head it never checked."""
    workdir, config, corpus = copy_workspace(workspace, tmp_path)
    old_head = (workdir / pl.FILES["dedup"]).read_bytes()
    reseeded = pl.Config({**config.values, "encoder.seed": "7"})
    for step in (pl.step_pretrain, pl.step_finetune, pl.step_index, pl.step_train_rank):
        step(workdir, reseeded)
    assert pl.step_eval(workdir, reseeded).per_query
    (workdir / pl.FILES["dedup"]).write_bytes(old_head)
    with pytest.raises(pl.ConfigurationError) as refused:
        pl.step_eval(workdir, reseeded)
    assert refused.value.missing == [
        "dedup.params (made from another encoder.params: rerun step_index)"]


@pytest.mark.parametrize("threshold", [None, "0.05"])
def test_the_report_scores_the_served_recall_and_ranking(workspace, tmp_path, threshold):
    """Each seed's recall count and each query's P@k counts are those of
    the lists ``Pipeline.load``'s recaller and ranker return. At a dedup
    threshold of 0.05 the served dedup drops annotated similars that a
    recall without the head keeps, so the report shows the drop."""
    workdir, config, corpus = copy_workspace(workspace, tmp_path)
    truth = workspace[3]
    if threshold is not None:
        config = pl.Config({**config.values, "recall.dedup_threshold": threshold})
    pl.step_eval(workdir, config)
    report = json.loads((workdir / pl.FILES["report"]).read_text())
    pipe = pl.Pipeline.load(workdir, config)
    annotated = annotated_similars(corpus_mod.load_pairs(workdir / pl.FILES["pairs"])[0])
    k = report["recall"]["k"]

    def recalled(ex_id, recaller=pipe.recaller):
        query = PreparedQuery(pipe.corpus[ex_id], recaller.view)
        return query, recaller.recall(query)

    def found(recaller):
        return {ex_id: (len(similars), len(set(recalled(ex_id, recaller)[1].ids[:k]) & similars))
                for ex_id, similars in annotated.items()}

    served = found(pipe.recaller)
    assert {s["seed_id"]: (s["annotated"], s["found"])
            for s in report["recall"]["per_seed"]} == served
    undeduped = found(dataclasses.replace(pipe.recaller, dedup=None))
    assert (sum(f for _, f in served.values())
            < sum(f for _, f in undeduped.values())) == (threshold is not None)
    per_query = report["precision"]["per_query"]
    assert [q["query_id"] for q in per_query] == corpus.ids
    for q in per_query:
        ranked = pipe.ranker.rank(*recalled(q["query_id"])).ids
        assert q["relevant_in_top_k"] == {
            str(cut): len(set(ranked[:cut]) & truth.mates(q["query_id"]))
            for cut in report["precision"]["ks"]}


def test_changed_pairs_refuse_what_was_made_from_them(workspace, tmp_path):
    """The fine-tuned encoder, the variant head and the ranker read
    pairs.jsonl. step_finetune reads the new pairs itself, so it checks only
    the encoder's corpus, and the steps after it follow."""
    workdir, config, corpus = copy_workspace(workspace, tmp_path)
    pairs, _ = corpus_mod.load_pairs(workdir / pl.FILES["pairs"])
    save_pairs(pairs[1:], workdir / pl.FILES["pairs"])
    for step in (pl.Pipeline.load, pl.step_index, pl.step_train_rank, pl.step_eval):
        with pytest.raises(pl.ConfigurationError) as refused:
            step(workdir, config)
        assert refused.value.missing == [
            "encoder.params (made from another pairs.jsonl: rerun step_finetune)"]
    pl.step_finetune(workdir, config)
    with pytest.raises(pl.ConfigurationError, match=r"ranker.params \(made from another "
                                                    r"encoder.params, pairs.jsonl: "):
        pl.Pipeline.load(workdir, config)
    pl.step_index(workdir, config)
    pl.step_train_rank(workdir, config)
    assert pl.Pipeline.load(workdir, config).query(corpus.ids[5]).all_ids()


@pytest.mark.parametrize("step, artifact", [
    (pl.step_finetune, "encoder"), (pl.step_index, "variant"),
    (pl.step_train_rank, "ranker"), (pl.step_clean, "ranker")])
def test_lineage_names_the_pairs_a_step_trained_on(workspace, tmp_path, monkeypatch,
                                                   new_process, step, artifact):
    """pairs.jsonl is replaced by other pairs the moment after the step
    first reads it. The step trains on the pairs of that read and records
    their digest; it used to hash the file first and parse it later, so it
    recorded the first file's digest and trained on the second's pairs."""
    workdir, config, _ = copy_workspace(workspace, tmp_path)
    path = workdir / pl.FILES["pairs"]
    original = path.read_bytes()
    pairs, _ = corpus_mod.load_pairs(path)
    save_pairs(pairs[1:], tmp_path / "other.jsonl")
    new_process()

    def swapping(read):
        def wrapper(p, *args, **kwargs):
            out = read(p, *args, **kwargs)
            if p == path and path.read_bytes() == original:
                shutil.copyfile(tmp_path / "other.jsonl", path)
            return out
        return wrapper

    trained_on, validate = [], corpus_mod.validate_pairs

    def recording(corpus, step_pairs):
        trained_on.append(list(step_pairs))
        return validate(corpus, step_pairs)

    monkeypatch.setattr(pl, "file_digest", swapping(pl.file_digest))
    monkeypatch.setattr(corpus_mod, "load_pairs", swapping(corpus_mod.load_pairs))
    monkeypatch.setattr(corpus_mod, "validate_pairs", recording)
    step(workdir, config)
    assert path.read_bytes() != original
    assert trained_on == [pairs]
    assert made_from(workdir, artifact)["pairs"] == \
        snapshots.short_digest(hashlib.sha256(original).hexdigest())


def test_lineage_names_the_truth_the_dedup_head_was_fitted_from(workspace, tmp_path,
                                                               monkeypatch):
    """truth.json is replaced by a truth of fewer mates the moment after
    step_index first reads it, to hash it for the workspace versions. The
    dedup head records the digest of the truth it was fitted from, the
    second; it used to record the hash of the first."""
    workdir, config, _ = copy_workspace(workspace, tmp_path)
    path = workdir / pl.FILES["truth"]
    original = path.read_bytes()
    truth = json.loads(original)
    truth["groups"] = {name: members[:2] for name, members in truth["groups"].items()}
    other = json.dumps(truth).encode("utf-8")

    def swapping(read):
        def wrapper(p, *args, **kwargs):
            out = read(p, *args, **kwargs)
            if p == path and path.read_bytes() == original:
                path.write_bytes(other)
            return out
        return wrapper

    fitted_from, generate = [], corpus_mod.generate_dedup_pairs

    def recording(corpus, step_truth, *args, **kwargs):
        fitted_from.append(step_truth.groups)
        return generate(corpus, step_truth, *args, **kwargs)

    monkeypatch.setattr(pl, "file_digest", swapping(pl.file_digest))
    monkeypatch.setattr(corpus_mod, "load_truth", swapping(corpus_mod.load_truth))
    monkeypatch.setattr(corpus_mod, "generate_dedup_pairs", recording)
    pl.step_index(workdir, config)
    assert path.read_bytes() == other
    assert fitted_from == [truth["groups"]]
    assert made_from(workdir, "dedup")["truth"] == \
        snapshots.short_digest(hashlib.sha256(other).hexdigest())


def test_an_encoder_of_another_corpus_is_refused_by_every_later_step(workspace, tmp_path):
    workdir, config, corpus = copy_workspace(workspace, tmp_path)
    exercises = list(corpus)
    exercises[5] = dataclasses.replace(exercises[5], stem=exercises[5].stem + " again")
    corpus_mod.save_snapshot(Corpus(exercises, levels=corpus.levels, d_img=corpus.d_img),
                             workdir / pl.FILES["corpus"])
    for step in (pl.step_finetune, pl.step_index, pl.step_train_rank, pl.step_clean,
                 pl.step_eval, pl.Pipeline.load):
        with pytest.raises(pl.ConfigurationError) as refused:
            step(workdir, config)
        assert refused.value.missing == [
            "encoder.params (made from another corpus.snap: rerun step_pretrain)"]


def test_step_index_removes_a_head_it_cannot_fit(workspace, tmp_path):
    """Without truth.json the dedup head left from an earlier run was
    refused by lineage, and rerunning step_index, which fits no dedup head
    then, left it in place, so the refusal had no remedy."""
    workdir, config, corpus = copy_workspace(workspace, tmp_path)
    (workdir / pl.FILES["truth"]).unlink()
    with pytest.raises(pl.ConfigurationError) as refused:
        pl.Pipeline.load(workdir, config)
    assert refused.value.missing == [
        "dedup.params (made from another truth.json: rerun step_index)"]
    pl.step_index(workdir, config)
    assert not (workdir / pl.FILES["dedup"]).exists()
    assert (workdir / pl.FILES["variant"]).exists()
    pipe = pl.Pipeline.load(workdir, config)
    assert pipe.recaller.dedup is None and pipe.query(corpus.ids[5]).all_ids()


def with_format_version(path, version):
    """Rewrite the snapshot at ``path`` with ``version`` in its header."""
    data = path.read_bytes()
    start = len(snapshots._MAGIC) + 4
    end = start + int.from_bytes(data[len(snapshots._MAGIC):start], "little")
    header = json.loads(data[start:end])
    header["version"] = version
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(data[:len(snapshots._MAGIC)] + len(raw).to_bytes(4, "little") + raw
                     + data[end:])


@pytest.mark.parametrize("name, step", [
    ("corpus", "step_synth or step_ingest"), ("encoder", "step_pretrain"),
    ("dedup", "step_index"), ("variant", "step_index"),
    ("ranker", "step_train_rank or step_clean")])
@pytest.mark.parametrize("version", [1, 2, None])
def test_a_snapshot_of_another_format_version_is_refused(workspace, tmp_path, name, step,
                                                         version):
    """Every header records the format version, and a loader refuses any
    other, naming the file, its kind and the step that writes it again."""
    workdir, config, corpus = copy_workspace(workspace, tmp_path)
    path = workdir / pl.FILES[name]
    with_format_version(path, version)
    with pytest.raises(SnapshotFormatError,
                       match=rf"^{re.escape(str(path))}: {name} snapshot of format version "
                             rf"{version}, expected 3; rerun {step} to rewrite it$"):
        pl.Pipeline.load(workdir, config)
    with_format_version(path, 3)
    assert pl.Pipeline.load(workdir, config).query(corpus.ids[5]).all_ids()


def test_a_retrained_ranker_is_served_after_load(workspace, tmp_path):
    """The cache dies with its pipeline: after step_train_rank reruns with
    another seed, the pipeline loaded from the workspace names the new ranker
    and serves its scores, never a result cached under the old one."""
    workdir, config, corpus = copy_workspace(workspace, tmp_path)
    query_id = corpus.ids[5]
    before = pl.Pipeline.load(workdir, config)
    old = before.query(query_id)
    retrain = pl.Config({**CONFIG, "rank.seed": "1"})
    pl.step_train_rank(workdir, retrain)
    pipe = pl.Pipeline.load(workdir, retrain)
    assert pipe.versions["ranker"] != before.versions["ranker"]
    served, hit = pipe.query_with_cache_info(query_id)
    assert not hit
    fresh = pipe._compute(pipe.resolve(query_id), None)
    assert served.ids == fresh.ids
    assert served.scores.tolist() == fresh.scores.tolist()
    assert served.scores.tolist() != old.scores.tolist()
    assert pipe.query_with_cache_info(query_id) == (served, True)


def test_query_flow_and_cache(workspace):
    workdir, config, corpus, truth = workspace
    pipe = pl.Pipeline.load(workdir, config)
    query_id = corpus.ids[5]
    result, hit = pipe.query_with_cache_info(query_id)
    assert not hit
    ids = result.all_ids()
    assert ids and query_id not in ids and len(set(ids)) == len(ids)
    assert ids == [i.ex_id for i in result.variant + result.similar]
    again, hit = pipe.query_with_cache_info(query_id)
    assert hit and again is result

    probe = probe_of(corpus[query_id])
    served = pipe.query(probe).all_ids()
    assert query_id not in served  # dropped as a duplicate of the probe

    profile = StudentProfile("average", "synchronous", (9, 2))
    profiled = pipe.query(query_id, profile)
    assert set(profiled.all_ids()) <= set(ids)
    assert all(i.passed == ("stage", "difficulty", "variant")
               for i in profiled.variant + profiled.similar)

    record = profiled.to_dict()
    assert [d["id"] for d in record["variant"] + record["similar"]] == profiled.all_ids()
    json.dumps(record)

    dedup, threshold = dedup_detector(pipe), pipe.recaller.config.dedup_threshold
    view = pipe.recaller.view
    query = PreparedQuery(corpus[query_id], view)
    assert dedup.prob(query, PreparedQuery(probe, view)) >= threshold
    assert dedup.prob(query, PreparedQuery(corpus[corpus.ids[0]], view)) < threshold
    with pytest.raises(pl.NotFoundError):
        pipe.query("no-such-id")
    markup_only = dataclasses.replace(probe, id="markup", stem="<p></p>", options=())
    assert pipe.query(markup_only).all_ids() == []


# ---------------------------------------------------------------------------
# bit identity of the batched path

def own_tokens(ex, vocab):
    """The tokens of one exercise, normalized from scratch."""
    return split_tokens(normalize_text(ex.text, vocab.stop_words))


def own_embedding(ex, vocab, params):
    """One exercise embedded alone from its own text under ``params``."""
    return encoder.embed_text(np.array([vocab.id_of(t) for t in own_tokens(ex, vocab)],
                                       dtype=np.int64), params)


def dedup_detector(pipe):
    """The per-pair reference of the loaded dedup head, over the served view."""
    return recall.DuplicateDetector(pipe.recaller.dedup, PairFeaturizer(pipe.recaller.view))


def variant_classifier(pipe):
    """The per-pair reference of the loaded variant head, over the served view."""
    return rerank.VariantClassifier(pipe.variant, PairFeaturizer(pipe.recaller.view))


def dedup_reference(detector, a, b, u, v):
    vocab = detector.featurizer.view.vocab
    sim = reference_similarity(own_tokens(a, vocab), own_tokens(b, vocab))
    return detector.classifier.prob(pair_features(u, v, sim))


def variant_reference(variant_clf, query, candidate):
    view = variant_clf.featurizer.view
    sim = reference_similarity(own_tokens(query, view.vocab), own_tokens(candidate, view.vocab))
    return variant_clf.classifier.prob(pair_features(
        own_embedding(query, view.vocab, view.params),
        own_embedding(candidate, view.vocab, view.params), sim))


def ranker_reference(pipe, query, candidates):
    """The stem-stem head over the directional rows of each (query,
    candidate), each side prepared from its own text under the ranker's
    backbone, scored row by row."""
    if not candidates:
        return []
    params, vocab = pipe.ranker.params, pipe.vocab
    f = np.array([directional_features(
        own_embedding(query, vocab, params), own_embedding(ex, vocab, params),
        reference_similarity(own_tokens(query, vocab), own_tokens(ex, vocab)))
        for ex in candidates])
    return head_probs(params, f).tolist()


def profile_keeps(profile, query, ex):
    """The stage and difficulty rules for one candidate."""
    stage, current = ex.learning_stage, profile.current_stage
    if not (stage <= current if profile.stage_mode == "synchronous"
            else stage[1] <= current[1]):
        return False
    d, q = ex.metadata.difficulty, query.metadata.difficulty
    return {"excellent": d >= q, "weak": d <= q}.get(profile.ability, abs(d - q) <= 1)


def reference_query(pipe, query, profile=None):
    """The served (id, score, variant_prob) list, one pair at a time, over
    lists of ``Candidate``."""
    rec = pipe.recaller
    corpus = pipe.corpus
    tokens = own_tokens(query, pipe.vocab)
    codes = np.array(rec.view.code_table().encode(tokens), dtype=np.int64)
    exact = list(rec.lexical.search(codes, frozenset(query.metadata.knowledge_concepts),
                                    rec.config.k_exact, exclude_id=query.id))
    embed = []
    if tokens:
        q_vec = own_embedding(query, pipe.vocab, rec.view.params)
        embed = list(rec.vector.search(q_vec, rec.config.k_embed, exclude_id=query.id))
    kept = [c for c in reference_merge(exact, embed, rec.config.n)
            if rec.dedup is None
            or dedup_reference(dedup_detector(pipe), query, corpus[c.ex_id], q_vec,
                               rec.vector.matrix[rec.vector.index.row_of[c.ex_id]])
            < rec.config.dedup_threshold]
    scores = ranker_reference(pipe, query, [corpus[c.ex_id] for c in kept])
    ranked = sorted(zip([c.ex_id for c in kept], scores), key=lambda c: (-c[1], c[0]))
    if profile is not None:
        ranked = [c for c in ranked if profile_keeps(profile, query, corpus[c[0]])]
    threshold = pipe.config.get_float("rerank.variant_threshold")
    scored = [(ex_id, score, variant_reference(variant_classifier(pipe), query, corpus[ex_id]))
              for ex_id, score in ranked]
    return ([s for s in scored if s[2] >= threshold],
            [s for s in scored if not s[2] >= threshold])


@pytest.mark.parametrize("kind", ["corpus", "probe"])
def test_batched_scores_equal_per_pair(workspace, kind):
    workdir, config, corpus, _ = workspace
    pipe = pl.Pipeline.load(workdir, config)
    query = corpus[corpus.ids[7]]
    if kind == "probe":
        query = probe_of(query)
    others = [ex for ex in corpus if ex.id != query.id]
    rec = pipe.recaller
    rows = np.array([corpus.index.row_of[ex.id] for ex in others])
    u = own_embedding(query, pipe.vocab, rec.view.params)
    v = rec.vector.matrix[rows]
    prepared = PreparedQuery(query, rec.view)
    got = rec.dedup.prob_rows(prepared.feature_rows(rows)).tolist()
    assert got == [dedup_reference(dedup_detector(pipe), query, ex, u, row)
                   for ex, row in zip(others, v)]
    # the variant split reads the rows of the block dedup built
    got = pipe.variant.prob_rows(prepared.feature_rows(rows)).tolist()
    variant = variant_classifier(pipe)
    assert got == [variant_reference(variant, query, ex) for ex in others]
    assert got == [variant.prob(prepared, PreparedQuery(ex, rec.view)) for ex in others]

    result = pipe.query(query if kind == "probe" else query.id)
    variant, similar = reference_query(pipe, query)
    assert [(i.ex_id, i.score, i.variant_prob) for i in result.variant] == variant
    assert [(i.ex_id, i.score, i.variant_prob) for i in result.similar] == similar


# ---------------------------------------------------------------------------
# one prepared query per miss

# keeps 13 of query e0007's 23 served candidates on the tiny bank
PROFILE = StudentProfile("average", "synchronous", (8, 2))


def oov_probe_of(ex):
    """A probe whose stem ends in two words the vocabulary lacks."""
    return dataclasses.replace(ex, id=ex.id + "-oov", stem=ex.stem + " quokka zebu")


def request_of(pipe, corpus, kind):
    query = corpus[corpus.ids[7]]
    if kind == "probe":
        return probe_of(query)
    if kind == "markup":  # no text token, so nothing is recalled
        return dataclasses.replace(probe_of(query), id="markup", stem="<p></p>",
                                   options=())
    if kind == "oov-probe":
        assert "quokka" not in pipe.vocab and "zebu" not in pipe.vocab
        return oov_probe_of(query)
    return query.id


def served_items(result):
    return ([(i.ex_id, i.score, i.variant_prob) for i in result.variant],
            [(i.ex_id, i.score, i.variant_prob) for i in result.similar])


def load_without_dedup(workspace, tmp_path):
    workdir, config, corpus = copy_workspace(workspace, tmp_path)
    (workdir / pl.FILES["dedup"]).unlink()
    pipe = pl.Pipeline.load(workdir, config)
    assert pipe.recaller.dedup is None and pipe.variant is not None
    return pipe, corpus


def counted(counts: Counter, name: str, fn):
    """``fn``, counting its calls in ``counts[name]``."""
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def count_calls(monkeypatch) -> Counter:
    """Count calls of normalize_text, embed_text and the feature-row builders
    (``pair_feature_rows`` and the ranker's ``_directional_rows``) through
    every module binding of them, and of the edit-distance kernel's Myers
    loop (as "kernel"), which every distance goes through."""
    counts = Counter()
    for module in (textnorm, encoder, pairclf, recall, ranking):
        for name in ("normalize_text", "embed_text", "pair_feature_rows", "_directional_rows"):
            if name in vars(module):
                monkeypatch.setattr(module, name, counted(counts, name, vars(module)[name]))
    monkeypatch.setattr(pairclf, "_myers", counted(counts, "kernel", pairclf._myers))
    return counts


@pytest.mark.parametrize("kind", ["corpus", "probe"])
@pytest.mark.parametrize("profile", [None, PROFILE])
def test_a_miss_prepares_its_query_once(workspace, monkeypatch, kind, profile):
    workdir, config, corpus, _ = workspace
    pipe = pl.Pipeline.load(workdir, config)
    counts = count_calls(monkeypatch)
    result, hit = pipe.query_with_cache_info(request_of(pipe, corpus, kind), profile)
    assert not hit and result.variant
    # one kernel call for dedup, ranking and the variant split, and two
    # feature blocks: dedup's, which the variant split reads back, and the
    # ranker's; a probe adds one normalization, the encoder embedding and the
    # ranker's own, while a bank exercise reads its prepared row and both its
    # embedded rows
    if kind == "corpus":
        assert counts == {"kernel": 1, "pair_feature_rows": 1,
                          "_directional_rows": 1}
    else:
        assert counts == {"normalize_text": 1, "kernel": 1, "embed_text": 2,
                          "pair_feature_rows": 1, "_directional_rows": 1}


@pytest.mark.parametrize("kind", ["corpus", "probe"])
@pytest.mark.parametrize("profile", [None, PROFILE])
def test_a_miss_runs_each_filter_once(workspace, monkeypatch, kind, profile):
    """In recall, before any pair work; re-rank used to run both again."""
    workdir, config, corpus, _ = workspace
    pipe = pl.Pipeline.load(workdir, config)
    counts = Counter()
    for name in ("stage_filter", "personalize_filter"):
        monkeypatch.setattr(rerank, name, counted(counts, name, vars(rerank)[name]))
    result, hit = pipe.query_with_cache_info(request_of(pipe, corpus, kind), profile)
    assert not hit and result.all_ids()
    calls = 0 if profile is None else 1
    assert counts == Counter(stage_filter=calls, personalize_filter=calls)


@pytest.mark.parametrize("profile", [None, PROFILE])
def test_a_bank_exercise_serves_what_its_equal_copy_does(workspace, profile):
    """A request by id reads the bank exercise's prepared row; an equal but
    distinct copy is prepared from its own text. Both serve the same bits."""
    workdir, config, corpus, _ = workspace
    pipe = pl.Pipeline.load(workdir, config)
    bank = pipe.corpus[corpus.ids[7]]
    copy = dataclasses.replace(bank)
    assert copy == bank and copy is not bank
    view = pipe.recaller.view
    row_query, text_query = PreparedQuery(bank, view), PreparedQuery(copy, view)
    assert np.shares_memory(row_query.codes, view.codes) and row_query.row == 7
    assert text_query.row is None
    assert row_query.length.tolist() == text_query.length.tolist()
    assert np.array_equal(row_query.codes[0], text_query.codes[0, :int(text_query.length[0])])
    assert row_query.ids.dtype == text_query.ids.dtype
    assert np.array_equal(row_query.ids, text_query.ids)
    assert text_query.ids.tolist() == [pipe.vocab.id_of(t) for t in own_tokens(copy, pipe.vocab)]
    assert served_items(pipe.query(bank.id, profile)) == \
        served_items(pipe.query(copy, profile))


@pytest.mark.parametrize("profile", [None, PROFILE])
def test_a_bank_id_with_another_stem_is_prepared_from_its_text(workspace, profile):
    workdir, config, corpus, _ = workspace
    pipe = pl.Pipeline.load(workdir, config)
    other = dataclasses.replace(pipe.corpus[corpus.ids[7]], stem=corpus[corpus.ids[12]].stem)
    assert served_items(pipe.query(other, profile)) == reference_query(pipe, other, profile)


def test_without_dedup_ranking_makes_the_one_kernel_call(workspace, tmp_path,
                                                         monkeypatch):
    pipe, corpus = load_without_dedup(workspace, tmp_path)
    counts = count_calls(monkeypatch)
    result = pipe.query(request_of(pipe, corpus, "probe"), PROFILE)
    assert result.variant
    assert counts == {"normalize_text": 1, "kernel": 1, "embed_text": 2,
                      "pair_feature_rows": 1, "_directional_rows": 1}


def build(workdir, config, before_step: Callable[[], None] = lambda: None) -> dict:
    """Every build step over the tiny bank, then ``Pipeline.load``; by step
    name, the step's parses of corpus.snap and of pairs.jsonl and the texts
    it normalized (every text is normalized through ``pairclf``'s
    binding)."""
    steps = [("step_synth", lambda: pl.step_synth(workdir, TINY))]
    steps += [(step.__name__, functools.partial(step, workdir, config))
              for step in (pl.step_pretrain, pl.step_finetune, pl.step_index,
                           pl.step_train_rank, pl.step_clean, pl.step_eval)]
    steps.append(("load", lambda: pl.Pipeline.load(workdir, config)))
    parses, texts = Counter(), Counter()
    normalize = pairclf.normalize_text

    def recording(text, *args, **kwargs):
        texts[text] += 1
        return normalize(text, *args, **kwargs)

    per_step = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(corpus_mod, "read_arrays",
                            counted(parses, "corpus", corpus_mod.read_arrays))
        monkeypatch.setattr(corpus_mod, "_parse_pairs",
                            counted(parses, "pairs", corpus_mod._parse_pairs))
        monkeypatch.setattr(pairclf, "normalize_text", recording)
        for name, step in steps:
            before_step()
            parses.clear()
            texts.clear()
            step()
            per_step[name] = parses["corpus"], parses["pairs"], Counter(texts)
    return per_step


def test_build_steps_prepare_the_bank_once(workspace, tmp_path, monkeypatch, new_process):
    """Each build step, run as a process of its own, normalizes an
    exercise's stem and its analysis at most once; step_index normalizes
    each bank stem and each clone its dedup pairs add exactly once, in one
    view. Pipeline.load normalizes each exercise once and embeds it twice,
    under the encoder and under the ranker's backbone."""
    workdir, config, corpus = copy_workspace(workspace, tmp_path)
    n = len(corpus)
    truth, _ = corpus_mod.load_truth(workdir / pl.FILES["truth"])
    clones = {b.id for _, b, _ in corpus_mod.generate_dedup_pairs(corpus, truth, seed=97)}
    clones -= set(corpus.ids)
    counts = count_calls(monkeypatch)
    for step, most in ((pl.step_pretrain, 2 * n), (pl.step_train_rank, 2 * n),
                       (pl.step_clean, 2 * n)):
        new_process()
        counts.clear()
        step(workdir, config)
        assert 0 < counts["normalize_text"] <= most, step.__name__
    new_process()
    counts.clear()
    pl.step_index(workdir, config)
    assert counts["normalize_text"] == n + len(clones) == 92
    new_process()
    counts.clear()
    pl.Pipeline.load(workdir, config)
    assert counts == {"normalize_text": n, "embed_text": 2 * n}


def test_a_process_parses_and_prepares_the_bank_once(tmp_path, new_process):
    """A build in one process parses neither corpus.snap nor pairs.jsonl,
    since step_synth keeps the corpus and the pairs it wrote, and
    step_clean's save of the cleaned pairs does not evict them. It
    normalizes each bank stem once, in
    step_pretrain; later steps read the column the corpus keeps and
    normalize only analyses and step_index's dedup clones, and
    Pipeline.load normalizes nothing. Run as a new process each, a step
    parses each file at most once."""
    workdir = tmp_path / "ws"
    steps = build(workdir, pl.Config(CONFIG))
    corpus = corpus_mod.load_snapshot(workdir / pl.FILES["corpus"])
    truth, _ = corpus_mod.load_truth(workdir / pl.FILES["truth"])
    clones = [b for _, b, _ in corpus_mod.generate_dedup_pairs(corpus, truth, seed=97)
              if corpus.get(b.id) is not b]
    stems = Counter(ex.text for ex in corpus)
    analyses = Counter(ex.answer_analysis for ex in corpus)
    assert steps == {
        "step_synth": (0, 0, Counter()),
        "step_pretrain": (0, 0, stems + analyses),
        "step_finetune": (0, 0, Counter()),
        "step_index": (0, 0, Counter(ex.text for ex in clones)),
        "step_train_rank": (0, 0, analyses),
        "step_clean": (0, 0, analyses),
        "step_eval": (0, 0, Counter()),
        "load": (0, 0, Counter()),
    }
    separate = build(tmp_path / "many", pl.Config(CONFIG), before_step=new_process)
    assert {name: parsed[:2] for name, parsed in separate.items()} == {
        "step_synth": (0, 0), "step_pretrain": (1, 0), "step_finetune": (1, 1),
        "step_index": (1, 1), "step_train_rank": (1, 1), "step_clean": (1, 1),
        "step_eval": (1, 1), "load": (1, 0)}


def test_a_build_in_one_process_writes_what_separate_processes_write(tmp_path, new_process):
    """Byte for byte, every artifact of a build in one process and of one
    whose steps each start as a new process would."""
    config = pl.Config(CONFIG)
    build(tmp_path / "one", config)
    build(tmp_path / "many", config, before_step=new_process)
    for name in pl.FILES:
        one, many = (tmp_path / ws / pl.FILES[name] for ws in ("one", "many"))
        assert one.read_bytes() == many.read_bytes(), name


# Runs the named build steps over the tiny bank in this order; argv: the
# workspace, the config as JSON, then the step names.
BUILD_SCRIPT = f"""
import json, sys
from exsim import pipeline as pl
from exsim.corpus import SyntheticSpec
workdir, config = sys.argv[1], pl.Config(json.loads(sys.argv[2]))
for name in sys.argv[3:]:
    if name == "step_synth":
        pl.step_synth(workdir, {TINY!r})
    else:
        getattr(pl, name)(workdir, config)
"""
BUILD_STEPS = ("step_synth", "step_pretrain", "step_finetune", "step_index",
               "step_train_rank", "step_clean", "step_eval")


def run_build(workdir, steps, hash_seed: str) -> None:
    """``steps`` in one new Python process, under ``hash_seed``."""
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": os.pathsep.join(
        [str(Path(pl.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", BUILD_SCRIPT, str(workdir), json.dumps(CONFIG),
                           *steps], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_steps_run_as_processes_of_their_own_write_what_one_process_writes(tmp_path):
    """Byte for byte, every workspace file of the tiny bank built step by
    step, each step a Python process of its own under one string hash seed,
    and built in one process under another."""
    for step in BUILD_STEPS:
        run_build(tmp_path / "many", [step], hash_seed="7")
    run_build(tmp_path / "one", BUILD_STEPS, hash_seed="3")
    names = sorted(p.name for p in (tmp_path / "one").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "many").iterdir())
    assert set(names) == set(pl.FILES.values())
    for name in names:
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "many" / name).read_bytes(), name


def test_step_index_heads_equal_a_per_pair_fit(workspace):
    """The dedup and variant heads step_index writes equal ``train`` fitted
    on per-pair ``features`` rows, one per pair, over a view of the bank
    alone, bit for bit: a bank exercise reads its row, a clone of the dedup
    pairs is prepared from its own text. ``train_dedup`` returns the same
    head."""
    workdir, config, _, _ = workspace
    corpus, vocab, params, _, _ = pl._load_trained(workdir, config)
    featurizer = pairclf.PairFeaturizer(PreparedCorpus(corpus, vocab, params))
    truth, _ = corpus_mod.load_truth(workdir / pl.FILES["truth"])
    flagged = [p for p in corpus_mod.load_pairs(workdir / pl.FILES["pairs"])[0]
               if p.variant is not None]
    for head, pairs in (("dedup", corpus_mod.generate_dedup_pairs(corpus, truth, seed=97)),
                        ("variant", [(corpus[p.a_id], corpus[p.b_id],
                                      int(p.variant == corpus_mod.VARIANT))
                                     for p in flagged])):
        rows, labels = [], []
        for a, b, label in pairs:
            a, b = (PreparedQuery(ex, featurizer.view) for ex in (a, b))
            rows.append(featurizer.features(a, b))
            labels.append(label)
        expected = pairclf.PairClassifier.train(np.array(rows), np.array(labels))
        heads = [pairclf.PairClassifier.load(workdir / pl.FILES[head], head)]
        if head == "dedup":
            heads.append(recall.train_dedup(truth, featurizer.view))
        for fitted in heads:
            assert fitted.weights.tobytes() == expected.weights.tobytes(), head
            assert fitted.bias == expected.bias, head


def step_index_pairs(workdir, config):
    """The view step_index fits its heads over, and by head name the pairs
    it fits them on: both sides' embeddings, the edit similarities and the
    labels. A dedup pair's second side is prepared as a query over the
    view; a bank exercise reads its row."""
    corpus, vocab, params, _, pairs = pl._load_trained(workdir, config, read_pairs=True)
    truth, _ = corpus_mod.load_truth(workdir / pl.FILES["truth"])
    view = PreparedCorpus(corpus, vocab, params)
    flagged = [(corpus[p.a_id], corpus[p.b_id], int(p.variant == corpus_mod.VARIANT))
               for p in pairs if p.variant is not None]
    fitted = {}
    for head, triples in (("dedup", corpus_mod.generate_dedup_pairs(corpus, truth, seed=97)),
                          ("variant", flagged)):
        u, v, sims = [], [], []
        for a, b, _ in triples:
            query = PreparedQuery(b, view)
            u.append(view.embeddings[view.index.row_of[a.id]])
            v.append(query.view_embedding)
            sims.append(query.edit_similarities(np.array([view.index.row_of[a.id]]))[0])
        fitted[head] = (np.array(u), np.array(v), np.array(sims),
                        np.array([label for _, _, label in triples]))
    return view, fitted


def test_step_index_heads_equal_the_both_order_fit(workspace):
    """The dedup and variant heads score the pairs they were fitted on and
    every pair of the bank's rows as heads fitted on both orders of each
    pair over [u, v, |u - v|, u * v, sim] score the mean of both orders:
    within 1e-12."""
    workdir, config, _, _ = workspace
    view, fitted = step_index_pairs(workdir, config)
    a, b = np.triu_indices(len(view.exercises), 1)
    every = (view.embeddings[a], view.embeddings[b],
             pairclf.row_pair_similarities(view.codes, view.lengths, a, b))
    for head, (u, v, sims, labels) in fitted.items():
        written = pairclf.PairClassifier.load(workdir / pl.FILES[head], head)
        assert written.weights.shape == (3 * view.params.d + 1,)
        old = both_order_fit(u, v, sims, labels)
        u, v, sims = (np.concatenate(both) for both in zip((u, v, sims), every))
        np.testing.assert_allclose(written.prob_rows(pairclf.pair_feature_rows(u, v, sims)),
                                   both_order_probs(old, u, v, sims), rtol=0, atol=1e-12,
                                   err_msg=head)


@pytest.mark.parametrize("kind", ["corpus", "probe"])
def test_pair_heads_are_symmetric(workspace, kind):
    """Dedup and the variant head score (a, b) and (b, a) alike, bit for
    bit, and the query's batched rows have the bits of the per-pair rows."""
    workdir, config, corpus, _ = workspace
    pipe = pl.Pipeline.load(workdir, config)
    view = pipe.recaller.view
    query = corpus[corpus.ids[7]]
    if kind == "probe":
        query = probe_of(query)
    query = PreparedQuery(query, view)
    others = [PreparedQuery(ex, view) for ex in pipe.corpus if ex.id != query.exercise.id]
    rows = np.array([c.row for c in others])
    dedup, variant = dedup_detector(pipe), variant_classifier(pipe)
    featurizer = dedup.featurizer
    assert query.feature_rows(rows).tobytes() == np.array(
        [featurizer.features(query, c) for c in others]).tobytes()
    for c in others:
        assert featurizer.features(query, c).tobytes() == featurizer.features(c, query).tobytes()
        assert dedup.prob(query, c) == dedup.prob(c, query)
        assert variant.prob(query, c) == variant.prob(c, query)


def test_step_clean_trains_the_ranker_once(workspace, tmp_path, monkeypatch):
    """On the cleaned pairs; the folds fit pair heads and train no ranker."""
    workdir, config, _ = copy_workspace(workspace, tmp_path)
    trained = []
    train_ranker = ranking.train_ranker

    def counting(pairs, *args, **kwargs):
        trained.append(len(pairs))
        return train_ranker(pairs, *args, **kwargs)

    monkeypatch.setattr(ranking, "train_ranker", counting)
    _, cleaned, report = pl.step_clean(workdir, config)
    assert trained == [len(cleaned)] and len(cleaned) < report.n_pairs
    assert not {"p5_before", "p5_after"} & set(json.loads(report.to_json()))


def test_cleaning_report_scores_the_prune_against_the_flips(workspace):
    workdir, _, _, truth = workspace
    report = json.loads((workdir / pl.FILES["cleaning"]).read_text())
    flipped = {(f["a_id"], f["b_id"]) for f in truth.flipped}
    pruned = {(p["a_id"], p["b_id"]) for p in report["pruned"]}
    hits = len(pruned & flipped)
    assert len(pruned) == report["n_pruned"] > 0 and len(flipped) > 0
    assert report["flips"] == {"flipped": len(flipped), "pruned_flipped": hits,
                               "precision": hits / report["n_pruned"],
                               "recall": hits / len(flipped)}


@pytest.mark.parametrize("profile", [None, PROFILE])
@pytest.mark.parametrize("kind", ["corpus", "probe", "oov-probe", "markup"])
def test_served_list_equals_reference(workspace, kind, profile):
    """Served ids, scores and variant probabilities equal the per-pair
    reference over lists of ``Candidate``, also when recall is empty."""
    workdir, config, corpus, _ = workspace
    pipe = pl.Pipeline.load(workdir, config)
    request = request_of(pipe, corpus, kind)
    query = pipe.resolve(request)
    result = pipe.query(request, profile)
    assert served_items(result) == reference_query(pipe, query, profile)
    assert (len(pipe.recaller.recall(PreparedQuery(query, pipe.recaller.view))) == 0) == \
        (kind == "markup")
    assert bool(result.all_ids()) == (kind != "markup")


@pytest.mark.parametrize("kind", ["corpus", "probe", "oov-probe"])
def test_profiled_scores_equal_per_pair(workspace, kind):
    """The filters leave the variant split a strict subset of the ranked
    list, so it must read back each kept similarity by its row."""
    workdir, config, corpus, _ = workspace
    pipe = pl.Pipeline.load(workdir, config)
    request = request_of(pipe, corpus, kind)
    query = pipe.resolve(request)
    everyone = pipe.query(request)
    result = pipe.query(request, PROFILE)
    assert 0 < len(result.all_ids()) < len(everyone.all_ids())
    assert served_items(result) == reference_query(pipe, query, PROFILE)
    assert served_items(everyone) == reference_query(pipe, query)


# every ability and stage mode, at a stage below, inside and above the bank's
PROFILES = [PROFILE] + [StudentProfile(ability, mode, stage) for ability in ABILITIES
                        for mode in STAGE_MODES for stage in ((7, 1), (8, 1), (9, 2))]


@pytest.mark.parametrize("kind", ["corpus", "probe", "oov-probe", "markup"])
def test_a_profiled_query_equals_rerank_of_the_whole_ranking(workspace, kind):
    """Recall filters a profiled miss's merged list before any pair work.
    That serves the bits of ranking the whole recalled list, filtering the
    ranking, then the variant split: ids, scores, variant probabilities and
    ``passed``."""
    workdir, config, corpus, _ = workspace
    pipe = pl.Pipeline.load(workdir, config)
    request = request_of(pipe, corpus, kind)
    everyone = pipe.query(request).all_ids()
    sizes = set()
    for profile in PROFILES:
        served = pipe.query(request, profile)
        query = PreparedQuery(pipe.resolve(request), pipe.recaller.view)
        ranked = pipe.ranker.rank(query, pipe.recaller.recall(query))
        filtered = rerank.personalize_filter(
            rerank.stage_filter(ranked, profile, pipe.corpus),
            query.exercise.metadata.difficulty, profile, pipe.corpus)
        late = rerank.rerank(query, filtered, profile, pipe.variant, pipe.variant_threshold)
        assert served.ids == late.ids
        assert served.scores.tobytes() == late.scores.tobytes()
        assert served.n_variant == late.n_variant
        assert served.variant_probs.tobytes() == late.variant_probs.tobytes()
        assert served.passed == late.passed == ("stage", "difficulty", "variant")
        sizes.add(len(served.ids))
    assert (sizes == {0}) == (kind == "markup")
    assert kind == "markup" or min(sizes) < len(everyone)


def test_recall_filters_need_the_corpus(workspace):
    """The filters refuse candidates that are not rows of the corpus they
    are given; recall gives them the corpus its view is the rows of."""
    workdir, config, corpus, _ = workspace
    pipe = pl.Pipeline.load(workdir, config)
    query = PreparedQuery(pipe.corpus[corpus.ids[7]], pipe.recaller.view)
    merged = pipe.recaller.recall(query)
    for other in (None, Corpus(pipe.corpus)):
        for refused in (lambda: rerank.stage_filter(merged, PROFILE, other),
                        lambda: rerank.personalize_filter(merged, 3, PROFILE, other)):
            with pytest.raises(ValueError, match="not rows of this corpus"):
                refused()
    assert pipe.recaller.view.corpus is pipe.corpus
    assert len(pipe.recaller.recall(query, PROFILE)) < len(merged)


def test_a_bank_query_maps_no_token_ids(workspace, monkeypatch):
    """A bank query's embeddings are rows of the view and of the ranker's
    matrix, so a miss by id never maps its codes to vocabulary ids."""
    workdir, config, corpus, _ = workspace
    pipe = pl.Pipeline.load(workdir, config)

    def refuse(self, codes):
        raise AssertionError("token_ids called")
    monkeypatch.setattr(PreparedCorpus, "token_ids", refuse)
    for profile in (None, PROFILE):
        assert pipe.query(corpus.ids[7], profile).all_ids()


@pytest.mark.parametrize("profile", [None, PROFILE])
@pytest.mark.parametrize("kind", ["corpus", "oov-probe"])
def test_scores_equal_per_pair_without_dedup(workspace, tmp_path, kind, profile):
    """Without a dedup head ranking is the first stage to ask for the edit
    similarities; the variant split reads them back."""
    pipe, corpus = load_without_dedup(workspace, tmp_path)
    request = request_of(pipe, corpus, kind)
    result = pipe.query(request, profile)
    assert result.all_ids()
    assert served_items(result) == reference_query(pipe, pipe.resolve(request), profile)


# ---------------------------------------------------------------------------
# stop words: the vocabulary owns them

@pytest.fixture(scope="module")
def stop_workspace(tmp_path_factory):
    """The serving build steps over the tiny bank with stop words set; both
    words occur in every stem."""
    workdir = tmp_path_factory.mktemp("stop-workspace")
    config = pl.Config({**CONFIG, "stopwords": "the,of"})
    corpus, _, _ = pl.step_synth(workdir, TINY)
    for step in (pl.step_pretrain, pl.step_finetune, pl.step_index, pl.step_train_rank):
        step(workdir, config)
    return workdir, config, corpus


@pytest.mark.parametrize("profile", [None, PROFILE])
@pytest.mark.parametrize("kind", ["corpus", "probe"])
def test_stop_words_reach_every_stage(stop_workspace, kind, profile):
    workdir, config, corpus = stop_workspace
    pipe = pl.Pipeline.load(workdir, config)
    assert pipe.vocab.stop_words == ("of", "the")
    assert "the" not in pipe.vocab and "of" not in pipe.vocab
    request = request_of(pipe, corpus, kind)
    query = pipe.resolve(request)
    assert {"the", "of"} <= set(split_tokens(query.text))
    tokens = own_tokens(query, pipe.vocab)
    prepared = pairclf.PreparedQuery(query, pipe.recaller.view)
    assert not {"the", "of"} & set(tokens)
    assert prepared.codes[0, :int(prepared.length[0])].tolist() == \
        pipe.recaller.view.code_table().encode(tokens)
    result = pipe.query(request, profile)
    assert result.variant and result.similar
    assert served_items(result) == reference_query(pipe, query, profile)


def test_a_stop_word_mismatch_is_refused(stop_workspace):
    workdir, _, _ = stop_workspace
    plain = pl.Config({**CONFIG, "stopwords": ""})
    with pytest.raises(pl.ConfigurationError, match="step_pretrain"):
        pl.Pipeline.load(workdir, plain)
    with pytest.raises(pl.ConfigurationError, match="step_pretrain"):
        pl.step_train_rank(workdir, plain)
    # the same words in another order, or in another case, are the same
    # stop words
    for words in ("of, the", "The,OF"):
        same = pl.Config({**CONFIG, "stopwords": words})
        assert pl.Pipeline.load(workdir, same).vocab.stop_words == ("of", "the")


def test_an_encoder_built_with_capitals_loads_under_lowercase(tmp_path):
    """Stop words configured as "The" build the vocabulary "the" does, and
    its encoder loads under either spelling."""
    workdir = tmp_path / "ws"
    pl.step_synth(workdir, TINY)
    pl.step_pretrain(workdir, pl.Config({**CONFIG, "stopwords": "The,Of"}))
    _, vocab = load_encoder(workdir / pl.FILES["encoder"])
    assert vocab.stop_words == ("of", "the")
    for words in ("the,of", "THE,of", "The,Of"):
        pl.step_finetune(workdir, pl.Config({**CONFIG, "stopwords": words}))


# ---------------------------------------------------------------------------
# the query cache keys an exercise by value

def with_image_value(ex, value, at=(0, 0)):
    feats = ex.image_features.copy()
    feats[at] = value
    return dataclasses.replace(ex, image_features=feats)


@pytest.mark.parametrize("profile", [None, PROFILE])
def test_an_equal_copy_of_a_probe_hits_the_entry_of_the_first(workspace, profile):
    workdir, config, corpus, _ = workspace
    pipe = pl.Pipeline.load(workdir, config)
    probe = probe_of(corpus[corpus.ids[5]])
    first, hit = pipe.query_with_cache_info(probe, profile)
    assert not hit and first.all_ids()
    copy = dataclasses.replace(probe)
    assert copy == probe and copy is not probe
    again, hit = pipe.query_with_cache_info(copy, profile)
    assert hit and again is first
    # images equal under np.array_equal: +0.0 and -0.0 share one entry
    positive = with_image_value(probe, 0.0)
    signed, hit = pipe.query_with_cache_info(positive, profile)
    assert not hit
    assert pipe.query_with_cache_info(with_image_value(probe, -0.0), profile) == (signed, True)


def other_concept(ex, corpus):
    concepts = ex.metadata.knowledge_concepts
    spare = next(c for c in corpus.concepts if c not in concepts)
    return dataclasses.replace(ex.metadata, knowledge_concepts=(spare,) + concepts[1:])


ONE_FIELD_CHANGES = {
    "stem": lambda ex, corpus: dataclasses.replace(ex, stem=ex.stem + " again"),
    "option": lambda ex, corpus: dataclasses.replace(
        ex, options=ex.options[:-1] + (ex.options[-1] + "0",)),
    "answer": lambda ex, corpus: dataclasses.replace(ex, answer=ex.answer + "0"),
    "analysis": lambda ex, corpus: dataclasses.replace(ex, analysis=ex.analysis + " again"),
    "concept": lambda ex, corpus: dataclasses.replace(ex, metadata=other_concept(ex, corpus)),
    "difficulty": lambda ex, corpus: dataclasses.replace(ex, metadata=dataclasses.replace(
        ex.metadata, difficulty=ex.metadata.difficulty % corpus.levels + 1)),
    "learning stage": lambda ex, corpus: dataclasses.replace(
        ex, learning_stage=(ex.learning_stage[0], 3 - ex.learning_stage[1])),
    "image value": lambda ex, corpus: with_image_value(
        ex, np.nextafter(ex.image_features[0, 0], np.inf)),
}


@pytest.mark.parametrize("field", list(ONE_FIELD_CHANGES))
def test_a_probe_that_differs_in_one_field_misses(workspace, field):
    workdir, config, corpus, _ = workspace
    pipe = pl.Pipeline.load(workdir, config)
    probe = probe_of(corpus[corpus.ids[5]])
    changed = ONE_FIELD_CHANGES[field](probe, corpus)
    assert changed != probe
    first, hit = pipe.query_with_cache_info(probe)
    assert not hit
    other, hit = pipe.query_with_cache_info(changed)
    assert not hit and other is not first
    assert pipe.query_with_cache_info(probe) == (first, True)
    assert pipe.query_with_cache_info(changed) == (other, True)


@pytest.mark.parametrize("profile", [None, PROFILE])
def test_a_bank_id_and_its_exercise_are_separate_entries(workspace, profile):
    workdir, config, corpus, _ = workspace
    pipe = pl.Pipeline.load(workdir, config)
    query_id = corpus.ids[7]
    by_id, hit = pipe.query_with_cache_info(query_id, profile)
    assert not hit
    by_object, hit = pipe.query_with_cache_info(pipe.corpus[query_id], profile)
    assert not hit and by_object is not by_id
    assert served_items(by_object) == served_items(by_id)
    assert pipe.query_with_cache_info(query_id, profile) == (by_id, True)
    assert pipe.query_with_cache_info(pipe.corpus[query_id], profile) == (by_object, True)


def test_the_query_path_never_serializes_an_exercise(workspace, monkeypatch):
    workdir, config, corpus, _ = workspace
    pipe = pl.Pipeline.load(workdir, config)

    def refuse(self):
        raise AssertionError("Exercise.to_record called on the query path")

    monkeypatch.setattr(corpus_mod.Exercise, "to_record", refuse)
    probe = probe_of(corpus[corpus.ids[5]])
    for profile in (None, PROFILE):
        for query in (probe, dataclasses.replace(probe), corpus.ids[7],
                      pipe.corpus[corpus.ids[7]]):
            assert pipe.query(query, profile).all_ids()


def test_a_probe_with_a_nan_image_value_hits_only_as_itself(workspace):
    """Serving never reads image values, so a NaN there is served like any
    other probe; unequal to itself by value, it hits as the same object."""
    workdir, config, corpus, _ = workspace
    pipe = pl.Pipeline.load(workdir, config)
    probe = probe_of(corpus[corpus.ids[5]])
    with_nan = with_image_value(probe, np.nan, at=(0, 3))
    assert with_nan != with_nan
    served, hit = pipe.query_with_cache_info(with_nan)
    assert not hit
    assert served_items(served) == served_items(pipe.query(probe))
    assert pipe.query_with_cache_info(with_nan) == (served, True)
    copy, hit = pipe.query_with_cache_info(dataclasses.replace(with_nan))
    assert not hit and copy is not served
