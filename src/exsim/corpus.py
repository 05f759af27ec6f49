"""Exercise data model, JSONL ingestion, synthetic corpus generation, snapshots.

An exercise bank is held in memory as a :class:`Corpus`: an ordered,
immutable collection of :class:`Exercise` records plus the closed
dictionaries (exercise types, difficulty levels, knowledge concepts)
that metadata encoding validates against. An exercise's image feature
vectors are one read-only float64 array, never a Python float per
dimension; the corpus snapshot keeps every exercise's vectors as one
binary (total images, d_img) array, and a parsed exercise holds a view of
its rows.

The synthetic generator builds a corpus from slot-filling templates with
known ground-truth similarity groups, so retrieval quality can be measured
against an exact oracle. Labeled pairs are sampled within templates
(similar) and across templates (dissimilar), and an exact number of labels
can be flipped to emulate annotation noise; every flip is logged so the
label-cleaning stage can be scored against the truth.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .snapshots import (SnapshotFormatError, atomic_write, read_arrays, save_arrays,
                        sha256_hex)

SIMILAR = "similar"
DISSIMILAR = "dissimilar"
VARIANT = "variant"
PLAIN_SIMILAR = "plain-similar"

EXERCISE_FIELDS = (
    "id", "stem", "options", "answer", "analysis", "image_features",
    "exercise_type", "difficulty", "knowledge_concepts", "learning_stage",
)


class CorpusError(ValueError):
    """Raised when a corpus file or record violates the schema."""


@dataclass(frozen=True)
class Metadata:
    exercise_type: str
    difficulty: int
    knowledge_concepts: tuple[str, ...]

    def __post_init__(self):
        if not self.knowledge_concepts:
            raise CorpusError("knowledge_concepts must be non-empty")
        object.__setattr__(self, "knowledge_concepts", tuple(sorted(set(self.knowledge_concepts))))


@dataclass(frozen=True, eq=False)
class Exercise:
    """One multi-modal exercise: text parts, image feature vectors, metadata.

    ``image_features`` is one read-only float64 array of shape (images,
    d_img), (0, 0) for an exercise without images. The constructor takes
    any sequence of equal-length number vectors, or such an array: a
    read-only float64 array is kept as it is (a snapshot's view), anything
    else is copied once. ``options`` and ``learning_stage`` are kept as
    tuples, whatever sequence they are given as, so every exercise is
    hashable. Equality compares the image values with ``np.array_equal``
    and every other field as the dataclass would; the hash reads the image
    shape, not the values.
    """

    id: str
    stem: str
    options: tuple[str, ...]
    answer: str
    analysis: str
    image_features: np.ndarray
    metadata: Metadata
    learning_stage: tuple[int, int]  # (grade, semester), totally ordered

    def __post_init__(self):
        if not self.id:
            raise CorpusError("exercise id must be non-empty")
        if not self.stem:
            raise CorpusError(f"exercise {self.id!r}: stem must be non-empty")
        for name in ("options", "learning_stage"):
            value = getattr(self, name)
            if isinstance(value, (str, bytes)):
                raise CorpusError(f"exercise {self.id!r}: {name} must be a sequence, "
                                  "not a string")
            object.__setattr__(self, name, tuple(value))
        feats = self.image_features
        if not isinstance(feats, np.ndarray):
            if any(isinstance(v, (str, bytes)) for v in feats):
                raise CorpusError(f"exercise {self.id!r}: image feature vectors "
                                  "must be lists of numbers, not strings")
            dims = {len(v) for v in feats}
            if len(dims) > 1:
                raise CorpusError(
                    f"exercise {self.id!r}: image feature dims differ: {sorted(dims)}")
            feats = np.array(feats, dtype=np.float64)
        elif feats.dtype != np.float64 or feats.flags.writeable:
            feats = feats.astype(np.float64)
        feats.flags.writeable = False
        if feats.shape[:1] == (0,):
            feats = feats.reshape(0, 0)
        elif feats.ndim != 2:
            raise CorpusError(f"exercise {self.id!r}: image features must be "
                              f"(images, dim), got shape {feats.shape}")
        object.__setattr__(self, "image_features", feats)

    def _fields(self) -> tuple:
        return (self.id, self.stem, self.options, self.answer, self.analysis,
                self.metadata, self.learning_stage)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._fields() == other._fields()
                and np.array_equal(self.image_features, other.image_features))

    def __hash__(self) -> int:
        return hash((self._fields(), self.image_features.shape))

    @property
    def text(self) -> str:
        """Stem plus options, the text unit used for matching and embedding."""
        return " ".join((self.stem,) + self.options)

    @property
    def answer_analysis(self) -> str:
        return " ".join((self.answer, self.analysis)).strip()

    def to_record(self) -> dict:
        """The exercise as JSON values; image vectors are lists of floats."""
        return {
            "id": self.id,
            "stem": self.stem,
            "options": list(self.options),
            "answer": self.answer,
            "analysis": self.analysis,
            "image_features": self.image_features.tolist(),
            "exercise_type": self.metadata.exercise_type,
            "difficulty": self.metadata.difficulty,
            "knowledge_concepts": list(self.metadata.knowledge_concepts),
            "learning_stage": list(self.learning_stage),
        }

    @classmethod
    def from_record(cls, rec: dict, strings: dict[str, str]) -> "Exercise":
        """The exercise of one record, nothing converted: ids, texts, options
        and concepts must be JSON strings, difficulty and stage entries JSON
        integers. Its ``exercise_type`` and concepts are entries of
        ``strings``, the caller's table for one load: one object per value."""
        try:
            missing = [k for k in EXERCISE_FIELDS if k not in rec]
            if missing:
                raise CorpusError(f"missing fields: {missing}")
            for name in ("options", "image_features", "knowledge_concepts", "learning_stage"):
                value = rec[name]
                if isinstance(value, (str, bytes)):
                    raise CorpusError(f"{name} must be a list, not a string")
                # a snapshot's image features are an array already
                if name != "image_features" and not isinstance(value, list):
                    raise CorpusError(f"{name} must be a list, not {value!r}")
            stage = rec["learning_stage"]
            if len(stage) != 2:
                raise CorpusError("learning_stage must be [grade, semester]")
            return cls(
                id=_string("id", rec["id"]),
                stem=_string("stem", rec["stem"]),
                options=tuple(_string("option", o) for o in rec["options"]),
                answer=_string("answer", rec["answer"]),
                analysis=_string("analysis", rec["analysis"]),
                image_features=rec["image_features"],
                metadata=Metadata(
                    exercise_type=_shared(strings, _string("exercise_type",
                                                           rec["exercise_type"])),
                    difficulty=_integer("difficulty", rec["difficulty"]),
                    knowledge_concepts=tuple(_shared(strings, _string("knowledge concept", c))
                                             for c in rec["knowledge_concepts"]),
                ),
                learning_stage=tuple(_integer("learning_stage entry", v) for v in stage),
            )
        except CorpusError:
            raise
        except (TypeError, KeyError, ValueError, OverflowError) as exc:
            raise CorpusError(f"malformed exercise record: {exc}") from exc


class RowIndex:
    """Rows of a fixed id order: ``ids`` by row, ``row_of`` each id's row and
    ``id_rank`` each row's position when the rows are sorted by id.

    A corpus owns one, and candidate lists refer to their rows through it; a
    stage that reads its own per-row arrays checks by identity that the
    candidates' index is the one those arrays follow.
    """

    __slots__ = ("ids", "row_of", "id_rank")

    def __init__(self, ids: Iterable[str]):
        self.ids = list(ids)
        self.row_of = {ex_id: i for i, ex_id in enumerate(self.ids)}
        self.id_rank = np.empty(len(self.ids), dtype=np.intp)
        self.id_rank[sorted(range(len(self.ids)), key=self.ids.__getitem__)] = \
            np.arange(len(self.ids))

    def __len__(self) -> int:
        return len(self.ids)


class Corpus:
    """Ordered, immutable exercise collection with closed metadata dictionaries.

    ``index`` is the corpus's :class:`RowIndex`; ``learning_stages`` (n, 2)
    and ``difficulties`` (n,) hold every exercise's metadata in row order,
    for the re-rank filters. Each is built on first use and kept.

    ``digest`` is the sha256 of the snapshot the corpus was saved to or
    loaded from (:func:`save_snapshot`, :func:`load_snapshot`), else None.
    ``stems`` is the stem column the last ``pairclf.PreparedCorpus`` over
    the corpus prepared, with the vocabulary it was made under; that module
    alone reads and sets it.
    """

    def __init__(self, exercises: Iterable[Exercise], levels: Optional[int] = None,
                 d_img: Optional[int] = None):
        self._by_id: dict[str, Exercise] = {}
        for ex in exercises:
            if ex.id in self._by_id:
                raise CorpusError(f"duplicate exercise id {ex.id!r}")
            self._by_id[ex.id] = ex
        self.digest: Optional[str] = None
        self.stems = None
        exs = list(self._by_id.values())
        self.levels = int(levels) if levels is not None else max(
            (ex.metadata.difficulty for ex in exs), default=1)
        dims = {ex.image_features.shape[1] for ex in exs if len(ex.image_features)}
        if len(dims) > 1:
            raise CorpusError(f"inconsistent image feature dimensions: {sorted(dims)}")
        if d_img is not None:
            if dims and dims != {int(d_img)}:
                raise CorpusError(f"image features have dim {dims.pop()}, expected {d_img}")
            self.d_img = int(d_img)
        else:
            self.d_img = dims.pop() if dims else 32
        self.exercise_types = tuple(sorted({ex.metadata.exercise_type for ex in exs}))
        self.concepts = tuple(sorted({c for ex in exs for c in ex.metadata.knowledge_concepts}))
        for ex in exs:
            if not 1 <= ex.metadata.difficulty <= self.levels:
                raise CorpusError(
                    f"exercise {ex.id!r}: difficulty {ex.metadata.difficulty} outside [1, {self.levels}]")

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self):
        return iter(self._by_id.values())

    def __contains__(self, ex_id: str) -> bool:
        return ex_id in self._by_id

    def __getitem__(self, ex_id: str) -> Exercise:
        return self._by_id[ex_id]

    def get(self, ex_id: str) -> Optional[Exercise]:
        return self._by_id.get(ex_id)

    @cached_property
    def index(self) -> RowIndex:
        return RowIndex(self._by_id)

    @cached_property
    def learning_stages(self) -> np.ndarray:
        return np.array([ex.learning_stage for ex in self],
                        dtype=np.int64).reshape(-1, 2)

    @cached_property
    def difficulties(self) -> np.ndarray:
        return np.array([ex.metadata.difficulty for ex in self], dtype=np.int64)

    @property
    def ids(self) -> list[str]:
        return list(self._by_id)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Corpus)
                and self._by_id == other._by_id
                and self.levels == other.levels
                and self.d_img == other.d_img)


@dataclass(frozen=True, slots=True)
class LabeledPair:
    """An annotated exercise pair, the unit of supervision and evaluation.

    Slotted, with no ``__dict__``: a bank's pairs are loaded by the tens of
    thousands. The pairs of one ``load_pairs`` parse share their strings."""

    a_id: str
    b_id: str
    label: str
    variant: Optional[str] = None
    votes: tuple[str, ...] = ()

    def __post_init__(self):
        for ex_id in (self.a_id, self.b_id):
            if not isinstance(ex_id, str):
                raise CorpusError(f"pair id {ex_id!r} is not a string")
        if self.a_id == self.b_id:
            raise CorpusError(f"pair members must differ, got {self.a_id!r} twice")
        if self.label not in (SIMILAR, DISSIMILAR):
            raise CorpusError(f"bad label {self.label!r}")
        if self.variant not in (None, VARIANT, PLAIN_SIMILAR):
            raise CorpusError(f"bad variant flag {self.variant!r}")
        if self.variant is not None and self.label != SIMILAR:
            raise CorpusError(f"pair ({self.a_id}, {self.b_id}): variant flag "
                              f"{self.variant!r} on a {self.label!r} pair")
        for vote in self.votes:
            if vote not in (SIMILAR, DISSIMILAR):
                raise CorpusError(f"pair ({self.a_id}, {self.b_id}): bad vote {vote!r}")
        if self.votes:
            n_sim = sum(1 for v in self.votes if v == SIMILAR)
            n_dis = len(self.votes) - n_sim
            if n_sim == n_dis:
                raise CorpusError(f"pair ({self.a_id}, {self.b_id}): tied votes")
            majority = SIMILAR if n_sim > n_dis else DISSIMILAR
            if majority != self.label:
                raise CorpusError(
                    f"pair ({self.a_id}, {self.b_id}): label {self.label!r} "
                    f"disagrees with vote majority {majority!r}")

    @property
    def is_similar(self) -> bool:
        return self.label == SIMILAR


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the synthetic corpus generator. Same seed, same bytes out."""

    n_templates: int = 10
    per_template: int = 50
    noise_rate: float = 0.15
    vocab_size: int = 400
    seed: int = 7

    def __post_init__(self):
        if self.n_templates < 2 or self.per_template < 2:
            # dissimilar pairs are drawn across two templates
            raise ValueError("need at least 2 templates with 2 exercises each")
        if not 0.0 <= self.noise_rate < 0.5:
            raise ValueError("noise_rate must be in [0, 0.5)")
        if self.vocab_size < 50:
            raise ValueError("vocab_size too small to fill templates")


@dataclass
class SyntheticTruth:
    """Ground truth the generator knows: similarity groups and which labels it flipped."""

    groups: dict[str, list[str]]
    flipped: list[dict] = field(default_factory=list)  # {index, a_id, b_id, true_label}

    def mates(self, ex_id: str) -> set[str]:
        """Ground-truth similars of an exercise: its template mates."""
        for members in self.groups.values():
            if ex_id in members:
                return set(members) - {ex_id}
        return set()


# ---------------------------------------------------------------------------
# JSONL ingestion

def _string(name: str, value) -> str:
    if not isinstance(value, str):
        raise CorpusError(f"{name} {value!r} is not a string")
    return value


def _integer(name: str, value) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise CorpusError(f"{name} {value!r} is not an integer")
    return value


def _shared(strings: dict, value):
    """``value``, or the equal value ``strings`` holds: a string, or a tuple
    of strings, enters the table on first sight. Anything else is returned
    as it is, for the record's own checks to refuse."""
    if isinstance(value, str) or (isinstance(value, tuple)
                                  and all(isinstance(v, str) for v in value)):
        return strings.setdefault(value, value)
    return value


def load_corpus(path, levels: Optional[int] = None) -> Corpus:
    """Read one exercise per JSONL line, validating schema and id uniqueness.

    Errors carry the 1-based line number of the offending record.
    """
    exercises: list[Exercise] = []
    seen: dict[str, int] = {}
    strings: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"line {lineno}: malformed JSON: {exc.msg}") from exc
            try:
                ex = Exercise.from_record(rec, strings)
            except CorpusError as exc:
                raise CorpusError(f"line {lineno}: {exc}") from exc
            if ex.id in seen:
                raise CorpusError(
                    f"line {lineno}: duplicate id {ex.id!r} (first seen on line {seen[ex.id]})")
            seen[ex.id] = lineno
            exercises.append(ex)
    return Corpus(exercises, levels=levels)


# ---------------------------------------------------------------------------
# Workspace files are parsed once per content. Each save and each parse of a
# snapshot or of a pairs file keeps its object under the sha256 of the
# file's bytes; a file of those bytes, under any path, is not parsed again,
# so a process never parses a file it wrote. A kind keeps the objects of
# its last ``_SLOTS`` contents, the oldest giving way: one corpus, with the
# stem column its views keep (see ``pairclf.PreparedCorpus``), and two pair
# lists, as a build writes pairs.jsonl and then step_clean a cut of the same
# pair objects, so the second costs a list of references. Kept objects are
# immutable. Two loads at once may each parse a file; either result is the
# same.

_SLOTS = {"corpus": 1, "pairs": 2}
_slots: dict[str, list[tuple[str, object]]] = {}


def _kept(kind: str, digest: str):
    """The object kept for ``kind`` under ``digest``, else None."""
    return next((value for key, value in _slots.get(kind, ()) if key == digest), None)


def _keep(kind: str, digest: str, value):
    others = [slot for slot in _slots.get(kind, ()) if slot[0] != digest]
    _slots[kind] = [(digest, value)] + others[:_SLOTS[kind] - 1]
    return value


# ---------------------------------------------------------------------------
# Snapshot persistence: the shared snapshot format, records in its header and
# every exercise's image vectors, in record order, as its one array

def save_snapshot(corpus: Corpus, path) -> str:
    """Write the corpus snapshot; the sha256 of the bytes written, which
    becomes ``corpus.digest``. The corpus is kept as if loaded (see above)."""
    records = []
    for ex in corpus:
        rec = ex.to_record()
        del rec["image_features"]
        rec["images"] = len(ex.image_features)
        records.append(rec)
    images = [ex.image_features for ex in corpus if len(ex.image_features)]
    digest = save_arrays(path, "corpus", {
        "levels": corpus.levels,
        "d_img": corpus.d_img,
        "exercises": records,
    }, {"image_features": np.concatenate([np.empty((0, corpus.d_img))] + images)})
    corpus.digest = digest
    _keep("corpus", digest, corpus)
    return digest


def load_snapshot(path) -> Corpus:
    """The saved corpus, parsed once per content (see above). In a parsed
    corpus each exercise's ``image_features`` is a read-only view of its
    rows of the snapshot's one image array."""
    with open(path, "rb") as fh:
        digest = sha256_hex(fh)
        kept = _kept("corpus", digest)
        if kept is not None:
            return kept
        # an atomic rewrite of path replaces the file, not this open one,
        # so what is parsed is what was hashed
        fh.seek(0)
        meta, arrays = read_arrays(fh, path, "corpus")
    feats = arrays["image_features"]
    feats.flags.writeable = False
    exercises, start, strings = [], 0, {}
    for rec in meta["exercises"]:
        end = start + rec["images"]
        rec["image_features"] = feats[start:end]
        exercises.append(Exercise.from_record(rec, strings))
        start = end
    if start != len(feats):
        raise SnapshotFormatError(
            f"{path}: records count {start} images, the image array holds {len(feats)}")
    corpus = Corpus(exercises, levels=meta["levels"], d_img=meta["d_img"])
    corpus.digest = digest
    return _keep("corpus", digest, corpus)


# ---------------------------------------------------------------------------
# Labeled pair and truth persistence

def save_pairs(pairs: Sequence[LabeledPair], path) -> str:
    """Write one pair per JSONL line; the sha256 of the bytes written. The
    pairs are kept as if loaded (see above)."""
    data = "".join(json.dumps({
        "a_id": p.a_id, "b_id": p.b_id, "label": p.label,
        "variant": p.variant, "votes": list(p.votes),
    }) + "\n" for p in pairs).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(data)
    digest = hashlib.sha256(data).hexdigest()
    _keep("pairs", digest, tuple(pairs))
    return digest


def load_pairs(path) -> tuple[list[LabeledPair], str]:
    """The pairs of a JSONL file, one per line, parsed once per content and
    never after ``save_pairs`` wrote them (see above), as a new list each
    call, and the sha256 of the file's bytes; errors carry the 1-based line
    number.

    Equal values of one parse are one object: labels, variant flags and
    votes are this module's constants, each distinct id is one ``str``
    shared by every record that names it, and so is each distinct ``votes``
    tuple. Pairs kept from a save are the saved objects."""
    with open(path, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).hexdigest()
    pairs = _kept("pairs", digest)
    if pairs is None:
        pairs = _keep("pairs", digest, tuple(_parse_pairs(data)))
    return list(pairs), digest


def _parse_pairs(data: bytes) -> list[LabeledPair]:
    pairs = []
    strings = {s: s for s in (SIMILAR, DISSIMILAR, VARIANT, PLAIN_SIMILAR)}
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            pairs.append(LabeledPair(
                a_id=_shared(strings, rec["a_id"]), b_id=_shared(strings, rec["b_id"]),
                label=_shared(strings, rec["label"]),
                variant=_shared(strings, rec.get("variant")),
                votes=_shared(strings, tuple(_shared(strings, v)
                                             for v in rec.get("votes", ())))))
        except (json.JSONDecodeError, KeyError, TypeError, CorpusError) as exc:
            raise CorpusError(f"line {lineno}: bad pair record: {exc}") from exc
    return pairs


def save_truth(truth: SyntheticTruth, path) -> None:
    with atomic_write(path) as fh:
        json.dump({"groups": truth.groups, "flipped": truth.flipped}, fh, indent=1, sort_keys=True)


def load_truth(path) -> tuple[SyntheticTruth, str]:
    """The saved ground truth and the sha256 of the bytes it was parsed
    from; CorpusError naming the file when it is not JSON, or not an object
    whose "groups" map each name to a list of id strings and whose
    "flipped" is a list of objects, each with string "a_id" and "b_id"
    (naming the first entry that is not)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        data = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorpusError(f"{path}: malformed JSON: {exc}") from exc
    groups = data.get("groups") if isinstance(data, dict) else None
    flipped = data.get("flipped") if isinstance(data, dict) else None
    if not isinstance(groups, dict) or not isinstance(flipped, list):
        raise CorpusError(f"{path}: expected an object with \"groups\" and \"flipped\"")
    for name, members in groups.items():
        if not isinstance(members, list) or not all(isinstance(m, str) for m in members):
            raise CorpusError(f"{path}: group {name!r} is not a list of exercise ids")
    for i, f in enumerate(flipped):
        if not (isinstance(f, dict) and isinstance(f.get("a_id"), str)
                and isinstance(f.get("b_id"), str)):
            raise CorpusError(f"{path}: \"flipped\" entry {i} is not an object with "
                              "string \"a_id\" and \"b_id\"")
    return SyntheticTruth(groups=groups, flipped=flipped), hashlib.sha256(raw).hexdigest()


def validate_pairs(corpus: Corpus, pairs: Iterable[LabeledPair]) -> None:
    """Every pair must reference exercises that exist in the corpus."""
    for p in pairs:
        for ex_id in (p.a_id, p.b_id):
            if ex_id not in corpus:
                raise CorpusError(f"pair ({p.a_id}, {p.b_id}) references unknown id {ex_id!r}")


# ---------------------------------------------------------------------------
# Synthetic generation

_SCAFFOLD = ("given", "find", "the", "value", "of", "if", "then", "compute",
             "because", "therefore", "answer", "is", "so", "we", "get")
_EX_TYPES = ("choice", "fill", "computation", "proof")
_VARS = ("x", "y", "z", "m", "n", "k")

# formula skeletons: (plain form, variant form with a raised power, i.e. a changed
# condition that alters what is being solved)
_FORMULA_SHAPES = (
    ("{a}{v} + {b} = {c}", "{a}{v}^2 + {b} = {c}"),
    ("{v} - {a}{u} = 0", "{v}^2 - {a}{u} = 0"),
    ("\\frac{{{v}}}{{{a}}} = {b}", "\\frac{{{v}^2}}{{{a}}} = {b}"),
    ("{a}{v} - {b}{u} = {c}", "{a}{v}^2 - {b}{u} = {c}"),
)


def _word_pool(size: int) -> list[str]:
    syllables = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
    words = []
    for a, b in itertools.product(syllables, repeat=2):
        words.append(a + b)
        if len(words) == size:
            return words
    for a, b, c in itertools.product(syllables, repeat=3):
        words.append(a + b + c)
        if len(words) == size:
            return words
    raise ValueError("vocab_size larger than the pseudoword space")


@dataclass
class _Template:
    tid: str
    words: list[str]          # topic words; first two shared within the cluster
    cond_word: str            # condition wording of the plain form
    variant_cond_word: str    # wording used when the condition is changed
    shape: tuple[str, str]
    ex_type: str
    base_difficulty: int
    grade: int
    concepts: tuple[str, ...]
    centroid: np.ndarray


def _build_templates(spec: SyntheticSpec, rng: np.random.Generator,
                     pool: list[str], d_img: int) -> list[_Template]:
    templates = []
    n_concepts = max(4, spec.n_templates * 2)
    concept_names = [f"c{i:02d}" for i in range(n_concepts)]
    for t in range(spec.n_templates):
        cluster = t // 2
        # cluster words overlap between the two templates of a cluster so the
        # lexical channel confuses them and ranking has real work to do
        cluster_words = [pool[(cluster * 7 + j) % len(pool)] for j in range(2)]
        own_words = [pool[(spec.n_templates * 3 + t * 5 + j) % len(pool)] for j in range(3)]
        cond, var_cond = pool[(t * 11 + 29) % len(pool)], pool[(t * 11 + 41) % len(pool)]
        shared_concept = concept_names[(cluster * 2) % n_concepts]
        own_concept = concept_names[(spec.n_templates + t) % n_concepts]
        templates.append(_Template(
            tid=f"t{t:02d}",
            words=cluster_words + own_words,
            cond_word=cond,
            variant_cond_word=var_cond,
            shape=_FORMULA_SHAPES[t % len(_FORMULA_SHAPES)],
            ex_type=_EX_TYPES[t % len(_EX_TYPES)],
            base_difficulty=2 + t % 3,
            grade=7 + t % 3,
            concepts=tuple(sorted({shared_concept, own_concept})),
            centroid=rng.normal(0.0, 1.0, size=d_img),
        ))
    return templates


def _render_exercise(ex_id: str, tpl: _Template, rng: np.random.Generator,
                     pool: list[str], levels: int, is_variant: bool) -> Exercise:
    a, b, c = (int(rng.integers(2, 10)) for _ in range(3))
    v, u = rng.choice(_VARS, size=2, replace=False)
    sol = (a + b) % 10
    shape = tpl.shape[1] if is_variant else tpl.shape[0]
    formula = shape.format(a=a, b=b, c=c, v=v, u=u)
    cond = tpl.variant_cond_word if is_variant else tpl.cond_word
    ctx = pool[int(rng.integers(0, len(pool)))]
    w = tpl.words
    stem = (f"{w[0]} {w[1]} {cond} given ${formula}$ "
            f"find the value of {v} {w[2]} {ctx}")
    analysis = (f"{w[3]} because ${v} = {sol}$ therefore the answer is {sol} {w[4]}")
    if tpl.ex_type == "choice":
        opts = [str(sol), str(sol + 1), str(sol + 2), str(abs(sol - 1))]
        rng.shuffle(opts)
        options = tuple(opts)
    else:
        options = ()
    n_images = int(rng.choice([0, 1, 1, 1, 1, 1, 1, 1, 1, 2]))
    images = tpl.centroid + 0.15 * rng.normal(size=(n_images, len(tpl.centroid)))
    images.flags.writeable = False
    difficulty = int(np.clip(tpl.base_difficulty + int(rng.integers(-1, 2)), 1, levels))
    return Exercise(
        id=ex_id,
        stem=stem,
        options=options,
        answer=str(sol),
        analysis=analysis,
        image_features=images,
        metadata=Metadata(tpl.ex_type, difficulty, tpl.concepts),
        learning_stage=(tpl.grade, int(rng.integers(1, 3))),
    )


def generate_synthetic(spec: SyntheticSpec, d_img: int = 32,
                       levels: int = 5) -> tuple[Corpus, SyntheticTruth, list[LabeledPair]]:
    """Build a template corpus with ground-truth groups and noisy labeled pairs.

    Exercises from the same template are ground-truth similar. Roughly a
    quarter of each template's exercises use the template's changed-condition
    form; pairs mixing the two forms carry the "variant" flag, uniform pairs
    "plain-similar". Exactly round(noise_rate * n_pairs) labels are flipped
    and recorded in the returned truth.
    """
    rng = np.random.default_rng(spec.seed)
    pool = _word_pool(spec.vocab_size)
    templates = _build_templates(spec, rng, pool, d_img)

    exercises: list[Exercise] = []
    groups: dict[str, list[str]] = {}
    variant_form: dict[str, bool] = {}
    n_total = spec.n_templates * spec.per_template
    width = max(4, len(str(n_total)))
    idx = 0
    for tpl in templates:
        members = []
        for j in range(spec.per_template):
            ex_id = f"e{idx:0{width}d}"
            idx += 1
            is_variant = j % 4 == 3  # every fourth exercise uses the changed condition
            exercises.append(_render_exercise(ex_id, tpl, rng, pool, levels, is_variant))
            variant_form[ex_id] = is_variant
            members.append(ex_id)
        groups[tpl.tid] = members
    corpus = Corpus(exercises, levels=levels, d_img=d_img)

    # within-template positives
    pairs: list[LabeledPair] = []
    for tpl in templates:
        members = groups[tpl.tid]
        all_pairs = list(itertools.combinations(members, 2))
        n_take = min(len(all_pairs), 2 * spec.per_template)
        chosen = rng.choice(len(all_pairs), size=n_take, replace=False)
        for k in sorted(int(i) for i in chosen):
            a_id, b_id = all_pairs[k]
            flag = VARIANT if variant_form[a_id] != variant_form[b_id] else PLAIN_SIMILAR
            pairs.append(LabeledPair(a_id, b_id, SIMILAR, flag, _votes(rng, SIMILAR)))
    # cross-template negatives, one per positive
    n_neg = len(pairs)
    seen_neg = set()
    tids = list(groups)
    while len(seen_neg) < n_neg:
        ta, tb = rng.choice(len(tids), size=2, replace=False)
        a_id = groups[tids[int(ta)]][int(rng.integers(0, spec.per_template))]
        b_id = groups[tids[int(tb)]][int(rng.integers(0, spec.per_template))]
        if (a_id, b_id) in seen_neg or (b_id, a_id) in seen_neg:
            continue
        seen_neg.add((a_id, b_id))
        pairs.append(LabeledPair(a_id, b_id, DISSIMILAR, None, _votes(rng, DISSIMILAR)))

    # flip exactly round(noise_rate * n) labels, regenerating votes so the
    # majority-vote invariant still holds; the truth log keeps the originals
    truth = SyntheticTruth(groups=groups)
    n_flips = int(round(spec.noise_rate * len(pairs)))
    if n_flips:
        flip_idx = rng.choice(len(pairs), size=n_flips, replace=False)
        for i in sorted(int(k) for k in flip_idx):
            p = pairs[i]
            new_label = DISSIMILAR if p.label == SIMILAR else SIMILAR
            pairs[i] = LabeledPair(p.a_id, p.b_id, new_label, None, _votes(rng, new_label))
            truth.flipped.append({
                "index": i, "a_id": p.a_id, "b_id": p.b_id, "true_label": p.label,
            })
    return corpus, truth, pairs


def _votes(rng: np.random.Generator, label: str) -> tuple[str, str, str]:
    other = DISSIMILAR if label == SIMILAR else SIMILAR
    if rng.random() < 0.15:
        return (label, label, other)
    return (label, label, label)


# ---------------------------------------------------------------------------
# Duplicate-detection training data

def generate_dedup_pairs(corpus: Corpus, truth: SyntheticTruth, seed: int,
                         n_anchors: int = 120) -> list[tuple[Exercise, Exercise, int]]:
    """Synthesize (exercise, mutated copy, label) pairs for the dedup classifier.

    Positives differ only by non-substantive edits: an exact copy, or the same
    text with a distracting year phrase added. Negatives change the substance:
    a raised power in the formula, a template mate with different slot values,
    or an unrelated exercise.
    """
    rng = np.random.default_rng(seed)
    ids = corpus.ids
    anchors = [corpus[ids[int(i)]]
               for i in rng.choice(len(ids), size=min(n_anchors, len(ids)), replace=False)]
    out: list[tuple[Exercise, Exercise, int]] = []
    for ex in anchors:
        year = 2018 + int(rng.integers(0, 8))
        out.append((ex, _clone(ex, ex.stem, "-copy"), 1))
        out.append((ex, _clone(ex, f"{ex.stem} in {year}", "-year"), 1))
        mut = _raise_power(ex.stem)
        if mut is not None:
            out.append((ex, _clone(ex, mut, "-pow"), 0))
        mates = sorted(truth.mates(ex.id))
        if mates:
            out.append((ex, corpus[mates[int(rng.integers(0, len(mates)))]], 0))
        other = ids[int(rng.integers(0, len(ids)))]
        if other != ex.id and other not in truth.mates(ex.id):
            out.append((ex, corpus[other], 0))
    return out


def _clone(ex: Exercise, stem: str, suffix: str) -> Exercise:
    return Exercise(
        id=ex.id + suffix, stem=stem, options=ex.options, answer=ex.answer,
        analysis=ex.analysis, image_features=ex.image_features,
        metadata=ex.metadata, learning_stage=ex.learning_stage)


def _raise_power(stem: str) -> Optional[str]:
    """Raise the first un-powered variable inside $...$ to a square.

    Mirrors the duplicate counter-example of a first-degree equation turned
    quadratic: a tiny character edit that changes what the exercise asks.
    """
    start = stem.find("$")
    end = stem.find("$", start + 1)
    if start < 0 or end < 0:
        return None
    body = stem[start + 1:end]
    for i, ch in enumerate(body):
        if ch in _VARS and (i + 1 >= len(body) or body[i + 1] != "^"):
            new_body = body[:i + 1] + "^2" + body[i + 1:]
            return stem[:start + 1] + new_body + stem[end:]
    return None
