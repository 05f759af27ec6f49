import dataclasses
import hashlib
import json
import re
import shutil

import numpy as np
import pytest

from exsim import snapshots
from exsim.corpus import (
    DISSIMILAR, PLAIN_SIMILAR, SIMILAR, VARIANT, Corpus, CorpusError, Exercise, LabeledPair,
    Metadata, SyntheticSpec, generate_dedup_pairs, generate_synthetic, load_corpus,
    load_pairs, load_snapshot, load_truth, save_pairs, save_snapshot, save_truth,
    validate_pairs,
)
from exsim.snapshots import SnapshotFormatError, save_arrays


def make_exercise(ex_id="e1", stem="solve $x+1=2$", difficulty=2):
    return Exercise(
        id=ex_id, stem=stem, options=("1", "2"), answer="1",
        analysis="because $x=1$", image_features=((0.0, 1.0),),
        metadata=Metadata("choice", difficulty, ("c01",)),
        learning_stage=(7, 1),
    )


def write_jsonl(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def test_load_corpus_three_valid_records(tmp_path):
    path = tmp_path / "c.jsonl"
    recs = [make_exercise(f"e{i}").to_record() for i in range(3)]
    write_jsonl(path, recs)
    corpus = load_corpus(path)
    assert len(corpus) == 3
    assert corpus.ids == ["e0", "e1", "e2"]


def test_load_corpus_duplicate_id_cites_line(tmp_path):
    path = tmp_path / "c.jsonl"
    recs = [make_exercise(f"e{i}").to_record() for i in range(5)]
    recs[1]["id"] = "e1"
    recs[4]["id"] = "e1"  # duplicate of line 2 on line 5
    write_jsonl(path, recs)
    with pytest.raises(CorpusError, match="line 5"):
        load_corpus(path)


def test_load_corpus_empty_file(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("")
    assert len(load_corpus(path)) == 0


def with_fields(**fields) -> str:
    return json.dumps({**make_exercise().to_record(), **fields})


@pytest.mark.parametrize("line, message", [
    ("{not json", "malformed JSON"),
    (with_fields(difficulty="hard"), "difficulty 'hard' is not an integer"),
    (with_fields(difficulty=1e400), "difficulty inf is not an integer"),
    (with_fields(image_features=[["abc"]]),
     "malformed exercise record: could not convert string to float"),
    (with_fields(learning_stage=[7, "spring"]), "learning_stage entry 'spring' is not an integer"),
    # nothing is converted: a float, a bool or a digit string is no integer,
    # and null or a number is no string
    (with_fields(difficulty=3.7), "difficulty 3.7 is not an integer"),
    (with_fields(difficulty=True), "difficulty True is not an integer"),
    (with_fields(difficulty="3"), "difficulty '3' is not an integer"),
    (with_fields(learning_stage=[7.9, 1]), "learning_stage entry 7.9 is not an integer"),
    (with_fields(learning_stage=[7, True]), "learning_stage entry True is not an integer"),
    (with_fields(answer=None), "answer None is not a string"),
    (with_fields(id=5), "id 5 is not a string"),
    (with_fields(learning_stage={"a": 1, "b": 2}),
     r"learning_stage must be a list, not \{'a': 1, 'b': 2\}"),
    ("5", "malformed exercise record: argument of type 'int'"),
    # the record checks' own errors are not wrapped again
    (with_fields(learning_stage=[7]), "learning_stage must be"),
    (with_fields(knowledge_concepts=[]), "knowledge_concepts must be non-empty"),
    # a string where a list belongs is refused, not split into characters
    (with_fields(options="AB"), "options must be a list, not a string"),
    (with_fields(knowledge_concepts="c01"), "knowledge_concepts must be a list, not a string"),
    (with_fields(learning_stage="79"), "learning_stage must be a list, not a string"),
    (with_fields(image_features=["12"]),
     "exercise 'e1': image feature vectors must be lists of numbers, not strings"),
], ids=["json", "difficulty", "inf-difficulty", "image-features", "stage-entry",
        "float-difficulty", "bool-difficulty", "string-difficulty", "float-stage-entry",
        "bool-stage-entry", "null-answer", "number-id", "object-stage", "not-an-object",
        "stage-length", "no-concepts", "string-options", "string-concepts", "string-stage",
        "string-image-row"])
def test_load_corpus_malformed_line_cites_line(tmp_path, line, message):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(make_exercise().to_record()) + "\n" + line + "\n")
    with pytest.raises(CorpusError, match=f"^line 2: {message}"):
        load_corpus(path)


def test_load_corpus_missing_field(tmp_path):
    path = tmp_path / "c.jsonl"
    rec = make_exercise().to_record()
    del rec["analysis"]
    write_jsonl(path, [rec])
    with pytest.raises(CorpusError, match="analysis"):
        load_corpus(path)


def test_exercise_validation():
    with pytest.raises(CorpusError):
        make_exercise(ex_id="")
    with pytest.raises(CorpusError):
        make_exercise(stem="")
    with pytest.raises(CorpusError):
        Exercise(id="e1", stem="s", options=(), answer="", analysis="",
                 image_features=((0.0,), (0.0, 1.0)),
                 metadata=Metadata("choice", 1, ("c0",)), learning_stage=(7, 1))


def test_synthetic_spec_needs_two_templates():
    with pytest.raises(ValueError, match="2 templates"):
        SyntheticSpec(n_templates=1)
    SyntheticSpec(n_templates=2)


def test_corpus_difficulty_bounds():
    with pytest.raises(CorpusError, match="difficulty"):
        Corpus([make_exercise(difficulty=9)], levels=5)


def test_labeled_pair_invariants():
    with pytest.raises(CorpusError):
        LabeledPair("a", "a", "similar")
    with pytest.raises(CorpusError):
        LabeledPair("a", "b", "kind-of-similar")
    with pytest.raises(CorpusError, match="majority"):
        LabeledPair("a", "b", "similar",
                    votes=("dissimilar", "dissimilar", "similar"))
    with pytest.raises(CorpusError, match="tied"):
        LabeledPair("a", "b", "similar",
                    votes=("similar", "dissimilar"))
    with pytest.raises(CorpusError, match="bad vote 'banana'"):
        LabeledPair("a", "b", "similar", votes=("similar", "similar", "banana"))
    with pytest.raises(CorpusError, match="variant flag 'variant' on a 'dissimilar' pair"):
        LabeledPair("a", "b", "dissimilar", variant="variant")
    p = LabeledPair("a", "b", "similar", votes=("similar", "similar", "dissimilar"))
    assert p.is_similar


def test_generate_counts_and_zero_noise_alignment():
    spec = SyntheticSpec(n_templates=10, per_template=20, noise_rate=0.0,
                         vocab_size=300, seed=1)
    corpus, truth, pairs = generate_synthetic(spec)
    assert len(corpus) == 200
    group_of = {ex_id: gid for gid, ids in truth.groups.items() for ex_id in ids}
    # with zero noise, "similar" must mean exactly "same template"
    for p in pairs:
        assert p.is_similar == (group_of[p.a_id] == group_of[p.b_id])
    assert truth.flipped == []
    validate_pairs(corpus, pairs)


def test_generate_flip_count_exact():
    spec = SyntheticSpec(n_templates=5, per_template=20, noise_rate=0.15,
                         vocab_size=200, seed=3)
    corpus, truth, pairs = generate_synthetic(spec)
    expected = round(0.15 * len(pairs))
    assert len(truth.flipped) == expected
    group_of = {ex_id: gid for gid, ids in truth.groups.items() for ex_id in ids}
    for entry in truth.flipped:
        p = pairs[entry["index"]]
        assert (p.a_id, p.b_id) == (entry["a_id"], entry["b_id"])
        assert p.label != entry["true_label"]
        true_similar = group_of[p.a_id] == group_of[p.b_id]
        assert entry["true_label"] == ("similar" if true_similar else "dissimilar")


def test_generate_deterministic(tmp_path):
    spec = SyntheticSpec(n_templates=3, per_template=6, noise_rate=0.2,
                         vocab_size=120, seed=9)
    c1, t1, p1 = generate_synthetic(spec)
    c2, t2, p2 = generate_synthetic(spec)
    assert c1 == c2 and p1 == p2 and t1.flipped == t2.flipped
    save_snapshot(c1, tmp_path / "a.snap")
    save_snapshot(c2, tmp_path / "b.snap")
    assert (tmp_path / "a.snap").read_bytes() == (tmp_path / "b.snap").read_bytes()


def test_snapshot_round_trip(tmp_path, small_synth, new_process):
    corpus, _, _ = small_synth
    path = tmp_path / "c.snap"
    save_snapshot(corpus, path)
    new_process()
    assert load_snapshot(path) == corpus


def test_snapshot_is_parsed_once_per_content(tmp_path, small_synth, new_process):
    """The corpus saved or loaded last is kept by the sha256 of its file's
    bytes: a save keeps the saved corpus itself, a byte-equal copy anywhere
    gives the kept object, a file rewritten with other bytes a new corpus,
    which then takes the one slot."""
    corpus, _, _ = small_synth
    path, copy = tmp_path / "c.snap", tmp_path / "other" / "c.snap"
    digest = save_snapshot(corpus, path)
    assert digest == corpus.digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert load_snapshot(path) is corpus
    new_process()
    first = load_snapshot(path)
    assert first is not corpus and first == corpus and first.digest == digest
    copy.parent.mkdir()
    shutil.copyfile(path, copy)
    assert load_snapshot(path) is first and load_snapshot(copy) is first
    fewer = Corpus(list(corpus)[1:], levels=corpus.levels, d_img=corpus.d_img)
    save_snapshot(fewer, path)
    assert load_snapshot(path) is fewer and fewer.digest != first.digest
    again = load_snapshot(copy)
    assert again is not first and again == first and again.digest == first.digest


def test_pairs_are_parsed_once_per_content(tmp_path, small_synth, new_process):
    """A save keeps the pairs it wrote: a load of the file, or of a
    byte-equal copy, returns them unparsed, as a new list each call. A new
    process parses the file once; the slot holds the last two contents, so
    a third one saved evicts the oldest."""
    _, _, pairs = small_synth
    path, copy = tmp_path / "p.jsonl", tmp_path / "q.jsonl"
    digest = save_pairs(pairs, path)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    shutil.copyfile(path, copy)
    saved, saved_digest = load_pairs(copy)
    assert saved == pairs and saved is not pairs and saved_digest == digest
    assert all(a is b for a, b in zip(saved, pairs))
    new_process()
    parsed, parsed_digest = load_pairs(path)
    assert parsed == pairs and parsed_digest == digest and parsed[0] is not pairs[0]
    kept, kept_digest = load_pairs(copy)
    assert kept_digest == digest and kept is not parsed
    assert all(a is b for a, b in zip(kept, parsed)) and len(kept) == len(parsed)
    save_pairs(pairs[1:], tmp_path / "other.jsonl")
    assert load_pairs(path)[0][0] is parsed[0]
    assert load_pairs(tmp_path / "other.jsonl")[0][0] is pairs[1]
    save_pairs(pairs[2:], tmp_path / "third.jsonl")
    assert load_pairs(path)[0][0] is not parsed[0]


def with_images(ex_id, images):
    return dataclasses.replace(make_exercise(ex_id), image_features=images)


def test_snapshot_round_trip_keeps_image_bytes(tmp_path, new_process):
    rng = np.random.default_rng(0)
    corpus = Corpus([with_images("e0", ()), with_images("e1", rng.normal(size=(1, 3))),
                     with_images("e2", rng.normal(size=(2, 3))), with_images("e3", ())])
    path = tmp_path / "c.snap"
    save_snapshot(corpus, path)
    new_process()
    loaded = load_snapshot(path)
    assert loaded == corpus
    for ex in corpus:
        assert loaded[ex.id].image_features.shape == ex.image_features.shape
        assert loaded[ex.id].image_features.tobytes() == ex.image_features.tobytes()


def test_loaded_image_vectors_view_one_read_only_buffer(tmp_path, small_synth, new_process):
    corpus, _, _ = small_synth
    path = tmp_path / "c.snap"
    save_snapshot(corpus, path)
    new_process()
    feats = [ex.image_features for ex in load_snapshot(path) if len(ex.image_features)]
    assert len(feats) > 1

    def owner(a):
        while isinstance(a.base, np.ndarray):
            a = a.base
        return a

    assert len({id(owner(f)) for f in feats}) == 1
    assert not any(f.flags.writeable for f in feats)
    with pytest.raises(ValueError, match="read-only"):
        feats[0][0, 0] = 1.0


def test_snapshot_refuses_vectors_in_records(tmp_path, monkeypatch):
    # the layout before the image array, format version 1: every record
    # holds its own vectors
    path = tmp_path / "c.snap"
    monkeypatch.setattr(snapshots, "_FORMAT", 1)
    save_arrays(path, "corpus", {"levels": 5, "d_img": 2,
                                 "exercises": [make_exercise().to_record()]}, {})
    monkeypatch.undo()
    with pytest.raises(SnapshotFormatError, match="format version 1.*rerun step_synth or "
                                                  "step_ingest"):
        load_snapshot(path)


def test_exercise_equality_and_hash_read_image_values():
    ex = make_exercise()
    assert dataclasses.replace(ex) == ex
    same = dataclasses.replace(ex, image_features=np.array([[0.0, 1.0]]))
    assert same == ex and hash(same) == hash(ex)
    assert dataclasses.replace(ex, image_features=((0.0, 1.5),)) != ex
    assert dataclasses.replace(ex, image_features=()) != ex


def test_exercise_keeps_options_and_stage_as_tuples():
    ex = make_exercise()
    listed = dataclasses.replace(ex, options=list(ex.options),
                                 learning_stage=list(ex.learning_stage))
    assert listed.options == ("1", "2") and listed.learning_stage == (7, 1)
    assert listed == ex and hash(listed) == hash(ex)
    for name in ("options", "learning_stage"):
        with pytest.raises(CorpusError, match=f"{name} must be a sequence"):
            dataclasses.replace(ex, **{name: "12"})


def test_record_renders_image_vectors_as_float_lists():
    ex = with_images("e1", ((0.1, -2.5e-300, 1 / 3), (1e16, -0.0, 2.0)))
    assert json.dumps(ex.to_record(), sort_keys=True) == (
        '{"analysis": "because $x=1$", "answer": "1", "difficulty": 2, '
        '"exercise_type": "choice", "id": "e1", "image_features": '
        '[[0.1, -2.5e-300, 0.3333333333333333], [1e+16, -0.0, 2.0]], '
        '"knowledge_concepts": ["c01"], "learning_stage": [7, 1], '
        '"options": ["1", "2"], "stem": "solve $x+1=2$"}')


def test_snapshot_bad_magic(tmp_path):
    path = tmp_path / "c.snap"
    path.write_bytes(b"NOTASNAP??\n" + b"\x00" * 32)
    with pytest.raises(SnapshotFormatError, match="magic"):
        load_snapshot(path)


def test_snapshot_truncated(tmp_path, small_synth):
    corpus, _, _ = small_synth
    path = tmp_path / "c.snap"
    save_snapshot(corpus, path)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    with pytest.raises(SnapshotFormatError, match="truncated"):
        load_snapshot(path)


_RANKER_HEADER = {"version": snapshots._FORMAT, "kind": "ranker", "meta": {},
                  "arrays": [{"name": "w", "shape": [2]}]}


@pytest.mark.parametrize("header, message", [
    (b"{not json", "not UTF-8 JSON"),
    (b'{"kind": "ranker\xff"}', "not UTF-8 JSON"),
    (b"[1, 2]", "not a JSON object"),
    ({k: v for k, v in _RANKER_HEADER.items() if k != "meta"}, "needs 'meta'"),
    ({k: v for k, v in _RANKER_HEADER.items() if k != "arrays"}, "needs 'meta'"),
    ({**_RANKER_HEADER, "arrays": [{"shape": [2]}]}, "with a name"),
    ({**_RANKER_HEADER, "arrays": [{"name": "w", "shape": 2}]}, "list of sizes"),
    ({**_RANKER_HEADER, "arrays": [{"name": "w", "shape": [-2]}]}, "list of sizes"),
    # sizes np.prod wraps in int64, and one past what a read can take
    ({**_RANKER_HEADER, "arrays": [{"name": "w", "shape": [2 ** 32, 2 ** 32]}]},
     "truncated array 'w'"),
    ({**_RANKER_HEADER, "arrays": [{"name": "w", "shape": [2 ** 64]}]},
     "truncated array 'w'"),
    ({**_RANKER_HEADER, "arrays": [{"name": "w", "shape": [0, 2 ** 64]}]},
     r"array 'w' of shape \[0, 18446744073709551616\] cannot be built"),
], ids=["not-json", "not-utf8", "json-list", "no-meta", "no-arrays", "entry-no-name",
        "shape-not-list", "shape-negative", "shape-wraps", "shape-unreadable",
        "shape-unbuildable"])
def test_a_corrupt_snapshot_header_is_refused_naming_the_file(tmp_path, header, message):
    raw = header if isinstance(header, bytes) else json.dumps(header).encode()
    path = tmp_path / "ranker.params"
    path.write_bytes(snapshots._MAGIC + len(raw).to_bytes(4, "little") + raw + bytes(16))
    with pytest.raises(SnapshotFormatError, match=f"^{re.escape(str(path))}: .*{message}"):
        snapshots.load_arrays(path, "ranker")


def test_jsonl_round_trip(tmp_path, small_synth):
    corpus, _, _ = small_synth
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [ex.to_record() for ex in corpus])
    assert load_corpus(path, levels=corpus.levels) == corpus


@pytest.mark.parametrize("line", [
    "[1, 2]", '{"a_id": "a", "b_id": "b", "label": "similar", "votes": 5}',
    '"a string"', "null",
    '{"a_id": "a", "b_id": "b", "label": "similar", '
    '"votes": ["similar", "similar", "banana"]}',
    '{"a_id": "a", "b_id": "b", "label": "similar", '
    '"votes": [["x"], "similar", "similar"]}',
    '{"a_id": "a", "b_id": "b", "label": "similar", "votes": "similar"}',
    '{"a_id": "a", "b_id": "b", "label": "dissimilar", "variant": "variant"}',
    '{"a_id": "a", "b_id": "b", "label": "dissimilar", "variant": "plain-similar"}',
    '{"a_id": ["e0001"], "b_id": "e0002", "label": "similar"}',
    '{"a_id": "e0001", "b_id": {"id": "e0002"}, "label": "similar"}',
    '{"a_id": 7, "b_id": "e0002", "label": "similar"}',
], ids=["array", "int-votes", "string", "null", "unknown-vote", "list-vote",
        "string-votes", "dissimilar-variant", "dissimilar-plain-similar", "list-id",
        "object-id", "int-id"])
def test_load_pairs_bad_record_cites_line(tmp_path, line):
    path = tmp_path / "p.jsonl"
    path.write_text('{"a_id": "a", "b_id": "b", "label": "similar"}\n' + line + "\n")
    with pytest.raises(CorpusError, match="^line 2: bad pair record"):
        load_pairs(path)


@pytest.mark.parametrize("text, message", [
    ('{"flipped": []}', 'expected an object with "groups" and "flipped"'),
    ('[["e0001", "e0002"]]', 'expected an object with "groups" and "flipped"'),
    ('{"groups": {"g": ["e0001"]}, "flipped": [', "malformed JSON"),
    ('{"groups": {"g": "e0001"}, "flipped": []}', "group 'g' is not a list of exercise ids"),
    ('{"groups": {"g": ["e0001"]}, "flipped": [{}]}',
     '"flipped" entry 0 is not an object with string "a_id" and "b_id"'),
    ('{"groups": {"g": ["e0001", "e0002"]}, "flipped": [{"a_id": "e0001", "b_id": "e0002"},'
     ' {"a_id": 1, "b_id": "e0001"}]}',
     '"flipped" entry 1 is not an object with string "a_id" and "b_id"'),
    ('{"groups": {"g": ["e0001"]}, "flipped": ["e0001"]}',
     '"flipped" entry 0 is not an object with string "a_id" and "b_id"'),
], ids=["no-groups", "list", "bad-json", "string-group", "empty-flip", "int-flip-id",
        "string-flip"])
def test_load_truth_refuses_a_malformed_file_naming_it(tmp_path, text, message):
    """Each used to fail with a raw KeyError, TypeError or JSONDecodeError,
    or, for a group given as a string or a flip without string ids, to
    load."""
    path = tmp_path / "truth.json"
    path.write_text(text)
    with pytest.raises(CorpusError, match=re.escape(f"{path}: {message}")):
        load_truth(path)


def test_truth_round_trip_names_the_bytes_it_parsed(tmp_path):
    _, truth, _ = generate_synthetic(SyntheticSpec(3, 4, noise_rate=0.3, seed=5))
    path = tmp_path / "truth.json"
    save_truth(truth, path)
    loaded, digest = load_truth(path)
    assert (loaded.groups, loaded.flipped) == (truth.groups, truth.flipped)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_pairs_round_trip_and_validation(tmp_path, small_synth, new_process):
    corpus, _, pairs = small_synth
    path = tmp_path / "p.jsonl"
    save_pairs(pairs, path)
    new_process()
    assert load_pairs(path) == (pairs, hashlib.sha256(path.read_bytes()).hexdigest())
    bad = pairs + [LabeledPair("nope-1", "nope-2", "similar")]
    with pytest.raises(CorpusError, match="unknown id"):
        validate_pairs(corpus, bad)


def test_loaded_pairs_share_their_strings(tmp_path, small_synth, new_process):
    """One str per distinct id within a parse, the module's constants for
    labels, variant flags and votes, and no per-pair ``__dict__``."""
    _, _, pairs = small_synth
    path = tmp_path / "p.jsonl"
    save_pairs(pairs, path)
    new_process()
    loaded, _ = load_pairs(path)
    assert loaded == pairs
    ids = [x for p in loaded for x in (p.a_id, p.b_id)]
    assert len({id(x) for x in ids}) == len(set(ids)) < len(ids)
    constants = {id(c) for c in (SIMILAR, DISSIMILAR, VARIANT, PLAIN_SIMILAR)}
    for p in loaded:
        assert {id(p.label)} | {id(v) for v in p.votes} <= constants
        assert p.variant is None or id(p.variant) in constants
    assert not hasattr(loaded[0], "__dict__")
    assert {"a_id", "b_id", "label", "variant", "votes"} == set(LabeledPair.__slots__)


def test_loaded_pairs_share_equal_votes(tmp_path):
    """Records with equal votes hold one tuple object; the bank's pairs used
    to hold one 3-tuple each."""
    votes = '"votes": ["similar", "dissimilar", "similar"]'
    path = tmp_path / "p.jsonl"
    path.write_text(f'{{"a_id": "a", "b_id": "b", "label": "similar", {votes}}}\n'
                    f'{{"a_id": "c", "b_id": "d", "label": "similar", {votes}}}\n'
                    '{"a_id": "a", "b_id": "c", "label": "dissimilar", '
                    '"votes": ["dissimilar", "dissimilar", "similar"]}\n')
    (first, second, third), _ = load_pairs(path)
    assert first.votes == second.votes == (SIMILAR, DISSIMILAR, SIMILAR)
    assert first.votes is second.votes and third.votes is not first.votes


def test_loads_share_metadata_strings(tmp_path, small_synth, new_process):
    """A snapshot or JSONL load holds one str per distinct exercise type and
    per distinct knowledge concept."""
    corpus, _, _ = small_synth
    save_snapshot(corpus, tmp_path / "c.snap")
    write_jsonl(tmp_path / "c.jsonl", [ex.to_record() for ex in corpus])
    new_process()
    for loaded in (load_snapshot(tmp_path / "c.snap"),
                   load_corpus(tmp_path / "c.jsonl", levels=corpus.levels)):
        assert loaded == corpus
        types = [ex.metadata.exercise_type for ex in loaded]
        concepts = [c for ex in loaded for c in ex.metadata.knowledge_concepts]
        assert len({id(t) for t in types}) == len(corpus.exercise_types) < len(types)
        assert len({id(c) for c in concepts}) == len(corpus.concepts) < len(concepts)


def test_variant_flags_present(small_synth):
    _, _, pairs = small_synth
    flags = {p.variant for p in pairs if p.is_similar}
    assert "variant" in flags and "plain-similar" in flags


def test_dedup_pairs_shapes(small_synth):
    corpus, truth, _ = small_synth
    dedup = generate_dedup_pairs(corpus, truth, seed=4, n_anchors=10)
    assert dedup
    labels = {lab for _, _, lab in dedup}
    assert labels == {0, 1}
    for a, b, lab in dedup:
        if b.id.endswith("-copy"):
            assert lab == 1 and b.stem == a.stem
        if b.id.endswith("-pow"):
            assert lab == 0 and b.stem != a.stem
