import dataclasses
import json

import numpy as np
import pytest

from exsim.corpus import (
    DISSIMILAR, PLAIN_SIMILAR, SIMILAR, VARIANT, Corpus, CorpusError, Exercise, LabeledPair,
    Metadata, SyntheticSpec, generate_dedup_pairs, generate_synthetic, load_corpus,
    load_pairs, load_snapshot, save_pairs, save_snapshot, validate_pairs,
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
    (with_fields(difficulty="hard"), "malformed exercise record: invalid literal for int"),
    (with_fields(difficulty=1e400), "malformed exercise record: cannot convert float inf"),
    (with_fields(image_features=[["abc"]]),
     "malformed exercise record: could not convert string to float"),
    (with_fields(learning_stage=[7, "spring"]),
     "malformed exercise record: invalid literal for int"),
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
        "not-an-object", "stage-length", "no-concepts", "string-options",
        "string-concepts", "string-stage", "string-image-row"])
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


def test_snapshot_round_trip(tmp_path, small_synth):
    corpus, _, _ = small_synth
    path = tmp_path / "c.snap"
    save_snapshot(corpus, path)
    assert load_snapshot(path) == corpus


def with_images(ex_id, images):
    return dataclasses.replace(make_exercise(ex_id), image_features=images)


def test_snapshot_round_trip_keeps_image_bytes(tmp_path):
    rng = np.random.default_rng(0)
    corpus = Corpus([with_images("e0", ()), with_images("e1", rng.normal(size=(1, 3))),
                     with_images("e2", rng.normal(size=(2, 3))), with_images("e3", ())])
    path = tmp_path / "c.snap"
    save_snapshot(corpus, path)
    loaded = load_snapshot(path)
    assert loaded == corpus
    for ex in corpus:
        assert loaded[ex.id].image_features.shape == ex.image_features.shape
        assert loaded[ex.id].image_features.tobytes() == ex.image_features.tobytes()


def test_loaded_image_vectors_view_one_read_only_buffer(tmp_path, small_synth):
    corpus, _, _ = small_synth
    path = tmp_path / "c.snap"
    save_snapshot(corpus, path)
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


def test_snapshot_refuses_vectors_in_records(tmp_path):
    # the layout before the image array: every record holds its own vectors
    path = tmp_path / "c.snap"
    save_arrays(path, "corpus", {"levels": 5, "d_img": 2,
                                 "exercises": [make_exercise().to_record()]}, {})
    with pytest.raises(SnapshotFormatError, match="rerun step_synth or step_ingest"):
        load_snapshot(path)


def test_exercise_equality_and_hash_read_image_values():
    ex = make_exercise()
    assert dataclasses.replace(ex) == ex
    same = dataclasses.replace(ex, image_features=np.array([[0.0, 1.0]]))
    assert same == ex and hash(same) == hash(ex)
    assert dataclasses.replace(ex, image_features=((0.0, 1.5),)) != ex
    assert dataclasses.replace(ex, image_features=()) != ex


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
], ids=["array", "int-votes", "string", "null", "unknown-vote", "list-vote",
        "string-votes", "dissimilar-variant", "dissimilar-plain-similar"])
def test_load_pairs_bad_record_cites_line(tmp_path, line):
    path = tmp_path / "p.jsonl"
    path.write_text('{"a_id": "a", "b_id": "b", "label": "similar"}\n' + line + "\n")
    with pytest.raises(CorpusError, match="^line 2: bad pair record"):
        load_pairs(path)


def test_pairs_round_trip_and_validation(tmp_path, small_synth):
    corpus, _, pairs = small_synth
    path = tmp_path / "p.jsonl"
    save_pairs(pairs, path)
    assert load_pairs(path) == pairs
    bad = pairs + [LabeledPair("nope-1", "nope-2", "similar")]
    with pytest.raises(CorpusError, match="unknown id"):
        validate_pairs(corpus, bad)


def test_loaded_pairs_share_their_strings(tmp_path, small_synth):
    """One str per distinct id within a load, the module's constants for
    labels, variant flags and votes, and no per-pair ``__dict__``."""
    _, _, pairs = small_synth
    path = tmp_path / "p.jsonl"
    save_pairs(pairs, path)
    loaded = load_pairs(path)
    assert loaded == pairs
    ids = [x for p in loaded for x in (p.a_id, p.b_id)]
    assert len({id(x) for x in ids}) == len(set(ids)) < len(ids)
    constants = {id(c) for c in (SIMILAR, DISSIMILAR, VARIANT, PLAIN_SIMILAR)}
    for p in loaded:
        assert {id(p.label)} | {id(v) for v in p.votes} <= constants
        assert p.variant is None or id(p.variant) in constants
    assert not hasattr(loaded[0], "__dict__")
    assert {"a_id", "b_id", "label", "variant", "votes"} == set(LabeledPair.__slots__)


def test_loads_share_metadata_strings(tmp_path, small_synth):
    """A snapshot or JSONL load holds one str per distinct exercise type and
    per distinct knowledge concept."""
    corpus, _, _ = small_synth
    save_snapshot(corpus, tmp_path / "c.snap")
    write_jsonl(tmp_path / "c.jsonl", [ex.to_record() for ex in corpus])
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
