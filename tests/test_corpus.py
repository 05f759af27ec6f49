import json

import pytest

from exsim.corpus import (
    Corpus, CorpusError, Exercise, LabeledPair, Metadata, SyntheticSpec,
    generate_dedup_pairs, generate_synthetic, load_corpus, load_pairs,
    load_snapshot, save_pairs, save_snapshot, validate_pairs,
)
from exsim.snapshots import SnapshotFormatError


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


def test_load_corpus_malformed_line_cites_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(make_exercise().to_record()) + "\n{not json\n")
    with pytest.raises(CorpusError, match="line 2"):
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


def test_pairs_round_trip_and_validation(tmp_path, small_synth):
    corpus, _, pairs = small_synth
    path = tmp_path / "p.jsonl"
    save_pairs(pairs, path)
    assert load_pairs(path) == pairs
    bad = pairs + [LabeledPair("nope-1", "nope-2", "similar")]
    with pytest.raises(CorpusError, match="unknown id"):
        validate_pairs(corpus, bad)


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
