"""One identifier rule for every domain type: each id list holds non-empty
strings without tab or newline characters, with no repeats, and each name
lookup misses with its owner's message.  Whatever a constructor accepts
comes back equal through its writer and loader, unless the writer refuses
it before writing; a truth's coverage comes back in order of first label."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagselect import (
    PROVENANCE_ORDER,
    CooccurrenceStats,
    FormatError,
    GroundTruth,
    ScoreTable,
    SelectedTag,
    SelectionResult,
    SimilarityMatrix,
    TagSelectError,
    TagStats,
    ThresholdModel,
    Vocabulary,
    formats,
)
from test_codec import IDS

# Each id list: its owner built around ids, the kind its messages name, and
# the message for a repeat (None where the list is a mapping's keys, which
# cannot repeat).
ID_LISTS = {
    "vocabulary tags": (
        lambda ids: Vocabulary(ids, dict.fromkeys(ids, "seen")),
        "tag", "vocabulary contains duplicate tags",
    ),
    "score table images": (
        lambda ids: ScoreTable(ids, ("t",), np.zeros((len(ids), 1))),
        "image id", "score table contains duplicate image ids",
    ),
    "score table tags": (
        lambda ids: ScoreTable(("i",), ids, np.zeros((1, len(ids)))),
        "tag", "score table contains duplicate tags",
    ),
    "score table images, taken over": (
        lambda ids: ScoreTable._taking(ids, ("t",), np.zeros((len(ids), 1))),
        "image id", "score table contains duplicate image ids",
    ),
    "score table tags, taken over": (
        lambda ids: ScoreTable._taking(("i",), ids, np.zeros((1, len(ids)))),
        "tag", "score table contains duplicate tags",
    ),
    "ground truth images": (
        lambda ids: GroundTruth(ids, ("t",), np.zeros((len(ids), 1))),
        "image id", "ground truth contains duplicate image ids",
    ),
    "ground truth coverage": (
        lambda ids: GroundTruth(("i",), ids, np.zeros((1, len(ids)))),
        "tag", "ground truth coverage contains duplicate tags",
    ),
    "selection images": (
        lambda ids: SelectionResult(ids, dict.fromkeys(ids, ())),
        "image id", "selection result contains duplicate image ids",
    ),
    "statistics tags": (
        lambda ids: TagStats(ids, np.zeros(len(ids)), np.zeros(len(ids))),
        "tag", "statistics contain duplicate tags",
    ),
    "similarity tags": (
        lambda ids: SimilarityMatrix(ids, np.eye(len(ids)), ()),
        "tag", "similarity matrix contains duplicate tags",
    ),
    "co-occurrence mapping tags": (
        lambda ids: CooccurrenceStats(dict.fromkeys(ids, 1), {}, 2),
        "tag", None,
    ),
    "co-occurrence matrix tags": (
        lambda ids: CooccurrenceStats.from_counts(ids, np.eye(len(ids), dtype=np.int64), 2),
        "tag", "co-occurrence tags contain duplicates",
    ),
}


def bad_ids(kind, duplicates):
    """(id list, message) pairs, each list one valid id then one fault."""
    cases = [(("ok", v), f"{kind} must be a non-empty string, got {v!r}") for v in ("", 7)]
    cases += [
        (("ok", v), f"{kind} {v!r} contains tab or newline characters")
        for v in ("a\tb", "a\nb", "a\rb")
    ]
    if duplicates is not None:
        cases.append((("ok", "ok"), duplicates))
    return cases


@pytest.mark.parametrize("build, ids, message", [
    pytest.param(build, ids, message, id=f"{name}-{ids!r}")
    for name, (build, kind, duplicates) in ID_LISTS.items()
    for ids, message in bad_ids(kind, duplicates)
])
def test_every_id_list_is_checked_by_one_rule(build, ids, message):
    with pytest.raises(TagSelectError) as exc:
        build(ids)
    assert str(exc.value) == message


def test_non_string_key_among_strings_names_the_key_not_the_sort():
    with pytest.raises(TagSelectError) as exc:
        CooccurrenceStats({"a": 1, 2: 1}, {}, 2)
    assert str(exc.value) == "tag must be a non-empty string, got 2"


def test_bad_tag_is_named_before_shape_dtype_and_counts():
    with pytest.raises(TagSelectError) as exc:
        CooccurrenceStats.from_counts(("a", "b\tc"), np.full((3, 3), 9.5), 1)
    assert str(exc.value) == "tag 'b\\tc' contains tab or newline characters"


def test_score_table_checks_images_in_full_before_tags():
    with pytest.raises(TagSelectError) as exc:
        ScoreTable(("i", "i"), ("",), np.zeros((2, 1)))
    assert str(exc.value) == "score table contains duplicate image ids"


def owners():
    vocab = Vocabulary.from_partition(["a"], ["b"])
    table = ScoreTable(("i",), ("a", "b"), np.zeros((1, 2)))
    truth = GroundTruth(("i",), ("a",), np.ones((1, 1)))
    selections = SelectionResult(("i",), {"i": ()})
    stats = TagStats(("a",), np.zeros(1), np.zeros(1))
    sim = SimilarityMatrix(("a",), np.eye(1), ())
    return vocab, table, truth, selections, stats, sim


LOOKUPS = [
    (lambda o: o[0].index, "unknown tag 'zz'"),
    (lambda o: o[1].image_index, "unknown image 'zz'"),
    (lambda o: o[1].tag_index, "unknown tag 'zz'"),
    (lambda o: o[2].image_index, "image 'zz' not present in ground truth"),
    (lambda o: o[2].column, "tag 'zz' not in ground truth coverage"),
    (lambda o: o[3].row, "image 'zz' not present in selections"),
    (lambda o: o[4].index, "no statistics for tag 'zz'"),
    (lambda o: o[5].index, "tag 'zz' not in similarity matrix"),
]


@pytest.mark.parametrize("method, message", LOOKUPS)
def test_every_lookup_misses_with_its_owners_message(method, message):
    with pytest.raises(TagSelectError) as exc:
        method(owners())("zz")
    assert str(exc.value) == message


# ------------------------------------------------------ writer and loader

def unique_ids(min_size=0):
    return st.lists(st.sampled_from(IDS), min_size=min_size, max_size=4, unique=True)


def round_trip(save, load, obj, first_field_ids, kind):
    """``obj`` through ``save`` and ``load``; None when the writer refused
    an id that starts with '#', which it must do before writing."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.tsv"
        hashed = [x for x in first_field_ids if x.startswith("#")]
        if hashed:
            with pytest.raises(FormatError) as exc:
                save(obj, path)
            assert str(exc.value) == (
                f"{path}:0: {kind} {hashed[0]!r} starts with '#' and would read back as a comment"
            )
            assert not path.exists()
            return None
        save(obj, path)
        return load(path)


@settings(max_examples=60, deadline=None)
@given(tags=unique_ids(min_size=1), data=st.data())
def test_vocabulary_round_trip(tags, data):
    sides = data.draw(st.lists(st.sampled_from(("seen", "novel")), min_size=len(tags),
                               max_size=len(tags)))
    vocab = Vocabulary(tuple(tags), dict(zip(tags, sides)))
    loaded = round_trip(formats.save_vocabulary, formats.load_vocabulary, vocab, tags, "tag")
    if loaded is not None:
        assert (loaded.tags, loaded.partition) == (vocab.tags, vocab.partition)


@settings(max_examples=60, deadline=None)
@given(images=unique_ids(), tags=unique_ids(min_size=1), seed=st.integers(0, 9))
def test_scores_round_trip(images, tags, seed):
    scores = np.random.default_rng(seed).normal(size=(len(images), len(tags)))
    table = ScoreTable(tuple(images), tuple(tags), scores)
    vocab = Vocabulary(table.tags, dict.fromkeys(tags, "seen"))
    loaded = round_trip(
        formats.save_scores, lambda p: formats.load_scores(p, vocab), table, images, "image id"
    )
    if loaded is not None:
        assert (loaded.images, loaded.tags) == (table.images, table.tags)
        assert loaded.scores.tobytes() == table.scores.tobytes()


@settings(max_examples=100, deadline=None)
@given(images=unique_ids(min_size=1), coverage=unique_ids(min_size=1), data=st.data())
def test_truth_round_trip(images, coverage, data):
    # Labels may be undefined, so that an image or a coverage tag may have
    # none, which the file cannot hold.
    label = st.sampled_from((-1, 0, 1)) if data.draw(st.booleans()) else st.integers(0, 1)
    labels = np.reshape(
        data.draw(st.lists(label, min_size=len(images) * len(coverage),
                           max_size=len(images) * len(coverage))),
        (len(images), len(coverage)),
    )
    truth = GroundTruth(tuple(images), tuple(coverage), labels)
    defined = truth.labels >= 0
    unlabelled = [f"image {x!r}" for x, ok in zip(images, defined.any(axis=1)) if not ok]
    unlabelled += [f"coverage tag {t!r}" for t, ok in zip(coverage, defined.any(axis=0)) if not ok]
    if unlabelled and not any(x.startswith("#") for x in images):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out.tsv"
            with pytest.raises(FormatError) as exc:
                formats.save_truth(truth, path)
            assert str(exc.value) == (
                f"{path}:0: {unlabelled[0]} has no defined label and would not read back"
            )
            assert not path.exists()
        return
    loaded = round_trip(formats.save_truth, formats.load_truth, truth, images, "image id")
    if loaded is not None:
        # The file lists the labels image by image, so a coverage tag comes
        # back at its first label.
        first = np.argmax(defined, axis=0)
        order = sorted(range(len(coverage)), key=lambda j: (first[j], j))
        assert loaded.images == truth.images
        assert loaded.coverage == tuple(coverage[j] for j in order)
        assert loaded.labels.tobytes() == truth.labels[:, order].tobytes()


@settings(max_examples=60, deadline=None)
@given(images=unique_ids(min_size=1), data=st.data())
def test_selections_round_trip(images, data):
    # Every image has a pick, so that no image is left out of the file.
    rows = {
        image: [
            SelectedTag(tag, data.draw(st.floats(allow_nan=False)),
                        data.draw(st.sampled_from(PROVENANCE_ORDER)))
            for tag in data.draw(unique_ids(min_size=1))
        ]
        for image in images
    }
    result = SelectionResult(tuple(images), rows)
    loaded = round_trip(
        formats.save_selections, formats.load_selections, result, images, "image id"
    )
    if loaded is not None:
        assert loaded.images == result.images
        assert [loaded.row(x) for x in images] == [result.row(x) for x in images]


@settings(max_examples=60, deadline=None)
@given(tags=unique_ids(min_size=1), data=st.data())
def test_thresholds_round_trip(tags, data):
    seen = data.draw(st.lists(st.booleans(), min_size=len(tags), max_size=len(tags)))
    vocab = Vocabulary(tuple(tags), {t: "seen" if s else "novel" for t, s in zip(tags, seen)})
    stats = TagStats(vocab.tags, np.linspace(0.0, 1.0, len(tags)), np.full(len(tags), 0.25))
    tau = {t: 0.5 for t in vocab.seen_tags[::2]}
    untrainable = tuple(t for t in vocab.seen_tags if t not in tau)
    model = ThresholdModel(tau=tau, stats=stats, lsq_coeffs=(0.9, 1.1), untrainable=untrainable)
    loaded = round_trip(
        formats.save_thresholds, lambda p: formats.load_thresholds(p, vocab), model, tags, "tag"
    )
    if loaded is not None:
        assert (loaded.tau, loaded.lsq_coeffs, loaded.untrainable) == (
            model.tau, model.lsq_coeffs, model.untrainable
        )
        assert loaded.stats.tags == stats.tags
        assert loaded.stats.mu.tobytes() == stats.mu.tobytes()
        assert loaded.stats.sigma.tobytes() == stats.sigma.tobytes()
