"""The block-wise TSV codec of ``tagselect.formats`` against the
line-at-a-time loaders in ``oracles``: the same objects, or the same error,
on random files with comment and blank lines, mixed line endings, shuffled
rows or the layout the writers give, and injected corruptions, at any block
size; then fixed files longer than one block at the module's own block
size."""

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from tagselect import PROVENANCE_ORDER, FormatError, Vocabulary, cli, formats

VOCAB = Vocabulary.from_partition(["alpha", "beta", "é字"], ["#hash", "g a"])
# Identifiers include a non-ASCII tag, a space, a form feed and a line
# separator (neither ends a line) and a leading '#', which makes a line a
# comment.
IDS = ["x1", "x 2", "ü", "a\x0cb", "p\u2028q", "#x"]
NUMBERS = ["0.5", "-1e-3", "1e308", " 2 ", "+3", "1_0", "١", "inf", "nan", "-0"]
ENDINGS = ["\n", "\r\n", "\r"]


def oracle_and_codec(path, load, oracle, *args):
    """Load with both; each side is the loaded object or the FormatError."""
    results = []
    for fn in (oracle, load):
        try:
            results.append(fn(path, *args))
        except FormatError as exc:
            results.append(exc)
    return results


def same_result(got, want, fields):
    if isinstance(want, FormatError):
        assert isinstance(got, FormatError), got
        assert (str(got), got.lineno) == (str(want), want.lineno)
        return
    assert not isinstance(got, FormatError), got
    for name in fields:
        a, b = getattr(got, name), getattr(want, name)
        if hasattr(b, "tobytes"):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        else:
            assert a == b


@contextmanager
def block_lines(n):
    with mock.patch.object(formats, "BLOCK_LINES", n):
        yield


def render(draw, lines: list[str], comments=True) -> bytes:
    """Interleave comment and blank lines (if ``comments``), end each line
    with a drawn line ending and maybe leave the last one open."""
    out = []
    for line in lines:
        for _ in range(draw(st.integers(0, 1)) if comments else 0):
            out.append(draw(st.sampled_from(["", "# comment", "#", "#\tx\ty\tz"])))
        out.append(line)
    text = "".join(line + draw(st.sampled_from(ENDINGS)) for line in out)
    if out and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode("utf-8")


def corrupt(draw, lines: list[str], rules) -> list[str]:
    """Apply one or two corruptions, each drawn from ``rules``: a function
    of (fields of one line, fields of another line) giving the new line, or
    None to delete it.  The second may hit the same line, where the rule
    order decides which error is reported."""
    lines = list(lines)
    i = None
    for _ in range(draw(st.integers(1, 2))):
        if not lines:
            break
        if i is None or i >= len(lines) or draw(st.booleans()):
            i = draw(st.integers(0, len(lines) - 1))
        other = lines[draw(st.integers(0, len(lines) - 1))].split("\t")
        new = draw(st.sampled_from(rules))(lines[i].split("\t"), other)
        if new is None:
            del lines[i]
        else:
            lines[i] = new
    return lines


COMMON_RULES = [
    lambda f, o: "\t".join(f[:-1]),  # a field short
    lambda f, o: "\t".join([*f, "extra"]),  # a field too many
    lambda f, o: "\t".join(["", *f[1:]]),  # empty image id
    lambda f, o: "\t".join([f[0], "delta", *f[2:]]),  # unknown tag
    lambda f, o: "\t".join([*o[:2], *f[2:]]),  # another line's cell
    lambda f, o: "\t".join([o[0], *f[1:]]),  # another line's image
    lambda f, o: None,  # deleted
    lambda f, o: "# " + "\t".join(f),  # commented out
    lambda f, o: "",  # blanked
]
SCORE_RULES = COMMON_RULES + [
    lambda f, o: "\t".join([*f[:2], "low"]),  # not a number
]
TRUTH_RULES = COMMON_RULES + [
    lambda f, o: "\t".join([f[0], "", *f[2:]]),  # empty tag
    lambda f, o: "\t".join([*f[:2], "2"]),  # bad label
    lambda f, o: "\t".join([*f[:2], " 1"]),  # bad label
]
# Any tag may be selected, so the common "unknown tag" rule gives a valid
# line here.
SELECTION_RULES = COMMON_RULES + [
    lambda f, o: "\t".join([f[0], "", *f[2:]]),  # empty tag
    lambda f, o: "\t".join([*f[:2], "low", *f[3:]]),  # not a number
    lambda f, o: "\t".join([*f[:-1], "guess"]),  # unknown provenance
]


@st.composite
def score_files(draw):
    images = draw(st.lists(st.sampled_from(IDS), max_size=4, unique=True))
    lines = [
        f"{image}\t{tag}\t{draw(st.sampled_from(NUMBERS))}"
        for image in images for tag in VOCAB.tags
    ]
    lines = draw(st.permutations(lines))
    if draw(st.booleans()):
        lines = corrupt(draw, lines, SCORE_RULES)
    return render(draw, lines)


@st.composite
def truth_files(draw):
    cells = draw(st.lists(
        st.tuples(st.sampled_from(IDS), st.sampled_from(VOCAB.tags), st.sampled_from("01")),
        max_size=12, unique_by=lambda c: c[:2],
    ))
    lines = ["\t".join(cell) for cell in cells]
    if draw(st.booleans()):
        lines = corrupt(draw, lines, TRUTH_RULES)
    return render(draw, lines)


@st.composite
def selection_files(draw):
    cells = draw(st.lists(
        st.tuples(st.sampled_from(IDS), st.sampled_from(VOCAB.tags),
                  st.sampled_from(NUMBERS), st.sampled_from(PROVENANCE_ORDER)),
        max_size=12, unique_by=lambda c: c[:2],
    ))
    lines = ["\t".join(cell) for cell in cells]
    if draw(st.booleans()):
        lines = corrupt(draw, lines, SELECTION_RULES)
    return render(draw, lines)


def canonical_lines(draw, cycle, value) -> list[str]:
    """The layout the writers give: image-major, each image's lines in
    ``cycle`` order, maybe with the last image cut short, and maybe with an
    earlier image's lines again after the others.  Maybe one image has
    another number of lines, and the tags run on through the cycle, so that
    images change within a cycle from there."""
    images = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=5, unique=True))
    n = len(cycle)
    sizes = [n] * (len(images) - 1) + [draw(st.integers(1, n))]
    if len(images) > 1 and draw(st.booleans()):
        images.append(draw(st.sampled_from(images[:-1])))
        sizes.append(n)
    if draw(st.booleans()):
        sizes[draw(st.integers(0, len(sizes) - 1))] = draw(st.integers(1, 2 * n))
    owners = [image for image, size in zip(images, sizes) for _ in range(size)]
    return [f"{image}\t{cycle[j % n]}\t{draw(value)}" for j, image in enumerate(owners)]


@st.composite
def canonical_score_files(draw):
    lines = canonical_lines(draw, VOCAB.tags, st.sampled_from(NUMBERS))
    if draw(st.booleans()):
        lines = corrupt(draw, lines, SCORE_RULES)
    return render(draw, lines, comments=draw(st.booleans()))


@st.composite
def canonical_truth_files(draw):
    """Each image labels the same tags in one coverage order."""
    cycle = draw(st.lists(st.sampled_from(VOCAB.tags), min_size=1, unique=True))
    lines = canonical_lines(draw, cycle, st.sampled_from("01"))
    if draw(st.booleans()):
        lines = corrupt(draw, lines, TRUTH_RULES)
    return render(draw, lines, comments=draw(st.booleans()))


COOC_LINES = [
    "N\t10", "1\talpha\t5", "1\tbeta\t4", "1\tgamma\t3",
    "2\talpha\tbeta\t2", "2\talpha\tgamma\t1", "2\tbeta\tgamma\t0",
]
COOC_RULES = [
    lambda f, o: "\t".join(f[:-1]),  # a field short
    lambda f, o: "\t".join(["3", *f[1:]]),  # unknown row kind
    lambda f, o: "\t".join([*o[:-1], f[-1]]),  # another row's kind and tags
    lambda f, o: "\t".join([*f[:-1], "many"]),  # not an integer
    lambda f, o: "\t".join([*f[:-1], "-1"]),  # negative
    lambda f, o: "\t".join([*f[:-1], "11"]),  # above the total or a single
    lambda f, o: "\t".join([*f[:-1], str(2**70)]),  # beyond int64
    lambda f, o: "\t".join([f[0], "", *f[2:]]),  # empty tag
    lambda f, o: "\t".join([f[0], "delta", *f[2:]]),  # unknown tag in a pair
    lambda f, o: "\t".join([f[0], *f[1:-1][::-1], f[-1]]),  # unordered pair
    lambda f, o: "\t".join([f[0], "0"]) if f[0] == "N" else "\t".join(f),  # bad total
    lambda f, o: None,  # deleted
]


@st.composite
def cooccurrence_files(draw):
    lines = draw(st.permutations(COOC_LINES))
    if draw(st.booleans()):
        lines = corrupt(draw, lines, COOC_RULES)
    return render(draw, lines)


BLOCK_SIZES = st.sampled_from([1, 2, 3, 5, formats.BLOCK_LINES])
SELECTION_FIELDS = ("images", "column_tags", "offsets", "columns", "scores", "provenance")


def scores_as_oracle(tmp_path_factory, content, block):
    path = tmp_path_factory.mktemp("codec") / "scores.tsv"
    path.write_bytes(content)
    with block_lines(block):
        want, got = oracle_and_codec(
            path, formats.load_scores, oracles.load_scores_oracle, VOCAB)
    same_result(got, want, ("images", "tags", "scores"))


def truth_as_oracle(tmp_path_factory, content, block, vocab):
    path = tmp_path_factory.mktemp("codec") / "truth.tsv"
    path.write_bytes(content)
    with block_lines(block):
        want, got = oracle_and_codec(
            path, formats.load_truth, oracles.load_truth_oracle, vocab)
    same_result(got, want, ("images", "coverage", "labels"))


class TestAgainstLineOracle:
    @settings(deadline=None, max_examples=200)
    @given(content=score_files(), block=BLOCK_SIZES)
    def test_scores(self, tmp_path_factory, content, block):
        scores_as_oracle(tmp_path_factory, content, block)

    @settings(deadline=None, max_examples=200)
    @given(content=truth_files(), block=BLOCK_SIZES, vocab=st.sampled_from([VOCAB, None]))
    def test_truth(self, tmp_path_factory, content, block, vocab):
        truth_as_oracle(tmp_path_factory, content, block, vocab)

    @settings(deadline=None, max_examples=200)
    @given(content=canonical_score_files(), block=BLOCK_SIZES)
    def test_canonical_scores(self, tmp_path_factory, content, block):
        """Blocks in the written layout are indexed by cycle and run; at
        block sizes of 2 and 3 lines a cycle of 5 tags starts at every
        phase."""
        scores_as_oracle(tmp_path_factory, content, block)

    @settings(deadline=None, max_examples=200)
    @given(content=canonical_truth_files(), block=BLOCK_SIZES,
           vocab=st.sampled_from([VOCAB, None]))
    def test_canonical_truth(self, tmp_path_factory, content, block, vocab):
        truth_as_oracle(tmp_path_factory, content, block, vocab)

    @settings(deadline=None, max_examples=200)
    @given(content=cooccurrence_files(), block=BLOCK_SIZES)
    def test_cooccurrence(self, tmp_path_factory, content, block):
        path = tmp_path_factory.mktemp("codec") / "cooccurrence.tsv"
        path.write_bytes(content)
        with block_lines(block):
            want, got = oracle_and_codec(
                path, formats.load_cooccurrence, oracles.load_cooccurrence_oracle)
        same_result(got, want, ("tags", "counts", "total"))

    @settings(deadline=None, max_examples=200)
    @given(content=selection_files(), block=BLOCK_SIZES)
    def test_selections(self, tmp_path_factory, content, block):
        path = tmp_path_factory.mktemp("codec") / "selections.tsv"
        path.write_bytes(content)
        with block_lines(block):
            want, got = oracle_and_codec(
                path, formats.load_selections, oracles.load_selections_oracle)
        same_result(got, want, SELECTION_FIELDS)


SCORE_LINES = [f"{image}\t{tag}\t0.5" for image in IDS[:2] for tag in VOCAB.tags]
TRUTH_LINES = [line[:-4] + f"\t{k % 2}" for k, line in enumerate(SCORE_LINES)]
SELECTION_LINES = [
    line[:-4] + f"\t{k / 4!r}\t{PROVENANCE_ORDER[k % 3]}" for k, line in enumerate(SCORE_LINES)
]
LOADERS = [
    ("scores", SCORE_LINES, SCORE_RULES, formats.load_scores, oracles.load_scores_oracle,
     (VOCAB,), ("images", "tags", "scores")),
    ("truth", TRUTH_LINES, TRUTH_RULES, formats.load_truth, oracles.load_truth_oracle,
     (VOCAB,), ("images", "coverage", "labels")),
    ("cooccurrence", COOC_LINES, COOC_RULES, formats.load_cooccurrence,
     oracles.load_cooccurrence_oracle, (), ("tags", "counts", "total")),
    ("selections", SELECTION_LINES, SELECTION_RULES, formats.load_selections,
     oracles.load_selections_oracle, (), SELECTION_FIELDS),
]


@pytest.mark.parametrize(
    "lines, rules, load, oracle, args, fields", [case[1:] for case in LOADERS],
    ids=[case[0] for case in LOADERS],
)
def test_every_pair_of_rules_on_one_line(tmp_path, lines, rules, load, oracle, args, fields):
    """Both corruptions of each ordered pair hit the same line, so the rule
    order decides the error; the line is the first, a middle or the last,
    and a rule that copies takes the line before it (or the second)."""
    path = tmp_path / "file.tsv"
    for i in (0, len(lines) // 2, len(lines) - 1):
        other = lines[i - 1 if i else 1].split("\t")
        for first in rules:
            for second in rules:
                changed = list(lines)
                line = first(lines[i].split("\t"), other)
                if line is not None:
                    line = second(line.split("\t"), other)
                changed[i: i + 1] = [] if line is None else [line]
                path.write_bytes(("\n".join(changed) + "\n").encode())
                want, got = oracle_and_codec(path, load, oracle, *args)
                same_result(got, want, fields)


# Files longer than two blocks at the module's block size.  Line 1 is a
# comment, so data line k (from 0) is file line k + 2.
B = formats.BLOCK_LINES
WIDE_VOCAB = Vocabulary.from_partition([f"t{j:03d}" for j in range(100)], [])
N_IMAGES = (2 * B + 300) // 100
BOUNDARY = ["last line of a block", "first of the next"]


@pytest.fixture(scope="module")
def score_lines():
    return [
        f"im{i}\t{tag}\t{(i * 7 + j) % 101 / 100!r}"
        for i in range(N_IMAGES) for j, tag in enumerate(WIDE_VOCAB.tags)
    ]


@pytest.fixture(scope="module")
def truth_lines(score_lines):
    return [line.rsplit("\t", 1)[0] + f"\t{k % 3 % 2}" for k, line in enumerate(score_lines)]


@pytest.fixture(scope="module")
def selection_lines(score_lines):
    return [f"{line}\t{PROVENANCE_ORDER[k % 3]}" for k, line in enumerate(score_lines)]


def write(path, lines, newline="\n"):
    path.write_bytes(("# header" + newline + newline.join(lines) + newline).encode())
    return path


def replace_fields(lines, lineno, **fields):
    """``lines`` with file line ``lineno`` given new image, tag or value (the
    fields after the tag)."""
    lines = list(lines)
    image, tag, value = lines[lineno - 2].split("\t", 2)
    new = {"image": image, "tag": tag, "value": value, **fields}
    lines[lineno - 2] = "\t".join([new["image"], new["tag"], new["value"]])
    return lines


class TestBeyondOneBlock:
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_valid_files_load_as_the_oracle_does(
        self, tmp_path, score_lines, truth_lines, selection_lines, newline
    ):
        lines = list(score_lines)
        lines[B + 7:B + 7] = ["# a comment inside the second block", ""]
        path = write(tmp_path / "scores.tsv", lines, newline)
        want, got = oracle_and_codec(
            path, formats.load_scores, oracles.load_scores_oracle, WIDE_VOCAB)
        same_result(got, want, ("images", "tags", "scores"))
        path = write(tmp_path / "truth.tsv", truth_lines, newline)
        want, got = oracle_and_codec(
            path, formats.load_truth, oracles.load_truth_oracle, WIDE_VOCAB)
        same_result(got, want, ("images", "coverage", "labels"))
        path = write(tmp_path / "selections.tsv", selection_lines, newline)
        want, got = oracle_and_codec(
            path, formats.load_selections, oracles.load_selections_oracle)
        same_result(got, want, SELECTION_FIELDS)

    @pytest.mark.parametrize("lineno", [B, B + 1], ids=BOUNDARY)
    @pytest.mark.parametrize("fields, message", [
        ({"value": "low"}, "not a number: 'low'"),
        ({"tag": "t000\tt001"}, "expected 3 tab-separated fields, got 4"),
        ({"image": ""}, "empty image id"),
    ])
    def test_score_corruption_at_a_block_boundary(
        self, tmp_path, score_lines, lineno, fields, message
    ):
        path = write(tmp_path / "scores.tsv", replace_fields(score_lines, lineno, **fields))
        with pytest.raises(FormatError) as err:
            formats.load_scores(path, WIDE_VOCAB)
        assert str(err.value) == f"{path}:{lineno}: {message}"
        want, got = oracle_and_codec(
            path, formats.load_scores, oracles.load_scores_oracle, WIDE_VOCAB)
        same_result(got, want, ())

    @pytest.mark.parametrize("lineno", [B, B + 1], ids=BOUNDARY)
    def test_truth_corruption_at_a_block_boundary(self, tmp_path, truth_lines, lineno):
        path = write(tmp_path / "truth.tsv", replace_fields(truth_lines, lineno, value="yes"))
        with pytest.raises(FormatError) as err:
            formats.load_truth(path, WIDE_VOCAB)
        assert str(err.value) == f"{path}:{lineno}: label must be 0 or 1, got 'yes'"

    def test_duplicate_of_an_earlier_block_wins_over_a_later_error(
        self, tmp_path, score_lines, truth_lines, selection_lines
    ):
        """Line 10's cell repeats in the second block; the third block has
        an unknown tag, or for selections, which take any tag, an empty
        image id.  Co-occurrence rows, at three lines to a block: line 3's
        pair repeats on line 6, in the second block, and line 7, in the
        third, has an unknown row kind."""
        image, tag, _ = score_lines[10 - 2].split("\t")
        cell = f"({image!r}, {tag!r})"
        for name, lines, load, oracle, args, later, message in [
            ("scores", score_lines, formats.load_scores, oracles.load_scores_oracle,
             (WIDE_VOCAB,), {"tag": "delta"}, f"duplicate score for {cell}"),
            ("truth", truth_lines, formats.load_truth, oracles.load_truth_oracle,
             (WIDE_VOCAB,), {"tag": "delta"}, f"duplicate label for {cell}"),
            ("selections", selection_lines, formats.load_selections,
             oracles.load_selections_oracle, (), {"image": ""}, f"duplicate selection {cell}"),
        ]:
            lines = replace_fields(lines, B + 5, image=image, tag=tag)
            lines = replace_fields(lines, 2 * B + 3, **later)
            path = write(tmp_path / f"{name}.tsv", lines)
            with pytest.raises(FormatError) as err:
                load(path, *args)
            assert str(err.value) == f"{path}:{B + 5}: {message}"
            want, got = oracle_and_codec(path, load, oracle, *args)
            same_result(got, want, ())
        lines = ["N\t10", "2\talpha\tbeta\t2", "1\talpha\t5", "1\tbeta\t4",
                 "2\talpha\tbeta\t2", "3\tgamma\t3", "1\tgamma\t3"]
        path = write(tmp_path / "cooccurrence.tsv", lines)
        with block_lines(3):
            want, got = oracle_and_codec(
                path, formats.load_cooccurrence, oracles.load_cooccurrence_oracle)
        assert str(got) == f"{path}:6: duplicate pair count for ('alpha', 'beta')"
        same_result(got, want, ())


class TestCanonicalLayout:
    """Files as ``gen-synth`` writes them: image-major, with each image's tags
    in one order."""

    @pytest.fixture(scope="class")
    def bench(self, tmp_path_factory):
        """Four blocks of each eval file at the module's block size."""
        root = tmp_path_factory.mktemp("canonical")
        argv = ["gen-synth", "--out-dir", str(root), "--seed", "1",
                "--n-images", "60", "--n-train", "10"]
        assert cli.main(argv) == 0
        return root, formats.load_vocabulary(root / "vocabulary.tsv")

    @staticmethod
    def cycle_hits(load, *args):
        """Load, and tell for each block whether ``_cycle_cells`` indexed it."""
        hits, cells = [], formats._cycle_cells

        def counted(*cell_args):
            found = cells(*cell_args)
            hits.append(found is not None)
            return found

        with mock.patch.object(formats, "_cycle_cells", counted):
            load(*args)
        return hits

    def test_every_score_block_is_indexed_by_cycle_and_run(self, bench):
        root, vocab = bench
        path = root / "eval_scores.tsv"
        assert self.cycle_hits(formats.load_scores, path, vocab) == [True] * 4
        want, got = oracle_and_codec(path, formats.load_scores, oracles.load_scores_oracle, vocab)
        same_result(got, want, ("images", "tags", "scores"))

    def test_every_truth_block_but_the_first_is_indexed_by_cycle_and_run(self, bench):
        """The first block sets the coverage order, so it has no cycle."""
        root, vocab = bench
        path = root / "eval_truth.tsv"
        assert self.cycle_hits(formats.load_truth, path, vocab) == [False] + [True] * 3
        want, got = oracle_and_codec(path, formats.load_truth, oracles.load_truth_oracle, vocab)
        same_result(got, want, ("images", "coverage", "labels"))

    def test_an_empty_label_beside_a_two_character_one(self, tmp_path):
        """The labels '' and '01' have as many characters as labels, each
        '0' or '1'; the empty one is still refused."""
        path = tmp_path / "truth.tsv"
        path.write_bytes(b"x1\talpha\t\nx1\tbeta\t01\n")
        want, got = oracle_and_codec(path, formats.load_truth, oracles.load_truth_oracle)
        assert str(got) == f"{path}:1: label must be 0 or 1, got ''"
        same_result(got, want, ())


@st.composite
def tabbed_files(draw):
    """Lines of tabs and text, some blank or '#' comments, with mixed line
    endings and maybe an open last line."""
    lines = draw(st.lists(st.text("a\t#", max_size=5), max_size=12))
    text = "".join(line + draw(st.sampled_from(ENDINGS)) for line in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode()


@settings(deadline=None, max_examples=200)
@given(content=tabbed_files(), block=BLOCK_SIZES)
@example(content=b"a\tb\r\n# c\td\r\n\r\n\t\ta\r\t\n\n#\rb\t", block=2)
def test_tab_count_of_each_data_line(tmp_path_factory, content, block):
    path = tmp_path_factory.mktemp("codec") / "lines.tsv"
    path.write_bytes(content)
    lines = content.decode().replace("\r\n", "\n").replace("\r", "\n").split("\n")
    want = [(k, line.count("\t")) for k, line in enumerate(lines, 1)
            if line and not line.startswith("#")]
    with block_lines(block):
        got = [pair for b in formats._blocks(path, "lines")
               for pair in zip(b.linenos.tolist(), b.ntabs.tolist())]
    assert got == want


class TestUndecodableInput:
    SCORES = "x1\talpha\t0.5\nx1\tbeta\t0.2\nx1\té字\t0.1\nx1\t#hash\t0.3\nx1\tg a\t0.9\n"

    def lines_with_bad_byte(self, lineno, text=SCORES):
        lines = text.encode().split(b"\n")
        lines[lineno - 1] = lines[lineno - 1][:2] + b"\xff" + lines[lineno - 1][2:]
        return b"\n".join(lines)

    @pytest.mark.parametrize("block", [1, 2, formats.BLOCK_LINES])
    def test_names_the_line_of_the_first_bad_byte(self, tmp_path, block):
        path = tmp_path / "scores.tsv"
        path.write_bytes(self.lines_with_bad_byte(3))
        with block_lines(block), pytest.raises(FormatError) as err:
            formats.load_scores(path, VOCAB)
        assert str(err.value) == f"{path}:3: not valid UTF-8 (byte 0xff: invalid start byte)"

    @pytest.mark.parametrize("block", [1, 2, formats.BLOCK_LINES])
    def test_an_earlier_bad_line_wins(self, tmp_path, block):
        path = tmp_path / "scores.tsv"
        text = self.SCORES.replace("beta\t0.2", "beta\tlow")
        path.write_bytes(self.lines_with_bad_byte(3, text))
        with block_lines(block), pytest.raises(FormatError) as err:
            formats.load_scores(path, VOCAB)
        assert str(err.value) == f"{path}:2: not a number: 'low'"

    @pytest.mark.parametrize("block", [1, 2, formats.BLOCK_LINES])
    @pytest.mark.parametrize("provenance, lineno", [(PROVENANCE_ORDER[0], 3), ("guess", 2)])
    def test_selections_as_the_oracle(self, tmp_path, block, provenance, lineno):
        """A bad byte on line 3, after a valid or a bad line 2."""
        lines = SELECTION_LINES[:5]
        lines[1] = lines[1].rsplit("\t", 1)[0] + f"\t{provenance}"
        path = tmp_path / "selections.tsv"
        path.write_bytes(self.lines_with_bad_byte(3, "\n".join(lines)))
        with block_lines(block):
            want, got = oracle_and_codec(
                path, formats.load_selections, oracles.load_selections_oracle)
        assert want.lineno == lineno
        same_result(got, want, ())

    def test_a_comment_line_must_decode_too(self, tmp_path):
        path = tmp_path / "vocabulary.tsv"
        path.write_bytes(b"alpha\tseen\r\n# caf\xe9\r\nbeta\tnovel\r\n")
        with pytest.raises(FormatError) as err:
            formats.load_vocabulary(path)
        assert str(err.value) == (
            f"{path}:2: not valid UTF-8 (byte 0xe9: invalid continuation byte)"
        )

    def test_a_cut_sequence_at_the_end(self, tmp_path):
        path = tmp_path / "truth.tsv"
        path.write_bytes("x1\talpha\t1\n\nx2\tbeta\t0\xe5\xad".encode("latin-1"))
        with pytest.raises(FormatError) as err:
            formats.load_truth(path)
        assert err.value.lineno == 3
        assert "not valid UTF-8" in str(err.value)


@pytest.mark.parametrize("load, args, kind", [
    (formats.load_vocabulary, (), "vocabulary"),
    (formats.load_scores, (VOCAB,), "scores"),
    (formats.load_truth, (), "truth"),
    (formats.load_cooccurrence, (), "co-occurrence"),
    (formats.load_selections, (), "selections"),
    (formats.load_thresholds, (VOCAB,), "thresholds"),
    (formats.load_report, (), "report"),
])
def test_unreadable_file_names_kind_and_path(tmp_path, load, args, kind):
    path = tmp_path / "nosuch.tsv"
    with pytest.raises(Exception) as err:
        load(path, *args)
    assert type(err.value).__name__ == "TagSelectError"
    assert str(err.value).startswith(f"cannot read {kind} file {str(path)!r}: [Errno 2] ")
