"""``brc20sim replay`` on mutated logs: a verdict or a usage error, never an exception,
and the same with the strict reader of market lines as without it."""

import contextlib
import io
import json
import os
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from brc20sim import cli  # noqa: E402


@pytest.fixture(scope="module")
def seed7(tmp_path_factory):
    """The README's example log, as a list of lines, and a path to write mutations to."""
    tmp = tmp_path_factory.mktemp("seed7")
    log = tmp / "events.jsonl"
    assert cli.main(["sim", "--seed", "7", "--log", str(log), "--out", os.devnull]) == 0
    return log.read_text(encoding="utf-8").splitlines(keepends=True), tmp / "mutated.jsonl"


# a field rewritten to another JSON value: scalars, nested values, integers past
# int()'s 4,300-digit limit, NaN and the infinities, and text past the decoder's depth
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
).map(json.dumps) | st.sampled_from([
    "1" * 4301, "-" + "9" * 19, "1" * 19, "NaN", "Infinity", "-Infinity", "1e400", "-0",
    "[" * 3000 + "]" * 3000, '{"a": ' * 2000 + "0" + "}" * 2000,
])
PLACEHOLDER = "\0 the new value \0"  # text no JSON_VALUES string can be
CHAR = st.characters(codec="utf-8") | st.sampled_from('0123456789-.e"\\{}[], ')


@st.composite
def edits(draw, lines: list[str]) -> list[str]:
    """One edit of the log's lines: a line dropped, duplicated or swapped with
    another, a field rewritten, or one character inserted into or deleted from
    a line."""
    lines = list(lines)
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["drop", "duplicate", "swap", "rewrite", "insert", "delete"]))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "rewrite":
        try:
            event = json.loads(lines[i])
        except (ValueError, RecursionError):  # an earlier edit broke the line
            return lines
        if not isinstance(event, dict) or not event:
            return lines
        key = draw(st.sampled_from(sorted(event)))
        # written as log_line writes, with the new value's text in place
        text = json.dumps({**event, key: PLACEHOLDER}, sort_keys=True)
        lines[i] = text.replace(json.dumps(PLACEHOLDER), draw(JSON_VALUES), 1) + "\n"
    else:
        k = draw(st.integers(0, len(lines[i]) - 1))
        char = draw(CHAR) if kind == "insert" else ""
        lines[i] = lines[i][:k] + char + lines[i][k + (kind == "delete"):]
    return lines


def replayed(path) -> tuple[int, str, str]:
    """``brc20sim replay path``, in-process: its return code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["replay", str(path)])
    return code, out.getvalue(), err.getvalue()


@hypothesis.settings(max_examples=30, deadline=None, database=None, derandomize=True)
@hypothesis.given(data=st.data())
def test_a_mutated_log_gets_a_verdict_the_same_with_and_without_the_strict_reader(
    seed7, data
):
    lines, path = seed7
    for _ in range(data.draw(st.integers(1, 3))):
        lines = data.draw(edits(lines))
    path.write_text("".join(lines), encoding="utf-8")
    strict = replayed(path)
    assert strict[0] in (0, 1, 2), strict
    with mock.patch.object(cli, "_market_values", lambda line: None):
        assert replayed(path) == strict
