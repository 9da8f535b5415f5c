"""Fuzz the CLI's spec parsers: every malformed input is a usage error.

Each strategy builds a malformed input by construction (a required key
dropped, a value that is not an integer literal, an unknown kind, a value out
of range, a broken file) and the CLI must exit 2 with exactly one ``error:``
line on stderr, never a traceback.  Options are passed as ``--flag=value`` so
that argparse never reads a value as an option.
"""

import io
import json
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ltclab.cli import main

# int() rejects all of these; none contains a separator of the spec grammar.
NOT_INTEGERS = st.one_of(
    st.sampled_from(["", " ", "x", "2.5", "1e3", "0x7", "two", "--1", "7 7", "1.", "nan", "+", "∞"]),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz.", min_size=1, max_size=6),
)
CODE_KEYS = {"rs": {"q": 7, "n": 5, "k": 2}, "rep": {"q": 3, "n": 4}, "full": {"q": 2, "n": 3}}
GRAPH_KEYS = {
    "product": {"n": 2, "m": 3},
    "iterated": {"n": 2, "m": 3, "mp": 1},
    "square": {"n": 2, "t": 2},
}
# One value per key that its constructor must refuse.
CODE_OUT_OF_RANGE = {"q": [0, 1, 4, 9, -7], "n": [0, -1], "k": [0, -2, 6]}
GRAPH_OUT_OF_RANGE = {"n": [0, -2], "m": [0, -1], "mp": [0, 3, -1], "t": [0, 1, -3]}
# The exhaustive scan of some valid inline graphs is refused as too large.
SAMPLED = ("--sampled", "--samples=1")


def assert_usage_error(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a warning would print a second line on stderr
        code = main(list(argv))
    lines = err.getvalue().strip().splitlines()
    assert code == 2, (argv, err.getvalue())
    assert len(lines) == 1 and lines[0].startswith("error:"), (argv, err.getvalue())
    assert not caught, (argv, [str(w.message) for w in caught])


def spec(kind: str, values: dict) -> str:
    return f"{kind}:" + ",".join(f"{key}={val}" for key, val in values.items())


@st.composite
def malformed_inline_specs(draw, keys: dict, out_of_range: dict, known: set):
    kind = draw(st.sampled_from(sorted(keys)))
    values = dict(keys[kind])
    key = draw(st.sampled_from(sorted(values)))
    defect = draw(st.sampled_from(["missing", "not_integer", "out_of_range", "unknown_kind", "unread_key", "repeated_key"]))
    if defect == "missing":
        del values[key]
    elif defect == "unread_key":
        values[draw(st.sampled_from(["q", "n", "k", "m", "mp", "t", "d", "w"]).filter(lambda k: k not in values))] = 1
    elif defect == "repeated_key":
        return spec(kind, values) + f",{key}={draw(st.sampled_from([values[key], 1, 3]))}"
    elif defect == "not_integer":
        values[key] = draw(NOT_INTEGERS)
    elif defect == "out_of_range":
        values[key] = draw(st.sampled_from(out_of_range[key]))
    else:
        kind = draw(st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", max_size=8).filter(lambda k: k not in known))
    return spec(kind, values)


@given(malformed_inline_specs(CODE_KEYS, CODE_OUT_OF_RANGE, set(CODE_KEYS) | {"gen"}))
def test_malformed_code_spec(text):
    assert_usage_error("min-distance", f"--code={text}")


@pytest.mark.parametrize(
    "argv",
    [
        ["min-distance", "--code=rs:q=7,n=7,k=2,d=9"],
        ["min-distance", "--code=rs:q=7,n=7,k=2,k=3"],
        ["expansion-check", "--graph=product:n=2,m=2,mp=1"],
        ["membership", "--graph=product:n=2,m=2,t=5", "--small=rep:q=2,n=2,k=7", "--word=0,0,0,0"],
    ],
    ids=["unread-key", "repeated-key", "unread-graph-key", "unread-keys-of-both"],
)
def test_inline_specs_that_used_to_run_are_refused(argv):
    # Each of these once ran, ignoring a key it did not read or all but the last of a repeated one.
    assert_usage_error(*argv)


@given(
    st.sampled_from(["rs:q=7,n=5,k=2", "rep:q=3,n=4"]),
    st.one_of(st.just("0"), NOT_INTEGERS.filter(lambda p: not p.isdigit())),
)
def test_malformed_tensor_power(base, power):
    assert_usage_error("min-distance", f"--code={base}^{power}")


@given(malformed_inline_specs(GRAPH_KEYS, GRAPH_OUT_OF_RANGE, set(GRAPH_KEYS)))
def test_malformed_graph_spec(text):
    assert_usage_error("expansion-check", f"--graph={text}", *SAMPLED)


GRAPH_FILE_DEFECTS = st.one_of(
    st.tuples(st.sampled_from(["n", "m", "t"]), st.sampled_from([2.9, "3", None, [3], True, 1.0])),
    st.tuples(st.sampled_from(["n", "m", "t", "lists"]), st.just(KeyError)),
    st.tuples(
        st.just("lists"),
        st.sampled_from(
            [5, "x", [], [[]], [[1, 2], [1]], [[0, 1]], [[1, 4]], [[1, -1]], [[1, 2**65]],
             [[1, 2.5]], [[1, "2"]], [[1, None]], [[True, 2]], [1, 2], [[1, 2], [1, 2]]]
        ),
    ),
    st.tuples(st.sampled_from(["m", "t"]), st.sampled_from([3, 0])),
)
CODE_FILE_DEFECTS = st.one_of(
    st.tuples(st.just("field"), st.sampled_from([7.9, "7", None, 4, 1, 2**17, True])),
    st.tuples(st.sampled_from(["field", "generator"]), st.just(KeyError)),
    st.tuples(st.just("kind"), st.sampled_from(["rs", 7, "matrix"])),
    st.tuples(
        st.just("generator"),
        st.sampled_from([5, "x", [], [[]], [[1, 1], [1]], [[1, 1.5, 1]], [[1, "1", 1]], [[0, 0, 0]], [1, 1, 1]]),
    ),
)
WORD_FILE_DEFECTS = st.one_of(
    st.tuples(st.just("field"), st.sampled_from([2.0, 2.5, True, "2", None, 3])),
    st.tuples(st.just("shape"), st.sampled_from([[2.0, 1], [True, 2], "2", [0, 2], [3], [1, 3], [], None, 2])),
    st.tuples(
        st.just("symbols"),
        st.sampled_from([[0, True], [False, 1], [0, 1.0], [0, "1"], [0, None], [[0, 1]], [0, 2], [0], 5, None, "01"]),
    ),
)
RS_FILE_DEFECTS = st.tuples(st.sampled_from(["n", "k"]), st.sampled_from([4.5, "4", None, 0, 9, KeyError]))


def _apply(doc: dict, defect) -> dict:
    key, value = defect
    if value is KeyError:
        del doc[key]
    else:
        doc[key] = value
    return doc


def _write(doc) -> str:
    fd, path = tempfile.mkstemp(suffix=".json")
    with os.fdopen(fd, "w") as fh:
        json.dump(doc, fh)
    return path


def _assert_file_usage_error(command, flag, doc, *extra):
    path = _write(doc)
    try:
        assert_usage_error(command, *extra, f"{flag}={path}")
    finally:
        os.unlink(path)


GRAPH_FILE = {"n": 2, "m": 1, "t": 2, "lists": [[1, 2]]}
CODE_FILE = {"field": 7, "kind": "generator", "generator": [[1, 1, 1]]}
RS_FILE = {"field": 7, "kind": "reed_solomon", "n": 5, "k": 2}
WORD_FILE = {"field": 2, "symbols": [0, 1]}


def test_unbroken_inputs_are_accepted():
    # Each defect above is applied to one of these, so it is the defect that fails.
    for argv in (
        ["min-distance", "--code=rs:q=7,n=5,k=2^2"],
        ["min-distance", "--code=rep:q=3,n=4"],
        ["min-distance", "--code=full:q=2,n=3"],
        ["expansion-check", "--graph=product:n=2,m=3", *SAMPLED],
        ["expansion-check", "--graph=iterated:n=2,m=3,mp=1", *SAMPLED],
        ["expansion-check", "--graph=square:n=2,t=2", *SAMPLED],
        ["sweep", "--graph=product:n=2,m=2", "--small=rep:q=2,n=2", "--corpus=mixed:2,w=1;low_weight,wmax=1", "--alpha=2^-3"],
    ):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(argv) == 0, argv
    for command, flag, doc, *extra in (
        ("expansion-check", "--graph", GRAPH_FILE),  # exhaustive: it is tiny
        ("min-distance", "--code", CODE_FILE),
        ("min-distance", "--code", RS_FILE),
        ("membership", "--word-file", WORD_FILE, "--code=rep:q=2,n=2"),
        ("membership", "--word-file", dict(WORD_FILE, shape=[1, 2]), "--code=rep:q=2,n=2"),
    ):
        path = _write(doc)
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                assert main([command, *extra, f"{flag}={path}"]) == 0, doc
        finally:
            os.unlink(path)


@given(GRAPH_FILE_DEFECTS)
def test_malformed_graph_file(defect):
    _assert_file_usage_error("expansion-check", "--graph", _apply(dict(GRAPH_FILE), defect))


@given(st.one_of(CODE_FILE_DEFECTS, st.tuples(st.just(None), RS_FILE_DEFECTS)))
def test_malformed_code_file(defect):
    if defect[0] is None:
        doc = _apply(dict(RS_FILE), defect[1])
    else:
        doc = _apply(dict(CODE_FILE), defect)
    _assert_file_usage_error("min-distance", "--code", doc)


@given(WORD_FILE_DEFECTS)
def test_malformed_word_file(defect):
    _assert_file_usage_error("membership", "--word-file", _apply(dict(WORD_FILE), defect), "--code=rep:q=2,n=2")


@st.composite
def malformed_corpus_specs(draw):
    kind = draw(st.sampled_from(["uniform", "mixed", "codeword_plus_weight", "low_weight"]))
    defect = draw(st.sampled_from([
        "unknown_kind", "count", "param", "empty", "unread_key", "negative", "missing_count", "low_weight_count",
    ]))
    head = "low_weight" if kind == "low_weight" else f"{kind}:2"  # a legal head
    read = {"low_weight": "wmax", "uniform": None}.get(kind, "w")  # the key the kind reads
    if defect == "unknown_kind":
        kind = draw(st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8).filter(
            lambda k: k not in {"uniform", "codeword_plus_weight", "planted_slice", "low_weight", "codewords", "mixed"}
        ))
        return f"{kind}:2"
    if defect == "count":
        return f"{kind}:{draw(NOT_INTEGERS)}"
    if defect == "param":
        key = draw(st.sampled_from(["w", "wmax"]))
        return f"{head},{key}={draw(NOT_INTEGERS)}"
    if defect == "unread_key":
        key = draw(st.sampled_from(["w", "wmax", "wmx", "count"]).filter(lambda k: k != read))
        return f"{head},{key}=1"
    if defect == "negative":
        if read is None or draw(st.booleans()) and kind != "low_weight":
            return f"{kind}:{draw(st.integers(-9, -1))}"
        return f"{head},{read}={draw(st.integers(-9, -1))}"
    if defect == "missing_count":
        kind = draw(st.sampled_from(["uniform", "mixed", "codeword_plus_weight", "planted_slice", "codewords"]))
        return draw(st.sampled_from([kind, f"{kind},w=1", f"uniform:2;{kind}"]))
    if defect == "low_weight_count":
        return f"low_weight:{draw(st.integers(0, 9))}" + draw(st.sampled_from(["", ",wmax=1"]))
    return draw(st.sampled_from(["", ";", " ; ;"]))


@given(malformed_corpus_specs())
def test_malformed_corpus_spec(text):
    assert_usage_error(
        "sweep", "--graph=product:n=2,m=2", "--small=rep:q=2,n=2", f"--corpus={text}"
    )


@pytest.mark.parametrize(
    "text", ["low_weight,wmx=4", "low_weight,wmax=-1", "uniform", "low_weight:5", "uniform:-5", "mixed:6,wmax=1"]
)
def test_corpus_specs_that_used_to_run_are_refused(text):
    # Each of these once swept a corpus the spec did not ask for, or died in numpy.
    assert_usage_error(
        "sweep", "--graph=product:n=2,m=2", "--small=rep:q=2,n=2", f"--corpus={text}"
    )


@given(
    st.one_of(
        NOT_INTEGERS,
        st.builds("{}/{}".format, st.integers(-9, 9), NOT_INTEGERS),
        st.builds("{}/{}".format, NOT_INTEGERS, st.integers(1, 9)),
        st.builds("{}/0".format, st.integers(-9, 9)),
        st.builds("{}^{}".format, st.integers(2, 9), NOT_INTEGERS),
        st.builds("{}^{}".format, NOT_INTEGERS, st.integers(-4, 4)),
        st.just("0^-1"),
    )
)
def test_malformed_fraction(text):
    assert_usage_error(
        "sweep", "--graph=product:n=2,m=2", "--small=rep:q=2,n=2", "--corpus=uniform:1", f"--alpha={text}"
    )
