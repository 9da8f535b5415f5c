"""A grammar fuzz of the command line: one token of a valid command changed, run in process.

Every subcommand starts from a valid argv.  Hypothesis changes one token of it: it replaces an argument,
drops one, or replaces one piece of a spec between its separators (``:,=;^/``).  ``cli.main`` then runs
with the budgets patched small, so that a changed size is refused quickly rather than computed.  Whatever
the change, the command must end in one of its documented ways: a document on stdout (exit 0, or 1 for a
property-check failure, which still prints its report), or a usage error (exit 2) with nothing on stdout
and one ``error:`` line on stderr.  A traceback, or any other exit, fails the test.
"""

import contextlib
import io
import json
import re
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ltclab.config
from ltclab.cli import _HANDLERS, main

VALID = {
    "build-code": ["build-code", "--code", "rs:q=5,n=4,k=2"],
    "min-distance": ["min-distance", "--code", "rs:q=7,n=7,k=2^2"],
    "encode": ["encode", "--code", "rs:q=7,n=7,k=2", "--message", "1,2"],
    "membership": ["membership", "--graph", "product:n=2,m=2", "--small", "rep:q=2,n=2", "--word", "0,1,0,1"],
    "robustness": [
        "robustness", "--graph", "product:n=3,m=2", "--small", "rep:q=3,n=3",
        "--word", "1,0,0,0,2,0,0,0,0", "--alpha", "1/2", "--tau", "1/3",
    ],
    "sweep": [
        "sweep", "--graph", "product:n=3,m=2", "--small", "rep:q=3,n=3",
        "--corpus", "uniform:3;low_weight,wmax=1;codeword_plus_weight:2,w=1", "--seed", "4",
    ],
    "compose-check": [
        "compose-check", "--graph", "product:n=2,m=3", "--graph2", "product:n=2,m=2",
        "--small", "rep:q=2,n=2", "--corpus", "uniform:3",
    ],
    "expansion-check": ["expansion-check", "--graph", "product:n=2,m=2", "--samples", "30", "--seed", "2"],
    "query-account": ["query-account", "--n", "2", "--t", "2", "--alpha", "1/16"],
}

# Budgets small enough that no changed size runs for long; every valid command above fits them.
SMALL_BUDGETS = {
    "ENUMERATION_THRESHOLD": 2**12,
    "ADJACENCY_BUDGET": 2**12,
    "TABLE_CELLS": 2**14,
    "GENERATOR_CELLS": 2**12,
    "PARITY_CELLS": 2**12,
    "DERIVED_PARITY_CELLS": 2**12,
    "CORPUS_CELLS": 2**14,
    "REPETITIONS": 10**3,
    "EXPANSION_PAIRS": 10**4,
}

# Replacement tokens: numbers at and past the edges, names of every kind, options, and near-numbers.
TOKENS = [
    "", "0", "1", "2", "3", "-1", "17", "257", "65536", "2^3", "1/0", "0.5", "1e3", "nan", "²", "٣", " 2",
    "x", "q", "n", "k", "m", "t", "w", "wmax", "rs", "rep", "full", "product", "iterated", "square",
    "uniform", "mixed", "low_weight", "codewords", "planted_slice", "codeword_plus_weight",
    "--seed", "--samples", "--alpha", "--tau", "--corpus", "--graph", "--small", "--code", "--word", "--views",
]
SEPARATORS = re.compile(r"([:,=;^/])")


@st.composite
def changed_argv(draw, command: str) -> list:
    argv = list(VALID[command])
    i = draw(st.integers(1, len(argv) - 1))  # the subcommand's name is kept
    how = draw(st.sampled_from(["replace", "drop", "piece"]))
    if how == "drop":
        del argv[i]
    elif how == "replace":
        argv[i] = draw(st.sampled_from(TOKENS))
    else:
        pieces = SEPARATORS.split(argv[i])
        j = draw(st.sampled_from(range(0, len(pieces), 2)))  # a piece between separators
        pieces[j] = draw(st.sampled_from(TOKENS))
        argv[i] = "".join(pieces)
    return argv


def run(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.multiple(ltclab.config, **SMALL_BUDGETS):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's own usage errors
                code = exc.code
    return code, out.getvalue(), err.getvalue()


def check(argv: list) -> None:
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    if code == 2:
        assert out == "", (argv, out)
        assert err.count("\n") == 1 and err.startswith("error: ") and err.endswith("\n"), (argv, err)
    else:
        json.loads(out)


def test_every_subcommand_has_a_valid_command():
    assert set(VALID) == set(_HANDLERS)
    for command, argv in VALID.items():
        code, out, err = run(argv)
        assert code == 0, (command, err)
        json.loads(out)


@pytest.mark.parametrize("command", list(VALID))
@settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_one_changed_token_exits_cleanly(command, data):
    check(data.draw(changed_argv(command)))
