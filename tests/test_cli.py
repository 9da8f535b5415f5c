import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ltclab.cli import _HANDLERS, main

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_min_distance(capsys):
    code, out, _ = run_cli(capsys, "min-distance", "--code", "rs:q=7,n=7,k=2")
    assert code == 0
    assert out.strip() == "6"


def test_min_distance_of_power(capsys):
    code, out, _ = run_cli(capsys, "min-distance", "--code", "rs:q=7,n=7,k=2^2")
    assert code == 0
    assert out.strip() == "36"


def test_power_too_large_for_a_generator_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "build-code", "--code", "rs:q=5,n=4,k=2^99")
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: generator would hold")


def test_min_distance_of_a_power_too_large_to_enumerate_is_the_product(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "min-distance", "--code", "rs:q=5,n=4,k=2^99")
    assert time.perf_counter() - start < 1
    assert code == 0 and out == f"{3**99}\n"


def test_membership_tpc_true(capsys):
    code, out, _ = run_cli(
        capsys,
        "membership",
        "--graph", "product:n=2,m=2",
        "--small", "rep:q=2,n=2",
        "--word", "0,0,0,0",
    )
    assert code == 0
    assert out.strip() == "true"


def test_membership_tpc_false(capsys):
    code, out, _ = run_cli(
        capsys,
        "membership",
        "--graph", "product:n=2,m=2",
        "--small", "rep:q=2,n=2",
        "--word", "1,0,0,0",
    )
    assert code == 0
    assert out.strip() == "false"


def test_membership_plain_code(capsys):
    code, out, _ = run_cli(
        capsys, "membership", "--code", "rep:q=2,n=3", "--word", "1,1,1"
    )
    assert out.strip() == "true"


def test_encode(capsys):
    code, out, _ = run_cli(
        capsys, "encode", "--code", "rs:q=7,n=7,k=2", "--message", "1,1"
    )
    assert code == 0
    assert json.loads(out) == [1, 2, 3, 4, 5, 6, 0]


def test_encode_feeds_membership(capsys, tmp_path):
    word_file = tmp_path / "w.json"
    run_cli(
        capsys,
        "encode", "--code", "rs:q=5,n=5,k=2", "--message", "2,3",
        "--out", str(word_file),
    )
    code, out, _ = run_cli(
        capsys, "membership", "--code", "rs:q=5,n=5,k=2", "--word-file", str(word_file)
    )
    assert code == 0
    assert out.strip() == "true"


def test_build_code_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "code.json"
    code, _, _ = run_cli(
        capsys, "build-code", "--code", "rep:q=2,n=3", "--out", str(out_path)
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc == {"field": 2, "kind": "generator", "n": 3, "k": 1, "generator": [[1, 1, 1]]}
    code, out, _ = run_cli(
        capsys, "membership", "--code", str(out_path), "--word", "1,1,1"
    )
    assert out.strip() == "true"


def test_robustness_single_error_word(capsys, tmp_path):
    word_file = tmp_path / "e11.json"
    word_file.write_text(json.dumps([1, 0, 0, 0, 0, 0, 0, 0, 0]))
    code, out, _ = run_cli(
        capsys,
        "robustness",
        "--graph", "product:n=3,m=2",
        "--small", "rep:q=2,n=3",
        "--word-file", str(word_file),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rho"] == "1/9"
    assert doc["delta"] == "1/9"
    assert doc["ratio"] == "1"


def test_robustness_tau_and_views(capsys):
    code, out, _ = run_cli(
        capsys,
        "robustness",
        "--graph", "product:n=3,m=2",
        "--small", "rep:q=2,n=3",
        "--word", "1,0,0,0,0,0,0,0,0",
        "--tau", "0",
        "--views",
    )
    doc = json.loads(out)
    assert doc["tau"] == "0"
    assert doc["epsilon"] == "1/3"
    assert ["1", "1/3"] in [[str(j), v] for j, v in doc["views"]]
    assert len(doc["views"]) == 6


def test_robustness_tensor_word_file(capsys, tmp_path):
    word_file = tmp_path / "word.json"
    word_file.write_text(
        json.dumps({"field": 2, "shape": [3, 3], "symbols": [0] * 9})
    )
    code, out, _ = run_cli(
        capsys,
        "robustness",
        "--graph", "product:n=3,m=2",
        "--small", "rep:q=2,n=3",
        "--word-file", str(word_file),
    )
    assert json.loads(out)["rho"] == "0"


@pytest.mark.parametrize("shape", [[2, 4], [9, 1.0], [3, True]])
def test_robustness_refuses_a_word_file_shape_that_is_wrong(capsys, tmp_path, shape):
    # The shape was once ignored, so nine symbols certified as a 2 x 4 grid.
    word_file = tmp_path / "word.json"
    word_file.write_text(json.dumps({"field": 2, "shape": shape, "symbols": [0] * 9}))
    code, out, err = run_cli(
        capsys, "robustness", "--graph", "product:n=3,m=2", "--small", "rep:q=2,n=3", "--word-file", str(word_file)
    )
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "shape" in lines[0]


def test_sweep_writes_deterministic_report(capsys, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out_path in (out1, out2):
        code, _, _ = run_cli(
            capsys,
            "sweep",
            "--graph", "product:n=3,m=2",
            "--small", "rep:q=2,n=3",
            "--corpus", "mixed:18",
            "--seed", "77",
            "--alpha", "2^-16",
            "--out", str(out_path),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_with_explicit_full_code(capsys, tmp_path):
    out_path = tmp_path / "r.json"
    code, _, _ = run_cli(
        capsys,
        "sweep",
        "--graph", "product:n=5,m=2",
        "--small", "rs:q=5,n=5,k=1",
        "--code", "rs:q=5,n=5,k=1^2",
        "--corpus", "mixed:12",
        "--seed", "9",
        "--alpha", "2^-16",
        "--out", str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["summary"]["violations"] == 0
    assert doc["summary"]["hypotheses"]["base"].startswith("[5,1,5]")
    assert all(r["delta"] is not None for r in doc["reports"])


def test_sweep_violation_exit_code(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "sweep",
        "--graph", "product:n=3,m=2",
        "--small", "rep:q=2,n=3",
        "--corpus", "low_weight,wmax=1",
        "--alpha", "2",
        "--out", str(tmp_path / "r.json"),
    )
    assert code == 1


def test_sweep_csv_export(capsys, tmp_path):
    out_path = tmp_path / "r.csv"
    code, _, _ = run_cli(
        capsys,
        "sweep",
        "--graph", "product:n=3,m=2",
        "--small", "rep:q=2,n=3",
        "--corpus", "uniform:6",
        "--seed", "1",
        "--out", str(out_path),
        "--format", "csv",
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 7  # header + one row per word
    assert "rho" in lines[0]


def test_compose_check_cli(capsys):
    code, out, _ = run_cli(
        capsys,
        "compose-check",
        "--graph", "product:n=2,m=4",
        "--graph2", "product:n=2,m=3",
        "--small", "rep:q=2,n=2^2",
        "--corpus", "uniform:10",
        "--seed", "3",
    )
    assert code == 0
    assert json.loads(out)["report"]["identity_mismatches"] == 0


def test_expansion_check_cli(capsys):
    code, out, _ = run_cli(
        capsys, "expansion-check", "--graph", "product:n=2,m=3"
    )
    assert code == 0
    assert json.loads(out)["report"]["violations"] == 0


def test_query_account_cli(capsys):
    code, out, _ = run_cli(
        capsys, "query-account", "--n", "2", "--t", "2", "--alpha", "2^-32"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["queries"] == 4
    assert doc["repetitions"] == str(2**64)
    assert doc["block_length"] == 16


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "min-distance", "--code", "nonsense:spec")
    assert code == 2
    assert "error" in err.lower()


@pytest.mark.parametrize(
    "command, flag, spec",
    [
        ("min-distance", "--code", "rs:q=7,n=7"),
        ("min-distance", "--code", "rep:q=2"),
        ("min-distance", "--code", "full:q=2"),
        ("min-distance", "--code", "rep:q=2,n=0"),
        ("expansion-check", "--graph", "product:n=2"),
        ("expansion-check", "--graph", "iterated:n=2,m=4"),
        ("expansion-check", "--graph", "square:n=2"),
        pytest.param(
            "min-distance", "--code", {"kind": "generator", "generator": [[1, 1]]},
            id="code-file-without-field",
        ),
        pytest.param(
            "expansion-check", "--graph", {"n": 2, "m": 1, "t": 2},
            id="graph-file-without-lists",
        ),
        pytest.param(
            "expansion-check", "--graph", {"n": 2, "m": 1, "t": 2, "lists": [[1, 2.7]]},
            id="graph-file-with-fractional-entry",
        ),
        pytest.param(
            "expansion-check", "--graph", {"n": 3, "m": 1, "t": 2, "lists": 5},
            id="graph-file-with-non-list-lists",
        ),
        pytest.param(
            "min-distance", "--code", {"field": 2, "kind": "generator", "generator": [[1, 1.9]]},
            id="code-file-with-fractional-entry",
        ),
        pytest.param(
            "expansion-check", "--graph", {"n": 2.9, "m": 1, "t": 2, "lists": [[1, 2]]},
            id="graph-file-with-fractional-header",
        ),
        pytest.param(
            "min-distance", "--code", {"field": 7.9, "kind": "generator", "generator": [[1, 1, 1]]},
            id="code-file-with-fractional-field",
        ),
        pytest.param(
            "min-distance", "--code", {"field": 7, "kind": "reed_solomon", "n": 4, "k": "2"},
            id="rs-file-with-string-dimension",
        ),
        pytest.param(
            "expansion-check", "--graph", {"n": 3, "m": 1, "t": 2, "lists": [[1, 2**65]]},
            id="graph-file-with-huge-entry",
        ),
        pytest.param(
            "expansion-check", "--graph", {"n": 2, "m": 2, "t": 2, "lists": [[1, True], [2, 2]]},
            id="graph-file-with-bool-entry",
        ),
        pytest.param(
            "min-distance", "--code", {"field": 2, "generator": [[1, True, 1]]},
            id="code-file-with-bool-entry",
        ),
    ],
)
def test_incomplete_spec_is_a_usage_error(capsys, tmp_path, command, flag, spec):
    if isinstance(spec, dict):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        spec = str(path)
    code, _, err = run_cli(capsys, command, flag, spec)
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize(
    "doc",
    [{"field": 2.5, "symbols": [0, 1]}, {"field": True, "symbols": [0, 1]}, [0, True], {"symbols": [False, 1]}],
    ids=["fractional-field", "bool-field", "bool-symbol", "bool-symbol-in-document"],
)
def test_word_file_integers_are_strict(capsys, tmp_path, doc):
    path = tmp_path / "word.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "membership", "--code", "rep:q=2,n=2", "--word-file", str(path))
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "integer" in lines[0]


def test_symbol_too_large_for_int64_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "membership", "--code", "rep:q=2,n=2", "--word", f"0,{2**70}")
    assert code == 2
    assert err.strip().splitlines() == ["error: symbol values must lie in [0, 2)"]


def test_reference_code_outside_the_tanner_product_code_is_refused(capsys):
    argv = ["robustness", "--graph", "product:n=3,m=2", "--small", "rep:q=2,n=3", "--word", "1,0,0,0,0,0,0,0,0"]
    code, _, err = run_cli(capsys, *argv, "--code", "full:q=2,n=9")
    assert code == 2
    assert err.strip().splitlines() == [
        "error: reference code 'full:q=2,n=9' is not a subcode of the Tanner product code"
        " of 'product:n=3,m=2' and 'rep:q=2,n=3'"
    ]
    code, out, _ = run_cli(capsys, *argv, "--code", "rep:q=2,n=3^2")
    assert code == 0
    assert json.loads(out)["delta"] == "1/9"
    # 5^25 codewords, past ENUMERATION_THRESHOLD: the generator rows are checked all the same.
    word = ",".join(["1"] + ["0"] * 24)
    code, _, err = run_cli(
        capsys, "robustness", "--graph", "product:n=5,m=2", "--small", "rs:q=5,n=5,k=4",
        "--code", "full:q=5,n=25", "--word", word,
    )
    assert code == 2
    assert err.strip().splitlines() == [
        "error: reference code 'full:q=5,n=25' is not a subcode of the Tanner product code"
        " of 'product:n=5,m=2' and 'rs:q=5,n=5,k=4'"
    ]


def test_trivial_tanner_product_code_is_a_usage_error(capsys, tmp_path):
    # Views (x1, x2) and (x2, x1) both in span{(1, 2)} over GF(5) force x = 0.
    graph, small = tmp_path / "graph.json", tmp_path / "small.json"
    graph.write_text(json.dumps({"n": 2, "m": 2, "t": 2, "lists": [[1, 2], [2, 1]]}))
    small.write_text(json.dumps({"field": 5, "generator": [[1, 2]]}))
    code, _, err = run_cli(capsys, "robustness", "--graph", str(graph), "--small", str(small), "--word", "1,2")
    assert code == 2
    assert err.strip().splitlines() == ["error: Tanner product code is trivial (only the zero word)"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["expansion-check", "--graph", "product:n=2,m=2", "--seed", "-1"],
         "--seed must be a non-negative integer, got -1"),
        (["compose-check", "--graph", "product:n=2,m=3", "--graph2", "product:n=2,m=2",
          "--small", "rep:q=2,n=2", "--seed", "-1"], "--seed must be a non-negative integer, got -1"),
        (["sweep", "--graph", "product:n=2,m=2", "--small", "rep:q=2,n=2", "--seed", "-4"],
         "--seed must be a non-negative integer, got -4"),
        (["robustness", "--graph", "product:n=2,m=2", "--small", "rep:q=2,n=2", "--word", "0,0,0,0",
          "--samples", "200", "--seed", "-1"], "--seed must be a non-negative integer, got -1"),
        (["expansion-check", "--graph", "product:n=2,m=2", "--samples", "0"],
         "--samples must be a positive integer, got 0"),
        (["expansion-check", "--graph", "product:n=2,m=2", "--samples", "-3"],
         "--samples must be a positive integer, got -3"),
        (["robustness", "--graph", "product:n=2,m=2", "--small", "rep:q=2,n=2", "--word", "0,0,0,0",
          "--samples", "0"], "--samples must be a positive integer, got 0"),
        (["sweep", "--graph", "product:n=2,m=2", "--small", "rep:q=2,n=2", "--samples", "-3"],
         "--samples must be a positive integer, got -3"),
    ],
    ids=["expansion-seed", "compose-seed", "sweep-seed", "robustness-seed", "expansion-samples-0",
         "expansion-samples-negative", "robustness-samples-0", "sweep-samples-negative"],
)
def test_negative_seed_and_nonpositive_samples_are_usage_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.strip().splitlines() == [f"error: {message}"]


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


TINY_SWEEP = ["sweep", "--graph", "product:n=2,m=2", "--small", "rep:q=2,n=2"]
NINE_SYMBOL_SWEEP = ["sweep", "--graph", "product:n=3,m=2", "--small", "rep:q=2,n=3"]
ROBUSTNESS = ["robustness", "--graph", "product:n=2,m=2", "--small", "rep:q=2,n=2", "--word", "1,0,0,0"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["membership", "--code", "rep:q=2,n=3", "--word", "1,1,1", "--word-file", "w.json"],
         "give either --word or --word-file, not both"),
        (["membership", "--code", "rep:q=2,n=3"], "a word is required (--word or --word-file)"),
        (["membership", "--word", "1,1,1"], "membership needs --code, or --graph with --small"),
        # A mix of the two questions is refused before any spec is parsed, not answered for one of them.
        (["membership", "--code", "rep:q=2,n=4", "--graph", "product:n=2,m=2", "--small", "rep:q=2,n=2",
          "--word", "1,1,0,0"], "give either --code or --graph with --small, not both"),
        (["membership", "--code", "rep:q=2,n=4", "--small", "not-a-spec", "--word", "1,1,0,0"],
         "give either --code or --graph with --small, not both"),
        (["expansion-check", "--graph", "iterated:n=2,m=3,mp=3"], "need 1 <= mp < m, got m=3, mp=3"),
        (TINY_SWEEP + ["--format", "csv", "--corpus", "uniform:2"], "CSV output requires an output path"),
        (["min-distance", "--code", "rep:q=2,n=2^2^2"], "nested tensor powers are not supported"),
        (["query-account", "--n", "2", "--t", "1"], "need t >= 2, got 1"),
        (["query-account", "--n", "1", "--t", "2"], "need n >= 2, got 1"),
        (["query-account", "--n", "2", "--t", "2", "--alpha", "0"], "alpha0 must lie in (0, 1]"),
        (["query-account", "--n", "2", "--t", "2", "--alpha", "3/2"], "alpha0 must lie in (0, 1]"),
        # DERIVED_PARITY_CELLS refuses the reference code, so no corpus kind can read its codewords.
        (["sweep", "--graph", "product:n=12,m=3", "--small", "rep:q=2,n=144", "--corpus", "codewords:3"],
         "this corpus kind needs a reference full code on the instance"),
        # Past [0, 1], every view (tau < 0) or none (tau > 1) is more than tau-far.
        (ROBUSTNESS + ["--tau", "-1"], "tau must lie in [0, 1]"),
        (ROBUSTNESS + ["--tau", "2"], "tau must lie in [0, 1]"),
        # Refused before the corpus, which would need a reference code that this instance lacks.
        (["sweep", "--graph", "product:n=12,m=3", "--small", "rep:q=2,n=144", "--corpus", "codewords:3",
          "--tau", "3/2"], "tau must lie in [0, 1]"),
        (NINE_SYMBOL_SWEEP + ["--corpus", "codeword_plus_weight:2,w=100"],
         "corpus part codeword_plus_weight plants w = 100 errors in words of length 9"),
        (NINE_SYMBOL_SWEEP + ["--corpus", "mixed:3,w=10"],
         "corpus part mixed plants w = 10 errors in words of length 9"),
        (["query-account", "--n", "2", "--t", "2", "--alpha", "1/0"], "fraction '1/0' has a zero denominator"),
        (["query-account", "--n", "2", "--t", "2", "--alpha", "0^-1"], "fraction '0^-1' has a zero denominator"),
        (["query-account", "--n", "2", "--t", "2", "--alpha", "0.5"],
         "cannot read '0.5' as a fraction: give p/q, an integer or b^e"),
        (ROBUSTNESS + ["--alpha", "1/2/3"], "cannot read '1/2/3' as a fraction: give p/q, an integer or b^e"),
        (["query-account", "--n", "2", "--t", "2", "--alpha", "2^-20000"], "power '2^-20000' is past 14000 bits"),
        # A sampled estimate reads neither constant, but it refuses what the exact report refuses.
        (ROBUSTNESS + ["--samples", "200", "--tau", "2"], "tau must lie in [0, 1]"),
        (ROBUSTNESS + ["--samples", "200", "--tau", "-1"], "tau must lie in [0, 1]"),
        (ROBUSTNESS + ["--samples", "200", "--alpha", "0"], "alpha must be positive"),
        # Integers typed on the command line name the option or spec and the text that is not one.
        (["membership", "--code", "rep:q=2,n=3", "--word", "1,x,1"], "--word must be comma-separated integers, got 'x'"),
        (["encode", "--code", "rep:q=2,n=1", "--message", "1.0"], "--message must be comma-separated integers, got '1.0'"),
        (NINE_SYMBOL_SWEEP + ["--corpus", "uniform:x"], "corpus part 'uniform:x' must have an integer count, got 'x'"),
        (NINE_SYMBOL_SWEEP + ["--corpus", "low_weight,wmax=x"],
         "spec 'low_weight,wmax=x' must give 'wmax' an integer, got 'x'"),
    ],
    ids=["word-and-word-file", "no-word", "membership-without-code", "membership-code-with-graph",
         "membership-code-with-small", "iterated-mp-not-below-m", "csv-without-out", "nested-power",
         "query-account-t", "query-account-n", "query-account-alpha-0", "query-account-alpha-above-1",
         "codewords-without-reference", "robustness-tau-negative", "robustness-tau-above-1", "sweep-tau-above-1",
         "codeword-plus-weight-past-n", "mixed-past-n", "fraction-over-0", "power-of-0-below-0",
         "fraction-decimal", "fraction-two-slashes", "power-past-print-limit",
         "sampled-robustness-tau-above-1", "sampled-robustness-tau-negative", "sampled-robustness-alpha-0",
         "word-not-integers", "message-not-integers", "corpus-count-not-integer", "corpus-key-not-integer"],
)
def test_a_usage_error_prints_one_line_and_nothing_on_stdout(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["frobnicate"], "argument command: invalid choice: 'frobnicate' (choose from "),
        (["robustness", "--small", "rep:q=2,n=2", "--word", "1,0,0,0"], "the following arguments are required: --graph"),
        # argparse reads "-1/2" as an option, not as the value of --alpha.
        (TINY_SWEEP + ["--alpha", "-1/2"], "argument --alpha: expected one argument"),
        (["expansion-check", "--graph", "product:n=2,m=3", "--format", "csv"], "unrecognized arguments: --format csv"),
    ],
    ids=["unknown-command", "missing-graph", "alpha-read-as-an-option", "unknown-option"],
)
def test_an_argument_parser_error_prints_one_line_and_nothing_on_stdout(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "argv",
    [
        TINY_SWEEP + ["--alpha", "-1", "--corpus", "uniform:3"],
        TINY_SWEEP + ["--alpha", "0", "--corpus", "uniform:3", "--samples", "200"],
        ["robustness", "--graph", "product:n=2,m=2", "--small", "rep:q=2,n=2", "--word", "1,0,0,0", "--alpha", "0"],
    ],
    ids=["sweep", "sampled-sweep", "robustness"],
)
def test_a_robustness_constant_that_is_not_positive_is_a_usage_error(capsys, argv):
    # At alpha <= 0, rho >= alpha * delta holds for every word, so every verdict would be vacuous.
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: alpha must be positive"]


def test_a_generator_file_spec_prints_its_distance(capsys, tmp_path):
    path = tmp_path / "code.spec"  # a name not ending in .json is a code file only with the prefix
    path.write_text(json.dumps({"field": 2, "generator": [[1, 1, 0, 0], [0, 0, 1, 1]]}))
    code, out, _ = run_cli(capsys, "min-distance", "--code", f"gen:{path}")
    assert code == 0 and out == "2\n"


def test_a_generator_file_named_json_reads_through_its_prefix(capsys, tmp_path):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"field": 2, "generator": [[1, 1, 0, 0], [0, 0, 1, 1]]}))
    for spec in (f"gen:{path}", str(path)):
        code, out, _ = run_cli(capsys, "min-distance", "--code", spec)
        assert code == 0 and out == "2\n"


@pytest.mark.parametrize("shape, out", [([2, 2], "true\n"), ([4, 1], "")], ids=["on-grid", "off-grid"])
def test_a_tensor_word_must_match_the_grid_of_a_power(capsys, tmp_path, shape, out):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"shape": shape, "symbols": [1, 1, 1, 1]}))
    code, stdout, err = run_cli(capsys, "membership", "--code", "rep:q=2,n=2^2", "--word-file", str(path))
    assert stdout == out
    if out:
        assert code == 0 and err == ""
    else:
        assert code == 2 and len(err.splitlines()) == 1 and err.startswith("error: ")


# Runs the CLI, then prints its own peak RSS in kB to stderr.  VmHWM starts
# afresh at exec; ru_maxrss of a child forked from pytest would include
# pytest's RSS at the fork.
_CAPPED_CLI = """
import sys
from ltclab.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")), file=sys.stderr)
sys.exit(code)
"""


def _cap_address_space():
    limit = 3_000_000 * 1024  # as `ulimit -v 3000000`
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize(
    "symbols, answer",
    [(["3"] * 31**3, "true"), (["1"] + ["0"] * (31**3 - 1), "false")],
    ids=["constant", "one-symbol"],
)
def test_cube_membership_checks_axis_lines_in_little_memory(symbols, answer):
    # The flat parity check of RS[31,1,31]^3 would hold 29790 x 29791 int64 cells (6.6 GiB).
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    argv = ["membership", "--code", "rs:q=31,n=31,k=1^3", "--word", ",".join(symbols)]
    run = subprocess.run(
        [sys.executable, "-c", _CAPPED_CLI, *argv],
        capture_output=True, text=True, env=env, preexec_fn=_cap_address_space, timeout=60,
    )
    assert run.returncode == 0 and run.stdout == f"{answer}\n", run.stderr
    assert int(run.stderr) < 100 * 1024


@pytest.mark.parametrize("flip, answer", [(None, "true"), (4321, "false")], ids=["all-ones", "one-symbol-off"])
def test_a_long_repetition_code_answers_membership_in_under_a_second(capsys, flip, answer):
    # Its 4999 x 5000 parity check is past PARITY_CELLS; membership re-encodes the one pivot symbol instead.
    symbols = ["1"] * 5000
    if flip is not None:
        symbols[flip] = "0"
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "membership", "--code", "rep:q=2,n=5000", "--word", ",".join(symbols))
    assert time.perf_counter() - start < 1
    assert code == 0 and out == f"{answer}\n" and err == ""


def test_an_empty_corpus_writes_an_empty_csv(capsys, tmp_path):
    path = tmp_path / "r.csv"
    code, out, _ = run_cli(capsys, *TINY_SWEEP, "--corpus", "uniform:0", "--format", "csv", "--out", str(path))
    assert code == 0 and out == f"wrote 0 rows to {path}\n"
    assert path.read_bytes() == b""


@pytest.mark.parametrize(
    "argv",
    [
        ["compose-check", "--graph", "product:n=2,m=2", "--graph2", "product:n=2,m=2",
         "--small", "rep:q=2,n=2"],
        ["expansion-check", "--graph", "product:n=2,m=3"],
    ],
    ids=["compose-check", "expansion-check"],
)
def test_csv_only_where_reports_are_rows(tmp_path, argv):
    with pytest.raises(SystemExit) as err:
        main(argv + ["--format", "csv", "--out", str(tmp_path / "out.csv")])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["sweep", "--graph", "product:n=3,m=3", "--small", "rs:q=5,n=3,k=2^2", "--corpus", "mixed:6",
          "--samples", "300", "--seed", "3"],
         "2454269cd1517e3d13acc999b27097e4ad3af8bddd734733a3e22ce4d4d20ef0"),
        (["robustness", "--graph", "square:n=2,t=3", "--small", "rep:q=2,n=4",
          "--samples", "3000", "--seed", "9", "--word", ",".join(["1"] + ["0"] * 255)],
         "567c01d3dfb1625dafdd3c29f0abeae42bdd2256c72bfc86b7f620af1999ef76"),
    ],
    ids=["sweep", "robustness"],
)
def test_sampled_outputs_are_pinned(capsys, argv, digest):
    # Seeded sampled runs are deterministic: a change to their bytes changes a reported estimate.
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "alpha, holds, digest",
    [
        ("1/65536", True, "8d6b97ba81b15f88e5da638d9d106c353860d56a06ad2d540291477a533177f0"),
        ("1", None, "28942481dcef1874422db0ed59e755e53b6e0fed1ee690176cd8bc770b0499d3"),
        ("2", False, "0d4047c29f838166c6908fbad76dc048107d0c966d1e847c8e846074b0da20f0"),
    ],
)
def test_interval_reports_are_pinned(capsys, alpha, holds, digest):
    # DERIVED_PARITY_CELLS refuses the derived reference code, so delta is the interval [rho, 1].
    word = ",".join(["1"] + ["0"] * 1727)
    code, out, _ = run_cli(
        capsys, "robustness", "--graph", "product:n=12,m=3", "--small", "rep:q=2,n=144",
        "--word", word, "--alpha", alpha,
    )
    doc = json.loads(out)
    assert code == 0 and doc["delta"] is None and doc["delta_interval"] == ["1/1728", "1"] and doc["holds"] is holds
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, message",
    [
        (["expansion-check", "--graph", "product:n=3,m=3"],
         "exhaustive expansion scan would hold at least 10501748, past EXPANSION_PAIRS = 10000000"),
        (["sweep", "--graph", "product:n=3,m=3", "--small", "rep:q=2,n=3^2", "--corpus", "low_weight,wmax=9"],
         "low_weight corpus would hold at least 94653873, past CORPUS_CELLS = 67108864"),
        # 65521^1000 codewords: the count stops at 65521^2, the first power of q past the budget.
        (["min-distance", "--code", "full:q=65521,n=1000"],
         "codeword enumeration would hold at least 4293001441, past ENUMERATION_THRESHOLD = 16777216"),
        # 2^14001 generator cells have more digits than Python will print.
        (["build-code", "--code", "rep:q=2,n=2^14001"],
         "generator would hold at least 2^14001, past GENERATOR_CELLS = 16777216"),
        # Refused before the (10^20, 9) corpus array is asked of numpy.
        (["sweep", "--graph", "product:n=3,m=2", "--small", "rep:q=2,n=3", "--corpus", "uniform:99999999999999999999"],
         "corpus would hold 899999999999999999991, past CORPUS_CELLS = 67108864"),
        # Refused before the first draw: a (10^9, 27) mask array would be asked of numpy.
        (["expansion-check", "--graph", "product:n=3,m=3", "--samples", "1000000000"],
         "sampled expansion scan would hold 1000000000, past EXPANSION_PAIRS = 10000000"),
        # Refused before a (2000, 65536) S mask array is allocated.
        (["expansion-check", "--graph", "product:n=2,m=16", "--samples", "2000"],
         "sampled expansion S masks would hold 131072000, past CORPUS_CELLS = 67108864"),
        # 2^30 left vertices: the count stops at the first running total past the budget.
        (["expansion-check", "--graph", "product:n=2,m=30"],
         "exhaustive expansion scan would hold at least 56049058, past EXPANSION_PAIRS = 10000000"),
    ],
    ids=["expansion-check", "sweep", "min-distance-counted-to-a-power-of-q", "build-code-too-large-to-print",
         "sweep-corpus", "expansion-check-sampled", "expansion-check-sampled-masks",
         "expansion-check-counted-to-the-budget"],
)
def test_a_refusal_is_a_usage_error_naming_its_budget(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.splitlines() == [f"error: {message}"]
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize(
    "t, alpha, message",
    [
        ("500", "1/4294967296", "t = 500 is too large: n^2 / alpha0^t may need 16504 bits, past 14000"),
        ("2000", "1/4294967296", "t = 2000 is too large: log2 N = 2^t log2(n) is past the largest float"),
        ("10000000", "1/4294967296", "t = 10000000 is too large: log2 N = 2^t log2(n) is past the largest float"),
        ("1024", "1", "t = 1024 is too large: log2 N = 2^t log2(n) is past the largest float"),
    ],
    ids=["past-print-limit", "past-float-range", "huge", "past-float-range-at-alpha-1"],
)
def test_a_query_account_it_cannot_compute_or_print_is_refused_at_once(capsys, t, alpha, message):
    # These printed Python's 4,300-digit message, or an OverflowError traceback after up to 2.9 s.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "query-account", "--n", "2", "--t", t, "--alpha", alpha)
    assert code == 2 and out == "" and err.splitlines() == [f"error: {message}"]
    assert time.perf_counter() - start < 1.0


def test_the_last_query_account_below_the_float_range_is_reported(capsys):
    code, out, _ = run_cli(capsys, "query-account", "--n", "2", "--t", "1023", "--alpha", "1")
    doc = json.loads(out)
    assert code == 0 and doc["log2_block_length"] == 2.0**1023 and doc["total_queries"] == "4"


def test_samples_alone_selects_sampling(capsys):
    # --samples N selects the sampled mode of every command that samples; without it each is exact.
    sampled = json.loads(run_cli(capsys, *NINE_SYMBOL_SWEEP, "--corpus", "uniform:3", "--samples", "50")[1])
    exact = json.loads(run_cli(capsys, *NINE_SYMBOL_SWEEP, "--corpus", "uniform:3")[1])
    assert sampled["summary"]["mode"] == "sampled" and exact["summary"]["mode"] == "exact"
    assert [r["samples"] for r in sampled["reports"]] == [50] * 3 and "samples" not in exact["reports"][0]
    scan = json.loads(run_cli(capsys, "expansion-check", "--graph", "product:n=2,m=3", "--samples", "5")[1])
    assert scan["report"]["mode"] == "sampled" and scan["report"]["pairs_checked"] == 5
    estimate = json.loads(run_cli(capsys, *ROBUSTNESS, "--samples", "7")[1])
    assert estimate["samples"] == 7 and estimate["estimate"] is True and "rho" not in estimate


def test_a_low_weight_part_counts_only_the_weights_a_word_has(capsys):
    # wmax past n = 9 asks for all 512 words; the count stops at w = n, so no 10^8 terms are summed.
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, *NINE_SYMBOL_SWEEP, "--corpus", "low_weight,wmax=99999999")
    assert code == 0 and time.perf_counter() - start < 10.0
    doc = json.loads(run_cli(capsys, *NINE_SYMBOL_SWEEP, "--corpus", "low_weight,wmax=9")[1])
    assert doc["summary"]["words"] == 512
    for report in doc["reports"]:
        report["word_source"]["wmax"] = 99999999
    assert json.loads(out)["reports"] == doc["reports"]


def test_a_reference_too_large_to_print_falls_back_to_the_interval(capsys, tmp_path):
    # The derived reference has 65521^993 codewords; left vertices 33..1024 lie in no view.
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"n": 1024, "m": 1, "t": 32, "lists": [list(range(1, 33))]}))
    code, out, _ = run_cli(
        capsys, "robustness", "--graph", str(graph), "--small", "rep:q=65521,n=32",
        "--word", ",".join(["1"] + ["0"] * 1023),
    )
    doc = json.loads(out)
    assert code == 0 and doc["delta"] is None and doc["delta_interval"] == ["0", "1"] and doc["rho"] == "1/32"


@pytest.mark.parametrize("command", sorted(_HANDLERS))
def test_every_subcommand_has_help(capsys, command):
    with pytest.raises(SystemExit) as err:
        main([command, "--help"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: ltclab {command} ")


OUT_COMMANDS = {
    "build-code": ["--code", "rep:q=2,n=3"],
    "encode": ["--code", "rs:q=5,n=5,k=2", "--message", "2,3"],
    "robustness": ["--graph", "product:n=3,m=2", "--small", "rep:q=2,n=3", "--word", "1,0,0,0,0,0,0,0,0"],
    "sweep": ["--graph", "product:n=3,m=2", "--small", "rep:q=2,n=3", "--corpus", "uniform:4", "--seed", "1"],
    "compose-check": ["--graph", "product:n=2,m=4", "--graph2", "product:n=2,m=3", "--small", "rep:q=2,n=2^2",
                      "--corpus", "uniform:4"],
    "expansion-check": ["--graph", "product:n=2,m=3"],
    "query-account": ["--n", "2", "--t", "2"],
}


@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_out_writes_what_stdout_prints(capsys, tmp_path, command):
    code, printed, _ = run_cli(capsys, command, *OUT_COMMANDS[command])
    assert code == 0
    path = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, command, *OUT_COMMANDS[command], "--out", str(path))
    assert code == 0 and out == f"wrote {path}\n"
    assert path.read_bytes() == printed.encode()
