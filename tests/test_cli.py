import hashlib
import json

import pytest

from ltclab.cli import _HANDLERS, main


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
    code, _, err = run_cli(capsys, "min-distance", "--code", "rs:q=5,n=4,k=2^99")
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: generator would hold")


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
          "--sampled", "--seed", "-1"], "--seed must be a non-negative integer, got -1"),
        (["expansion-check", "--graph", "product:n=2,m=2", "--sampled", "--samples", "0"],
         "--samples must be a positive integer, got 0"),
        (["expansion-check", "--graph", "product:n=2,m=2", "--sampled", "--samples", "-3"],
         "--samples must be a positive integer, got -3"),
        (["robustness", "--graph", "product:n=2,m=2", "--small", "rep:q=2,n=2", "--word", "0,0,0,0",
          "--sampled", "--samples", "0"], "--samples must be a positive integer, got 0"),
        (["sweep", "--graph", "product:n=2,m=2", "--small", "rep:q=2,n=2", "--sampled", "--samples", "-3"],
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
          "--sampled", "--samples", "300", "--seed", "3"],
         "2454269cd1517e3d13acc999b27097e4ad3af8bddd734733a3e22ce4d4d20ef0"),
        (["robustness", "--graph", "square:n=2,t=3", "--small", "rep:q=2,n=4", "--sampled",
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
        ("1/65536", True, "8d00a8d2f969627d5898b113dd84ed36ebf9aab57cdb6ff4fa55117a1db2e9a2"),
        ("1", None, "28c3f1e4082551e4d31eaa31e1d1aefb2f31f3c21719da6e9280d6a15c2938d4"),
        ("2", False, "d8649612eddc12b4437502ffaea1a5f13fd203dbf90b59fe3bef2b292d1033e0"),
    ],
)
def test_interval_reports_are_pinned(capsys, alpha, holds, digest):
    # DERIVED_PARITY_CELLS refuses the derived reference code, so delta is the interval [rho, 1].
    word = ",".join(["1"] + ["0"] * 1727)
    code, out, _ = run_cli(
        capsys, "robustness", "--graph", "product:n=12,m=3", "--small", "rep:q=2,n=12^2",
        "--word", word, "--alpha", alpha,
    )
    doc = json.loads(out)
    assert code == 0 and doc["delta"] is None and doc["delta_interval"] == ["1/1728", "1"] and doc["holds"] is holds
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, message",
    [
        (["expansion-check", "--graph", "product:n=3,m=3"],
         "exhaustive expansion scan would hold 203568128, past EXPANSION_PAIRS = 10000000"),
        (["sweep", "--graph", "product:n=3,m=3", "--small", "rep:q=2,n=3^2", "--corpus", "low_weight,wmax=9"],
         "low_weight corpus would hold 8192524, past LOW_WEIGHT_WORDS = 1000000"),
        # 65521^1000 has more digits than Python will print.
        (["min-distance", "--code", "full:q=65521,n=1000"],
         "codeword enumeration would hold at least 2^15999, past ENUMERATION_THRESHOLD = 16777216"),
    ],
    ids=["expansion-check", "sweep", "min-distance-too-large-to-print"],
)
def test_a_refusal_is_a_usage_error_naming_its_budget(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.splitlines() == [f"error: {message}"]


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
