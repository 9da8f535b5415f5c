import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

import ltclab.harness
from ltclab.code import LinearCode, Word, repetition, reed_solomon
from ltclab.corpus import generate_corpus, parse_corpus_spec
from ltclab.errors import TooLargeToEnumerateError
from ltclab.field import Field
from ltclab.harness import (
    ExperimentConfig,
    code_to_json_dict,
    instance_from_specs,
    load_code_file,
    parse_code_spec,
    parse_graph_spec,
    product_instance,
    query_account,
    run_compose_check,
    run_expansion_check,
    run_sweep,
)
from ltclab.reports import frac_decimal, frac_str, json_bytes, parse_fraction
from ltclab.tanner import OrderedGraph, product_graph, tpc_linear_code
from ltclab.tensor import TensorCode, tensor_power
from ltclab.tester import TestInstance

GF2 = Field(2)


# --- spec parsing -----------------------------------------------------------


def test_parse_rs_spec():
    c = parse_code_spec("rs:q=7,n=7,k=2")
    assert (c.n, c.k, c.d_known) == (7, 2, 6)


def test_parse_rep_and_full_specs():
    assert parse_code_spec("rep:q=2,n=3").params() == (3, 1, 3)
    assert parse_code_spec("full:q=2,n=3").params() == (3, 3, 1)


def test_parse_power_spec():
    t = parse_code_spec("rs:q=31,n=31,k=1^2")
    assert isinstance(t, TensorCode)
    assert (t.n, t.k, t.d_known) == (961, 1, 961)


def test_parse_unknown_spec():
    with pytest.raises(ValueError):
        parse_code_spec("huffman:q=2")


def test_code_file_roundtrip(tmp_path):
    c = parse_code_spec("rs:q=5,n=5,k=2")
    path = tmp_path / "code.json"
    path.write_bytes(json_bytes(code_to_json_dict(c, kind="generator")))
    back = load_code_file(str(path))
    assert (back.n, back.k) == (5, 2)
    assert np.array_equal(
        np.sort(back.codewords().view(np.ndarray), axis=0),
        np.sort(c.codewords().view(np.ndarray), axis=0),
    )


def test_parse_graph_specs():
    assert parse_graph_spec("product:n=2,m=3").params() == (8, 6, 4)
    assert parse_graph_spec("iterated:n=2,m=4,mp=2").params() == (16, 48, 4)
    assert parse_graph_spec("square:n=2,t=2").params() == (16, 48, 4)


def test_parse_graph_file(tmp_path):
    doc = {"n": 3, "m": 2, "t": 2, "lists": [[1, 2], [2, 3]]}
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    g = parse_graph_spec(str(path))
    assert g.params() == (3, 2, 2)
    assert g.lists == ((1, 2), (2, 3))


# --- rationals --------------------------------------------------------------------


def test_frac_str_forms():
    assert frac_str(Fraction(1, 9)) == "1/9"
    assert frac_str(Fraction(0)) == "0"
    assert frac_str(Fraction(4, 2)) == "2"


def test_frac_decimal_significant_digits():
    assert frac_decimal(Fraction(1, 9)) == "0.11111111111111111111"
    assert frac_decimal(Fraction(1, 2)) == "0.5"


def test_parse_fraction_forms():
    assert parse_fraction("1/65536") == Fraction(1, 65536)
    assert parse_fraction("2^-16") == Fraction(1, 65536)
    assert parse_fraction("3") == Fraction(3)


# --- corpora -----------------------------------------------------------------------


def test_corpus_spec_parsing():
    parts = parse_corpus_spec("uniform:10;codeword_plus_weight:5,w=2;low_weight,wmax=1")
    assert [p.kind for p in parts] == ["uniform", "codeword_plus_weight", "low_weight"]
    assert parts[1].params == {"w": 2}


def test_corpus_deterministic():
    inst = product_instance(repetition(GF2, 3), 2)
    a = generate_corpus(inst, parse_corpus_spec("mixed:30"), seed=5)
    b = generate_corpus(inst, parse_corpus_spec("mixed:30"), seed=5)
    assert len(a) == len(b) == 30
    assert all(x == y for (x, _), (y, _) in zip(a, b))
    c = generate_corpus(inst, parse_corpus_spec("mixed:30"), seed=6)
    assert any(x != y for (x, _), (y, _) in zip(a, c))


def test_corpus_codeword_plus_weight_structure():
    inst = product_instance(reed_solomon(Field(5), 5, 2), 2)
    words = generate_corpus(inst, parse_corpus_spec("codeword_plus_weight:8,w=3"), seed=1)
    for word, source in words:
        assert source["w"] == 3
        assert inst.delta_exact(word) <= Fraction(3, 25)


def test_corpus_planted_slice_has_clean_view():
    inst = product_instance(reed_solomon(Field(5), 5, 2), 2)
    words = generate_corpus(inst, parse_corpus_spec("planted_slice:8"), seed=2)
    for word, source in words:
        assert inst.view_robustness(word, source["view"]) == 0


def test_corpus_low_weight_enumerates_all():
    inst = product_instance(repetition(GF2, 2), 2)
    words = generate_corpus(inst, parse_corpus_spec("low_weight,wmax=2"), seed=0)
    # 1 + 4 + 6 words over GF(2) on 4 coordinates
    assert len(words) == 11
    weights = sorted(w.weight() for w, _ in words)
    assert weights == [0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2]


_STREAM_SPECS = {
    "uniform": "uniform:5",
    "codewords": "codewords:4",
    "codeword_plus_weight": "codeword_plus_weight:6",
    "codeword_plus_weight_w": "codeword_plus_weight:4,w=2",
    "planted_slice": "planted_slice:5",
    "low_weight": "low_weight,wmax=2",
    "mixed": "mixed:10",
}
_STREAM_DIGESTS = {
    ("linear", "uniform"): "2d102eac168271ce4377dac6be096612f1a7df411f7c2fa936f8dbe42c54ff68",
    ("linear", "codewords"): "3563a057977f7825b8569a620373a13af89ee2fe9e3df462e284f0a34eaf853d",
    ("linear", "codeword_plus_weight"): "e042227d832d313a99683c9122875eed6e542aeb3eea8a854376f7a32bfaa300",
    ("linear", "codeword_plus_weight_w"): "e865c4d0f4df2c28773ec67853c172dd7eac34a2cdfdce4ebbb70e0b26c15e79",
    ("linear", "planted_slice"): "f771032671a5ae5173498ecefd0df11afbb01d45f9dac6ff2fe6877ef8b8547e",
    ("linear", "low_weight"): "5736e80a973034ce94c3353016674504f910429aac9717aba06e5fb943c6bafe",
    ("linear", "mixed"): "141a39344815f3c827437d17740ee791513cecfa51792af0b9e86c9f48f0125a",
    ("tensor", "uniform"): "e40d9d33b35484b71222060022ed9d05502fb40212f016b01f6ed0d10626f69e",
    ("tensor", "codewords"): "13fb05c9e936aaf7be42d29f41e04a0ec2d625013044ded59031bb731567e1a9",
    ("tensor", "codeword_plus_weight"): "74395ae28ee9b0321c07eb54b0f723a10f7c2ddffba87c01d409ee5879eb3c19",
    ("tensor", "codeword_plus_weight_w"): "c6091ee1ec394450fc63cd88c4ecdbc5ea749e7d087ebcd2c7c01f71e2329093",
    ("tensor", "planted_slice"): "6579990c27d72d20b293c96b9ab1c37672876857710b78c5eebd4792fb56c4ee",
    ("tensor", "low_weight"): "30331703be8080ba2a3ed0d0645ab95a1a1f115f5f03b15e2865fcf1a01f2404",
    ("tensor", "mixed"): "b81d2608cdb990db789b1e8dcf18d8a7a2d773f8c5ff6e1239b385b14ebe3539",
}


@pytest.mark.parametrize("full, kind", sorted(_STREAM_DIGESTS))
def test_corpus_streams_are_pinned(full, kind):
    """Every corpus kind yields the same words and sources for a seed, on both kinds of full code."""
    if full == "linear":  # a derived Tanner product code
        inst = instance_from_specs("product:n=3,m=2", "rs:q=5,n=3,k=2")
        assert isinstance(inst.full, LinearCode)
    else:
        inst = product_instance(reed_solomon(Field(5), 4, 2), 2)
        assert isinstance(inst.full, TensorCode)
    words = generate_corpus(inst, parse_corpus_spec(_STREAM_SPECS[kind]), seed=11)
    values = np.array([w.values for w, _ in words], dtype=np.int64).reshape(len(words), inst.graph.n_left)
    digest = hashlib.sha256(values.tobytes() + json.dumps([s for _, s in words]).encode())
    assert digest.hexdigest() == _STREAM_DIGESTS[full, kind]


def test_cube_sweep_derives_no_parity_check_or_flat_generator():
    inst = product_instance(reed_solomon(Field(31), 31, 1), 3)
    inst.small.codewords()
    inst.full.codewords()
    inst.view_hammings(Word(Field(31), [0] * 31**3))
    assert "parity_check" not in inst.small.__dict__
    assert "parity_check" not in inst.full.__dict__ and "generator" not in inst.full.__dict__


def test_corpus_low_weight_refuses_explosion():
    inst = product_instance(reed_solomon(Field(31), 31, 1), 3)
    with pytest.raises(ValueError):
        generate_corpus(inst, parse_corpus_spec("low_weight,wmax=3"), seed=0)


# --- sweeps ----------------------------------------------------------------------------


def test_sweep_codeword_corpus_all_zero():
    inst = product_instance(repetition(GF2, 3), 2)
    config = ExperimentConfig(
        graph_spec="product:n=3,m=2",
        small_spec="rep:q=2,n=3",
        corpus="codewords:10",
        seed=3,
        alpha=Fraction(1, 8),
    )
    result = run_sweep(config, instance=inst)
    assert result.violations == 0
    for report in result.reports:
        assert report["rho"] == "0"
        assert report["delta"] == "0"


def test_sweep_exhaustive_tiny_square():
    inst = product_instance(repetition(GF2, 2), 2)
    config = ExperimentConfig(
        graph_spec="product:n=2,m=2",
        small_spec="rep:q=2,n=2",
        corpus="low_weight,wmax=4",  # all 16 words of length 4
        seed=0,
        alpha=Fraction(1, 16),
    )
    result = run_sweep(config, instance=inst)
    assert result.summary["words"] == 16
    assert result.violations == 0
    members = [r for r in result.reports if r["rho"] == "0"]
    assert len(members) == 2  # the zero word and the all-ones word


def test_sweep_detects_violations():
    # alpha = 2 cannot hold: the single-error word has ratio exactly 1.
    inst = product_instance(repetition(GF2, 3), 2)
    config = ExperimentConfig(
        graph_spec="product:n=3,m=2",
        small_spec="rep:q=2,n=3",
        corpus="low_weight,wmax=1",
        seed=0,
        alpha=Fraction(2),
    )
    result = run_sweep(config, instance=inst)
    assert result.violations > 0
    assert result.exit_code == 1


def test_sweep_reports_are_byte_deterministic():
    config = ExperimentConfig(
        graph_spec="product:n=3,m=2",
        small_spec="rep:q=2,n=3",
        corpus="mixed:24",
        seed=99,
        alpha=Fraction(1, 2**16),
    )
    blobs = []
    for _ in range(2):
        result = run_sweep(config)
        blobs.append(json_bytes(result.document()))
    assert blobs[0] == blobs[1]


def test_sweep_sampled_mode_runs():
    config = ExperimentConfig(
        graph_spec="product:n=3,m=2",
        small_spec="rep:q=2,n=3",
        corpus="uniform:5",
        seed=4,
        mode="sampled",
        samples=50,
    )
    result = run_sweep(config)
    assert all(r.get("estimate") for r in result.reports)


def test_sweep_hypotheses_recorded():
    inst = product_instance(reed_solomon(Field(31), 31, 1), 3)
    config = ExperimentConfig(
        graph_spec="product:n=31,m=3",
        small_spec="rs:q=31,n=31,k=1^2",
        corpus="codewords:2",
        seed=1,
    )
    result = run_sweep(config, instance=inst)
    hyp = result.summary["hypotheses"]
    assert hyp["product_tester"] is True
    assert hyp["product_tester_margin"] == "27000/29791"


# --- compose and expansion checks ----------------------------------------------------------


def test_compose_check_exact_identity():
    rep2 = repetition(GF2, 2)
    outer = product_graph(2, 4)
    inner = product_graph(2, 3)
    c2 = tensor_power(rep2, 2).as_linear_code()
    result = run_compose_check(outer, inner, c2, "uniform:30", seed=8)
    assert result["report"]["identity_mismatches"] == 0
    assert result["exit_code"] == 0


def _reference_compose_check(outer, inner, small, corpus, seed) -> dict:
    """run_compose_check's report, one word and one outer view at a time, summing Fractions."""
    composed = outer.compose(inner)
    medium = tpc_linear_code(inner, small)
    full = tpc_linear_code(outer, medium)
    comp_instance = TestInstance(composed, small, full=full)
    outer_instance = TestInstance(outer, medium, full=full)
    inner_instance = TestInstance(inner, small, full=medium)
    words = generate_corpus(comp_instance, parse_corpus_spec(corpus), seed)
    mismatches = 0
    mins = {"outer": None, "inner": None, "composed": None}

    def update(key, ratio):
        mins[key] = ratio if mins[key] is None else min(mins[key], ratio)

    for word, _ in words:
        lhs = comp_instance.expected_robustness(word)
        inner_means = []
        for j0 in range(outer.m_right):
            view = Word(small.field, outer.view(word.values, j0 + 1))
            inner_means.append(inner_instance.expected_robustness(view))
            dv = inner_instance.delta_exact(view)
            if dv != 0:
                update("inner", inner_means[-1] / dv)
        if lhs != sum(inner_means, Fraction(0)) / outer.m_right:
            mismatches += 1
        d = comp_instance.delta_exact(word)
        if d != 0:
            update("composed", lhs / d)
            update("outer", outer_instance.expected_robustness(word) / d)
    report = {
        "outer": outer.label,
        "inner": inner.label,
        "composed": composed.label,
        "corpus": corpus,
        "seed": seed,
        "words": len(words),
        "identity_mismatches": mismatches,
    }
    for key, value in mins.items():
        report[f"measured_c_{key}"] = frac_str(value) if value is not None else None
    return report


@pytest.mark.parametrize(
    "outer, inner, small, corpus",
    [
        (product_graph(2, 4), product_graph(2, 3), tensor_power(repetition(GF2, 2), 2).as_linear_code(),
         "uniform:40;low_weight,wmax=2"),
        (product_graph(2, 4), product_graph(2, 3), tensor_power(repetition(GF2, 2), 2).as_linear_code(),
         "uniform:0"),
        (product_graph(3, 3), product_graph(3, 2), reed_solomon(Field(3), 3, 2), "mixed:30;codewords:2"),
        (OrderedGraph.from_lists(6, [[1, 2, 3, 4], [3, 4, 5, 6], [6, 5, 2, 1]], label="ring"),
         product_graph(2, 2), reed_solomon(Field(5), 2, 1), "mixed:30;low_weight,wmax=1"),
        # no word at delta 0: the least ratio may sit at the smallest delta that occurs
        (product_graph(2, 4), product_graph(2, 3), tensor_power(repetition(GF2, 2), 2).as_linear_code(),
         "codeword_plus_weight:5,w=1"),
        (product_graph(2, 4), product_graph(2, 3), tensor_power(repetition(GF2, 2), 2).as_linear_code(),
         "low_weight,wmax=1"),
    ],
    ids=["gf2-axis", "gf2-empty", "gf3-axis", "gf5-from-lists", "gf2-all-at-delta-1", "gf2-weight-1"],
)
def test_compose_check_matches_reference_loop(outer, inner, small, corpus):
    report = run_compose_check(outer, inner, small, corpus, seed=4)["report"]
    assert report == _reference_compose_check(outer, inner, small, corpus, seed=4)
    assert report["identity_mismatches"] == 0


def test_expansion_check_exhaustive():
    result = run_expansion_check(product_graph(2, 3), mode="exhaustive")
    report = result["report"]
    assert report["pairs_checked"] == 37 * 64
    assert report["violations"] == 0


def test_expansion_check_sampled_deterministic():
    g = product_graph(3, 3)
    a = run_expansion_check(g, mode="sampled", samples=500, seed=13)
    b = run_expansion_check(g, mode="sampled", samples=500, seed=13)
    assert a["report"] == b["report"]
    assert a["report"]["violations"] == 0


def test_expansion_check_exhaustive_refuses_large():
    with pytest.raises(TooLargeToEnumerateError):
        run_expansion_check(product_graph(3, 3), mode="exhaustive")


# --- query accounting --------------------------------------------------------------------------


def test_query_account_example():
    acc = query_account(2, 2, Fraction(1, 2**32))
    assert acc.queries == 4
    assert acc.repetitions == 2**64
    assert acc.block_length == 16


def test_query_account_matches_built_graph():
    for n, t in [(2, 2), (2, 3), (3, 2)]:
        acc = query_account(n, t, Fraction(1, 2**32))
        graph = parse_graph_spec(f"square:n={n},t={t}")
        assert acc.queries == graph.t_degree


def test_query_account_growth():
    t = 2
    for n in (2, 3, 5):
        acc = query_account(n, t, Fraction(1, 2**32))
        assert acc.queries == n * n
        assert acc.block_length == n ** (2**t)


def test_query_account_log_space_for_huge_instances():
    acc = query_account(31, 6, Fraction(1, 2**32))
    assert acc.block_length is None
    assert acc.log2_block_length == pytest.approx((2**6) * np.log2(31))
    assert acc.polylog_exponent > 0


def test_instance_from_specs_derives_full_code():
    inst = instance_from_specs("product:n=3,m=2", "rep:q=2,n=3")
    assert inst.full is not None
    assert inst.full.k == 1  # the repetition square


def test_reference_code_rows_are_checked_in_every_chunk(monkeypatch):
    # 5^16 codewords, past ENUMERATION_THRESHOLD.  Generator row (0, 0) of
    # RS[5,4]^2 lies in RS[5,3]^2 and row (0, 3), the fourth, does not.
    monkeypatch.setattr(ltclab.harness, "BROADCAST_CELLS", 1)  # one row per chunk
    with pytest.raises(ValueError, match="not a subcode"):
        instance_from_specs("product:n=5,m=2", "rs:q=5,n=5,k=3", "rs:q=5,n=5,k=4^2")
    inst = instance_from_specs("product:n=5,m=2", "rs:q=5,n=5,k=4", "rs:q=5,n=5,k=4^2")
    assert inst.full.k == 16
