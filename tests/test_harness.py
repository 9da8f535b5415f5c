import decimal
import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ltclab.config
import ltclab.corpus
import ltclab.harness
import ltclab.linalg
from ltclab.code import LinearCode, Word, full_code, repetition, reed_solomon
from ltclab.corpus import _weight_ladder, corpus_values, generate_corpus, parse_corpus_spec
from ltclab.errors import TooLargeToEnumerateError
from ltclab.field import Field
from ltclab.harness import (
    ExperimentConfig,
    _hypotheses,
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
from ltclab.tanner import OrderedGraph, power_code, product_graph, tpc_linear_code
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


def _frac_decimal_in_a_local_context(fr: Fraction) -> str:
    with decimal.localcontext() as ctx:
        ctx.prec = 20
        return str(decimal.Decimal(fr.numerator) / decimal.Decimal(fr.denominator))


_HUGE = 10**400


@given(st.fractions() | st.builds(Fraction, st.integers(-_HUGE, _HUGE), st.integers(1, _HUGE)))
def test_frac_decimal_renders_as_a_local_context_of_20_digits(fr):
    assert frac_decimal(fr) == _frac_decimal_in_a_local_context(fr)


def test_parse_fraction_forms():
    assert parse_fraction("1/65536") == Fraction(1, 65536)
    assert parse_fraction("2^-16") == Fraction(1, 65536)
    assert parse_fraction("3") == Fraction(3)


# --- corpora -----------------------------------------------------------------------


def test_corpus_spec_parsing():
    parts = parse_corpus_spec("uniform:10;codeword_plus_weight:5,w=2;low_weight,wmax=1")
    assert [p.kind for p in parts] == ["uniform", "codeword_plus_weight", "low_weight"]
    assert parts[1].params == {"w": 2}


@pytest.mark.parametrize("text, part", [("uniform:2;;uniform:3", 2), ("uniform:2;", 2), ("", 1), (" ; uniform:1", 1)])
def test_an_empty_corpus_part_is_refused_by_its_position(text, part):
    with pytest.raises(ValueError) as err:
        parse_corpus_spec(text)
    assert str(err.value) == f"corpus part {part} of {text!r} is empty"


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


def _per_word_part(instance, part, seed):
    """A codewords or codeword_plus_weight part drawn word by word, each encoded by the flat generator."""
    rng, q, n, full = np.random.default_rng(seed), instance.small.field.q, instance.graph.n_left, instance.full
    ladder = [part.params["w"]] if "w" in part.params else _weight_ladder(n)
    words, sources = [], []
    for i in range(part.count):
        word = (rng.integers(0, q, size=(1, full.k)) @ full.generator)[0] % q
        if part.kind == "codewords":
            words.append(word)
            sources.append({"kind": "codewords", "index": i})
            continue
        w = ladder[i % len(ladder)]
        positions = rng.choice(n, size=w, replace=False)
        word[positions] = (word[positions] + rng.integers(1, q, size=w)) % q
        words.append(word)
        sources.append({"kind": "codeword_plus_weight", "w": w, "index": i})
    return np.array(words).reshape(part.count, n), sources


@pytest.mark.parametrize("block_rows", [1, 3, None])
@pytest.mark.parametrize("spec", ["codewords:7", "codeword_plus_weight:7", "codeword_plus_weight:7,w=3"])
@pytest.mark.parametrize("full", ["linear", "tensor", "cube"])
def test_a_batched_part_is_its_per_word_encodes(monkeypatch, full, spec, block_rows):
    instance = {
        "linear": lambda: instance_from_specs("product:n=3,m=2", "rs:q=5,n=3,k=2"),
        "tensor": lambda: product_instance(reed_solomon(Field(5), 4, 2), 2),
        "cube": lambda: product_instance(reed_solomon(Field(31), 5, 2), 3),
    }[full]()
    if block_rows is not None:
        monkeypatch.setattr(ltclab.corpus, "_DRAW_SYMBOLS", block_rows * instance.graph.n_left)
    for seed in range(4):
        (part,) = parse_corpus_spec(spec)
        values, sources = corpus_values(instance, (part,), seed)
        words, expected = _per_word_part(instance, part, seed)
        assert np.array_equal(values, words) and sources == expected


def test_corpus_plants_up_to_n_errors_and_refuses_more():
    inst = product_instance(reed_solomon(Field(5), 5, 2), 2)  # words of length 25
    for spec in ("codeword_plus_weight:2,w=25", "mixed:6,w=25"):
        words = generate_corpus(inst, parse_corpus_spec(spec), seed=1)
        assert {s["w"] for _, s in words if s["kind"] == "codeword_plus_weight"} == {25}
    for spec in ("codeword_plus_weight:2,w=26", "mixed:0,w=26"):
        with pytest.raises(ValueError, match="plants w = 26 errors in words of length 25"):
            generate_corpus(inst, parse_corpus_spec(spec), seed=1)


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
        samples=50,
    )
    result = run_sweep(config)
    assert result.summary["mode"] == "sampled"
    assert all(r.get("estimate") for r in result.reports)


@pytest.mark.parametrize("samples", [None, 50], ids=["exact", "sampled"])
def test_a_sweep_is_the_same_in_any_blocks(samples, monkeypatch):
    # 46 words of 9 symbols: one block by default, and blocks of 1 and of 3 words (the last one short) when patched.
    inst = product_instance(repetition(GF2, 3), 2)
    config = ExperimentConfig("product:n=3,m=2", "rep:q=2,n=3", corpus="low_weight,wmax=2", alpha=Fraction(1, 2),
                              samples=samples)
    documents = []
    for symbols in (ltclab.harness._SWEEP_BLOCK_SYMBOLS, 9, 27):
        monkeypatch.setattr(ltclab.harness, "_SWEEP_BLOCK_SYMBOLS", symbols)
        documents.append(json_bytes(run_sweep(config, instance=inst).document()))
    assert documents[0] == documents[1] == documents[2]
    reports = json.loads(documents[0])["reports"]
    assert [r["word_source"]["index"] for r in reports] == list(range(46))
    if samples is None:
        words = generate_corpus(inst, parse_corpus_spec(config.corpus), config.seed)
        assert reports == [inst.certify(w, config.alpha, word_source=s)[0].to_json_dict() for w, s in words]


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


def test_sweep_counts_the_words_an_interval_cannot_decide():
    # DERIVED_PARITY_CELLS refuses the reference code; at alpha 1 no interval [rho, 1] decides.
    config = ExperimentConfig("product:n=12,m=3", "rep:q=2,n=144", corpus="uniform:3", alpha=Fraction(1))
    summary = run_sweep(config).summary
    assert (summary["words"], summary["violations"], summary["undecided"]) == (3, 0, 3)


def test_a_report_does_not_depend_on_an_earlier_min_distance_call():
    base = LinearCode.from_rows(Field(5), [[1, 1, 1, 1, 1]])  # no declared distance
    before = product_instance(base, 3)
    assert base.min_distance() == 5 and base.d_known is None
    after = product_instance(base, 3)
    assert before.label == after.label == "product(base=[5,1,None]q5,m=3)"
    assert _hypotheses(before.full) is None and _hypotheses(after.full) is None


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
    assert acc["queries"] == 4
    assert acc["repetitions"] == str(2**64)
    assert acc["block_length"] == 16


def test_query_account_matches_built_graph():
    for n, t in [(2, 2), (2, 3), (3, 2)]:
        acc = query_account(n, t, Fraction(1, 2**32))
        graph = parse_graph_spec(f"square:n={n},t={t}")
        assert acc["queries"] == graph.t_degree


def test_query_account_growth():
    t = 2
    for n in (2, 3, 5):
        acc = query_account(n, t, Fraction(1, 2**32))
        assert acc["queries"] == n * n
        assert acc["block_length"] == n ** (2**t)


def test_query_account_log_space_for_huge_instances():
    acc = query_account(31, 6, Fraction(1, 2**32))
    assert acc["block_length"] is None
    assert acc["log2_block_length"] == pytest.approx((2**6) * np.log2(31))
    assert acc["polylog_exponent"] > 0


def test_instance_from_specs_derives_full_code():
    inst = instance_from_specs("product:n=3,m=2", "rep:q=2,n=3")
    assert inst.full is not None
    assert inst.full.k == 1  # the repetition square


@pytest.mark.parametrize("samples", [None, 200], ids=["exact", "sampled"])
def test_sweep_refuses_a_nonpositive_alpha_before_building_the_corpus(monkeypatch, samples):
    def no_corpus(*args):
        raise AssertionError("the corpus was built")

    monkeypatch.setattr(ltclab.harness, "generate_corpus", no_corpus)
    config = ExperimentConfig("product:n=2,m=2", "rep:q=2,n=2", corpus="uniform:3", alpha=Fraction(0), samples=samples)
    with pytest.raises(ValueError, match="alpha must be positive"):
        run_sweep(config)


def test_reference_code_rows_are_checked_in_every_chunk(monkeypatch):
    # 5^16 codewords, past ENUMERATION_THRESHOLD.  Generator row (0, 0) of
    # RS[5,4]^2 lies in RS[5,3]^2 and row (0, 3), the fourth, does not.
    monkeypatch.setattr(ltclab.config, "BROADCAST_CELLS", 1)  # one row per chunk
    with pytest.raises(ValueError, match="not a subcode"):
        instance_from_specs("product:n=5,m=2", "rs:q=5,n=5,k=3", "rs:q=5,n=5,k=4^2")
    inst = instance_from_specs("product:n=5,m=2", "rs:q=5,n=5,k=4", "rs:q=5,n=5,k=4^2")
    assert inst.full.k == 16


# --- the reference of a product spec, through TPC(product(n, m), C^(m-1)) = C^m ----------------

# A subset of the grid q in {2, 3, 5, 7}, n in 2..5, m in {2, 3} over repetition, full and RS codes.
_POWER_SPECS = [
    ("product:n=2,m=2", "rep:q=2,n=2"),
    ("product:n=3,m=3", "rep:q=2,n=3^2"),
    ("product:n=4,m=2", "full:q=2,n=4"),
    ("product:n=3,m=3", "full:q=2,n=3^2"),
    ("product:n=3,m=2", "rs:q=3,n=3,k=2"),
    ("product:n=3,m=3", "rs:q=3,n=3,k=2^2"),
    ("product:n=2,m=3", "rs:q=3,n=2,k=1^2"),
    ("product:n=5,m=2", "rep:q=3,n=5"),
    ("product:n=4,m=3", "rs:q=5,n=4,k=2^2"),  # tanner_sweep's instance
    ("product:n=5,m=2", "rs:q=5,n=5,k=3"),
    ("product:n=4,m=2", "rs:q=5,n=4,k=4"),
    ("product:n=3,m=3", "rs:q=5,n=3,k=1^2"),
    ("product:n=5,m=2", "rs:q=7,n=5,k=2"),
    ("product:n=4,m=3", "rs:q=7,n=4,k=3^2"),
    ("product:n=5,m=3", "rep:q=7,n=5^2"),
    ("product:n=3,m=2", "full:q=7,n=3"),
]


@pytest.mark.parametrize("graph_spec, small_spec", _POWER_SPECS)
def test_a_product_spec_reference_is_the_null_space_basis_entry_for_entry(graph_spec, small_spec):
    graph, small = parse_graph_spec(graph_spec), parse_code_spec(small_spec)
    power = power_code(graph, small)
    stacked = tpc_linear_code(graph, small, "DERIVED_PARITY_CELLS")
    assert power.generator.dtype == stacked.generator.dtype
    assert np.array_equal(power.generator, stacked.generator)
    assert np.array_equal(instance_from_specs(graph_spec, small_spec).full.generator, stacked.generator)


@pytest.mark.parametrize("graph_spec, small_spec", [_POWER_SPECS[i] for i in (2, 5, 8, 14)])
def test_a_sweep_reads_the_same_bytes_through_either_reference(graph_spec, small_spec):
    config = ExperimentConfig(graph_spec, small_spec, corpus="mixed:24", seed=20260808, alpha=Fraction(1, 2))
    graph, small = parse_graph_spec(graph_spec), parse_code_spec(small_spec)
    full = tpc_linear_code(graph, small, "DERIVED_PARITY_CELLS")
    stacked = TestInstance(graph, small, full=full, label=f"{graph_spec} / {small_spec}")
    assert json_bytes(run_sweep(config).document()) == json_bytes(run_sweep(config, instance=stacked).document())


def test_a_product_spec_reference_takes_no_null_space(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the null-space route was taken")

    monkeypatch.setattr(ltclab.linalg, "null_space", refuse)
    monkeypatch.setattr(ltclab.harness, "tpc_linear_code", refuse)
    instance = instance_from_specs("product:n=4,m=3", "rs:q=5,n=4,k=2^2")
    assert (instance.full.k, instance.full.n) == (8, 64)


_NULL_SPACE_SPECS = {
    "iterated": ("iterated:n=2,m=3,mp=2", "rep:q=2,n=2^2"),  # the graph of product:n=2,m=3
    "square": ("square:n=2,t=2", "rep:q=2,n=2^2"),
    "graph-file": (None, "rep:q=2,n=3"),  # product:n=3,m=2, written to a file
    "flat-small-code-at-m-3": ("product:n=2,m=3", "rep:q=2,n=4"),
    "wrong-n": ("product:n=4,m=3", "rep:q=2,n=2^4"),
    "tensor-small-code-at-m-2": ("product:n=4,m=2", "rep:q=2,n=2^2"),
}


@pytest.mark.parametrize("case", sorted(_NULL_SPACE_SPECS))
def test_other_specs_keep_the_null_space_route(monkeypatch, tmp_path, case):
    graph_spec, small_spec = _NULL_SPACE_SPECS[case]
    if graph_spec is None:
        graph_spec = str(tmp_path / "product.json")
        lists = [list(row) for row in product_graph(3, 2).lists]
        (tmp_path / "product.json").write_text(json.dumps({"n": 9, "m": 6, "t": 3, "lists": lists}))
    graph, small = parse_graph_spec(graph_spec), parse_code_spec(small_spec)
    assert power_code(graph, small) is None
    calls = []
    null_space = ltclab.linalg.null_space
    monkeypatch.setattr(ltclab.linalg, "null_space", lambda *args: calls.append(args) or null_space(*args))
    instance = instance_from_specs(graph_spec, small_spec)
    assert calls and np.array_equal(instance.full.generator, tpc_linear_code(graph, small).generator)


def test_a_power_of_distinct_factor_objects_keeps_the_null_space_route():
    graph = product_graph(2, 3)
    for small in (
        TensorCode((repetition(GF2, 2), repetition(GF2, 2))),  # equal codes, two objects
        TensorCode((repetition(GF2, 2), full_code(GF2, 2))),
    ):
        assert power_code(graph, small) is None
    same = repetition(GF2, 2)
    assert power_code(graph, TensorCode((same, same))) is not None


# (graph, small, stacked parity cells: views x max(n - k, 1) parity rows x n_left, the small spec of an instance of
# the same Tanner code whose reference the stacked route refuses, if any)
_DERIVED_REFUSALS = [
    ("product:n=4,m=3", "rs:q=5,n=4,k=2^2", 12 * 12 * 64, None),
    ("product:n=3,m=2", "full:q=2,n=3", 6 * 1 * 9, "full:q=2,n=3"),
    ("product:n=12,m=3", "rep:q=2,n=12^2", 36 * 143 * 1728, "rep:q=2,n=144"),  # refused at the default budget
]


@pytest.mark.parametrize("graph_spec, small_spec, stacked, refused_spec", _DERIVED_REFUSALS)
def test_both_routes_refuse_a_derived_reference_alike(monkeypatch, graph_spec, small_spec, stacked, refused_spec):
    # A full-space reference is still derived, so the power route refuses it as the stacked route does.  Any other
    # product spec's reference is kept in factor form, which stacks no parity matrix; the same refusal is reached
    # through a flat small code of the same Tanner code, which takes the stacked route (rep[144] = rep[12]^2).
    graph, small = parse_graph_spec(graph_spec), parse_code_spec(small_spec)
    monkeypatch.setattr(ltclab.config, "DERIVED_PARITY_CELLS", stacked - 1)
    routes = [lambda: tpc_linear_code(graph, small, "DERIVED_PARITY_CELLS")]
    if small.k == small.n:
        routes.append(lambda: power_code(graph, small))
    else:
        assert isinstance(power_code(graph, small), TensorCode)
        assert instance_from_specs(graph_spec, small_spec).full is not None
    if refused_spec is not None:
        refused = parse_code_spec(refused_spec)
        routes.append(lambda: tpc_linear_code(graph, refused, "DERIVED_PARITY_CELLS"))
        assert instance_from_specs(graph_spec, refused_spec).full is None
    message = f"stacked parity matrix would hold {stacked}, past DERIVED_PARITY_CELLS = {stacked - 1}"
    for route in routes:
        with pytest.raises(TooLargeToEnumerateError) as err:
            route()
        refusal = (err.value.budget, err.value.requested, err.value.limit, str(err.value))
        assert refusal == ("DERIVED_PARITY_CELLS", stacked, stacked - 1, message)
    monkeypatch.setattr(ltclab.config, "DERIVED_PARITY_CELLS", stacked)
    assert power_code(graph, small) is not None
