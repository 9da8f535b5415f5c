#!/usr/bin/env python3
"""Apply each listed mutant to a copy of src/ and check that its tests kill it.

A mutant names a module of ``src/ltclab``, an exact old text that occurs
there once, the new text that replaces it, and the tests expected to fail
once it is applied.  For each mutant the script copies ``src/`` to a
temporary directory, applies the mutant in the copy, and runs
``pytest -q -x`` on the mutant's tests with ``PYTHONPATH`` set to the copy.
It prints each mutant as killed or survived, with its time, and exits 1 when
a mutant survives, its tests cannot be run (a test id that is not found) or
an old text does not occur exactly once.  The working tree is never changed.

    python3 scripts/mutants.py    # every mutant (about a minute on 2 cores)

Left out as equivalent: ``start=0`` for ``start=span`` in
``LinearCode._plane_distances`` (the first group is compared once more, which
changes no minimum), and the shift w + c_s for w - c_s there (the group
starts are closed under negation, so the least distance over all groups is
the same).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Mutant(NamedTuple):
    name: str
    module: str  # a file of src/ltclab
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # --- the graph constructor and the one per-view loop
    Mutant("materialize-below-budget", "tanner.py",
           "if self.m_right * self.t_degree <= config.ADJACENCY_BUDGET:",
           "if self.m_right * self.t_degree < config.ADJACENCY_BUDGET:",
           ("tests/test_tanner.py::test_a_graph_is_dense_exactly_when_it_fits_the_adjacency_budget",)),
    Mutant("materialized-keeps-formula", "tanner.py",
           "self._rows0, self._rows_at_fn = rows, None",
           "self._rows0 = rows",
           ("tests/test_tanner.py::test_a_materialized_graph_keeps_no_formula",)),
    Mutant("membership-any-view", "tanner.py",
           "self.small.contains_batch, bool).all(axis=1)",
           "self.small.contains_batch, bool).any(axis=1)",
           ("tests/test_tanner.py::test_tpc_linear_code_is_the_tanner_code",)),
    # --- 1-based coordinates are integers
    Mutant("at-no-as-integer", "tensor.py",
           "        indices = tuple(as_integer(i) for i in indices)\n", "",
           ("tests/test_refusals.py::test_a_coordinate_that_is_not_an_integer_is_a_type_error",)),
    Mutant("axis-slice-no-as-integer", "tensor.py",
           "        b, i = as_integer(b), as_integer(i)\n", "",
           ("tests/test_refusals.py::test_a_coordinate_that_is_not_an_integer_is_a_type_error",)),
    Mutant("view-robustness-no-as-integer", "tester.py",
           "values, j = self._values(word), as_integer(j)",
           "values = self._values(word)",
           ("tests/test_refusals.py::test_a_coordinate_that_is_not_an_integer_is_a_type_error",)),
    Mutant("neighbors-no-as-integer", "tanner.py",
           "for v in self.row0(as_integer(j) - 1))",
           "for v in self.row0(j - 1))",
           ("tests/test_refusals.py::test_a_coordinate_that_is_not_an_integer_is_a_type_error",)),
    Mutant("view-no-as-integer", "tanner.py",
           "return values[self.row0(as_integer(j) - 1)]",
           "return values[self.row0(j - 1)]",
           ("tests/test_refusals.py::test_a_coordinate_that_is_not_an_integer_is_a_type_error",)),
    # --- budgets
    Mutant("no-corpus-check", "corpus.py",
           '    within("CORPUS_CELLS", words * n, "corpus")\n', "",
           ("tests/test_budgets.py::test_every_budget_refuses_by_name",)),
    # the running total is within's one comparison, so its >= mutant is this one
    Mutant("within-at-the-limit", "config.py",
           "if total > limit:",
           "if total >= limit:",
           ("tests/test_budgets.py::test_within_returns_a_request_at_the_limit_and_reads_the_budget_per_call",
            "tests/test_budgets.py::test_a_running_total_is_refused_at_its_first_total_past_the_budget")),
    Mutant("within-last-term-only", "config.py",
           "total += term",
           "total = term",
           ("tests/test_budgets.py::test_every_budget_refuses_by_name",)),
    Mutant("within-partial-shown-exact", "config.py",
           "next(terms, None) is not None)",
           "False)",
           ("tests/test_budgets.py::test_a_running_total_is_refused_at_its_first_total_past_the_budget",)),
    Mutant("no-sampled-scan-check", "harness.py",
           '        config.within("EXPANSION_PAIRS", samples, "sampled expansion scan")\n', "",
           ("tests/test_budgets.py::test_a_sampled_expansion_scan_is_refused_past_the_budget",)),
    Mutant("no-sampled-mask-check", "harness.py",
           '        config.within("CORPUS_CELLS", samples * n, "sampled expansion S masks")\n', "",
           ("tests/test_budgets.py::test_sampled_expansion_masks_are_refused_past_the_corpus_budget",)),
    Mutant("no-sampled-t-mask-check", "harness.py",
           '        config.within("CORPUS_CELLS", samples * m, "sampled expansion T masks")\n', "",
           ("tests/test_budgets.py::test_sampled_expansion_t_masks_are_refused_past_the_corpus_budget",)),
    # the codeword count's terms: 1, then (q - 1) q**i; without the factor q - 1 a q = 2 count is unchanged
    Mutant("enumeration-no-zero-codeword", "code.py",
           "terms = chain((1,), ((q - 1) * q**i",
           "terms = chain((), ((q - 1) * q**i",
           ("tests/test_budgets.py::test_every_budget_refuses_by_name",)),
    Mutant("enumeration-no-q-minus-1", "code.py",
           "((q - 1) * q**i for i in range(self.k))",
           "(q**i for i in range(self.k))",
           ("tests/test_oracle.py::test_both_sides_check_residues_then_the_threshold",)),
    Mutant("no-query-account-print-check", "harness.py",
           "    if bits > PRINTABLE_BITS:",
           "    if False:",
           ("tests/test_cli.py::test_a_query_account_it_cannot_compute_or_print_is_refused_at_once",)),
    Mutant("no-query-account-float-check", "harness.py",
           "    except OverflowError:",
           "    except ZeroDivisionError:",
           ("tests/test_cli.py::test_a_query_account_it_cannot_compute_or_print_is_refused_at_once",)),
    # --- samples alone selects sampling
    Mutant("sweep-samples-none-inverted", "harness.py",
           'mode = "exact" if config.samples is None else "sampled"',
           'mode = "exact" if config.samples is not None else "sampled"',
           ("tests/test_harness.py::test_sweep_sampled_mode_runs",)),
    Mutant("expansion-samples-none-inverted", "cli.py",
           'mode = "exhaustive" if args.samples is None else "sampled"',
           'mode = "exhaustive" if args.samples is not None else "sampled"',
           ("tests/test_cli.py::test_samples_alone_selects_sampling",)),
    # --- corpus specs: an empty part is refused, not dropped
    Mutant("empty-corpus-part-dropped", "corpus.py",
           'raise ValueError(f"corpus part {i + 1} of {text!r} is empty")',
           "continue",
           ("tests/test_parsers.py::test_corpus_specs_that_used_to_run_are_refused",)),
    # --- compose-check: an outer view's distance from the medium code is the inner delta on it
    Mutant("c-outer-from-inner-sums", "harness.py",
           '"measured_c_outer": _least_ratio(inner_delta.reshape(',
           '"measured_c_outer": _least_ratio(inner_sums.reshape(',
           ("tests/test_harness.py::test_compose_check_matches_reference_loop",)),
    # --- the distance oracle: histogram side
    Mutant("histogram-from-gf13", "code.py",
           "if self.k != 1 or self.field.q < 17:",
           "if self.k != 1 or self.field.q < 13:",
           ("tests/test_oracle.py::test_the_histogram_side_answers_the_all_ones_row_from_gf17",)),
    # --- the counting kernel: the histogram side, and every view of a word at once
    Mutant("histogram-row-offset", "code.py",
           "block += np.arange(0, len(block) * bins, bins, dtype=wide)[:, None]",
           "block += np.arange(0, len(block) * (bins + 1), bins + 1, dtype=wide)[:, None]",
           ("tests/test_oracle.py::test_histogram_side_matches_brute_force",)),
    # (its test has 24 words: on the 500 words of test_a_histogram_block_bounds_its_bins_as_well_as_its_symbols
    # this mutant's one block would hold 262 MB of bins)
    Mutant("histogram-block-by-symbols", "code.py",
           "step = max(1, (_CHUNK << 4) // (offsets.size + bins))",
           "step = max(1, (_CHUNK << 4) // offsets.size)",
           ("tests/test_oracle.py::test_a_histogram_block_of_a_few_wide_field_words_bounds_its_bins",)),
    Mutant("count-lanes-not-summed", "code.py",
           "else counts.sum(axis=1)  # one lane is read",
           "else counts.max(axis=1)  # one lane is read",
           ("tests/test_tester.py::test_counted_views_are_the_gathered_views",)),
    Mutant("view-table-id-off-by-one", "tanner.py",
           "order //= graph.t_degree  # their views",
           "order = (order + 1) // graph.t_degree % graph.m_right  # their views",
           ("tests/test_tester.py::test_counted_views_are_the_gathered_views",)),
    Mutant("count-path-on-an-irregular-graph", "tanner.py",
           """        try:
            degree = graph.uniform_left_degree()
        except ValueError:
            return None
""",
           "        degree = graph.m_right * graph.t_degree // graph.n_left\n",
           ("tests/test_tester.py::test_counted_views_are_the_gathered_views",)),
    Mutant("lanes-on-short-rows", "code.py",
           "return 1 if n < _LANES * q else _LANES",
           "return _LANES",
           ("tests/test_oracle.py::test_lanes_only_where_a_row_is_long_next_to_its_bins",)),
    # --- one count a block: delta read from the views' count
    Mutant("one-count-total-not-divided", "tester.py",
           "n - totals // len(offsets)",
           "n - totals",
           ("tests/test_tester.py::test_one_count_certifies_as_the_two_passes",)),
    Mutant("one-count-total-of-the-first-group", "code.py",
           "counts.sum(axis=1).max(axis=1)",
           "counts[:, 0].max(axis=1)",
           ("tests/test_tester.py::test_one_count_certifies_as_the_two_passes",)),
    Mutant("one-count-for-a-plane-side-reference", "tester.py",
           "if offsets is None or full is None or not full._histogram_side:",
           "if offsets is None or full is None:",
           ("tests/test_tester.py::test_the_two_passes_stay_where_the_count_cannot_read_delta",)),
    Mutant("one-count-skips-the-full-check", "tester.py",
           """            try:
                full._checked_size()
            except TooLargeToEnumerateError:
                full = None  # the interval fallback, as the two passes would take it
""", "",
           ("tests/test_tester.py::test_one_count_refuses_as_the_two_passes",)),
    # --- the distance oracle: plane side and the first group
    Mutant("shift-skips-a-group", "code.py",
           "step // (batch or 1)), start=span):",
           "step // (batch or 1)), start=2 * span):",
           ("tests/test_oracle.py::test_nearest_distance_batch_matches_brute_force",)),
    Mutant("last-group-dropped", "code.py",
           "np.arange(e, min(e + step, total), span)",
           "np.arange(e, min(e + step, total - span), span)",
           ("tests/test_oracle.py::test_nearest_distance_batch_matches_brute_force",)),
    Mutant("doubling-no-wrap", "code.py",
           "                np.minimum(more, more - q, out=more)\n", "",
           ("tests/test_oracle.py::test_nearest_distance_batch_matches_brute_force",)),
    # --- encoding, words and verdicts
    Mutant("encode-no-mod-q", "code.py",
           "return (messages @ self.generator) % self.field.q",
           "return messages @ self.generator",
           ("tests/test_code.py", "tests/test_oracle.py")),
    Mutant("no-grid-check", "code.py",
           'if grid is not None and getattr(word, "shape", grid) != grid:',
           "if False:",
           ("tests/test_tensor.py::test_a_tensor_word_off_the_code_grid_is_refused",)),
    Mutant("verdict-upper-as-lower", "tester.py",
           "holds = True if rho >= alpha * upper else",
           "holds = True if rho >= alpha * lower else",
           ("tests/test_cli.py::test_interval_reports_are_pinned",)),
    # --- a tensor encode: one matmul per axis in the accumulator, reduced by floor division
    # (an unreduced inner axis is wrong only where the next sums wrap: three axes over GF(31) with k_b = 3)
    Mutant("encode-first-axis-unreduced", "tensor.py",
           "            arr -= wrap\n",
           "            arr -= wrap if factor is not self.factors[0] else 0\n",
           ("tests/test_tensor.py::test_encode_batch_is_the_flat_encode_on_any_integer_messages",)),
    Mutant("encode-accumulator-one-dtype-narrow", "tensor.py",
           "acc = _unsigned(max(c.k for c in self.factors) * (q - 1) ** 2)",
           "acc = _unsigned((q - 1) ** 2)",
           ("tests/test_tensor.py::test_encode_batch_is_the_flat_encode_on_any_integer_messages",)),
    # --- a corpus part is encoded a block of rows at a time, then its errors are added
    Mutant("corpus-errors-before-encode", "corpus.py",
           "        block[...] = full.encode_batch(messages)\n"
           "        for r, positions, symbols in errors:\n"
           "            block[r, positions] = (block[r, positions] + symbols) % q\n",
           "        for r, positions, symbols in errors:\n"
           "            block[r, positions] = (block[r, positions] + symbols) % q\n"
           "        block[...] = full.encode_batch(messages)\n",
           ("tests/test_harness.py::test_a_batched_part_is_its_per_word_encodes",)),
    Mutant("corpus-errors-on-the-wrong-row", "corpus.py",
           "block[r, positions] = (block[r, positions] + symbols) % q",
           "block[r - 1, positions] = (block[r - 1, positions] + symbols) % q",
           ("tests/test_harness.py::test_a_batched_part_is_its_per_word_encodes",)),
    # --- a block of words is certified as one batch
    Mutant("interval-from-zero-on-a-regular-graph", "tester.py",
           "lower, upper = rho if lower_is_rho else Fraction(0), Fraction(1)",
           "lower, upper = Fraction(0), Fraction(1)",
           ("tests/test_tester.py::test_certify_interval_when_oracle_missing",
            "tests/test_cli.py::test_interval_reports_are_pinned")),
    # --- a product spec's reference through TPC(product(n, m), C^(m-1)) = C^m
    # (the systematic form: the RREF of the columns in order is systematic too, on the first information set)
    Mutant("power-code-first-information-set", "code.py",
           """        reduced, pivots = linalg.rref(self.generator[:, ::-1], self.field.q)
        s = reduced[: self.k, ::-1][::-1]
        return LinearCode(self.field, s, _reduced=True), self.n - 1 - np.array(pivots[::-1], dtype=np.int64)
""",
           """        reduced, pivots = linalg.rref(self.generator, self.field.q)
        return LinearCode(self.field, reduced[: self.k], _reduced=True), np.array(pivots, dtype=np.int64)
""",
           ("tests/test_harness.py::test_a_product_spec_reference_is_the_null_space_basis_entry_for_entry",)),
    Mutant("power-code-one-factor-short", "tanner.py",
           "return tensor_power(c._systematic[0], m)",
           "return tensor_power(c._systematic[0], m - 1)",
           ("tests/test_harness.py::test_a_product_spec_reference_is_the_null_space_basis_entry_for_entry",)),
    Mutant("power-code-unequal-factor-objects", "tanner.py",
           ' or any(f is not c for f in factors):',
           ":",
           ("tests/test_harness.py::test_a_power_of_distinct_factor_objects_keeps_the_null_space_route",)),
    Mutant("power-code-skips-the-derived-check", "tanner.py",
           '    if c.k == c.n:\n        return _derived_within(graph, small, "DERIVED_PARITY_CELLS")\n',
           "",
           ("tests/test_harness.py::test_both_routes_refuse_a_derived_reference_alike",)),
    Mutant("full-space-identity-unchecked", "tanner.py",
           '        config.within("GENERATOR_CELLS", graph.n_left**2, "full-space generator")\n',
           "",
           ("tests/test_budgets.py::test_a_full_space_reference_is_refused_before_its_identity_is_formed",)),
    # --- membership: S of ``_systematic`` re-encodes a word's symbols at its pivots into the word
    Mutant("systematic-pivots-shifted-by-one", "code.py",
           "self.n - 1 - np.array(pivots[::-1], dtype=np.int64)",
           "self.n - 2 - np.array(pivots[::-1], dtype=np.int64)",
           ("tests/test_membership.py::test_membership_is_a_zero_syndrome",)),
    Mutant("membership-compares-the-pivots-only", "code.py",
           "return (system.encode_batch(words[:, pivots]) == words).all(axis=1)",
           "return (system.encode_batch(words[:, pivots])[:, pivots] == words[:, pivots]).all(axis=1)",
           ("tests/test_membership.py::test_membership_is_a_zero_syndrome",)),
    Mutant("tensor-pivot-grid-in-fortran-order", "tensor.py",
           "np.ravel_multi_index(grid, self.shape).ravel()",
           'np.ravel_multi_index(grid, self.shape).ravel(order="F")',
           ("tests/test_membership.py::test_membership_is_a_zero_syndrome",)),
    Mutant("systematic-rows-not-reversed", "code.py",
           "s = reduced[: self.k, ::-1][::-1]",
           "s = reduced[: self.k, ::-1]",
           ("tests/test_membership.py::test_membership_is_a_zero_syndrome",)),
    # --- the min-sum side of a tensor code: per-slice distances summed over the last axis, least over all tuples
    Mutant("min-sum-uint8-accumulator", "tensor.py",
           "self.acc = _unsigned(code.n)",
           "self.acc = np.uint8",
           ("tests/test_min_sum.py::test_the_min_sum_side_matches_brute_force",)),
    Mutant("min-sum-drops-a-non-pivot-column", "tensor.py",
           "for j, shifts, plan in self.columns:",
           "for j, shifts, plan in self.columns[1:]:",
           ("tests/test_min_sum.py::test_the_min_sum_side_matches_brute_force",)),
    Mutant("min-sum-drops-the-first-pivot-term", "tensor.py",
           "pivot = [table[self.pivots[l]] for l in range(len(self.pivots))]",
           "pivot = [table[self.pivots[l]] * (l > 0) for l in range(len(self.pivots))]",
           ("tests/test_min_sum.py::test_the_min_sum_side_matches_brute_force",)),
    Mutant("min-sum-side-rule-inverted", "tensor.py",
           "self._histogram_side or self._group_digits() == self.k:",
           "self._histogram_side or self._group_digits() != self.k:",
           ("tests/test_min_sum.py::test_single_group_and_histogram_codes_never_take_the_min_sum_side",)),
    Mutant("min-sum-last-block-left-out", "tensor.py",
           "for o in range(len(self.starts[0])):",
           "for o in range(max(1, len(self.starts[0]) - 1)):",
           ("tests/test_min_sum.py::test_the_min_sum_side_matches_brute_force_in_any_blocks",)),
    Mutant("sweep-block-drops-a-word", "harness.py",
           "block = words[start : start + step]",
           "block = words[start : start + step - 1]",
           ("tests/test_harness.py::test_a_sweep_is_the_same_in_any_blocks",)),
    Mutant("sweep-sampled-delta-misaligned", "harness.py",
           "Fraction(int(deltas[i]), instance.graph.n_left)",
           "Fraction(int(deltas[i - 1]), instance.graph.n_left)",
           ("tests/test_harness.py::test_a_sweep_is_the_same_in_any_blocks",)),
)


def occurrences(mutant: Mutant, src: Path = SRC) -> int:
    return (src / "ltclab" / mutant.module).read_text().count(mutant.old)


def run(mutant: Mutant) -> int:
    """pytest's exit status on the mutant's tests over a mutated copy of src/: 1 or 2 (failed or unimportable) kill it."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
        path = copy / "ltclab" / mutant.module
        path.write_text(path.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests]
        return subprocess.run(command, cwd=ROOT, env=env, capture_output=True).returncode


def main() -> int:
    status = 0
    for mutant in MUTANTS:
        count = occurrences(mutant)
        if count != 1:
            print(f"{mutant.name}: old text occurs {count} times in {mutant.module}")
            status = 1
    if status:
        return status
    for mutant in MUTANTS:
        start = time.perf_counter()
        code = run(mutant)
        verdict = {0: "SURVIVED", 1: "killed", 2: "killed (import)"}.get(code, f"ERROR (pytest exit {code})")
        print(f"{mutant.name}: {verdict} ({time.perf_counter() - start:.1f} s)", flush=True)
        status |= code not in (1, 2)
    return status


if __name__ == "__main__":
    sys.exit(main())
