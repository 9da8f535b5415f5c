"""View robustness, expected robustness, soundness error, and amplification.

A test instance pairs an ordered bipartite graph with a small code; the
associated local test picks a uniformly random right vertex and checks the
view (the ordered projection of the word onto that vertex's neighbor list)
for membership in the small code.  Its quantitative strength on a word w is
measured by

* the view robustness: the relative distance of one view from the small code,
* the expected robustness rho(w): the mean view robustness over all views,
* the tau-soundness-error: the fraction of views more than tau-far from the
  small code,

all exact rationals here.  Certification compares rho(w) against
alpha * delta(w), where delta is the relative distance of w from a reference
full code computed by brute force.

Floating point appears only in rendered output and in standard errors of
sampled estimates; every comparison is made on exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Optional

import numpy as np

from .code import LinearCode, Word
from .config import within
from .errors import FieldMismatchError, LengthMismatchError, TooLargeToEnumerateError
from .reports import frac_decimal, frac_str
from .tanner import OrderedGraph, TannerCode


@dataclass(frozen=True)
class SampledEstimate:
    """Seeded unbiased estimate of the expected robustness."""

    value: Fraction
    stderr: float
    samples: int
    seed: int

    def to_json_dict(self, **fields) -> dict:
        """The estimate's keys, the caller's ``fields``, then ``estimate``: a sweep's CSV column order."""
        return {
            "rho_estimate": frac_str(self.value),
            "rho_stderr": f"{self.stderr:.6e}",
            "samples": self.samples,
            **fields,
            "estimate": True,
        }


@dataclass(frozen=True)
class AmplificationResult:
    """Rejection statistics of the repeated test."""

    repetitions: int
    single_reject: Fraction
    reject_prob: Fraction
    delta: Fraction
    holds: bool


@dataclass
class RobustnessReport:
    """Exact robustness statistics for one tested word.

    ``delta_lower == delta_upper`` iff the full-code oracle ran; otherwise the
    pair is a certified interval and ``delta_exact`` is False.
    """

    label: str
    rho: Fraction
    delta_lower: Fraction
    delta_upper: Fraction
    delta_exact: bool
    ratio: Optional[Fraction] = None
    alpha: Optional[Fraction] = None
    holds: Optional[bool] = None
    tau: Optional[Fraction] = None
    epsilon: Optional[Fraction] = None
    per_view: Optional[tuple[tuple[int, Fraction], ...]] = None
    word_source: dict = dc_field(default_factory=dict)

    @property
    def delta(self) -> Fraction:
        if not self.delta_exact:
            raise ValueError("delta was not computed exactly; use the interval")
        return self.delta_lower

    def to_json_dict(self) -> dict:
        out = {
            "instance": self.label,
            "word_source": dict(self.word_source),
            "rho": frac_str(self.rho),
            "rho_decimal": frac_decimal(self.rho),
            "alpha": frac_str(self.alpha) if self.alpha is not None else None,
            "holds": self.holds,
        }
        if self.delta_exact:
            out["delta"] = frac_str(self.delta_lower)
            out["delta_decimal"] = frac_decimal(self.delta_lower)
        else:
            out["delta"] = None
            out["delta_interval"] = [frac_str(self.delta_lower), frac_str(self.delta_upper)]
        out["ratio"] = frac_str(self.ratio) if self.ratio is not None else None
        out["ratio_decimal"] = frac_decimal(self.ratio) if self.ratio is not None else None
        if self.tau is not None:
            out["tau"] = frac_str(self.tau)
            out["epsilon"] = frac_str(self.epsilon)
        if self.per_view is not None:
            out["views"] = [[j, frac_str(v)] for j, v in self.per_view]
        return out


class TestInstance(TannerCode):
    """The local test of TPC(graph, small), plus an optional reference full code for delta."""

    __test__ = False  # keep pytest's collector away from the domain name

    def __init__(
        self,
        graph: OrderedGraph,
        small: LinearCode,
        full: Optional[LinearCode] = None,
        label: str = "",
    ):
        super().__init__(graph, small)
        if full is not None:
            if full.field != small.field:
                raise FieldMismatchError(f"full code over {full.field}, small code over {small.field}")
            if full.n != graph.n_left:
                raise LengthMismatchError(f"full code length {full.n} != {graph.n_left} left vertices")
        self.full = full
        self.grid = getattr(full, "shape", None)
        self.label = label or graph.label or "instance"

    # --- plumbing -------------------------------------------------------------

    def _view_hammings(self, values: np.ndarray, js: Optional[np.ndarray] = None) -> np.ndarray:
        """(B, r) int64 small-code distances of the views at 0-based js (all by default), a view chunk a call."""
        t = self.graph.t_degree
        out = np.empty((values.shape[0], self.graph.m_right if js is None else len(js)), dtype=np.int64)
        for words, start, views in self.graph.view_chunks(values, js):
            hams = self.small.nearest_distance_batch(views.reshape(-1, t))
            out[words, start : start + views.shape[1]] = hams.reshape(views.shape[:2])
        return out

    def view_hammings_batch(self, values: np.ndarray) -> np.ndarray:
        """(B, m) int64 distances from the small code of the views of (B, n_left) symbol rows."""
        within("ADJACENCY_BUDGET", self.graph.m_right * self.graph.t_degree, "exact view scan")
        return self._view_hammings(self._rows(values))

    def view_hammings(self, word: Word) -> np.ndarray:
        """Hamming distance of every view from the small code, in view order."""
        return self.view_hammings_batch(self._values(word))[0]

    # --- the measured quantities ------------------------------------------------

    def view_robustness(self, word: Word, j: int) -> Fraction:
        """Relative distance of view j (1-based) from the small code."""
        values = self._values(word)
        if not 1 <= j <= self.graph.m_right:
            raise IndexError(f"view {j} not in [1, {self.graph.m_right}]")
        return Fraction(int(self._view_hammings(values, np.array([j - 1]))[0, 0]), self.graph.t_degree)

    def expected_robustness(self, word: Word) -> Fraction:
        """Exact mean view robustness under the uniform view distribution."""
        return Fraction(int(self.view_hammings(word).sum()), self.graph.m_right * self.graph.t_degree)

    def expected_robustness_sampled(
        self, word: Word, seed: int, samples: int, index: int = 0
    ) -> SampledEstimate:
        """Unbiased seeded estimate of the expected robustness.

        The views are drawn from ``np.random.default_rng([seed, index])``, so
        the same seed and index always select the same views (the estimate is
        reproducible byte for byte), and the words of one corpus, numbered by
        ``index``, draw independent views under one seed.  The sampled views
        are gathered a row block at a time, so no (samples, t) index is built.
        """
        if samples < 1:
            raise ValueError("need at least one sample")
        js = np.random.default_rng([seed, index]).integers(0, self.graph.m_right, size=samples)
        hams = self._view_hammings(self._values(word), js)[0]
        t = self.graph.t_degree
        mean = Fraction(int(hams.sum()), samples * t)
        rel = hams / t
        var = float(rel.var(ddof=1)) if samples > 1 else 0.0
        return SampledEstimate(mean, math.sqrt(var / samples), samples, seed)

    def tau_soundness_error(self, word: Word, tau: Fraction) -> Fraction:
        """Fraction of views strictly more than tau-far from the small code."""
        return self._soundness_error(self.view_hammings(word), Fraction(tau))

    def _soundness_error(self, hams: np.ndarray, tau: Fraction) -> Fraction:
        # ham/t > tau  <=>  ham > floor(tau * t), for an integer ham
        count = int(np.count_nonzero(hams > math.floor(tau * self.graph.t_degree)))
        return Fraction(count, self.graph.m_right)

    # --- distance to the full code ------------------------------------------------

    def delta_hammings_batch(self, values: np.ndarray) -> np.ndarray:
        """(B,) Hamming distances of the rows of a (B, n_left) symbol array from the full code."""
        if self.full is None:
            raise ValueError("no reference full code was attached")
        return self.full.nearest_distance_batch(self._rows(values))

    def delta_exact(self, word: Word) -> Fraction:
        """delta(word): exact relative distance to the reference full code."""
        return Fraction(int(self.delta_hammings_batch(self._values(word))[0]), self.graph.n_left)

    def delta_bounds(self, word: Word, rho: Optional[Fraction] = None) -> tuple[Fraction, Fraction, bool]:
        """(lower, upper, exact) bounds on delta.

        Falls back to a certified interval when no reference full code is
        attached or its oracle refuses: on a graph whose left vertices all
        occur equally often, rho never exceeds delta, so [rho, 1] is sound.
        """
        try:
            if self.full is not None:
                d = self.delta_exact(word)
                return d, d, True
            self._values(word)  # the word is checked as the oracle would check it
        except TooLargeToEnumerateError:
            pass
        lower = Fraction(0)
        if rho is not None:
            try:
                self.graph.uniform_left_degree()
                lower = rho
            except ValueError:
                pass
        return lower, Fraction(1), False

    # --- top-level checks ------------------------------------------------------------

    def certify(
        self,
        word: Word,
        alpha: Fraction,
        tau: Optional[Fraction] = None,
        with_views: bool = False,
        word_source: Optional[dict] = None,
    ) -> tuple[RobustnessReport, Optional[bool]]:
        """Build a full robustness report and decide rho >= alpha * delta.

        An exact delta d is the interval [d, d]; the verdict is None when the
        interval alone cannot decide it.
        """
        alpha = Fraction(alpha)
        hams = self.view_hammings(word)
        t = self.graph.t_degree
        rho = Fraction(int(hams.sum()), self.graph.m_right * t)
        lower, upper, exact = self.delta_bounds(word, rho)
        holds = True if rho >= alpha * upper else False if rho < alpha * lower else None
        ratio = rho / lower if exact and lower else None
        tau = None if tau is None else Fraction(tau)
        epsilon = None if tau is None else self._soundness_error(hams, tau)
        per_view = tuple((j + 1, Fraction(int(h), t)) for j, h in enumerate(hams)) if with_views else None
        report = RobustnessReport(
            label=self.label,
            rho=rho,
            delta_lower=lower,
            delta_upper=upper,
            delta_exact=exact,
            ratio=ratio,
            alpha=alpha,
            holds=holds,
            tau=tau,
            epsilon=epsilon,
            per_view=per_view,
            word_source=word_source or {},
        )
        return report, holds

    def amplified_rejection(self, word: Word, alpha: Fraction) -> AmplificationResult:
        """Reject probability of ceil(1/alpha) independent repetitions.

        A single run rejects iff the chosen view is not a small codeword; the
        repeated test accepts only if every run accepts.  The result is
        compared against the rejection floor delta/2 of a sound local test.
        """
        alpha = Fraction(alpha)
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        c = within("REPETITIONS", -(-alpha.denominator // alpha.numerator), "amplified test")  # ceil(1/alpha)
        p = self._soundness_error(self.view_hammings(word), Fraction(0))
        reject = 1 - (1 - p) ** c
        delta = self.delta_exact(word)
        return AmplificationResult(c, p, reject, delta, reject >= delta / 2)

    def coordinate_weights(self) -> tuple[tuple[Fraction, ...], Fraction]:
        """Per-coordinate query weight under the uniform view distribution.

        Coordinate i gets sum over views containing i of (view probability /
        view length).  The weights sum to one, so some coordinate weighs at
        most 1/n; a single error planted there is maximally hard to see.
        """
        within("ADJACENCY_BUDGET", self.graph.m_right * self.graph.t_degree, "exact view scan")
        counts = self.graph.left_degrees()
        denom = self.graph.m_right * self.graph.t_degree
        weights = tuple(Fraction(int(c), denom) for c in counts)
        return weights, min(weights)

    def __repr__(self):
        return f"TestInstance({self.label!r}, {self.graph!r}, small={self.small!r})"
