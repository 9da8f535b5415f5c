"""The four benchmark workloads, and the child process that measures one of them.

    python3 bench/workloads.py WORKLOAD SEED SECONDS TRACE

repeats jobs until SECONDS have passed and prints the raw per-job samples as
one JSON line.  A job sets the workload up, runs it once through public
ltclab functions and serialises its report.  Set-up repeats until it has
taken SETUP_MIN_S, so that even a set-up of microseconds yields a steady
median.  With TRACE=1 every second job runs under the span wrappers of
``tracing`` (and sets up once); the others run bare, so the traced run also
measures the tracing overhead.

Each call the job times (a set-up, a harness call, the serialisation) is a
unit.  With TRACE=0 a fixed ``Reference`` computation is timed after every
unit, and each unit's time is also given scaled to the host speed the
references beside it show (see ``Reference``).

Every job's outputs are checked: no sweep violation or refusal, no
composition-identity mismatch, no expansion violation, and at DEFAULT_SEED
the first job's report bytes hash to the digest recorded in DIGESTS.  After
the timed jobs, SPOT_WORDS words of the first sweep job are measured again
along the streaming path ``LinearCode.nearest``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from ltclab import harness, linalg, reports  # noqa: E402
from ltclab.code import LinearCode, Word, reed_solomon, repetition  # noqa: E402
from ltclab.corpus import generate_corpus, parse_corpus_spec  # noqa: E402
from ltclab.field import Field  # noqa: E402
from ltclab.tanner import product_graph  # noqa: E402
from ltclab.tensor import tensor_power  # noqa: E402

import tracing  # noqa: E402

DEFAULT_SEED = 20260808
# sha256 of the first job's report bytes at DEFAULT_SEED.  The cube_sweep job
# is exactly scripts/robustness_sweep.py --words 60, so its digest is that of
# out/robustness_sweep.json.
DIGESTS = {
    "cube_sweep": "5c64d8125a4808e3c6c7576059c65f31794f88a13f1aee9f14b7fd3b2267c9c2",
    "tanner_sweep": "363fd3028046c28444b87f65c1a9374cc6a79147116171c71dace8f376a3a6e8",
    "compose_check": "a4c285e2de658bc0c1fd99930be1ec706bc42e4500a9be2bac7c5dd6f8eb8381",
    "expansion_scan": "8374fb56793e590507a0337b9d67b7adb96b242d3781f2f84ccebbf34fb155a8",
}
ALPHA = Fraction(1, 2**16)
SETUP_MIN_S = 0.05
SETUP_MAX_REPS = 200
SPOT_WORDS = 6
# Duration of one reference computation of each kind at the nominal host
# speed, which sets the scale of the reported times: roughly its duration
# outside slow spells on a shared 2-vCPU Intel Xeon VM (Python 3.11.7,
# numpy 2.4.6, one thread).
REF_NOMINAL_S = {"interpreter": 0.012, "kernel": 0.005, "stream": 0.018}


class Reference:
    """A fixed computation, timed between the units of a job, that gauges the host's speed.

    On a shared 2-vCPU VM the same job runs up to 1.7x slower for seconds at a
    time, and no estimator over one run's jobs removes that: a run that falls
    in a slow spell is slow throughout.  The reference is timed just before and
    just after each unit (or batch of set-ups); the unit's time, times the
    nominal reference time over the mean of those two, is its time at the
    nominal host speed.  The reference runs no ltclab code, so a change to the
    program moves scaled and raw times alike.

    A slow spell slows some work more than other work, so each workload names
    the kind of reference that does the work its time goes to:

    - ``interpreter``: small numpy calls, dict updates and exact Fraction sums
      with growing denominators, like the batch-of-one oracle calls of
      compose_check and the per-pair loop of expansion_scan;
    - ``kernel``: the broadcast compare of ``LinearCode.nearest_distance_batch``
      on a 31 x 961 table, which holds in the core's cache, as in the views of
      cube_sweep;
    - ``stream``: the same compare of one word against a 2^17 x 64 table
      (64 MB, beyond the core's cache), as in the delta of tanner_sweep; the
      table adds about 70 MB to that workload's peak RSS.

    It runs with the garbage collector off, so that objects a job leaves alive
    do not slow it.  Over ten 30 s runs per workload, the quartile spread of
    items_per_s went from 0.26 unscaled to 0.04 scaled on compose_check, 0.06
    to 0.03 on expansion_scan, 0.07 to 0.02 on cube_sweep and 0.06 to 0.01 on
    tanner_sweep.
    """

    def __init__(self, kind: str):
        if kind != "interpreter":
            # (table shape, words per batch, batches per call)
            shape, batch, self._reps = {"kernel": ((31, 961), 16, 12), "stream": ((2**17, 64), 1, 1)}[kind]
            rng = np.random.default_rng(0)
            self._table = rng.integers(0, 31, size=shape)
            self._words = rng.integers(0, 31, size=(batch, shape[1]))
        self.work = self._interpreter if kind == "interpreter" else self._kernel
        self.nominal_s = REF_NOMINAL_S[kind]
        self.work()  # warm up
        self.samples: list[float] = []
        self._last = self.time()

    @staticmethod
    def _interpreter() -> None:
        a = np.arange(64, dtype=np.int64).reshape(4, 16)
        acc = Fraction(0)
        counts: dict[int, int] = {}
        for i in range(1500):
            m = int(((a + i) % 5).sum(axis=1).min())
            counts[i % 97] = counts.get(i % 97, 0) + m
            acc += Fraction(m, i + 1)

    def _kernel(self) -> None:
        for _ in range(self._reps):
            (self._words[:, None, :] != self._table[None, :, :]).sum(axis=2).min(axis=1)

    def time(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self.work()
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()

    def factor(self) -> float:
        """Nominal over current host speed, for the work timed since the last call."""
        after = self.time()
        self.samples.append(after)
        factor = self.nominal_s * 2 / (self._last + after)
        self._last = after
        return factor


class Units:
    """Times the units of one phase of a job: raw, and scaled by a ``Reference``.

    Each call is scaled as soon as it returns; with ``defer`` the calls are
    scaled together by ``settle``, for units too short to pay for a reference
    each (the set-up of expansion_scan takes 0.1 ms).
    """

    def __init__(self, reference: Reference | None, defer: bool = False):
        self.reference, self.defer = reference, defer
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def __call__(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.raw.append(time.perf_counter() - t0)
        if not self.defer:
            self.settle()
        return result

    def settle(self) -> None:
        """Scale the calls not yet scaled by the host speed the reference shows now."""
        factor = self.reference.factor() if self.reference is not None else 1.0
        self.scaled.extend(t * factor for t in self.raw[len(self.scaled):])


def streaming_code(full) -> LinearCode:
    """``full`` as a LinearCode whose ``nearest`` streams codewords from the generator.

    ``TensorCode.as_linear_code()`` also derives the parity-check matrix, with
    (n - k) x n cells: 29790 x 29791 int64 (7 GB) for RS[31,1,31]^3.
    ``nearest`` reads only the generator, so the Kronecker generator is
    attached to a LinearCode without one.
    """
    if isinstance(full, LinearCode):
        return full
    gen = full.factors[0].generator
    for factor in full.factors[1:]:
        gen = linalg.kron(gen, factor.generator, full.field.q)
    flat = object.__new__(LinearCode)
    flat.field, flat.generator = full.field, gen
    flat.k, flat.n = gen.shape
    flat.d_known = full.distance
    return flat


class Sweep:
    """``run_sweep`` of a ``mixed`` corpus at alpha = 2^-16 on a prebuilt instance."""

    def __init__(self, name, graph_spec, small_spec, words, build, reference):
        self.name, self.items, self.reference = name, words, reference
        self.graph_spec, self.small_spec = graph_spec, small_spec
        self.corpus = f"mixed:{words}"
        self.build = build

    def setup(self):
        instance = self.build()
        instance.small.codewords()
        instance.full.codewords()
        return instance

    def run(self, instance, seed, timed):
        config = harness.ExperimentConfig(
            graph_spec=self.graph_spec,
            small_spec=self.small_spec,
            corpus=self.corpus,
            seed=seed,
            alpha=ALPHA,
        )
        result = timed(harness.run_sweep, config, instance=instance)
        failed = sum(1 for rep in result.reports if rep["holds"] is not True or rep["delta"] is None)
        return result.document(), failed + abs(self.items - len(result.reports))

    def spot_check(self, instance, seed, document) -> int:
        """Words whose rho or delta the streaming path does not reproduce."""
        words = generate_corpus(instance, parse_corpus_spec(self.corpus), seed)
        full = streaming_code(instance.full)
        graph = instance.graph
        failed = 0
        for i in np.linspace(0, len(words) - 1, SPOT_WORDS).astype(int):
            word, _ = words[i]
            views = (Word(word.field, word.values[graph.row0(j0)]) for j0 in range(graph.m_right))
            rho = sum(instance.small.nearest(view)[1] for view in views) / graph.m_right
            delta = full.nearest(word)[1]
            report = document["reports"][i]
            if reports.frac_str(rho) != report["rho"] or reports.frac_str(delta) != report["delta"]:
                failed += 1
        return failed


class ComposeCheck:
    """``run_compose_check`` of the 4-axis graph composed with the 3-axis graph."""

    name = "compose_check"
    reference = "interpreter"
    corpus = "uniform:800;low_weight,wmax=2"
    items = 800 + 1 + 16 + 120  # uniform words plus every word of weight <= 2 in GF(2)^16

    def setup(self):
        small = tensor_power(repetition(Field(2), 2), 2).as_linear_code()
        small.codewords()
        return product_graph(2, 4), product_graph(2, 3), small

    def run(self, state, seed, timed):
        outer, inner, small = state
        report = timed(harness.run_compose_check, outer, inner, small, self.corpus, seed)["report"]
        return {"report": report}, report["identity_mismatches"] + abs(self.items - report["words"])

    def spot_check(self, state, seed, document) -> int:
        return 0


class ExpansionScan:
    """The exhaustive scan of product_graph(2,3) and 10^5 sampled pairs on product_graph(3,3).

    The sampled pairs are drawn in SAMPLE_UNITS scans of equal size with
    seeds derived from the job's, so that each timed unit is short next to
    the host's slow spells (see ``Reference``).
    """

    name = "expansion_scan"
    reference = "interpreter"
    exhaustive_pairs = 37 * 2**6  # left subsets of size <= 2 of 8 points, times right subsets of 6
    samples = 10**5
    SAMPLE_UNITS = 10
    items = exhaustive_pairs + samples

    def setup(self):
        return product_graph(2, 3), product_graph(3, 3)

    def run(self, state, seed, timed):
        small_graph, big_graph = state
        exhaustive = timed(harness.run_expansion_check, small_graph, mode="exhaustive")["report"]
        seeds = np.random.SeedSequence(seed).generate_state(self.SAMPLE_UNITS)
        sampled = [
            timed(
                harness.run_expansion_check,
                big_graph,
                mode="sampled",
                samples=self.samples // self.SAMPLE_UNITS,
                seed=int(unit_seed),
            )["report"]
            for unit_seed in seeds
        ]
        checked = exhaustive["pairs_checked"] + sum(r["pairs_checked"] for r in sampled)
        violations = exhaustive["violations"] + sum(r["violations"] for r in sampled)
        return {"exhaustive": exhaustive, "sampled": sampled}, violations + abs(self.items - checked)

    def spot_check(self, state, seed, document) -> int:
        return 0


WORKLOADS = {
    w.name: w
    for w in (
        Sweep(
            "cube_sweep",
            "product:n=31,m=3",
            "rs:q=31,n=31,k=1^2",
            60,
            lambda: harness.product_instance(reed_solomon(Field(31), 31, 1), 3),
            "kernel",
        ),
        Sweep(
            "tanner_sweep",
            "product:n=4,m=3",
            "rs:q=5,n=4,k=2^2",
            15,
            lambda: harness.instance_from_specs("product:n=4,m=3", "rs:q=5,n=4,k=2^2"),
            "stream",
        ),
        ComposeCheck(),
        ExpansionScan(),
    )
}


def job_seed(seed: int, index: int) -> int:
    """The first job uses the run's seed; later ones derive theirs from it."""
    if index == 0:
        return seed
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def run_job(workload, seed: int, tracer, reference) -> tuple[dict, object, object]:
    """One set-up, run and serialisation; returns (sample, state, document)."""
    phase = tracer.phase if tracer is not None else lambda name: nullcontext()
    setups = Units(reference, defer=True)
    state = None
    with phase("setup"):
        while True:
            state = None  # release the previous instance before building the next
            state = setups(workload.setup)
            if tracer is not None or sum(setups.raw) >= SETUP_MIN_S or len(setups.raw) >= SETUP_MAX_REPS:
                break
        setups.settle()
    runs = Units(reference)
    with phase("run"):
        document, failed = workload.run(state, seed, runs)
    serialise = Units(reference)
    with phase("serialise"):
        blob = serialise(reports.json_bytes, document)
    sample = {"seed": seed, "traced": tracer is not None}
    for prefix, attr in (("", "raw"), ("scaled_", "scaled")):
        setup_s, run_s, serialise_s = (getattr(units, attr) for units in (setups, runs, serialise))
        sample.update({
            f"{prefix}setup_s": setup_s,
            f"{prefix}run_s": sum(run_s),
            f"{prefix}serialise_s": sum(serialise_s),
            f"{prefix}total_s": statistics.median(setup_s) + sum(run_s) + sum(serialise_s),
        })
    sample.update(items=workload.items, failed=failed, sha256=hashlib.sha256(blob).hexdigest())
    return sample, state, document


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    tracer = tracing.Tracer() if trace else None
    reference = None if trace else Reference(workload.reference)
    jobs = []
    state = first = None
    deadline = time.perf_counter() + seconds
    while not jobs or time.perf_counter() < deadline:
        traced = trace and len(jobs) % 2 == 1
        seed_j = job_seed(seed, len(jobs))
        state = None
        try:
            with tracer.installed() if traced else nullcontext():
                sample, state, document = run_job(workload, seed_j, tracer if traced else None, reference)
        except Exception as exc:  # a job that raises fails all its items; the run goes on
            sample = {"seed": seed_j, "traced": traced, "items": workload.items,
                      "failed": workload.items, "error": repr(exc)}
            document = None
        if not jobs:
            first = document
        jobs.append(sample)
    attempted = sum(j["items"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    digest_ok = None
    if seed == DEFAULT_SEED and DIGESTS[name] is not None:
        digest_ok = jobs[0].get("sha256") == DIGESTS[name]
        if not digest_ok:
            failed += jobs[0]["items"] - jobs[0]["failed"]
    spot_failed = 0
    if first is not None and state is not None:
        try:
            spot_failed = workload.spot_check(state, seed, first)
        except Exception:  # a check that cannot run counts every spot word as failed
            spot_failed = SPOT_WORDS
    out = {
        "workload": name,
        "seed": seed,
        "jobs": jobs,
        "attempted": attempted,
        "failed": failed + spot_failed,
        "digest_ok": digest_ok,
        "spot_failed": spot_failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": np.__version__,
        "reference_s": reference.samples if reference is not None else [],
        "layers": None,
    }
    if trace:
        totals = {True: [], False: []}
        for j in jobs:
            if "error" not in j:
                totals[j["traced"]].append(j["total_s"])
        overhead = 0.0
        if totals[True] and totals[False]:
            overhead = statistics.median(totals[True]) / statistics.median(totals[False])
        out["layers"] = tracer.metrics(max(1, len(totals[True])), overhead)
    return out


def main(argv: list[str]) -> int:
    name, seed, seconds, trace = argv
    print(json.dumps(measure(name, int(seed), float(seconds), trace == "1")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
