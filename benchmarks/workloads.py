"""Seeded inputs for the benchmark workloads.

Every input a call receives (state files, scan ranges, simulation seeds,
filters, alphas) is drawn from ``numpy.random.default_rng([seed, index])``,
so the same workload seed always yields the same sequence of calls, however
many of them a run gets through.

Each workload holds the work per call near a fixed budget while the seed
varies *which* inputs are used.  A call's latency then depends on the code,
not on how large the draw happened to be, which keeps the median and tail
latencies steady from seed to seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from steerqkd import families
from steerqkd.qstate import DensityMatrix

WORKLOADS = ("scan_grid", "simulate", "filter_onset")

#: Marks the work directory inside ``Call.argv``; see :meth:`Call.materialize`.
WORK = "{work}"

SQRT3 = math.sqrt(3.0)
QUARTER_PI = math.pi / 4.0

# scan_grid: grid points per call (gamma grids and simplex grids, after
# their skipped points, land within +-SCAN_SLACK).
SCAN_POINTS = 200
SCAN_SLACK = 4

# simulate: rounds per call, and the heralding probability band of the
# filtered calls (they keep few rounds and emit short keys).
SIM_ROUNDS = 1_000_000
P_SUCC_BAND = (0.02, 0.2)

# filter_onset: q grid step and the number of modified_protocol_useful
# probes per call, shared among the call's 1-4 alphas.
ONSET_QSTEP = 0.01
ONSET_PROBES = 90
ONSET_TOL = 1e-3


@dataclass(frozen=True)
class Call:
    """One ``steerqkd.cli.main`` invocation and what its check needs.

    ``argv`` may contain :data:`WORK`, replaced by the work directory when
    the call is materialised.  ``files`` are (name, text) pairs written to
    the work directory first.  ``out_name`` is the file the call writes, or
    None when it writes to stdout.  ``work`` counts the call's units of
    work: grid points, rounds or onset rows.
    """

    workload: str
    index: int
    argv: tuple[str, ...]
    work: int
    spec: dict
    files: tuple[tuple[str, str], ...] = ()
    out_name: str | None = None

    def materialize(self, work_dir: str) -> list[str]:
        """Write the call's input files and return its argv."""
        for name, text in self.files:
            with open(f"{work_dir}/{name}", "w") as fh:
                fh.write(text)
        return [a.replace(WORK, work_dir) for a in self.argv]


def make_call(workload: str, seed: int, index: int) -> Call:
    """The ``index``-th call of ``workload`` under workload seed ``seed``."""
    rng = np.random.default_rng([seed, index])
    if workload == "scan_grid":
        return _scan_call(rng, index)
    if workload == "simulate":
        return _simulate_call(rng, index)
    if workload == "filter_onset":
        block = np.random.default_rng([seed, index // 4, 4])
        n_alphas = int(block.permutation([1, 2, 3, 4])[index % 4])
        return _onset_call(rng, index, n_alphas)
    raise ValueError(f"unknown workload {workload!r}")


def warmup_call(workload: str) -> Call:
    """A small call along the same code path, made before timing starts."""
    if workload == "scan_grid":
        return Call(workload, -1, (
            "scan", "--family", "gamma", "--range", "q=0:1:0.5",
            "--range", "alpha=0:0.7:0.35", "--out", f"{WORK}/warmup.csv"),
            work=9, spec={}, out_name="warmup.csv")
    if workload == "simulate":
        state = {"family": "werner", "params": {"omega": 0.8}}
        return Call(workload, -1, (
            "simulate", f"{WORK}/warmup.json", "--rounds", "1000", "--seed", "1",
            "--filter", "0.5,0.5"), work=1000, spec={},
            files=(("warmup.json", json.dumps(state)),))
    if workload == "filter_onset":
        return Call(workload, -1, (
            "table1", "--eps1", "0.3", "--eps2", "0.3", "--alphas", "0.7",
            "--qstep", "0.5"), work=1, spec={})
    raise ValueError(f"unknown workload {workload!r}")


# --- scan_grid -------------------------------------------------------------

def grid(lo: float, hi: float, step: float) -> list[float]:
    """The points ``scan`` visits for ``lo:hi:step`` (inclusive of ``hi``)."""
    count = int(math.floor((hi - lo) / step + 1e-9))
    return [min(lo + i * step, hi) for i in range(count + 1)]


def simplex_points(g1, g2, g3) -> list[tuple[float, float, float]]:
    """Grid points a Bell-diagonal scan keeps (w4 = 1 - w1 - w2 - w3 >= 0)."""
    return [(a, b, c) for a in g1 for b in g2 for c in g3
            if 1.0 - (a + b + c) >= -1e-9]


def _axis(rng, n: int, lo_max: float, span_lo: float, dom_hi: float):
    """A range of ``n`` points starting at or below ``lo_max`` within the domain."""
    lo = round(float(rng.uniform(0.0, lo_max)), 4)
    span = float(rng.uniform(span_lo, 1.0)) * (dom_hi - lo)
    step = math.floor(span / (n - 1) * 1e6) / 1e6
    return lo, lo + step * (n - 1), step


def _range_arg(name: str, lo: float, hi: float, step: float) -> str:
    return f"{name}={lo!r}:{hi!r}:{step!r}"


def _scan_call(rng, index: int) -> Call:
    out = "scan.csv"
    if index % 2 == 0:
        shapes = [(nq, round(SCAN_POINTS / nq)) for nq in range(10, 51)]
        shapes = [s for s in shapes if abs(s[0] * s[1] - SCAN_POINTS) <= SCAN_SLACK]
        n_q, n_a = shapes[int(rng.integers(len(shapes)))]
        q = _axis(rng, n_q, 0.5, 0.3, 1.0)
        alpha = _axis(rng, n_a, 0.3, 0.3, QUARTER_PI)
        ranges = {"q": q, "alpha": alpha}
        work = len(grid(*q)) * len(grid(*alpha))
    else:
        while True:
            n1, n2 = (int(x) for x in rng.integers(6, 15, size=2))
            w1 = _axis(rng, n1, 0.25, 0.6, 1.0)
            w2 = _axis(rng, n2, 0.25, 0.6, 1.0)
            lo3 = round(float(rng.uniform(0.0, 0.25)), 4)
            hi3 = float(rng.uniform(0.6, 1.0))
            pair_sums = np.add.outer(grid(*w1), grid(*w2))
            best = None
            for n3 in range(3, 80):
                step3 = math.floor((hi3 - lo3) / (n3 - 1) * 1e6) / 1e6
                w3 = (lo3, lo3 + step3 * (n3 - 1), step3)
                sums = np.add.outer(pair_sums, grid(*w3))
                kept = int(np.count_nonzero(1.0 - sums >= -1e-9))
                if best is None or abs(kept - SCAN_POINTS) < abs(best[0] - SCAN_POINTS):
                    best = (kept, w3)
            if abs(best[0] - SCAN_POINTS) <= SCAN_SLACK:
                break
        ranges = {"w1": w1, "w2": w2, "w3": best[1]}
        work = best[0]
    argv = ["scan", "--family", "gamma" if index % 2 == 0 else "bell_diagonal"]
    for name, rng_args in ranges.items():
        argv += ["--range", _range_arg(name, *rng_args)]
    argv += ["--out", f"{WORK}/{out}"]
    return Call("scan_grid", index, tuple(argv), work=work,
                spec={"family": argv[2], "ranges": ranges}, out_name=out)


# --- simulate --------------------------------------------------------------

def _random_state(rng, kind: str) -> dict:
    """A state-file description; ``matrix`` states are random full-rank mixtures."""
    if kind == "werner":
        return {"family": "werner",
                "params": {"omega": round(float(rng.uniform(0.3, 0.95)), 6)}}
    if kind == "gamma":
        return {"family": "gamma", "params": {
            "q": round(float(rng.uniform(0.2, 0.95)), 6),
            "alpha": round(float(rng.uniform(0.05, QUARTER_PI - 0.01)), 6)}}
    if kind == "bell_diagonal":
        w = [round(float(x), 6) for x in rng.dirichlet([1.0, 1.0, 1.0, 1.0])[:3]]
        w.append(1.0 - w[0] - w[1] - w[2])
        if w[3] < 0.0:
            w[3] = 0.0
            w[2] = 1.0 - w[0] - w[1]
        return {"family": "bell_diagonal",
                "params": dict(zip(("w1", "w2", "w3", "w4"), w))}
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    rho = (rho + rho.conj().T) / 2.0
    return {"matrix": [[[float(z.real), float(z.imag)] for z in row] for row in rho]}


def state_matrix(desc: dict) -> DensityMatrix:
    """The density matrix a state description stands for (via the library)."""
    if "matrix" in desc:
        return DensityMatrix(np.array(
            [[complex(re, im) for re, im in row] for row in desc["matrix"]]))
    makers = {
        "werner": (families.WernerParams, families.make_werner),
        "gamma": (families.GammaParams, families.make_gamma),
        "bell_diagonal": (families.BellDiagonalParams, families.make_bell_diagonal),
    }
    params_cls, maker = makers[desc["family"]]
    return maker(params_cls(**desc["params"]))


def _success_probability(desc: dict, e1: float, e2: float) -> float:
    m = np.diag([e1 * e2, e1, e2, 1.0])
    return float(np.trace(m @ state_matrix(desc).matrix @ m).real)


def _simulate_call(rng, index: int) -> Call:
    kind = ("werner", "gamma", "bell_diagonal", "matrix")[index % 4]
    filtered = index % 3 == 2
    state = _random_state(rng, kind)
    filt = None
    while filtered and filt is None:
        e1, e2 = (round(float(x), 4) for x in rng.uniform(0.05, 0.6, size=2))
        if P_SUCC_BAND[0] <= _success_probability(state, e1, e2) <= P_SUCC_BAND[1]:
            filt = (e1, e2)
        else:
            state = _random_state(rng, kind)
    seed = int(rng.integers(0, 2 ** 63))
    argv = ["simulate", f"{WORK}/state.json", "--rounds", str(SIM_ROUNDS),
            "--seed", str(seed)]
    if filt is not None:
        argv += ["--filter", f"{filt[0]!r},{filt[1]!r}"]
    return Call("simulate", index, tuple(argv), work=SIM_ROUNDS,
                spec={"state": state, "filter": filt, "seed": seed},
                files=(("state.json", json.dumps(state)),))


# --- filter_onset ----------------------------------------------------------

def onset_threshold(alpha, e1: float, e2: float):
    """Closed-form onset q* of a filtered gamma state (inf when none exists).

    The filters map gamma(q, alpha) to gamma(q', alpha') with
    q' = q n2 / (q n2 + (1-q) E), s = sin 2a' = e1 e2 sin 2a / n2,
    n2 = e1^2 sin^2 a + e2^2 cos^2 a and E = e1^2 e2^2.  The image is useful
    iff 2 q' s + |1 - 2q'| > sqrt(3), that is iff q' > t = (1 + sqrt 3)/(2 (1 + s)),
    which pulls back to q > t E / (n2 (1 - t) + t E).  Accepts arrays.
    """
    n2 = (e1 * np.sin(alpha)) ** 2 + (e2 * np.cos(alpha)) ** 2
    e = (e1 * e2) ** 2
    t = (1.0 + SQRT3) / (2.0 * (1.0 + e1 * e2 * np.sin(2.0 * alpha) / n2))
    return np.where(t < 1.0, t * e / (n2 * (1.0 - t) + t * e), np.inf)


def onset_probes(alpha: float, e1: float, e2: float) -> int:
    """Probes ``table1`` makes for one alpha: its grid walk plus bisection."""
    q_star = float(onset_threshold(alpha, e1, e2))
    probes = 0

    def useful(q: float) -> bool:
        nonlocal probes
        probes += 1
        return q > q_star

    count = int(math.floor(1.0 / ONSET_QSTEP + 1e-9))
    qs = [min((i + 1) * ONSET_QSTEP, 1.0) for i in range(count)]
    if not useful(qs[-1]):
        return probes
    i = len(qs) - 1
    while i > 0 and useful(qs[i - 1]):
        i -= 1
    q_true, q_false = qs[i], qs[i - 1] if i > 0 else 0.0
    while q_true - q_false > ONSET_TOL:
        mid = 0.5 * (q_true + q_false)
        if useful(mid):
            q_true = mid
        else:
            q_false = mid
    return probes


def _onset_call(rng, index: int, n_alphas: int) -> Call:
    targets = [ONSET_PROBES // n_alphas + (j < ONSET_PROBES % n_alphas)
               for j in range(n_alphas)]
    while True:
        e1, e2 = (round(float(x), 4) for x in rng.uniform(0.05, 0.6, size=2))
        candidates = np.round(rng.uniform(0.0, QUARTER_PI, size=512), 5)
        q_star = onset_threshold(candidates, e1, e2)
        alphas = []
        for target in targets:
            # table1 walks the q grid down from 1, so an onset in
            # (k qstep, (k+1) qstep) costs 105 - k probes at qstep 0.01.
            k = 105 - target
            window = (q_star > k * ONSET_QSTEP) & (q_star < (k + 1) * ONSET_QSTEP)
            hit = next((float(a) for a in candidates[window] if a not in alphas
                        and onset_probes(float(a), e1, e2) == target), None)
            if hit is None:
                break
            alphas.append(hit)
        if len(alphas) == n_alphas:
            break
    argv = ("table1", "--eps1", repr(e1), "--eps2", repr(e2),
            "--alphas", ",".join(repr(a) for a in alphas),
            "--qstep", repr(ONSET_QSTEP))
    return Call("filter_onset", index, argv, work=n_alphas,
                spec={"eps1": e1, "eps2": e2, "alphas": alphas})
