"""Output checks for benchmark calls, run outside the timed region.

Each check recomputes what a call's output must say from library functions
that the CLI path under test does not use for that output (closed-form
family predicates, the Bell-diagonal weight formulas, the analytic error
rate of the measured state), and returns a one-line reason on mismatch or
None when the output is right.
"""

from __future__ import annotations

import json
import math

import numpy as np

from steerqkd import families, steering
from steerqkd.filtering import FilterPair, apply_local_filters, modified_protocol_useful
from steerqkd.qber import qber_three_settings
from steerqkd.qstate import MeasurementTriad, bloch_decompose

import workloads

#: Numeric output carries 10 significant digits; values here are <= 2 sqrt 2.
VALUE_TOL = 1e-9
#: Verdict flags are not compared this close to their strict thresholds.
TIE_TOL = 1e-9
#: Simulation estimates must sit within this many binomial standard errors.
Z_LIMIT = 5.0

SCAN_COLUMNS = ("f3_bound", "chsh_bound", "q_min", "steerable", "useful",
                "chsh_violating")


def check(call: workloads.Call, output: bytes) -> str | None:
    """Reason the output of ``call`` is wrong, or None when it is right."""
    try:
        text = output.decode("ascii")
        if call.workload == "scan_grid":
            return _check_scan(call.spec, text)
        if call.workload == "simulate":
            return _check_simulate(call.spec, text)
        return _check_onset(call.spec, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"


def _csv_rows(text: str) -> tuple[list[str], list[list[float]]]:
    if not text.endswith("\n"):
        raise ValueError("output does not end with a newline")
    lines = text[:-1].split("\n")
    return lines[0].split(","), [[float(v) for v in ln.split(",")] for ln in lines[1:]]


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= VALUE_TOL


def _expected_scan_row(family: str, point: tuple[float, ...]):
    """Closed-form (extra params, values, flags with their tie distances)."""
    if family == "gamma":
        params = families.GammaParams(*point)
        sigma = sorted(np.abs(families.gamma_correlation_diag(params)), reverse=True)
        pred = families.gamma_predicates(params)
        extra, tail = (), ()
    else:
        w4 = max(1.0 - sum(point), 0.0)
        params = families.BellDiagonalParams(*point, w4)
        sigma = sorted(np.abs(families.belldiag_reference_triple(params)), reverse=True)
        pred = families.belldiag_predicates(params)
        abs_chsh = steering.belldiag_absolute_chsh_value(params.weights)
        extra = (w4,)
        tail = ((float(abs_chsh <= 0.5), abs(abs_chsh - 0.5)),)
    sq = [s * s for s in sigma]
    values = (math.sqrt(sum(sq)), 2.0 * math.sqrt(sq[0] + sq[1]), (3.0 - sum(sigma)) / 6.0)
    flags = ((float(pred.steerable), abs(sum(sq) - 1.0)),
             (float(pred.useful), abs(sum(sigma) - math.sqrt(3.0))),
             (float(sq[0] + sq[1] > 1.0), abs(sq[0] + sq[1] - 1.0))) + tail
    return extra, values, flags


def _check_scan(spec: dict, text: str) -> str | None:
    family, ranges = spec["family"], spec["ranges"]
    names = list(ranges)
    grids = [workloads.grid(*ranges[n]) for n in names]
    if family == "gamma":
        points = [(a, b) for a in grids[0] for b in grids[1]]
        header = [*names, *SCAN_COLUMNS]
    else:
        points = workloads.simplex_points(*grids)
        header = [*names, "w4", *SCAN_COLUMNS, "absolutely_local"]
    got_header, rows = _csv_rows(text)
    if got_header != header:
        return f"header {got_header} != {header}"
    if len(rows) != len(points):
        return f"{len(rows)} rows for {len(points)} grid points"
    for r, (row, point) in enumerate(zip(rows, points)):
        extra, values, flags = _expected_scan_row(family, point)
        if len(row) != len(header):
            return f"row {r} has {len(row)} columns"
        expect = (*point, *extra, *values)
        for c, want in enumerate(expect):
            if not _close(row[c], want):
                return f"row {r} column {header[c]}: {row[c]!r} != {want!r}"
        for c, (want, tie) in enumerate(flags, start=len(expect)):
            if tie > TIE_TOL and row[c] != want:
                return f"row {r} flag {header[c]}: {row[c]!r} != {want!r}"
    return None


def _within(got: float, p: float, n: int) -> bool:
    return abs(got - p) <= Z_LIMIT * math.sqrt(p * (1.0 - p) / n) + 1e-12


def _check_simulate(spec: dict, text: str) -> str | None:
    data = json.loads(text)
    cfg, rep = data["config"], data["report"]
    filt = spec["filter"]
    if (cfg["rounds"] != workloads.SIM_ROUNDS or cfg["seed"] != spec["seed"]
            or cfg["filter"] != (None if filt is None else list(filt))):
        return f"config echo {cfg['rounds']}, {cfg['seed']}, {cfg['filter']} is wrong"
    key_a, key_b = rep["raw_key_alice"], rep["raw_key_bob"]
    kept_key = sum(rep["key_count_by_basis"])
    if rep["sifted_count"] != rep["disclosed_count"] + kept_key:
        return "sifted != disclosed + key bits"
    if rep["disclosed_count"] != math.ceil(cfg["test_fraction"] * rep["sifted_count"]):
        return "disclosed count is not the test fraction of the sifted rounds"
    if len(key_a) != kept_key or len(key_b) != kept_key:
        return f"key lengths {len(key_a)}, {len(key_b)} != {kept_key}"
    bits_a = np.frombuffer(key_a.encode("ascii"), dtype=np.uint8)
    bits_b = np.frombuffer(key_b.encode("ascii"), dtype=np.uint8)
    if np.any((bits_a | 1) != ord("1")) or np.any((bits_b | 1) != ord("1")):
        return "key holds characters other than 0 and 1"
    if int(np.count_nonzero(bits_a != bits_b)) != sum(rep["key_mismatch_by_basis"]):
        return "key mismatches disagree with key_mismatch_by_basis"

    rho = workloads.state_matrix(spec["state"])
    if filt is None:
        measured = rho
    else:
        outcome = apply_local_filters(rho, FilterPair(*filt))
        measured = outcome.filtered_state
        if not _within(rep["p_succ_empirical"], outcome.p_succ, workloads.SIM_ROUNDS):
            return f"p_succ_empirical {rep['p_succ_empirical']} vs {outcome.p_succ}"
    q = qber_three_settings(bloch_decompose(measured),
                            MeasurementTriad(cfg["alice_triad"]),
                            MeasurementTriad(cfg["bob_triad"]))
    if not _within(rep["empirical_qber"], q, rep["disclosed_count"]):
        return f"empirical_qber {rep['empirical_qber']} vs analytic {q}"
    return None


def _check_onset(spec: dict, text: str) -> str | None:
    header, rows = _csv_rows(text)
    if header != ["alpha", "q_start", "q_end", "steerable_at_start"]:
        return f"header {header} is wrong"
    alphas = spec["alphas"]
    if len(rows) != len(alphas):
        return f"{len(rows)} rows for {len(alphas)} alphas"
    pair = FilterPair(spec["eps1"], spec["eps2"])

    def useful(q: float, alpha: float) -> bool:
        return modified_protocol_useful(
            families.make_gamma(families.GammaParams(q, alpha)), pair)

    for (alpha, q_start, q_end, steer), want_alpha in zip(rows, alphas):
        if not _close(alpha, want_alpha) or q_end != 1.0:
            return f"row for alpha {want_alpha}: alpha {alpha}, q_end {q_end}"
        if not useful(q_start, want_alpha):
            return f"alpha {want_alpha}: not useful at q_start {q_start}"
        if q_start >= workloads.ONSET_TOL and useful(q_start - workloads.ONSET_TOL,
                                                     want_alpha):
            return f"alpha {want_alpha}: still useful 1e-3 below q_start {q_start}"
        params = families.GammaParams(q_start, want_alpha)
        s2a = math.sin(2.0 * want_alpha)
        tie = abs(2.0 * q_start ** 2 * s2a ** 2 + (1.0 - 2.0 * q_start) ** 2 - 1.0)
        if tie > TIE_TOL and steer != float(families.gamma_predicates(params).steerable):
            return f"alpha {want_alpha}: steerable_at_start {steer} is wrong"
    return None
