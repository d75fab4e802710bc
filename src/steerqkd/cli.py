"""Command-line front end.

Subcommands:

* ``analyze <file>``: full analytic report for one state (JSON).
* ``scan --family <name> --range k=lo:hi:step ... --out <csv>``:
  parameter-region scan producing one CSV row per grid point.
* ``simulate <file> --rounds N --seed S [--test-fraction F]
  [--filter e1,e2]``: protocol simulation report (JSON).
* ``table1 --eps1 X --eps2 Y --alphas a,b,c [--qstep S]``: for each alpha,
  the infimum q above which the filtered state stays useful (CSV).

States are described by JSON files containing either an explicit matrix
(nested rows of [re, im] pairs) or a family name with parameters, e.g.::

    {"family": "werner", "params": {"omega": 0.8}}
    {"matrix": [[[1,0],[0,0],...], ...]}

Exit codes: 0 success, 2 parse/validation error (including a ``simulate``
whose ``--rounds`` cannot fit in memory), 3 numerical failure.
All numeric output is formatted to at most 10 significant digits and rows
use plain "\\n" endings, so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import steering
from .errors import BadRange, NumericalError, ParseError, ValidationError
from .families import _FAMILY_MAKERS, GammaParams, gamma_predicates, scan_rows
from .filtering import FilterPair, useful_q_start
from .protocol import ProtocolConfig, _measured_state, run_protocol
from .qber import (
    classify_usefulness,
    min_secure_key_rate,
    optimal_triads,
    qber_min_two_settings,
)
from .qstate import DensityMatrix, bloch_decompose, tensor_spectrum


def _fmt(x: float) -> str:
    """Fixed 10-significant-digit decimal form used in all numeric output."""
    return format(float(x), ".10g")


def _jsonable(x):
    """Round floats through the output format so JSON output is stable."""
    if isinstance(x, bool):
        return x
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(_fmt(x))
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    return x


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


@dataclass(frozen=True)
class ScanResult:
    """Rectangular numeric scan output: column names plus one row per point."""

    header: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]

    def to_csv(self) -> str:
        lines = [",".join(self.header)]
        lines.extend(",".join(_fmt(v) for v in row) for row in self.rows)
        return "\n".join(lines) + "\n"


def load_state_file(path: str) -> tuple[DensityMatrix, dict]:
    """Parse a state file; returns the state and an echo of its description."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read state file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")
    has_matrix = "matrix" in data
    has_family = "family" in data
    if has_matrix == has_family:
        raise ParseError(f"{path}: exactly one of 'matrix' or 'family' is required")
    if has_matrix:
        return _parse_matrix(path, data["matrix"]), {"matrix": data["matrix"]}
    return _parse_family(path, data), {
        "family": data["family"], "params": data.get("params")}


def _is_number(v) -> bool:
    """JSON numbers only: json.loads gives bool for true/false, and bool is an int."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _parse_matrix(path: str, rows) -> DensityMatrix:
    if not isinstance(rows, list) or len(rows) != 4:
        raise ParseError(f"{path}: 'matrix' must contain 4 rows")
    mat = np.empty((4, 4), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 4:
            raise ParseError(f"{path}: matrix row {i} must contain 4 entries")
        for j, entry in enumerate(row):
            if (not isinstance(entry, list) or len(entry) != 2
                    or not all(_is_number(v) for v in entry)):
                raise ParseError(
                    f"{path}: matrix[{i}][{j}] must be a [re, im] number pair")
            mat[i, j] = complex(entry[0], entry[1])
    return DensityMatrix(mat)


def _parse_family(path: str, data: dict) -> DensityMatrix:
    name = data["family"]
    if name not in _FAMILY_MAKERS:
        raise ParseError(
            f"{path}: unknown family {name!r}; expected one of "
            f"{sorted(_FAMILY_MAKERS)}")
    params_cls, maker, fields = _FAMILY_MAKERS[name]
    params = data.get("params")
    if not isinstance(params, dict):
        raise ParseError(f"{path}: family state needs a 'params' object")
    if set(params) != set(fields):
        raise ParseError(
            f"{path}: family {name!r} needs exactly the parameters "
            f"{list(fields)}, got {sorted(params)}")
    values = {}
    for key in fields:
        if not _is_number(params[key]):
            raise ParseError(f"{path}: params.{key} must be a number")
        values[key] = float(params[key])
    return maker(params_cls(**values))


def analyze_report(rho: DensityMatrix, echo: dict) -> dict:
    bf = bloch_decompose(rho)
    spec = tensor_spectrum(bf)
    uv = classify_usefulness(spec)
    return {
        "input": echo,
        "bloch": {"a_vec": bf.a_vec, "b_vec": bf.b_vec, "w": bf.w},
        "spectrum": {"sigma": list(spec.sigma), "signed": list(spec.signed)},
        "steering": asdict(steering.verdict(spec)),
        "qber": {
            "q_min": uv.q_min,
            "q_min_two_settings": qber_min_two_settings(spec),
            "critical_rate": uv.critical_rate,
            "margin": uv.margin,
            "useful": uv.useful,
            "key_rate_at_q_min": min_secure_key_rate(uv.q_min),
        },
    }


def cmd_analyze(args: argparse.Namespace) -> int:
    rho, echo = load_state_file(args.state_file)
    report = analyze_report(rho, echo)
    _emit(json.dumps(_jsonable(report), indent=2) + "\n", args.out)
    return 0


def _parse_range(text: str) -> tuple[str, float, float, float]:
    try:
        key, _, rest = text.partition("=")
        lo_s, hi_s, step_s = rest.split(":")
        lo, hi, step = float(lo_s), float(hi_s), float(step_s)
    except ValueError as exc:
        raise BadRange(f"range {text!r} is not of the form k=lo:hi:step") from exc
    if not key:
        raise BadRange(f"range {text!r} is missing a parameter name")
    return key, lo, hi, step


def scan_result(family: str, range_args: list[str]) -> ScanResult:
    """Parse ``k=lo:hi:step`` range arguments and evaluate the scan grid."""
    return ScanResult(*scan_rows(family, [_parse_range(r) for r in range_args]))


def cmd_scan(args: argparse.Namespace) -> int:
    result = scan_result(args.family, args.range)
    _emit(result.to_csv(), args.out)
    return 0


def _parse_filter(text: str) -> FilterPair:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"--filter expects 'e1,e2', got {text!r}")
    try:
        e1, e2 = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ParseError(f"--filter expects numbers, got {text!r}") from exc
    return FilterPair(e1, e2)


def cmd_simulate(args: argparse.Namespace) -> int:
    rho, echo = load_state_file(args.state_file)
    filter_pair = _parse_filter(args.filter) if args.filter else None
    measured, _ = _measured_state(rho, filter_pair)
    alice, bob = optimal_triads(bloch_decompose(measured))
    cfg = ProtocolConfig(
        rounds=args.rounds,
        seed=args.seed,
        alice_triad=alice,
        bob_triad=bob,
        test_fraction=args.test_fraction,
        filter=filter_pair,
    )
    report = run_protocol(rho, cfg)
    payload = {
        "input": echo,
        "config": {
            "rounds": cfg.rounds,
            "seed": cfg.seed,
            "test_fraction": cfg.test_fraction,
            "filter": None if filter_pair is None else [filter_pair.eps1,
                                                        filter_pair.eps2],
            "alice_triad": cfg.alice_triad.dirs,
            "bob_triad": cfg.bob_triad.dirs,
        },
        "report": {
            "sifted_count": report.sifted_count,
            "disclosed_count": report.disclosed_count,
            "empirical_qber": report.empirical_qber,
            "empirical_cjwr": report.empirical_cjwr,
            "correlators": list(report.correlators),
            "key_count_by_basis": list(report.key_count_by_basis),
            "key_mismatch_by_basis": list(report.key_mismatch_by_basis),
            "p_succ_empirical": report.p_succ_empirical,
            # uint8 bits + 48 are the ASCII digits '0' and '1'
            "raw_key_alice": (report.raw_key_alice + 48).tobytes().decode("ascii"),
            "raw_key_bob": (report.raw_key_bob + 48).tobytes().decode("ascii"),
        },
    }
    _emit(json.dumps(_jsonable(payload), indent=2) + "\n", args.out)
    return 0


def table1_result(eps1: float, eps2: float, alphas: list[float],
                  q_step: float) -> ScanResult:
    filter_pair = FilterPair(eps1, eps2)
    rows = []
    for alpha in alphas:
        q_start = useful_q_start(alpha, filter_pair, q_step)
        if q_start is None:
            rows.append((alpha, math.nan, math.nan, math.nan))
            continue
        steer = gamma_predicates(GammaParams(q=q_start, alpha=alpha)).steerable
        rows.append((alpha, q_start, 1.0, float(steer)))
    return ScanResult(
        header=("alpha", "q_start", "q_end", "steerable_at_start"),
        rows=tuple(rows),
    )


def cmd_table1(args: argparse.Namespace) -> int:
    try:
        alphas = [float(a) for a in args.alphas.split(",") if a.strip() != ""]
    except ValueError as exc:
        raise ParseError("--alphas expects comma-separated numbers") from exc
    if not alphas:
        raise ParseError("--alphas needs at least one value")
    result = table1_result(args.eps1, args.eps2, alphas, args.qstep)
    _emit(result.to_csv(), args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    in it, since every ``parse_args`` fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="steerqkd",
        description="Two-qubit steering analysis and QKD protocol simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analytic report for one state")
    p_analyze.add_argument("state_file")
    p_analyze.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p_analyze.set_defaults(func=cmd_analyze)

    p_scan = sub.add_parser("scan", help="parameter-region scan to CSV")
    p_scan.add_argument("--family", required=True,
                        choices=sorted(_FAMILY_MAKERS))
    p_scan.add_argument("--range", action="append", required=True,
                        metavar="k=lo:hi:step",
                        help="one per family parameter; outermost first")
    p_scan.add_argument("--out", required=True, help="output CSV path")
    p_scan.set_defaults(func=cmd_scan)

    p_sim = sub.add_parser("simulate", help="run the protocol simulation")
    p_sim.add_argument("state_file")
    p_sim.add_argument("--rounds", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--test-fraction", type=float, default=0.1,
                       dest="test_fraction")
    p_sim.add_argument("--filter", default=None, metavar="e1,e2",
                       help="apply local filters with these strengths")
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_t1 = sub.add_parser("table1", help="useful filtered-q ranges per alpha")
    p_t1.add_argument("--eps1", type=float, required=True)
    p_t1.add_argument("--eps2", type=float, required=True)
    p_t1.add_argument("--alphas", required=True, metavar="a,b,c")
    p_t1.add_argument("--qstep", type=float, default=0.01)
    p_t1.add_argument("--out", default=None)
    p_t1.set_defaults(func=cmd_table1)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
