import json
import math
import subprocess
import sys

import numpy as np
import pytest

from steerqkd import (
    DensityMatrix,
    FilterPair,
    MeasurementTriad,
    bloch_decompose,
    make_gamma,
    make_werner,
    qber_three_settings,
)
from steerqkd import protocol
from steerqkd.cli import (
    ScanResult,
    build_parser,
    load_state_file,
    main,
    scan_result,
    table1_result,
)
from steerqkd.errors import BadRange, ParseError
from steerqkd.families import GammaParams, WernerParams
from steerqkd.filtering import apply_local_filters, useful_q_start

SQRT3 = math.sqrt(3.0)


def write_state(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def matrix_payload(mat):
    return {"matrix": [[[z.real, z.imag] for z in row] for row in mat]}


class TestStateFiles:
    def test_family_file(self, tmp_path):
        path = write_state(tmp_path, "w.json",
                           {"family": "werner", "params": {"omega": 0.8}})
        rho, echo = load_state_file(path)
        assert rho.isclose(make_werner(WernerParams(0.8)))
        assert echo["family"] == "werner"

    def test_matrix_file(self, tmp_path):
        want = make_werner(WernerParams(0.6))
        path = write_state(tmp_path, "m.json", matrix_payload(want.matrix))
        rho, _ = load_state_file(path)
        assert rho.isclose(want, tol=1e-10)

    def test_rejects_unknown_family(self, tmp_path):
        path = write_state(tmp_path, "bad.json", {"family": "ghz", "params": {}})
        assert main(["analyze", path]) == 2

    def test_rejects_wrong_param_names(self, tmp_path):
        path = write_state(tmp_path, "bad.json",
                           {"family": "werner", "params": {"w": 0.5}})
        assert main(["analyze", path]) == 2

    def test_rejects_matrix_and_family_together(self, tmp_path):
        payload = matrix_payload(np.eye(4) / 4)
        payload["family"] = "werner"
        payload["params"] = {"omega": 0.5}
        path = write_state(tmp_path, "bad.json", payload)
        assert main(["analyze", path]) == 2

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["analyze", str(path)]) == 2

    def test_rejects_unphysical_matrix(self, tmp_path):
        path = write_state(tmp_path, "bad.json",
                           matrix_payload(np.diag([1.2, -0.2, 0.0, 0.0])))
        assert main(["analyze", str(path)]) == 2

    def test_missing_file(self):
        assert main(["analyze", "/nonexistent/state.json"]) == 2

    def test_rejects_boolean_param(self, tmp_path):
        path = write_state(tmp_path, "bad.json",
                           {"family": "werner", "params": {"omega": True}})
        with pytest.raises(ParseError):
            load_state_file(path)
        assert main(["analyze", path]) == 2

    def test_rejects_boolean_matrix_entry(self, tmp_path):
        payload = matrix_payload(np.diag([1.0, 0.0, 0.0, 0.0]))
        payload["matrix"][0][0] = [True, 0.0]
        path = write_state(tmp_path, "bad.json", payload)
        with pytest.raises(ParseError):
            load_state_file(path)
        assert main(["analyze", path]) == 2


class TestAnalyze:
    def test_werner_report_values(self, tmp_path, capsys):
        path = write_state(tmp_path, "w.json",
                           {"family": "werner", "params": {"omega": 0.8}})
        assert main(["analyze", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["steering"]["f3_bound"] == pytest.approx(SQRT3 * 0.8, abs=1e-9)
        assert report["steering"]["steerable"] is True
        assert report["qber"]["q_min"] == pytest.approx(0.1, abs=1e-9)
        assert report["qber"]["useful"] is True
        assert report["qber"]["critical_rate"] == pytest.approx((3 - SQRT3) / 6,
                                                                abs=1e-9)

    def test_matrix_roundtrip_matches_family(self, tmp_path, capsys):
        fam = write_state(tmp_path, "f.json",
                          {"family": "werner", "params": {"omega": 0.42}})
        mat = write_state(tmp_path, "m.json",
                          matrix_payload(make_werner(WernerParams(0.42)).matrix))
        main(["analyze", fam])
        rep1 = json.loads(capsys.readouterr().out)
        main(["analyze", mat])
        rep2 = json.loads(capsys.readouterr().out)
        assert rep1["spectrum"] == rep2["spectrum"]
        assert rep1["steering"] == rep2["steering"]
        assert rep1["qber"] == rep2["qber"]

    def test_admits_extreme_admitted_state(self, tmp_path, capsys):
        # eigenvalue -1e-9 sits on the PSD gate; b_z and w_zz are 1 + 2e-9
        mat = np.diag([1.0 + 1e-9, -1e-9, 0.0, 0.0])
        path = write_state(tmp_path, "edge.json", matrix_payload(mat))
        assert main(["analyze", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["spectrum"]["sigma"][0] == pytest.approx(1.0, abs=1e-8)

    def test_out_file(self, tmp_path):
        path = write_state(tmp_path, "w.json",
                           {"family": "werner", "params": {"omega": 0.3}})
        out = tmp_path / "report.json"
        assert main(["analyze", path, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["input"]["family"] == "werner"


class TestScan:
    def test_werner_row_values(self):
        res = scan_result("werner", ["omega=0:1:0.5"])
        assert res.header[0] == "omega"
        assert [r[0] for r in res.rows] == [0.0, 0.5, 1.0]
        # omega=0.5 row: f3 = sqrt(3)/2, not steerable, not useful
        row = dict(zip(res.header, res.rows[1]))
        assert row["f3_bound"] == pytest.approx(SQRT3 / 2, abs=1e-9)
        assert row["steerable"] == 0.0
        assert row["useful"] == 0.0

    def test_gamma_grid_size(self):
        res = scan_result("gamma", ["q=0:1:0.5", "alpha=0:0.7:0.35"])
        assert len(res.rows) == 9

    def test_bell_diagonal_skips_invalid_corner(self):
        res = scan_result("bell_diagonal",
                          ["w1=0:1:0.5", "w2=0:1:0.5", "w3=0:1:0.5"])
        for row in res.rows:
            w = row[:4]
            assert min(w) >= -1e-9
            assert sum(w) == pytest.approx(1.0, abs=1e-9)

    def test_bell_diagonal_skip_matches_weight_tolerance(self, tmp_path):
        # w4 = -5e-10 lies outside the simplex tolerance: skipped, not an error
        out = tmp_path / "scan.csv"
        assert main(["scan", "--family", "bell_diagonal",
                     "--range", "w1=0.5000000005:0.5000000005:0.1",
                     "--range", "w2=0.5:0.5:0.1", "--range", "w3=0:0:0.1",
                     "--out", str(out)]) == 0
        assert out.read_text().count("\n") == 1
        assert out.read_text().startswith("w1,w2,w3,w4,")

    def test_rejects_unknown_key(self):
        from steerqkd.errors import BadRange
        with pytest.raises(BadRange):
            scan_result("werner", ["omega=0:1:0.5", "q=0:1:0.5"])

    def test_rejects_bad_step(self, tmp_path):
        out = str(tmp_path / "scan.csv")
        assert main(["scan", "--family", "werner",
                     "--range", "omega=0:1:0", "--out", out]) == 2

    def test_rejects_domain_violation(self, tmp_path):
        out = str(tmp_path / "scan.csv")
        assert main(["scan", "--family", "werner",
                     "--range", "omega=0:2:0.5", "--out", out]) == 2

    @pytest.mark.parametrize("family, fixed, key, edge, past", [
        ("werner", [], "omega", "1", "1.0000000000001"),
        ("gamma", ["q=0:1:0.5"], "alpha", repr(math.pi / 4), "0.785398163397449"),
    ])
    def test_domain_edge_is_strict(self, tmp_path, family, fixed, key, edge, past):
        out = str(tmp_path / "scan.csv")
        argv = ["scan", "--family", family, "--out", out]
        for r in fixed:
            argv += ["--range", r]
        assert main(argv + ["--range", f"{key}=0:{edge}:{edge}"]) == 0
        with pytest.raises(BadRange, match="must stay within"):
            scan_result(family, [*fixed, f"{key}=0:{past}:{past}"])

    def test_csv_ends_with_newline(self):
        res = scan_result("werner", ["omega=0:1:0.5"])
        text = res.to_csv()
        assert text.endswith("\n")
        assert "\r" not in text


class TestSimulate:
    def test_report_shape(self, tmp_path, capsys):
        path = write_state(tmp_path, "w.json",
                           {"family": "werner", "params": {"omega": 0.8}})
        code = main(["simulate", path, "--rounds", "3000", "--seed", "7"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["rounds"] == 3000
        assert doc["config"]["seed"] == 7
        assert doc["config"]["filter"] is None
        assert doc["report"]["p_succ_empirical"] is None
        assert len(doc["report"]["raw_key_alice"]) == (
            doc["report"]["sifted_count"] - doc["report"]["disclosed_count"])

    def test_filter_argument(self, tmp_path, capsys):
        path = write_state(tmp_path, "g.json",
                           {"family": "gamma", "params": {"q": 0.9, "alpha": 0.25}})
        code = main(["simulate", path, "--rounds", "30000", "--seed", "11",
                     "--filter", "0.3,0.25"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["filter"] == [0.3, 0.25]
        assert doc["report"]["p_succ_empirical"] is not None

    def test_bad_filter_spec(self, tmp_path):
        path = write_state(tmp_path, "w.json",
                           {"family": "werner", "params": {"omega": 0.8}})
        assert main(["simulate", path, "--rounds", "100", "--seed", "1",
                     "--filter", "0.3"]) == 2
        assert main(["simulate", path, "--rounds", "100", "--seed", "1",
                     "--filter", "0.3,1.5"]) == 2

    def test_annihilating_filter_is_numerical_failure(self, tmp_path):
        path = write_state(tmp_path, "z.json", matrix_payload(np.diag([1.0, 0, 0, 0])))
        assert main(["simulate", path, "--rounds", "100", "--seed", "1",
                     "--filter", "1e-7,1e-7"]) == 3

    @pytest.mark.parametrize("rounds", [2 ** 50, 2 ** 62])
    def test_rounds_beyond_memory_are_validation_errors(self, rounds, tmp_path, capsys):
        # numpy refuses both sizes before allocating anything: 2**50 rounds
        # ask for 8 PiB, and 2**62 lie beyond what numpy can index.
        path = write_state(tmp_path, "w.json",
                           {"family": "werner", "params": {"omega": 0.8}})
        assert main(["simulate", path, "--rounds", str(rounds), "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"rounds {rounds} " in captured.err

    @pytest.mark.parametrize("failing", ["integers", "narrowing", "random"])
    @pytest.mark.parametrize("filtered", [False, True])
    def test_out_of_memory_at_any_draw(self, failing, filtered, tmp_path, monkeypatch,
                                       capsys):
        # MemoryError from any draw, or from narrowing the indices to uint8,
        # is a validation error; the failure is injected, nothing large runs.
        class Refuses(np.ndarray):
            def astype(self, *args, **kwargs):
                raise MemoryError

        default_rng = np.random.default_rng

        class Generator:
            def __init__(self, seed):
                self.rng = default_rng(seed)
                self.draws = 0

            def integers(self, *args, **kwargs):
                self.draws += 1
                if failing == "integers" and self.draws == 2:
                    raise MemoryError
                drawn = self.rng.integers(*args, **kwargs)
                return drawn.view(Refuses) if failing == "narrowing" else drawn

            def random(self, *args, **kwargs):
                if failing == "random":
                    raise MemoryError
                return self.rng.random(*args, **kwargs)

        monkeypatch.setattr(protocol.np.random, "default_rng", Generator)
        path = write_state(tmp_path, "w.json",
                           {"family": "werner", "params": {"omega": 0.8}})
        argv = ["simulate", path, "--rounds", "1000", "--seed", "1"]
        if filtered:
            argv += ["--filter", "0.5,0.5"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "rounds 1000 do not fit in memory" in captured.err

    def test_filtered_triads_come_from_measured_state(self, tmp_path, capsys):
        # gamma(0.3, 0.24) is useful only after filtering; the echoed triads
        # must reach the filtered state's minimal QBER, not the raw state's.
        rho = make_gamma(GammaParams(q=0.3, alpha=0.24))
        f = FilterPair(0.15, 0.02563)
        outcome = apply_local_filters(rho, f)
        path = write_state(tmp_path, "g.json",
                           {"family": "gamma", "params": {"q": 0.3, "alpha": 0.24}})
        assert main(["simulate", path, "--rounds", "2000", "--seed", "3",
                     "--filter", "0.15,0.02563"]) == 0
        cfg = json.loads(capsys.readouterr().out)["config"]
        q = qber_three_settings(bloch_decompose(outcome.filtered_state),
                                MeasurementTriad(cfg["alice_triad"]),
                                MeasurementTriad(cfg["bob_triad"]))
        assert q == pytest.approx(outcome.q_min_filtered, abs=1e-8)

    def test_pure_states_at_output_precision(self, tmp_path):
        # Entries written at the CLI's own 10 significant digits leave
        # eigenvalues a little below zero; analyze admits such states, so
        # simulate must too.
        ten_digits = np.vectorize(lambda x: float(format(x, ".10g")))
        rng = np.random.default_rng(3)
        for i in range(8):
            ket = rng.normal(size=4) + 1j * rng.normal(size=4)
            ket /= np.linalg.norm(ket)
            mat = np.outer(ket, ket.conj())
            mat = ten_digits(mat.real) + 1j * ten_digits(mat.imag)
            path = write_state(tmp_path, f"pure{i}.json", matrix_payload(mat))
            assert main(["analyze", path]) == 0
            assert main(["simulate", path, "--rounds", "1000", "--seed", "1"]) == 0

    def test_in_process_determinism(self, tmp_path, capsys):
        path = write_state(tmp_path, "w.json",
                           {"family": "werner", "params": {"omega": 0.7}})
        args = ["simulate", path, "--rounds", "2000", "--seed", "13"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second


class TestTableOne:
    def test_header_and_shape(self):
        res = table1_result(0.3, 0.3, [0.25], 0.05)
        assert res.header == ("alpha", "q_start", "q_end", "steerable_at_start")
        assert len(res.rows) == 1
        assert res.rows[0][2] == 1.0

    def test_boundary_localisation_against_direct_scan(self):
        # the reported start must bracket the predicate flip at 1e-3
        from steerqkd import make_gamma, modified_protocol_useful
        from steerqkd.families import GammaParams
        f = FilterPair(0.15, 0.02563)
        start = useful_q_start(0.24, f, 0.05)
        assert start is not None
        assert modified_protocol_useful(make_gamma(GammaParams(q=start + 1e-3,
                                                               alpha=0.24)), f)
        assert not modified_protocol_useful(make_gamma(GammaParams(
            q=max(start - 1e-3, 1e-6), alpha=0.24)), f)

    def test_rejects_bad_qstep(self, capsys):
        assert main(["table1", "--eps1", "0.3", "--eps2", "0.3",
                     "--alphas", "0.25", "--qstep", "0"]) == 2
        assert "q_step must lie in (0, 0.5], got 0.0" in capsys.readouterr().err

    def test_never_useful_alpha_gives_nan_row(self):
        # alpha=0 keeps the state separable whatever the filters do
        res = table1_result(0.5, 0.5, [0.0], 0.1)
        assert math.isnan(res.rows[0][1])
        assert res.to_csv().splitlines()[1] == "0,nan,nan,nan"


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_calls_share_no_state(self, tmp_path):
        # --range is an append action: a parser built once must still start
        # every call from an empty list.
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["scan", "--family", "werner", "--range", "omega=0:1:0.5",
                     "--out", str(first)]) == 0
        assert main(["scan", "--family", "gamma", "--range", "q=0:1:0.5",
                     "--range", "alpha=0:0.7:0.35", "--out", str(second)]) == 0
        assert first.read_text() == scan_result("werner", ["omega=0:1:0.5"]).to_csv()
        assert second.read_text() == scan_result(
            "gamma", ["q=0:1:0.5", "alpha=0:0.7:0.35"]).to_csv()

    def test_bad_argv_still_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "scan.csv")
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["scan", "--family", "werner", "--out", out])
            assert exc.value.code == 2
            assert "--range" in capsys.readouterr().err
            assert main(["scan", "--family", "werner", "--range", "omega=0:1:0.5",
                         "--out", out]) == 0


class TestSubprocessDeterminism:
    def test_byte_identical_runs(self, tmp_path):
        path = write_state(tmp_path, "w.json",
                           {"family": "werner", "params": {"omega": 0.8}})
        cmd = [sys.executable, "-m", "steerqkd", "simulate", path,
               "--rounds", "4000", "--seed", "99"]
        out1 = subprocess.run(cmd, capture_output=True, check=True).stdout
        out2 = subprocess.run(cmd, capture_output=True, check=True).stdout
        assert out1 == out2

        out1_path, out2_path = tmp_path / "s1.csv", tmp_path / "s2.csv"
        for out in (out1_path, out2_path):
            scan = [sys.executable, "-m", "steerqkd", "scan", "--family",
                    "werner", "--range", "omega=0:1:0.125", "--out", str(out)]
            subprocess.run(scan, capture_output=True, check=True)
        assert out1_path.read_bytes() == out2_path.read_bytes()
