"""Byte-identity oracle for the CLI.

Each case runs ``cli.main`` in process and compares the sha256 of its exit
code, stdout, stderr and output file with a recorded digest.  A refactor
that claims byte-identical output must leave every digest as it is; a
change that means to alter output names the cases it changes and records
their new digests.  The digests depend on numpy's PCG64 stream and on
its floating-point results at 10 significant digits, so a numpy upgrade
may change them; regenerate them only after checking the outputs.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from steerqkd.cli import main

# A full-rank state that belongs to no family: 0.7 |psi><psi| + 0.3 I/4.
_PSI = np.array([1.0, 0.5j, -0.25, 0.3 + 0.2j])
_PSI = _PSI / np.linalg.norm(_PSI)
_MIXED = 0.7 * np.outer(_PSI, _PSI.conj()) + 0.3 * np.eye(4) / 4

STATES = {
    "werner": {"family": "werner", "params": {"omega": 0.8}},
    "gamma": {"family": "gamma", "params": {"q": 0.7, "alpha": 0.5}},
    "gamma_weak": {"family": "gamma", "params": {"q": 0.3, "alpha": 0.24}},
    "bell_diagonal": {"family": "bell_diagonal",
                      "params": {"w1": 0.6, "w2": 0.2, "w3": 0.1, "w4": 0.1}},
    "matrix": {"matrix": [[[z.real, z.imag] for z in row] for row in _MIXED]},
    "product": {"matrix": [[[float(i == j == 0), 0.0] for j in range(4)]
                           for i in range(4)]},
}

SIM = ["--rounds", "20000", "--seed", "5"]

# name -> (argv with {state}/{out} placeholders, sha256)
CASES = {
    "analyze werner": (
        ["analyze", "{werner}"],
        "df583bde05eacafb7389cacc41df494f0740150641760bfd5b12c1e08402c600"),
    "analyze gamma": (
        ["analyze", "{gamma}"],
        "ae01a0f2e67365523121a9998e9f57e823998cb2f214f642f2ab79d7a516b5f2"),
    "analyze bell_diagonal": (
        ["analyze", "{bell_diagonal}"],
        "8a75bc407de38c7c5fc1d4eef66968410da8e95f1431dd0063bfd93887136cc3"),
    "analyze matrix": (
        ["analyze", "{matrix}"],
        "d03bbfd5a237f2f7363ec26e5b5d92b6f3d66a4204e10b1061fdafce870f2175"),
    "simulate werner": (
        ["simulate", "{werner}", *SIM],
        "80cefea4d3344d7a82f4ed02304c2414585715e1d477bc426b392213fe3274a3"),
    "simulate gamma": (
        ["simulate", "{gamma}", *SIM],
        "7ff4655b22c03ed917813c084eca1000effbe3ac45b4454c59e24a3f57fa0e79"),
    "simulate bell_diagonal": (
        ["simulate", "{bell_diagonal}", *SIM],
        "bb13034deca00e742349596607b2a0af4c1a4d4e7f8d183e6a10bcdd39185b66"),
    "simulate matrix": (
        ["simulate", "{matrix}", *SIM],
        "fb4ea02371531d6e1b3007e63f41b36b1c143d93c84ef3453bd4b37d5c5c8234"),
    "simulate matrix test-fraction 0.5": (
        ["simulate", "{matrix}", *SIM, "--test-fraction", "0.5"],
        "58ffaf87a5953faa037cb801c00d87b82efc757ded7b4c090264fe1b8a59e9c4"),
    "simulate werner filtered": (
        ["simulate", "{werner}", *SIM, "--filter", "0.3,0.7"],
        "3611cec848894cb1711f31889832165661abcded2321a63b37e004ca295c662c"),
    "simulate gamma filtered": (
        ["simulate", "{gamma}", *SIM, "--filter", "0.3,0.7"],
        "f784a1d9d15f92e72645d6663d9fd455a90e55e741165fceba7144a879bc7487"),
    "simulate gamma_weak filtered": (
        ["simulate", "{gamma_weak}", *SIM, "--filter", "0.15,0.02563"],
        "8caf5ca94348828a9ee13c62c10cc39312eb0374a381458d9f191568293257c8"),
    "simulate product annihilated": (
        ["simulate", "{product}", *SIM, "--filter", "1e-7,1e-7"],
        "b7da4642c7f700f4566f8d9253fa6c0005d135103bc15d094218559c79246185"),
    "scan gamma": (
        ["scan", "--family", "gamma", "--range", "q=0:1:0.1", "--range",
         "alpha=0:0.785:0.1", "--out", "{out}"],
        "ee07944d2f091872a734b7062ed799d11d0eef80c8a42321eaf67246353ca7bc"),
    "scan werner": (
        ["scan", "--family", "werner", "--range", "omega=0:1:0.05", "--out", "{out}"],
        "708190c63834907d2cfc8c07bd227649c9ac82767310ebd448ff20b6376eca94"),
    "scan bell_diagonal": (
        ["scan", "--family", "bell_diagonal", "--range", "w1=0:1:0.1", "--range",
         "w2=0:1:0.1", "--range", "w3=0:1:0.1", "--out", "{out}"],
        "af3960c1da58f218f71852d21cc14f7ed8f7bf2304d8986ef4e5f3cf2809aea7"),
    "scan gamma large": (
        ["scan", "--family", "gamma", "--range", "q=0:1:0.02", "--range",
         "alpha=0:0.785:0.02", "--out", "{out}"],
        "27d4593edba1f659e291939f96a53c82a1aa024225d725ad8df41e3f059204ba"),
    "scan werner fine": (
        ["scan", "--family", "werner", "--range", "omega=0:1:0.001", "--out", "{out}"],
        "d9b410f6c00c30bbf34b1be522927b9591b5dbf479a2f09d01f448d6b0d4429c"),
    "scan bell_diagonal fine": (
        ["scan", "--family", "bell_diagonal", "--range", "w1=0:1:0.05", "--range",
         "w2=0:1:0.05", "--range", "w3=0:1:0.05", "--out", "{out}"],
        "daa47d6ddfeb90fd5acd25fe8673b82b99eb4ceb2f0dd32aa7a90c5773e0cb48"),
    "scan out of domain": (
        ["scan", "--family", "werner", "--range", "omega=0:1.5:0.5", "--out", "{out}"],
        "90b5b6d174642f3eaf84868a569bbd801aca15da47cf7489001bb32c85783e0d"),
    "table1": (
        ["table1", "--eps1", "0.2", "--eps2", "0.3", "--alphas", "0.24,0.7,0.2,0.6"],
        "bb981182e4e6aa4ea8636e619bd9d767628f776b1b97bfe1efe40de4295e22f4"),
    "table1 qstep 0.02": (
        ["table1", "--eps1", "0.15", "--eps2", "0.02563", "--alphas",
         "0.24,0.7,0.2,0.6,0", "--qstep", "0.02"],
        "ca6c91d66de2e883705bf575928652f086ecc144d940413a4e73894af58d0df8"),
    "table1 bad qstep": (
        ["table1", "--eps1", "0.2", "--eps2", "0.3", "--alphas", "0.24",
         "--qstep", "0"],
        "f9d66f9e3cff15353ffcc3de426cb04c12f2c55fa670da8d424fcec15e6acbee"),
}


def run(argv: list[str], tmp_path) -> str:
    """sha256 over exit code, stdout, stderr and the --out file of one call
    made in the fresh directory ``tmp_path``."""
    for name, payload in STATES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    out_path = tmp_path / "out.txt"
    argv = [a.format(out=out_path, **{n: tmp_path / f"{n}.json" for n in STATES})
            for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    out_file = out_path.read_text() if out_path.exists() else ""
    blob = "\0".join([str(code), stdout.getvalue(), stderr.getvalue(), out_file])
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name", list(CASES))
def test_output_digest(name, tmp_path):
    argv, want = CASES[name]
    assert run(argv, tmp_path) == want, f"output of {name!r} changed"
