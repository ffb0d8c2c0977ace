"""Golden output: ``homlie report --kmax 3`` on the bundled algebras.

The sha256 of stdout and the exit code of each run were recorded before
the report's work was deduplicated behind caches, so any change to the
bytes a report prints (or to its exit code) fails here.  The test runs
under ``python -O`` too, so it checks with ``pytest.fail``, not
``assert``.
"""

import contextlib
import hashlib
import io

import pytest

from homlie.cli import main

# (algebra, extra flags) -> (sha256 of stdout, exit code)
GOLDEN = {
    ("abelian2", ()): (
        "db300c6f0e1c78237342f0025f8574b114ffff721affc922b533fee67f4b058c", 0),
    ("abelian2", ("--json",)): (
        "95778c8aa5e8f9710db9b0aa6c5b582d2b69c104589d2c0b14e79a3588c4a23f", 0),
    ("abelian2", ("--json", "--lax")): (
        "e53187bb6f0ba1e2f19f8469cf3ffc4a415ff93121a9a2cb4d37ec4f76274e95", 1),
    ("ex2_5", ()): (
        "24393f8bf96e184e01ea98f90072b80462167a0d0061af0d5f9e67b6dfcb2bd2", 0),
    ("ex2_5", ("--json",)): (
        "ec9acff43289dc091a0444ad58dcf050444f6d1771299b1c7de155a31edac9d7", 0),
    ("ex2_5", ("--json", "--lax")): (
        "5aa0c0d92855c3457b8c44ccd6962a0bb68091244ac29cf18c894ed0dc40da70", 1),
    ("heisenberg3", ()): (
        "a8a7afb689d171f9a1a7c2f35f605cffaf89726e2ff9353d18b0038538ada548", 0),
    ("heisenberg3", ("--json",)): (
        "962dd0516fd8fd82f15945101a469f2d369729d2a52642f613de297455185afa", 0),
    ("heisenberg3", ("--json", "--lax")): (
        "9fe4cdd7d8dea239f32eb2792ee706bb9d20d44141604d6135449e40c0f0b7cb", 0),
    ("odd_heisenberg", ()): (
        "5058579fc906972e7ecd134d69ae66cf0ede75bce20990750f1cb27771d83c93", 0),
    ("odd_heisenberg", ("--json",)): (
        "19926fac8a6eceb1f5ec0218e8e1903489882f0e2d1e488e164bb775204c554f", 0),
    ("odd_heisenberg", ("--json", "--lax")): (
        "bd518900e56c387d279ead62e9c66fc11e7d1a727a3d7c673aac1d3c9ab7427e", 0),
}


@pytest.mark.parametrize("algebra, flags", list(GOLDEN),
                         ids=lambda v: ("_".join(f.lstrip("-") for f in v) or "text")
                         if isinstance(v, tuple) else v)
def test_report_output_is_golden(algebra, flags):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["report", algebra, "--kmax", "3", *flags])
    got = (hashlib.sha256(out.getvalue().encode()).hexdigest(), code)
    if got != GOLDEN[algebra, flags]:
        pytest.fail(f"report {algebra} {' '.join(flags)}: stdout sha256 and "
                    f"exit code {got}, recorded {GOLDEN[algebra, flags]}")
