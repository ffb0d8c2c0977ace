"""Golden output at scale: ``homlie report --json`` on large inputs.

``test_golden`` pins every subcommand, but only on the bundled algebras
(n <= 3), where a law cell holds a few products and a Jordan walk a
handful of maps.  A changed walk that finds some witness, but not the
first, shows only where cells are wide and fail.  Here ``report --kmax K
--json`` runs strict and ``--lax`` on twisted h9 and on ex2_5's double
of its double (n = 12) at K = 1, on twisted h7 at K = 2, and on the
double of that double (n = 24) at K = 1.  The strict reports pass every
check; the lax ones fail 11, 7, 27 and 7 checks, each with its witness.

``golden_large.json`` holds, per report, the SHA-256 of stdout, the exit
code and an 8-hex digest of each check in report order; they were
recorded at commit f71de65, before law cells skipped their empty rows
and read their transposes, but for the triple double's, recorded once the
Jordan check ran as one pass per z (its lax Jordan witness, at
(x, y, z, w) = (0, 0, 2, 4) of 506 maps, was checked against the dense
residual at every quadruple before it in product order).  A mismatch names the first check whose
digest differs.  ``PYTHONPATH=src python tests/test_golden_large.py``
prints the record of the current code in the same form.  The test runs
under ``python -O`` too, so it checks with ``pytest.fail``.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from homlie import write_algebra
from homlie.catalog import load_builtin
from homlie.cli import main
from oracle import heisenberg, iterated_double

PINS = Path(__file__).with_name("golden_large.json")

# name -> (algebra builder, kmax)
INPUTS = {
    "h9": (lambda: heisenberg(4, True), 1),
    "ex2_5 doubled twice": (lambda: iterated_double(load_builtin("ex2_5"), 2), 1),
    "h7": (lambda: heisenberg(3, True), 2),
    "ex2_5 doubled three times": (lambda: iterated_double(load_builtin("ex2_5"), 3), 1),
}
# ex2_5 doubled twice: about 9 s together before the cuts, the strict one
# 6.5 s; doubled three times (n = 24, 282 strict QC maps and 506 lax ones):
# 16 s strict and 12 s lax on a 2-vCPU host
SLOW = {"ex2_5 doubled twice", "ex2_5 doubled three times"}


def record(name: str, lax: bool, workdir: Path) -> dict:
    """stdout's SHA-256, the exit code and one digest per check of the
    report, in report order, each keyed by its report title and name."""
    make, k_max = INPUTS[name]
    path = workdir / f"{name.replace(' ', '_')}.json"
    write_algebra(make(), path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["report", str(path), "--kmax", str(k_max), "--json",
                     *(["--lax"] if lax else [])])
    text = out.getvalue()
    checks = {f"{r['title']}: {c['name']}": hashlib.sha256(
        json.dumps([r["title"], c], sort_keys=True).encode()).hexdigest()[:8]
        for r in json.loads(text)["checks"] for c in r["checks"]}
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "exit": code,
            "checks": checks}


def _key(name, lax):
    return f"{name} {'lax' if lax else 'strict'}"


CASES = [pytest.param(name, lax, id=_key(name, lax).replace(" ", "-"),
                      marks=[pytest.mark.slow] if name in SLOW else [])
         for name in INPUTS for lax in (False, True)]


@pytest.mark.parametrize("name, lax", CASES)
def test_large_report_is_golden(name, lax, tmp_path):
    pinned = json.loads(PINS.read_text())[_key(name, lax)]
    got = record(name, lax, tmp_path)
    if got == pinned:
        return
    moved = next((f"check {i} ({want[0]!r}) has digest {have[1]}, pinned {want[1]}"
                  if have[0] == want[0] else
                  f"check {i} is {have[0]!r}, pinned {want[0]!r}"
                  for i, (have, want) in enumerate(zip(got["checks"].items(),
                                                       pinned["checks"].items()))
                  if have != want),
                 f"{len(got['checks'])} checks, pinned {len(pinned['checks'])}"
                 if len(got["checks"]) != len(pinned["checks"])
                 else "every check matches; stdout differs outside them")
    pytest.fail(f"report {_key(name, lax)}: exit {got['exit']} (pinned "
                f"{pinned['exit']}), stdout sha256 {got['sha256'][:16]}.. (pinned "
                f"{pinned['sha256'][:16]}..); first difference: {moved}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = {}
        for name in INPUTS:
            for lax in (False, True):
                doc[_key(name, lax)] = record(name, lax, Path(tmp))
    json.dump(doc, sys.stdout, indent=1)
    print()
