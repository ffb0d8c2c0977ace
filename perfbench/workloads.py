"""The benchmark's workloads: their inputs and operation lists.

Each workload's ``setup(seed, workdir)`` builds its inputs and returns
the operations of one pass.  An operation calls homlie only through its
public functions or ``cli.main``, looked up at call time so that the
traced run sees the same calls.  Inputs that the seed does not change
have seed-free keys and are checked against stored reference digests on
every seed; the seed also fixes the order of each pass.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import homlie
from homlie import cli

import answers
import families as fam


@dataclass
class Op:
    """One timed call and how to check its answer."""

    key: str
    call: Callable[[], object]
    answer: Callable[[object], dict]
    seeded: bool = False  # the input depends on the seed
    spec: object = None
    solve: tuple = ()  # (kind, k, degree, strict) of a solve_space call


@dataclass
class Workload:
    name: str
    # pass length this workload is sized to; a run makes
    # max(1, seconds // nominal_pass_s) passes
    nominal_pass_s: float
    setup: Callable[[int, Path], list[Op]]


def _cli_report(path: Path, kmax: int):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["report", str(path), "--kmax", str(kmax), "--json"])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


def _report_answer(result) -> dict:
    code, stdout = result
    if code not in (0, 1):
        raise ValueError(f"homlie report exited {code}")
    return answers.report_answer(code, stdout)


def setup_report_small(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    fixed = [(fam.checked(homlie.load_builtin(name), multiplicative=False), 3)
             for name in homlie.BUILTIN]
    fixed.append((fam.checked(fam.yau_sl2(Fraction(2)), True), 3))
    fixed.append((fam.checked(fam.direct_sum(fam.yau_sl2(Fraction(2)),
                                             fam.yau_sl2(Fraction(3))), True), 0))
    sample = [(spec, 1) for spec in fam.random_sample(rng)]
    ops = []
    for idx, ((spec, kmax), seeded) in enumerate(
            [(item, False) for item in fixed] + [(item, True) for item in sample]):
        path = workdir / f"alg{idx:02d}.json"
        homlie.write_algebra(spec, path)
        key = f"report/{spec.name}/kmax{kmax}"
        if seeded:
            key = f"report/seed{seed}/{spec.name}/kmax{kmax}"
        ops.append(Op(key, lambda p=path, k=kmax: _cli_report(p, k),
                      _report_answer, seeded=seeded, spec=spec))
    rng.shuffle(ops)
    return ops


def setup_verify_mid(seed: int, workdir: Path) -> list[Op]:
    # Identity twists repeat every space at every k (h3 at kmax 3 repeats
    # each one four times); the twisted even and odd algebras repeat none.
    h3 = fam.checked(fam.heisenberg(1, twisted=False), True)
    h5 = fam.checked(fam.heisenberg(2, twisted=False), True)
    h3d = fam.checked(fam.heisenberg(1, twisted=True), True)
    sh12 = fam.checked(fam.super_heisenberg(2), True)
    sh13 = fam.checked(fam.super_heisenberg(3), True)
    chain, laws, qc = ("check_inclusion_chain", "check_bracket_laws",
                       "check_qc_structure")
    plan = [(chain, h3, 3), (laws, h3, 3), (qc, h3, 3), (chain, h5, 1),
            (laws, h3d, 3), (qc, h3d, 3),
            (laws, sh12, 3), (qc, sh12, 3),
            (chain, sh13, 2), (laws, sh13, 1)]
    ops = [Op(f"{fn}/{spec.name}/kmax{kmax}",
              lambda fn=fn, spec=spec, kmax=kmax: getattr(homlie, fn)(spec, kmax),
              answers.check_answer, spec=spec)
           for fn, spec, kmax in plan]
    random.Random(seed).shuffle(ops)
    return ops


def setup_solve_ladder(seed: int, workdir: Path) -> list[Op]:
    specs = [fam.checked(fam.heisenberg(3, twisted=True), True),
             fam.checked(fam.heisenberg(4, twisted=True), True),
             fam.checked(fam.iterated_double(homlie.load_builtin("ex2_5"), 2),
                         multiplicative=False),
             fam.checked(fam.super_heisenberg(6), True)]
    ops = []
    for spec in specs:
        for kind in homlie.SpaceKind:
            for k in (0, 1):
                for degree in (0, 1):
                    for strict in (True, False):
                        mode = "strict" if strict else "lax"
                        ops.append(Op(
                            f"solve/{spec.name}/{kind.value}/k{k}/deg{degree}/{mode}",
                            lambda a=(spec, kind, k, degree, strict):
                                homlie.solve_space(*a),
                            answers.space_answer, spec=spec,
                            solve=(kind.value, k, degree, strict)))
    random.Random(seed).shuffle(ops)
    return ops


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("report-small", 12.0, setup_report_small),
    Workload("verify-mid", 9.0, setup_verify_mid),
    Workload("solve-ladder", 12.0, setup_solve_ladder),
)}
