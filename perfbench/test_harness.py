"""Tests of the benchmark's own checks.

    python3 -m pytest perfbench/test_harness.py
"""

import dataclasses
import json
import math
from fractions import Fraction

import run

run.import_homlie()

import answers  # noqa: E402
import exact  # noqa: E402
from homlie import Matrix  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

KEY = "solve/h7_d/GDer/k1/deg0/strict"


def _runner_for(key, tmp_path):
    runner = run.Runner(WORKLOADS["solve-ladder"], run.DEFAULT_SEED, tmp_path,
                        answers.load_reference())
    runner.ops = [op for op in WORKLOADS["solve-ladder"].setup(0, tmp_path)
                  if op.key == key]
    return runner


def _corrupt(space):
    """The same space with one entry of one basis map changed."""
    first = space.tuples[0]
    g = first[0]
    idx = next(i for i, x in enumerate(g.matrix.entries) if x)
    entries = list(g.matrix.entries)
    entries[idx] += Fraction(1, 3)
    bad = dataclasses.replace(g, matrix=Matrix(g.n, g.n, tuple(entries)))
    return dataclasses.replace(space, tuples=((bad,) + first[1:],)
                               + space.tuples[1:])


def test_correct_answer_passes_both_checks(tmp_path):
    runner = _runner_for(KEY, tmp_path)
    op = runner.ops[0]
    assert runner.check(op, op.call(), None, exact=True)[1] == []


def test_one_corrupted_basis_entry_is_caught(tmp_path):
    runner = _runner_for(KEY, tmp_path)
    op = runner.ops[0]
    _, reasons = runner.check(op, _corrupt(op.call()), None, exact=True)
    assert len(reasons) == 2
    assert reasons[0].startswith("digest ")
    assert reasons[1] == "exactness check"
    assert run.failures(runner.ops, [("", reasons)]) == [KEY]


def test_exactness_check_flags_only_the_corrupted_tuple(tmp_path):
    runner = _runner_for(KEY, tmp_path)
    op = runner.ops[0]
    space = _corrupt(op.call())
    rows = [[[g.matrix.row(r) for r in range(g.n)] for g in t]
            for t in space.tuples]
    assert exact.space_violations(op.spec, "GDer", 1, 0, True, rows) == [0]


def test_digest_ignores_fields_that_are_not_answers():
    doc = {"command": "report", "ok": True,
           "checks": [{"title": "t", "checks": [
               {"name": "a", "status": "pass", "detail": ""}]}]}
    timed = json.loads(json.dumps(doc))
    timed["stats"] = {"wall_s": 1.5}
    timed["checks"][0]["checks"][0]["stats"] = {"products": 3}
    plain = answers.digest(answers.report_answer(0, json.dumps(doc)))
    assert answers.digest(answers.report_answer(0, json.dumps(timed))) == plain
    assert answers.digest(answers.report_answer(1, json.dumps(doc))) != plain


def test_tail_rank_leaves_ten_samples_beyond():
    for n in range(11, 500):
        p, rank = run.tail_rank(n)
        assert n - rank >= 10
        assert n - math.ceil((p + 1) * n / 100) < 10  # p is the highest
    assert run.tail_rank(4) == (100, 4)
