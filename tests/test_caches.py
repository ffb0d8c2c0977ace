"""Every fact of a report is computed once.

homlie reuses work through bounded ``functools.lru_cache``s over pure
functions of immutable values, keyed on content: ``solve_space``, the
kind-free system of a level that every kind's solve there reads
(``_level``), the law cells, ``validate`` and ``center``.  The least twist power at which
a level's spaces are read is worked out once per check, by its level
reader, and is no cache.  A solved space holds its own spans, each
formed once on first use.  That a changed space is never
served a stale span or verdict is tested with injected faults in
``test_laws`` and ``test_law_engine``.
"""

import ast
import contextlib
import io
from collections import Counter
from pathlib import Path

import pytest

import homlie
from homlie import algebra, spaces
from homlie.catalog import BUILTIN
from homlie.cli import main


def _report_work(monkeypatch, argv):
    """Run ``main(argv)`` on cleared caches; returns the cache infos of
    ``validate`` and ``center`` and how often each span was formed: the
    (space, component) spans and the (space, "tuples") tuple spaces.
    Spans live on the solved spaces, so clearing ``solve_space`` clears
    them too."""
    for cached in (algebra.validate, algebra.center, spaces.solve_space):
        cached.cache_clear()
    formed = Counter()
    project = spaces.project_component
    as_subspace = spaces.MapSpace.as_subspace

    def counted(space, index):
        formed[space, index] += 1
        return project(space, index)

    def counted_tuples(space):
        formed[space, "tuples"] += 1
        return as_subspace(space)

    monkeypatch.setattr(spaces, "project_component", counted)
    monkeypatch.setattr(spaces.MapSpace, "as_subspace", counted_tuples)
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
    monkeypatch.undo()
    return algebra.validate.cache_info(), algebra.center.cache_info(), formed


@pytest.mark.parametrize("lax", [(), ("--lax",)], ids=["strict", "lax"])
def test_each_fact_is_computed_once_per_report(monkeypatch, lax):
    for name in BUILTIN:
        validated, centered, formed = _report_work(
            monkeypatch, ["report", name, "--kmax", "3", *lax])
        # the base algebra and its double, looked up 5 and 10 times
        assert (validated.misses, validated.hits) == (2, 3), name
        assert (centered.misses, centered.hits) == (2, 8), name
        assert max(formed.values()) == 1, name
        if name == "ex2_5" and not lax:
            tuples = [key for key in formed if key[1] == "tuples"]
            assert len(formed) - len(tuples) == 76
            assert len(tuples) == 16


def _memo_decorators(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = getattr(target, "id", getattr(target, "attr", ""))
                if name in ("cache", "lru_cache"):
                    yield node.name, dec


def test_every_memo_is_a_bounded_content_keyed_lru_cache():
    assert not hasattr(spaces, "_first_components")
    found = {}
    for path in sorted(Path(homlie.__file__).parent.glob("*.py")):
        for fn, dec in _memo_decorators(ast.parse(path.read_text())):
            found[fn] = (isinstance(dec, ast.Call)
                         and [(kw.arg, kw.value.value) for kw in dec.keywords]
                         == [("maxsize", 1024)])
    assert found == dict.fromkeys(
        ("validate", "center", "_level", "solve_space", "_first_product_outside"), True)


def test_the_level_reader_compares_few_powers_of_a_twist_that_never_repeats(ex2_5,
                                                                           monkeypatch):
    """ex2_5's twist diag(1, 2, 2) has the powers diag(1, 2^j, 2^j), none
    equal, while hash(2**j) repeats with period 61: a search keyed on the
    powers alone compares each new power with every earlier one of its
    hash, 259,902 times up to k_max = 4000."""
    calls = []
    eq = spaces.Matrix.__eq__
    monkeypatch.setattr(spaces.Matrix, "__eq__", lambda a, b: calls.append(1) or eq(a, b))
    space = spaces._reader(ex2_5, True, 4000)
    assert len(calls) < 4000
    monkeypatch.undo()
    assert space(spaces.SpaceKind.QC, 3, 0).k == 3
