"""Every fact of a report is computed once.

homlie reuses work through bounded ``functools.lru_cache``s over pure
functions of immutable values, keyed on content: ``solve_space``, the
kind-free system of a level that every kind's solve there reads
(``_level``), the law cells, ``validate``, ``center`` and the walk over
a twist's powers (``_walk``), which finds the least power at which each
level reader reads a level's spaces, once per twist and k_max.  A solved
space holds its own views, each formed once on first use and read off
the kernel of its solve, with no reduction.  That a changed space is
never served a stale span or verdict is tested with injected faults in
``test_laws`` and ``test_law_engine``.
"""

import ast
import contextlib
import io
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest

import homlie
from homlie import algebra, cli, extension, linalg, spaces
from homlie.catalog import BUILTIN
from homlie.cli import main


def _report_work(monkeypatch, argv):
    """Run ``main(argv)`` on cleared caches; returns the cache infos of
    ``validate``, ``center`` and ``_walk``, and, for the spaces that ``solve_space``
    returned, how often each view was formed, keyed (space, view name), and
    how many reductions ran forming it, keyed alike.  Views live on the
    solved spaces, so clearing ``solve_space`` clears them too."""
    for cached in (algebra.validate, algebra.center, spaces._walk, spaces.solve_space):
        cached.cache_clear()
    formed, reduced, forming, solved = Counter(), Counter(), [], set()
    reduce, solve = linalg._reduce, spaces.solve_space

    def counted_reduce(rows):
        reduced.update(forming)
        return reduce(rows)

    def recorded_solve(*args):
        space = solve(*args)
        solved.add(id(space))  # the cache keeps every space alive until the end
        return space

    def counted(name, view):
        def form(space):
            if id(space) not in solved:
                return view(space)
            formed[space, name] += 1
            forming.append((space, name))
            try:
                return view(space)
            finally:
                forming.pop()

        prop = cached_property(form)
        prop.__set_name__(spaces.MapSpace, name)
        return prop

    for module in (linalg, spaces):
        monkeypatch.setattr(module, "_reduce", counted_reduce)
    for module in (spaces, cli, extension):
        monkeypatch.setattr(module, "solve_space", recorded_solve)
    for name in ("_tuple_view", "_first_view"):
        monkeypatch.setattr(spaces.MapSpace, name,
                            counted(name, getattr(spaces.MapSpace, name).func))
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
    monkeypatch.undo()
    return (algebra.validate.cache_info(), algebra.center.cache_info(),
            spaces._walk.cache_info(), formed, reduced)


@pytest.mark.parametrize("lax", [(), ("--lax",)], ids=["strict", "lax"])
def test_each_fact_is_computed_once_per_report(monkeypatch, lax):
    for name in BUILTIN:
        validated, centered, walked, formed, reduced = _report_work(
            monkeypatch, ["report", name, "--kmax", "3", *lax])
        # the base algebra and its double, looked up 5 and 10 times
        assert (validated.misses, validated.hits) == (2, 3), name
        assert (centered.misses, centered.hits) == (2, 8), name
        # 28 level readers over the base's and the double's twist at k_max 0..3
        assert (walked.misses, walked.hits) == (8, 20), name
        # every view formed at most once, off the solve's kernel, by no reduction
        assert formed and max(formed.values()) == 1, name
        assert not reduced, name
        if name == "ex2_5" and not lax:
            tuples = [key for key in formed if key[1] == "_tuple_view"]
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
        ("validate", "center", "_level", "solve_space", "_walk", "_first_product_outside"),
        True)


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
