"""Every fact of a report is computed once.

homlie reuses work through bounded ``functools.lru_cache``s over pure
functions of immutable values, keyed on content: ``solve_space``, the
law cells, ``validate``, ``center`` and the spans of solved spaces.
That a changed space is never served a stale span or verdict is tested
with injected faults in ``test_laws`` and ``test_law_engine``.
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
    (space, component) spans and the (space, "tuples") tuple spaces."""
    for cached in (algebra.validate, algebra.center, spaces._spans):
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
        ("validate", "center", "solve_space", "_spans",
         "_first_product_outside"), True)
