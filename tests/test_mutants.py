"""The mutation kill-list in scripts/mutants.py.

Each entry must name a snippet that occurs once in its file and tests
that exist; a mutant that no named test kills, or a stale entry, must
make the run fail, and a killed mutant must let it pass.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


mutants = _load()
PARSE = "tests/test_spaces.py::test_space_kind_parse"


def test_every_entry_is_fresh_and_names_existing_tests():
    assert len(mutants.MUTANTS) >= 15
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        text = (ROOT / m.file).read_text()
        assert text.count(m.old) == 1, m.name
        assert m.tests, m.name
        for node in m.tests:
            path, _, name = node.partition("::")
            assert f"def {name.split('[')[0]}(" in (ROOT / path).read_text(), node
    for name, file, old, new, why in mutants.EQUIVALENT:
        assert (ROOT / file).read_text().count(old) == 1, name
        assert old != new and why, name


def test_a_mutant_no_test_kills_fails_the_run():
    docstring = "A homogeneous endomorphism: a square matrix plus its Z2 degree."
    survivor = mutants.Mutant("a docstring reworded", "src/homlie/spaces.py",
                              docstring, "A homogeneous map.", (PARSE,))
    lines = []
    assert mutants.run([survivor], out=lines.append) == 1
    assert lines[0].startswith("SURVIVED a docstring reworded (")


def test_a_stale_entry_fails_the_run():
    stale = mutants.Mutant("gone", "src/homlie/spaces.py", "no such snippet", "", (PARSE,))
    lines = []
    assert mutants.run([stale], out=lines.append) == 1
    assert lines[0].startswith("STALE    gone")


def test_a_killed_mutant_passes_the_run():
    killed = [m for m in mutants.MUTANTS if m.name == "frac: decimals let through"]
    lines = []
    assert mutants.run(killed, out=lines.append) == 0
    assert lines[0].startswith("killed   frac: decimals let through (")
