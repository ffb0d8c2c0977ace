import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from homlie.algebra import AlgebraSpec
from homlie.catalog import BUILTIN, load_builtin, resolve
from homlie.fileformat import (
    AlgebraFileError,
    algebra_from_dict,
    algebra_to_dict,
    parse_algebra,
    parse_map_tuple,
    write_algebra,
)
from homlie.linalg import Matrix, vec


def _ex_doc():
    return {
        "name": "sample",
        "basis": [{"name": "x1", "degree": 0},
                  {"name": "x2", "degree": 0},
                  {"name": "x3", "degree": 0}],
        "alpha": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "2"]],
        "brackets": [
            {"left": 0, "right": 1, "result": [["1", 0]]},
            {"left": 0, "right": 2, "result": [["1", 1]]},
            {"left": 1, "right": 2, "result": [["2", 2]]},
        ],
    }


def test_parse_bundled_ex2_5():
    spec = load_builtin("ex2_5")
    assert spec.n == 3
    assert spec.basis_names == ("x1", "x2", "x3")
    assert spec.alpha == Matrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 2]])
    assert spec.brackets[0][1] == vec([1, 0, 0])
    assert spec.brackets[1][0] == vec([-1, 0, 0])  # filled by skew
    assert spec.brackets[1][2] == vec([0, 0, 2])


def test_round_trip_all_bundled():
    for name in BUILTIN:
        spec = load_builtin(name)
        again = algebra_from_dict(algebra_to_dict(spec))
        assert again == spec


def test_write_and_reparse(tmp_path):
    spec = load_builtin("odd_heisenberg")
    target = tmp_path / "odd.json"
    write_algebra(spec, target)
    assert parse_algebra(target) == spec


def test_resolve_prefers_files(tmp_path):
    doc = _ex_doc()
    doc["name"] = "from_file"
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    assert resolve(str(path)).name == "from_file"
    assert resolve("ex2_5").name == "ex2_5"
    with pytest.raises(AlgebraFileError):
        resolve("no_such_thing")


def test_reject_even_square_bracket():
    doc = _ex_doc()
    doc["brackets"].append({"left": 1, "right": 1, "result": [["1", 0]]})
    with pytest.raises(AlgebraFileError, match="forced to vanish"):
        algebra_from_dict(doc)


def test_reject_uneven_alpha():
    doc = _ex_doc()
    doc["basis"][2]["degree"] = 1
    doc["alpha"][0][2] = "1"
    with pytest.raises(AlgebraFileError, match="Z2 degrees"):
        algebra_from_dict(doc)


def test_reject_wrong_order():
    doc = _ex_doc()
    doc["brackets"][0] = {"left": 1, "right": 0, "result": [["1", 0]]}
    with pytest.raises(AlgebraFileError, match="skew-symmetry"):
        algebra_from_dict(doc)


def test_reject_duplicate_pair():
    doc = _ex_doc()
    doc["brackets"].append({"left": 0, "right": 1, "result": [["1", 1]]})
    with pytest.raises(AlgebraFileError, match="duplicate"):
        algebra_from_dict(doc)


def test_reject_bad_index():
    doc = _ex_doc()
    doc["brackets"][0]["result"] = [["1", 7]]
    with pytest.raises(AlgebraFileError, match="out of range"):
        algebra_from_dict(doc)


def test_reject_floats():
    doc = _ex_doc()
    doc["alpha"][0][0] = 1.5
    with pytest.raises(AlgebraFileError, match="floating point"):
        algebra_from_dict(doc)


def test_reject_bad_rational_string():
    doc = _ex_doc()
    doc["alpha"][0][0] = "one half"
    with pytest.raises(AlgebraFileError, match="alpha"):
        algebra_from_dict(doc)


def test_reject_degree_violating_result():
    doc = _ex_doc()
    doc["basis"][2]["degree"] = 1
    doc["alpha"] = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    # [x1, x2] is even but points at the odd x3
    doc["brackets"] = [{"left": 0, "right": 1, "result": [["1", 2]]}]
    with pytest.raises(AlgebraFileError, match="wrong Z2 degree"):
        algebra_from_dict(doc)


def test_parse_error_has_context(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(AlgebraFileError, match="invalid JSON"):
        parse_algebra(path)


def test_parse_map_tuple(tmp_path):
    path = tmp_path / "triple.json"
    path.write_text(json.dumps({
        "degree": 0,
        "maps": [[["1", "0"], ["0", "1"]],
                 [["0", "1/2"], ["0", "0"]],
                 [["0", "0"], ["3", "0"]]],
    }))
    maps = parse_map_tuple(path, 2, 3)
    assert len(maps) == 3
    assert maps[0].matrix == Matrix.identity(2)
    assert str(maps[1].matrix.at(0, 1)) == "1/2"
    with pytest.raises(AlgebraFileError, match="exactly 2"):
        parse_map_tuple(path, 2, 2)


def _set(path, value):
    def edit(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    (_set(("alpha", 1), ["0", "2"]), "<data>: 'alpha' must be an 3x3 array"),
    (_set(("alpha", 1, 2), "x"),
     "<data>: alpha[1][2]: bad rational literal 'x': expected p or p/q"),
    (_set(("alpha", 0, 0), 1.5),
     "<data>: alpha[0][0]: floating point is not allowed, use 'p/q' strings"),
], ids=["ragged", "bad-entry", "float"])
def test_alpha_array_errors_are_exact(edit, message):
    doc = _ex_doc()
    edit(doc)
    with pytest.raises(AlgebraFileError) as exc:
        algebra_from_dict(doc)
    assert str(exc.value) == message


@pytest.mark.parametrize("second, message", [
    ([["0", "1"], ["0"]], "maps[1]: must be an 2x2 array"),
    ([["0", "1"], ["x", "0"]],
     "maps[1][1][0]: bad rational literal 'x': expected p or p/q"),
    ([["0", "1"], [1.5, "0"]],
     "maps[1][1][0]: floating point is not allowed, use 'p/q' strings"),
], ids=["ragged", "bad-entry", "float"])
def test_map_array_errors_are_exact(tmp_path, second, message):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"degree": 0,
                                "maps": [[["1", "0"], ["0", "1"]], second]}))
    with pytest.raises(AlgebraFileError) as exc:
        parse_map_tuple(path, 2, 2)
    assert str(exc.value) == f"{path}: {message}"


@pytest.mark.parametrize("path", [
    ("basis", 0, "degree"),
    ("brackets", 0, "left"),
    ("brackets", 0, "right"),
    ("brackets", 0, "result", 0, 1),
], ids=lambda p: "-".join(map(str, p)))
@pytest.mark.parametrize("value", [True, 0.0, 1.0, "0", "1"], ids=repr)
def test_reject_non_integer_index(path, value):
    doc = _ex_doc()
    _set(path, value)(doc)
    with pytest.raises(AlgebraFileError, match="degree must be 0 or 1|integer"):
        algebra_from_dict(doc)


@pytest.mark.parametrize("degree", [True, 0.0, "0"], ids=repr)
def test_parse_map_tuple_rejects_non_integer_degree(tmp_path, degree):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"degree": degree,
                                "maps": [[["1"]], [["0"]]]}))
    with pytest.raises(AlgebraFileError, match="'degree' must be 0 or 1"):
        parse_map_tuple(path, 1, 2)


# JSON-like values biased towards the file format's own keys and literals
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["", "x", "0", "1", "-1/2", "1/0", "3e2"]) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["name", "basis", "degree", "alpha", "brackets",
                         "left", "right", "result"]) | st.text(),
        inner, max_size=4),
    max_leaves=8)


def _paths(doc, prefix=()):
    """Every key path into a nested document."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def _documents(draw):
    """Either an arbitrary value or the sample file with one part replaced."""
    if draw(st.booleans()):
        return draw(_json_values)
    doc = _ex_doc()
    _set(draw(st.sampled_from(list(_paths(doc)))), draw(_json_values))(doc)
    return doc


@given(_documents())
def test_parser_fuzz_raises_only_file_errors(doc):
    try:
        spec = algebra_from_dict(doc)
    except AlgebraFileError:
        return
    assert isinstance(spec, AlgebraSpec)
