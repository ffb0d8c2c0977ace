"""Golden output: the bytes and exit code of every ``homlie`` subcommand.

``report --kmax 3`` on the bundled algebras was recorded before the
report's work was deduplicated behind caches, and ``report --kmax 2
--json`` of sheared h3 before a level on a diagonal twist stopped building
its commutation rows; every other subcommand,
and the failure paths (an algebra that fails Jacobi, a triple outside
the GDer space, an unknown space kind), were recorded before the command
line's output policy moved into ``main``.  Any change to the bytes a
command prints on stdout or stderr, or to its exit code, fails here.
Input files are written under ``tmp_path`` and named relative to it, the
working directory of each run, so a message that names its file pins
the file name and not the temporary path.  The test runs under
``python -O`` too, so it checks with ``pytest.fail``, not ``assert``.
Every document printed under ``--json`` must also be the bytes that
``json.dumps(indent=2)`` writes for it, plus a newline.
"""

import contextlib
import hashlib
import io
import json

import pytest

from homlie import write_algebra
from homlie.catalog import BUILTIN, load_builtin
from homlie.cli import main
from homlie.spaces import SpaceKind, solve_space
from test_solver_assembly import sheared_h3

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


def _check_document(text):
    """A document on stdout is printed as ``json.dumps(indent=2)`` prints it."""
    if text and text != json.dumps(json.loads(text), indent=2) + "\n":
        pytest.fail(f"a document not written as json.dumps(indent=2): {text[:200]!r}")


@pytest.mark.parametrize("algebra, flags", list(GOLDEN),
                         ids=lambda v: ("_".join(f.lstrip("-") for f in v) or "text")
                         if isinstance(v, tuple) else v)
def test_report_output_is_golden(algebra, flags):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["report", algebra, "--kmax", "3", *flags])
    if "--json" in flags:
        _check_document(out.getvalue())
    got = (hashlib.sha256(out.getvalue().encode()).hexdigest(), code)
    if got != GOLDEN[algebra, flags]:
        pytest.fail(f"report {algebra} {' '.join(flags)}: stdout sha256 and "
                    f"exit code {got}, recorded {GOLDEN[algebra, flags]}")


# report --kmax 2 --json of sheared h3, written to a file: the one twist here
# with an entry off its diagonal, so the strict levels presolve commutation rows
SHEARED_GOLDEN = {
    (): ("3e40d0290d6047cc7afd16da6a0b965b01b1124e6152265c0d0c8e576b11d59c", "", 0),
    ("--lax",): ("42134de98ce7133ad38e5b847285446e864b7a217ff264fa350786002daf905c", "", 1),
}


@pytest.mark.parametrize("flags", list(SHEARED_GOLDEN), ids=["strict", "lax"])
def test_report_of_a_twist_off_its_diagonal_is_golden(tmp_path, monkeypatch, flags):
    monkeypatch.chdir(tmp_path)
    write_algebra(sheared_h3(), "sheared_h3.json")
    got = _outcome(["report", "sheared_h3.json", "--kmax", "2", "--json", *flags])
    if got != SHEARED_GOLDEN[flags]:
        pytest.fail(f"report sheared_h3.json {' '.join(flags)}: (stdout sha256, stderr, "
                    f"exit code) {got}, recorded {SHEARED_GOLDEN[flags]}")


# [e1,[e2,e3]] + [e2,[e3,e1]] + [e3,[e1,e2]] = 0 + e3 + 0, so Jacobi fails
_BROKEN = {
    "name": "broken",
    "basis": [{"name": "a", "degree": 0}, {"name": "b", "degree": 0},
              {"name": "c", "degree": 0}],
    "alpha": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    "brackets": [
        {"left": 0, "right": 1, "result": [["1", 2]]},
        {"left": 0, "right": 2, "result": [["1", 0]]},
    ],
}

# basis[2] takes the name of basis[0]
_REPEATED_NAME = dict(_BROKEN, basis=[{"name": "a", "degree": 0}, {"name": "b", "degree": 0},
                                      {"name": "a", "degree": 0}])

# [x1, ., .] on ex2_5 is no generalized derivation at k = 1
_NON_MEMBER = [[["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]],
               [["0"] * 3] * 3, [["0"] * 3] * 3]


def _member(name):
    """The first basis triple of GDer at k = 1, degree 0."""
    spec = load_builtin(name)
    triple = solve_space(spec, SpaceKind.GDER, 1, 0).tuples[0]
    return [[[str(g.matrix.at(r, c)) for c in range(spec.n)]
             for r in range(spec.n)] for g in triple]


def _write_inputs(tmp_path):
    """Write the input files; returns {placeholder: name under tmp_path}."""
    docs = {"BROKEN": _BROKEN, "REPEATED_NAME": _REPEATED_NAME,
            "NON_MEMBER": {"degree": 0, "maps": _NON_MEMBER}}
    docs.update({f"MEMBER_{name}": {"degree": 0, "maps": _member(name)}
                 for name in BUILTIN})
    paths = {}
    for key, doc in docs.items():
        paths[key] = tmp_path / f"{key.lower()}.json"
        paths[key].write_text(json.dumps(doc))
    return {key: path.name for key, path in paths.items()}


_COMMANDS = {
    "validate": ["validate", "{algebra}"],
    "center": ["center", "{algebra}"],
    "solve-strict-even": ["solve", "{algebra}", "--kind", "QDer", "--k", "1",
                          "--degree", "0"],
    "solve-lax-odd": ["solve", "{algebra}", "--kind", "QDer", "--k", "1",
                      "--degree", "1", "--lax"],
    "chain": ["chain", "{algebra}", "--kmax", "2"],
    "laws": ["laws", "{algebra}", "--kmax", "2"],
    "laws-lax": ["laws", "{algebra}", "--kmax", "2", "--lax"],
    "jordan": ["jordan", "{algebra}", "--kmax", "2"],
    "extend": ["extend", "{algebra}"],
    "embed-k1": ["embed", "{algebra}", "--k", "1"],
    "embed-lax": ["embed", "{algebra}", "--lax"],
    "decompose-member": ["decompose", "{algebra}", "--k", "1",
                         "--triple", "{MEMBER_{algebra}}"],
}

_CASES = [(f"{command}-{name}", argv, name)
          for command, argv in _COMMANDS.items() for name in BUILTIN]
_CASES += [
    ("decompose-non-member", ["decompose", "ex2_5", "--k", "1", "--triple",
                              "{NON_MEMBER}"], None),
    ("validate-broken", ["validate", "{BROKEN}"], None),
    ("report-broken", ["report", "{BROKEN}"], None),
    ("extend-broken", ["extend", "{BROKEN}"], None),
    ("embed-broken", ["embed", "{BROKEN}"], None),
    ("solve-unknown-kind", ["solve", "ex2_5", "--kind", "Nope"], None),
    ("validate-repeated-name", ["validate", "{REPEATED_NAME}"], None),
]

# case + ("", "--json") -> (sha256 of stdout, stderr, exit code)
COMMAND_GOLDEN = {
    ('validate-ex2_5',): (
        '69fb1b54b2b5054acaf1b88c8fee389422a1a941d7a3570b7f3c27d97a5b7c36',
        '', 0),
    ('validate-ex2_5', '--json'): (
        'b947136fb55d868d7a28c5604fbefce5866d0c1f1eed614f21aaa2d83b09fc43',
        '', 0),
    ('validate-abelian2',): (
        'ea4a1d7e540b242eede14c410e17077144efdfbfe8b72fa846320d68e51969d3',
        '', 0),
    ('validate-abelian2', '--json'): (
        '4dd63e7d07a8c4e0db09bd183e5b0f8dddd51a5cbacc4e56fc871b8f48ee0d40',
        '', 0),
    ('validate-heisenberg3',): (
        'd7f7d53bd80a6cb47c7c8d6c499d62893b2f95b248ef9f14705da8bb523f414c',
        '', 0),
    ('validate-heisenberg3', '--json'): (
        'b728493eb3237d4e5cc73ad78bfa347797b585c496e9f24c7e8d2395bb7ddff4',
        '', 0),
    ('validate-odd_heisenberg',): (
        '36e47cc178e7ab0b051c95e3b62b95cbd844a151d4e93ff3bb1da876fd1dbb3c',
        '', 0),
    ('validate-odd_heisenberg', '--json'): (
        '41d7a566f7932e8c9c0ce9f041ca660a5629eb54dc11d27942a697cea8d90b40',
        '', 0),
    ('center-ex2_5',): (
        '80b94653365337e5572b8d013db188885616cd6cedb80079a2fc6248115c9de4',
        '', 0),
    ('center-ex2_5', '--json'): (
        '12249d94755ae53bccd1287ba39844f71fad46d138eff80f4383482c09223b38',
        '', 0),
    ('center-abelian2',): (
        '6016f46376f499b7845d758ed06a0e74ce32526ed059f631f98311aed24fda74',
        '', 0),
    ('center-abelian2', '--json'): (
        'e52ad349e22381c198cc3993723eaa7e8563beed92924c2461024a169b3afa68',
        '', 0),
    ('center-heisenberg3',): (
        '2296ef1857a8553eb9153b1fc5a5fd30393251f8c1b23444c119d249d8bec3e4',
        '', 0),
    ('center-heisenberg3', '--json'): (
        '3ab37e249c12c9ef56dec4ccd54def0761899fa2a43c5ca969658ce7917e2303',
        '', 0),
    ('center-odd_heisenberg',): (
        'f199b88737d438697468b9ac8799644599dd728814df141aea34b1fd4bf2bbca',
        '', 0),
    ('center-odd_heisenberg', '--json'): (
        '631747a43a5a1a688bb9567bccb55824e99cdac6e33f8d030b4e9ba3eac8d500',
        '', 0),
    ('solve-strict-even-ex2_5',): (
        '6bbe18947f78ec35abe37e71aa6565fa911489fd72a2299f82b3cfab9b5c3b94',
        '', 0),
    ('solve-strict-even-ex2_5', '--json'): (
        '657f78446f6197223d6f6ba8413eecef82f0c01f698a59cbe2907fa60ff38515',
        '', 0),
    ('solve-strict-even-abelian2',): (
        '02ab939d96a6d2b3e7a3f141ffed4c02a299b609a5f6ae8bb80db048f76a7834',
        '', 0),
    ('solve-strict-even-abelian2', '--json'): (
        '175b49fb52eb0a2c27d036d97f7a7a337f3a433ad3851a7fc4f31885acf713ca',
        '', 0),
    ('solve-strict-even-heisenberg3',): (
        'aeb04ddd5b1692aa3f365562bc9c4b62f4751e69fcf766e8c875e6e22062c676',
        '', 0),
    ('solve-strict-even-heisenberg3', '--json'): (
        'be063769a0178179068ac66277f02e471a205fea56183f2a32f3fad0986e5015',
        '', 0),
    ('solve-strict-even-odd_heisenberg',): (
        '522c03198e65f9793ffa97f20a7b9a6fa2f233805e84799d6993692c90289841',
        '', 0),
    ('solve-strict-even-odd_heisenberg', '--json'): (
        'f3a1a1421b969dfe817db116e55054aa49f306a36278860bacde5049febe8afb',
        '', 0),
    ('solve-lax-odd-ex2_5',): (
        'a717acb02d0c1f0bb045542d5ad050c1df568f028a3e2c3b99494ddb8ab6a898',
        '', 0),
    ('solve-lax-odd-ex2_5', '--json'): (
        '56609245eafa1360514e5cb0472562c9bddb339e287a63be4b885c8f7e06d59c',
        '', 0),
    ('solve-lax-odd-abelian2',): (
        'a54a100d65aa62f41aed46bb1c04581270e0df325afa05cacb91e0453fccc5db',
        '', 0),
    ('solve-lax-odd-abelian2', '--json'): (
        '1363c19b1098515e4b623efdc1b899e42c8bf469693215ab1efc8b62b0032167',
        '', 0),
    ('solve-lax-odd-heisenberg3',): (
        '8f6c28912da8840ec8ad72849983699f40c68788b1d7c60dfe618e0f06ebff7b',
        '', 0),
    ('solve-lax-odd-heisenberg3', '--json'): (
        '4b8ef92b1728b528fd43ae67747baa737413b1263502fbb6fce116b6ddc5d055',
        '', 0),
    ('solve-lax-odd-odd_heisenberg',): (
        '6f0170599525e786b56bbfbd1999874d1863f6173a29e130f662fbc2ab35516b',
        '', 0),
    ('solve-lax-odd-odd_heisenberg', '--json'): (
        '8b60e89e821493830d595343dc6050fb0438630ac154279d6a90244079112afd',
        '', 0),
    ('chain-ex2_5',): (
        '22648e64376df428c1b8656497e7f13d36dfb0e8b845c564cd4e969cdae96dd8',
        '', 0),
    ('chain-ex2_5', '--json'): (
        '0673e28e34e3853046df1db226d81f2f9f48ab39305fa9c7305e4c0ad7b96cbc',
        '', 0),
    ('chain-abelian2',): (
        '22648e64376df428c1b8656497e7f13d36dfb0e8b845c564cd4e969cdae96dd8',
        '', 0),
    ('chain-abelian2', '--json'): (
        'bf052ee47f1bc412d7c8e5b7781e040c7ecc5b1a2d82ba4159c0cbdf574a0484',
        '', 0),
    ('chain-heisenberg3',): (
        '22648e64376df428c1b8656497e7f13d36dfb0e8b845c564cd4e969cdae96dd8',
        '', 0),
    ('chain-heisenberg3', '--json'): (
        '99130b3d44d0f4ceed91a48f06a8977095c8d03324ce245f71727bd8d2f5061f',
        '', 0),
    ('chain-odd_heisenberg',): (
        '22648e64376df428c1b8656497e7f13d36dfb0e8b845c564cd4e969cdae96dd8',
        '', 0),
    ('chain-odd_heisenberg', '--json'): (
        'cb7c4812a8c31043e3aef6c934790116256d7951d0f27b075cd3a09d5953505c',
        '', 0),
    ('laws-ex2_5',): (
        'ed095f9b8b29e2a6ff9c2839255b4f8b4711b5ab1526b08b211901fb878321a1',
        '', 0),
    ('laws-ex2_5', '--json'): (
        '672b2e9e68bbf8d369b409add8442cf02bdeba0c29d8913c2ff256fcb042444e',
        '', 0),
    ('laws-abelian2',): (
        'fbe63e19ad707caebb7f0478f1cdc7240f9e2fda8db128ec83f635eb8fdead94',
        '', 0),
    ('laws-abelian2', '--json'): (
        '7affb620dbe7b3048831f88f5609d7af442e105b573afc1e5e554f94a93bd5e7',
        '', 0),
    ('laws-heisenberg3',): (
        'fbe63e19ad707caebb7f0478f1cdc7240f9e2fda8db128ec83f635eb8fdead94',
        '', 0),
    ('laws-heisenberg3', '--json'): (
        '6100caa9b3ea4bc80afcce8d39f67c38ba75385cc7ee961450b4006db4eaf0a9',
        '', 0),
    ('laws-odd_heisenberg',): (
        'fbe63e19ad707caebb7f0478f1cdc7240f9e2fda8db128ec83f635eb8fdead94',
        '', 0),
    ('laws-odd_heisenberg', '--json'): (
        'f0c6c7776e3f327dd6e7c4994648c23c83f4b3094e4310f0df97769a82d12c68',
        '', 0),
    ('laws-lax-ex2_5',): (
        '22d304ef3c56c4e7a5975c2453865d68976205c0ab80e0eb4cd73b53c30013ba',
        '', 1),
    ('laws-lax-ex2_5', '--json'): (
        'da39a574531b23634ac4eed2e309afb64e2e775fb1c78f0125c1c8584edbffc7',
        '', 1),
    ('laws-lax-abelian2',): (
        'fbe63e19ad707caebb7f0478f1cdc7240f9e2fda8db128ec83f635eb8fdead94',
        '', 0),
    ('laws-lax-abelian2', '--json'): (
        '6e28453bf9fcbedb72dd26bace6201c82cb65bde3de884fdabb7e6eed9e0d459',
        '', 0),
    ('laws-lax-heisenberg3',): (
        'fbe63e19ad707caebb7f0478f1cdc7240f9e2fda8db128ec83f635eb8fdead94',
        '', 0),
    ('laws-lax-heisenberg3', '--json'): (
        'cb9be813bbb2f031329e5478e997e96bfe4fa864f2338568e6d1c0bfea2b4b69',
        '', 0),
    ('laws-lax-odd_heisenberg',): (
        'fbe63e19ad707caebb7f0478f1cdc7240f9e2fda8db128ec83f635eb8fdead94',
        '', 0),
    ('laws-lax-odd_heisenberg', '--json'): (
        'c99b1a53b1a31eca23d75e3af0d00187482498ece8f36293650ba0e06838e0e4',
        '', 0),
    ('jordan-ex2_5',): (
        'e39a18c0f6924fe0e93e2f99b7b56b16c12f4aaeb82a054864fed4ed6b7b23e6',
        '', 0),
    ('jordan-ex2_5', '--json'): (
        '788bcb3c0123366188e0add4e5bc80999b7329a2bf318d6de96c2f63b420e81e',
        '', 0),
    ('jordan-abelian2',): (
        'e39a18c0f6924fe0e93e2f99b7b56b16c12f4aaeb82a054864fed4ed6b7b23e6',
        '', 0),
    ('jordan-abelian2', '--json'): (
        '83c01a7bc5d1b5100ebd5644e01a9ed1259afac76e2678c17125fa85796174df',
        '', 0),
    ('jordan-heisenberg3',): (
        'e39a18c0f6924fe0e93e2f99b7b56b16c12f4aaeb82a054864fed4ed6b7b23e6',
        '', 0),
    ('jordan-heisenberg3', '--json'): (
        '41e0996f521a2b4ed8ddb6a32bcba447fef78fa8b3f085e7de2981de78a98bd6',
        '', 0),
    ('jordan-odd_heisenberg',): (
        'e39a18c0f6924fe0e93e2f99b7b56b16c12f4aaeb82a054864fed4ed6b7b23e6',
        '', 0),
    ('jordan-odd_heisenberg', '--json'): (
        '8b8d76033a825a588d44d5ffdcf9f48c61e93182c2b7c13b1a711e37bf2f0530',
        '', 0),
    ('extend-ex2_5',): (
        '22e0243d5e3b91dbe7408e366d99116424f1f65ad04fa7f3d316f9c62185e036',
        '', 0),
    ('extend-ex2_5', '--json'): (
        '30260fee2731575c046bceea0620e0b25095995cd981586889d083c3d29800da',
        '', 0),
    ('extend-abelian2',): (
        '52ce216016d9675421544a1de474eed8e048365fc599d7e0c8492813f5f22f52',
        '', 0),
    ('extend-abelian2', '--json'): (
        '76fd65cec34e35bab366b992711b143d86602989d72e687626f672e70e0c1d4a',
        '', 0),
    ('extend-heisenberg3',): (
        '12d55c4b17017b00999d0ab9b9d5701d3df0b668a9d37f88e7f37c4ab3e50a5d',
        '', 0),
    ('extend-heisenberg3', '--json'): (
        '15cd1bf8b274ce74a45d4e256571389ec1c99c1457205082b7582017f58aedec',
        '', 0),
    ('extend-odd_heisenberg',): (
        'a962aedb37fe5e4a99c3c8273344f327914045a94cfa567f4252c00418147d90',
        '', 0),
    ('extend-odd_heisenberg', '--json'): (
        '45f625d259a0018a3428f27287a7431f16ff2ae03775d6269fef7f6e3b108666',
        '', 0),
    ('embed-k1-ex2_5',): (
        '45461496d4c94b3ad329b5815c749ce8bd2d5999976e606cbe9fda97e667126b',
        '', 0),
    ('embed-k1-ex2_5', '--json'): (
        'e4a85ec1bef0dbfd839ba717446ec2416131a0100d1bcd584ee9c27c70f48351',
        '', 0),
    ('embed-k1-abelian2',): (
        '063f3c72dfcbe2d8370148f79e42763c3ddde21319ed35d8d538f3ac541d4594',
        '', 0),
    ('embed-k1-abelian2', '--json'): (
        '91cbb181e002b363b6e3cb463e3ca55dece5541640176110e743ed4b7c814125',
        '', 0),
    ('embed-k1-heisenberg3',): (
        '3a9aed026a76007e2cf81c65284a13b4a99df8ee858ee6b5cb59e2b50ef64d94',
        '', 0),
    ('embed-k1-heisenberg3', '--json'): (
        'eda3bd2bc27d174ec161c6879ee831f794c164b1a66266cf478fa62a352d958b',
        '', 0),
    ('embed-k1-odd_heisenberg',): (
        'eb29983d9c868c5fbea9524ed897853748ab369f812ccc18392b8ccb18637a04',
        '', 0),
    ('embed-k1-odd_heisenberg', '--json'): (
        'aaa1f3f166429fcf5917b2d35a3cbe443666a32fa4b5f476855d19e5ea101763',
        '', 0),
    ('embed-lax-ex2_5',): (
        'a20aa557af8e8edf9c9b67be53938f612fb45aa43b9e9e3127d587822f273ba4',
        '', 0),
    ('embed-lax-ex2_5', '--json'): (
        '87971539f6b5444dbbcb9fff20619acb6a35308dd2ff19d5a358ba91ed92c59f',
        '', 0),
    ('embed-lax-abelian2',): (
        'a8bdf2b100356c4c5659ca1b6b72aa26f704ff88d7d69be62cc149e53b1347ab',
        '', 0),
    ('embed-lax-abelian2', '--json'): (
        '63b5b89a6507a866332ba523285e4a02beadd55f55827eda0d781426e29e8ac6',
        '', 0),
    ('embed-lax-heisenberg3',): (
        '67f791a1d4728dcf926f0d35102b2a7c847b469f02cb7b824ae8d10c4ffc74bf',
        '', 0),
    ('embed-lax-heisenberg3', '--json'): (
        '9dd324838c4d95281123d8102b8fc1d866d11e438fa166a4fd7b0acada999078',
        '', 0),
    ('embed-lax-odd_heisenberg',): (
        'a6355a3efe8687dfc6cdd22df96af5e48a951e5289e918b1e986720e9382a277',
        '', 0),
    ('embed-lax-odd_heisenberg', '--json'): (
        '5b4da555fb107b6e01d4cc36ee325f2f80a7626a62f6f264cc18f99d4268fa8d',
        '', 0),
    ('decompose-member-ex2_5',): (
        'cc95c2fef4d08beeead5e5877d6da334094d9f2f4cd51fd2421cddb78b8cadbe',
        '', 0),
    ('decompose-member-ex2_5', '--json'): (
        'dea8157cae032d70c3932c614ebbee06bec66342d81ee85b01c3a6f57e2946af',
        '', 0),
    ('decompose-member-abelian2',): (
        'c0b16d99cf5cf3d4509f4f3cf49328c7ca9895d5c5e25539d817baf3b456982a',
        '', 0),
    ('decompose-member-abelian2', '--json'): (
        '49ce9e2f46e36cf4d61ce508e25a886423ff2fbb5dee002730660a7e911f7f01',
        '', 0),
    ('decompose-member-heisenberg3',): (
        'c6d7d20f04b023308c397155d245f3f294787ce977de2ecee0714042741173ba',
        '', 0),
    ('decompose-member-heisenberg3', '--json'): (
        '5e974493440613c6fe4c14326ef0c2998b02d8a6a8edb661ca1d6764227eae12',
        '', 0),
    ('decompose-member-odd_heisenberg',): (
        'c0b16d99cf5cf3d4509f4f3cf49328c7ca9895d5c5e25539d817baf3b456982a',
        '', 0),
    ('decompose-member-odd_heisenberg', '--json'): (
        'c4b955a9a7b876ad2e497bbd269148947c19f05a94a25f6765e3cdfa73d4c0f0',
        '', 0),
    ('decompose-non-member',): (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'decomposition failed: triple is not in the generalized-derivation space at this k and degree\n', 1),
    ('decompose-non-member', '--json'): (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'decomposition failed: triple is not in the generalized-derivation space at this k and degree\n', 1),
    ('validate-broken',): (
        '1b3a700bcd09c3004190ae943fb17d11f2237c85964be6125c7088ef0f762ff5',
        '', 1),
    ('validate-broken', '--json'): (
        '6a91a4449c149cf12c3a87694dee2de22c1a80fdebcc0d49c168481714a56d5d',
        '', 1),
    ('report-broken',): (
        '3c18803a7159f61a95c9015276338fbc0b941b23babd6fa3080fe4ddabceb5b8',
        '', 1),
    ('report-broken', '--json'): (
        'e0f5e5964a7b1624fbb6e81beafa607f3b60eae06607cf73cde14027bfa84502',
        '', 1),
    ('extend-broken',): (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'extension failed: base algebra fails validation: twisted Jacobi\n', 1),
    ('extend-broken', '--json'): (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'extension failed: base algebra fails validation: twisted Jacobi\n', 1),
    ('embed-broken',): (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'extension failed: base algebra fails validation: twisted Jacobi\n', 1),
    ('embed-broken', '--json'): (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        'extension failed: base algebra fails validation: twisted Jacobi\n', 1),
    ('solve-unknown-kind',): (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        "error: unknown space kind 'Nope'; expected one of Der, GDer, QDer, C, QC, ZDer\n", 2),
    ('solve-unknown-kind', '--json'): (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        "error: unknown space kind 'Nope'; expected one of Der, GDer, QDer, C, QC, ZDer\n", 2),
    ('validate-repeated-name',): (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        "error: repeated_name.json: basis[2] repeats the name 'a' of basis[0]\n", 2),
    ('validate-repeated-name', '--json'): (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        "error: repeated_name.json: basis[2] repeats the name 'a' of basis[0]\n", 2),
}


def _argv(template, algebra, paths):
    argv = []
    for arg in template:
        if algebra is not None:
            arg = arg.replace("{algebra}", algebra)
        if arg.startswith("{") and arg.endswith("}"):
            arg = paths[arg[1:-1]]
        argv.append(arg)
    return argv


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if "--json" in argv:
        _check_document(out.getvalue())
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue(), code


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
@pytest.mark.parametrize("case, template, algebra", _CASES,
                         ids=[case for case, _, _ in _CASES])
def test_command_output_is_golden(tmp_path, monkeypatch, case, template, algebra,
                                  json_flag):
    monkeypatch.chdir(tmp_path)
    paths = _write_inputs(tmp_path)
    argv = _argv(template, algebra, paths) + list(json_flag)
    got = _outcome(argv)
    if str(tmp_path) in got[1]:
        pytest.fail(f"{case}: stderr names the temporary path: {got[1]!r}")
    want = COMMAND_GOLDEN.get((case, *json_flag))
    if got != want:
        pytest.fail(f"{' '.join(argv)}: (stdout sha256, stderr, exit code) "
                    f"{got}, recorded {want}")
