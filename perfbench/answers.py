"""Reduce each operation's output to a digest of its answer fields.

Only what homlie answers is digested: exit codes, check names, statuses
and details, validation results, dimensions and canonical bases.  JSON
keys outside :data:`ANSWER_KEYS` are dropped, so timing or statistics
fields added to the output later do not change a digest.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference_digests.json")

# every key of ``homlie report --json`` output that carries an answer
ANSWER_KEYS = frozenset({
    "command", "algebra", "mode", "strict", "k_max", "ok",
    "validation", "skew_ok", "even_ok", "jacobi_ok", "multiplicative_ok",
    "failures", "identity", "indices", "residual",
    "center_dim", "dimensions", "kind", "k", "theta", "dim",
    "double", "validates", "truncation_ok", "u_complement_dim", "error",
    "checks", "title", "name", "status", "detail",
})


def answer_fields(doc):
    """``doc`` restricted to :data:`ANSWER_KEYS`, recursively."""
    if isinstance(doc, dict):
        return {k: answer_fields(v) for k, v in doc.items() if k in ANSWER_KEYS}
    if isinstance(doc, list):
        return [answer_fields(v) for v in doc]
    return doc


def report_answer(exit_code: int, stdout: str) -> dict:
    """Answer of one ``homlie report --json`` call; raises ValueError on
    output that is not JSON."""
    return {"exit": exit_code, "report": answer_fields(json.loads(stdout))}


def check_answer(rep) -> dict:
    """Answer of a CheckReport: its title and every check."""
    return {"title": rep.title,
            "checks": [[c.name, c.status, c.detail] for c in rep.checks]}


def space_answer(space) -> dict:
    """Answer of a MapSpace: what was solved and its canonical basis."""
    return {"kind": space.kind.value, "k": space.k, "degree": space.degree,
            "strict": space.strict, "n": space.n,
            "degrees": [[g.degree for g in t] for t in space.tuples],
            "tuples": [[[[str(g.matrix.at(r, c)) for c in range(g.n)]
                         for r in range(g.n)] for g in t]
                       for t in space.tuples]}


def digest(answer) -> str:
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def load_reference() -> dict[str, str]:
    """Reference digests keyed by operation key."""
    return json.loads(REFERENCE_FILE.read_text())["digests"]
