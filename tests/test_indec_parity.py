"""`is_indecomposable` pinned byte for byte on a fixed corpus of reps.

The corpus is `random_rep(s, n)` over F_2, F_3, F_5, F_101 and Q, direct
sums R + R of an indecomposable R with itself, and two homogeneous tubes.
Every `no` witness is decided again, summand by summand, down to the leaves,
so the corpus reaches `_fixed_split` and the seeded `_trials`, whose
witnesses no golden CLI invocation reaches.  One SHA-256 over the verdict,
`endo_dim` and witness repr of every call pins the lot.  When a verdict or a
witness is meant to change, print the new digest with

    PYTHONPATH=src python tests/test_indec_parity.py

and say why in the commit.
"""

from __future__ import annotations

import hashlib

from persloc import quiver
from persloc.fields import Field
from persloc.quiver import is_indecomposable, random_rep
from test_golden_cli import _tube

DIGEST = "19f8af7374e16fd350238c122d7f821780c4d25cc61acb750d05ceb269d5240c"

_FIELDS = (Field(2), Field(3), Field(5), Field(101), Field(0))


def _lines() -> list[str]:
    """One line per call, each `no` followed by the calls on its two summands;
    the R + R pairs double the first two `yes` leaves of dimension at least 3
    of each field's random reps."""
    out, leaves = [], {fld: [] for fld in _FIELDS}

    def decide(rep):
        res = is_indecomposable(rep)
        out.append(f"{res.verdict} {res.endo_dim} {res.witness!r}")
        if res.verdict == "yes" and rep.total_dim() >= 3:
            leaves[rep.field].append(rep)
        for part in res.witness or ():
            decide(part)

    for fld in _FIELDS:
        for s in range(30 if fld.char else 15):
            for n in (None, 3):
                decide(random_rep(s, n=n, fld=fld))
    pairs = [r.direct_sum(r) for fld in _FIELDS for r in leaves[fld][:2]]
    assert len(pairs) == 2 * len(_FIELDS)
    for rep in [*pairs, _tube(5, 3), _tube(0, 2)]:
        decide(rep)
    return out


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_indec_corpus_is_pinned(monkeypatch):
    reached = {"_fixed_split": 0, "_trials": 0}
    for name in reached:
        real = getattr(quiver, name)

        def spy(*args, real=real, name=name):
            reached[name] += 1
            return real(*args)

        monkeypatch.setattr(quiver, name, spy)
    lines = _lines()
    # the pin covers the witnesses of both searches past the basis
    assert min(reached.values()) > 0, reached
    assert _digest(lines) == DIGEST


if __name__ == "__main__":
    print(_digest(_lines()))
