"""The built-in verification suite: positive run and negative control."""

import persloc.verify
from persloc.examples import named_example
from persloc.fields import DEFAULT_FIELD, Field
from persloc.presentation import GradedPresentation
from persloc.verify import CHECKS, run_all


def _substitute(monkeypatch, name, obj):
    """Make the suite see `obj` wherever it asks for the named example `name`."""
    monkeypatch.setattr(
        persloc.verify,
        "named_example",
        lambda n, fld: obj if n == name else named_example(n, fld),
    )


def test_all_checks_pass_default_field():
    report = run_all()
    assert len(report) == len(CHECKS) == 7
    for entry in report:
        assert entry["ok"], (entry["id"], entry["detail"])
    # ordering is fixed by registry index, not completion order
    assert [e["id"] for e in report] == [cid for cid, _, _ in CHECKS]


def test_all_checks_pass_other_fields():
    for fld in (Field(2), Field(3), Field(0)):
        report = run_all(fld)
        assert all(e["ok"] for e in report), (str(fld), report)


def test_corrupted_example_yields_named_failure(monkeypatch):
    # swap the same-rank module for a plainly different one: the check that
    # consumes it must fail, by name, and the others must stay green
    wrong = GradedPresentation.build(2, DEFAULT_FIELD, [(0, 0)], [])
    _substitute(monkeypatch, "samerank_m", wrong)
    report = run_all()
    by_id = {e["id"]: e for e in report}
    assert not by_id["same_rank_pair"]["ok"]
    assert by_id["delocalization_gap"]["ok"]
    assert by_id["quiver_shape"]["ok"]


def test_crashing_override_is_reported_not_raised(monkeypatch):
    class Boom:
        def __getattr__(self, name):
            raise RuntimeError("boom")

    _substitute(monkeypatch, "samerank_m", Boom())
    report = run_all()
    by_id = {e["id"]: e for e in report}
    assert not by_id["same_rank_pair"]["ok"]
    assert "raised" in by_id["same_rank_pair"]["detail"]
