import io

from graphsl import verify


def test_full_suite_passes_at_default_seed():
    stream = io.StringIO()
    assert verify.run_suite(0, stream=stream) == 0
    lines = stream.getvalue().splitlines()
    assert len(lines) == len(verify.CHECKS)
    assert all(line.startswith("PASS ") for line in lines)


def test_suite_is_seed_stable():
    a, b = io.StringIO(), io.StringIO()
    verify.run_suite(11, stream=a)
    verify.run_suite(11, stream=b)
    assert a.getvalue() == b.getvalue()


def test_name_filter_runs_single_check():
    stream = io.StringIO()
    failures = verify.run_suite(0, names=["pencil-shift"], stream=stream)
    assert failures == 0
    lines = stream.getvalue().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("PASS pencil-shift:")


def test_selection_does_not_change_draws():
    """A check's random draws depend only on (seed, its name)."""
    name = verify.CHECKS[4][0]
    full, only = io.StringIO(), io.StringIO()
    verify.run_suite(5, stream=full)
    verify.run_suite(5, names=[name], stream=only)
    matching = [l for l in full.getvalue().splitlines() if f" {name}:" in l]
    assert matching == only.getvalue().splitlines()


def test_deleting_a_check_does_not_change_other_draws(monkeypatch):
    """Every check after the deleted first one moves up a place; no line changes."""
    full, fewer = io.StringIO(), io.StringIO()
    verify.run_suite(5, stream=full)
    monkeypatch.setattr(verify, "CHECKS", verify.CHECKS[1:])
    verify.run_suite(5, stream=fewer)
    assert fewer.getvalue().splitlines() == full.getvalue().splitlines()[1:]


def test_crashing_check_counts_as_failure(monkeypatch):
    def boom(rng):
        raise RuntimeError("synthetic crash")

    monkeypatch.setattr(verify, "CHECKS", [("boom", boom)])
    stream = io.StringIO()
    assert verify.run_suite(0, stream=stream) == 1
    assert "FAIL boom: raised RuntimeError: synthetic crash" in stream.getvalue()
