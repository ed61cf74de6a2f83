"""The allowlist matcher of tests/reach.py on a synthetic module."""

from __future__ import annotations

import pytest

import reach

MODULE = '''\
def f(x):
    """A docstring executes nothing."""
    if x:
        return 0
    return 1


class C:
    def g(self, x):
        if x:
            return 0
        total = 0

        def step():
            nonlocal total
            total += 1
        step()
        return total
'''


def _found(tmp_path, text, executed_lines):
    path = tmp_path / "mod.py"
    path.write_text(text)
    return reach.unreached({str(path): set(executed_lines)}, src=tmp_path)


def _line(text, source, nth=0):
    """The line number of the nth line whose stripped text is source."""
    hits = [n for n, line in enumerate(text.splitlines(), 1)
            if line.strip() == source]
    return hits[nth]


def _run_all_but(text, skipped):
    """Every line of text but the given ones, as executed lines."""
    return set(range(1, len(text.splitlines()) + 1)) - set(skipped)


ALLOW = """\
# a comment
mod.py | f | return 0 | tested elsewhere
mod.py | C.g | return 0 | tested elsewhere
"""


def test_ranges_name_their_function_and_skip_nonlocal(tmp_path):
    ret0 = [_line(MODULE, "return 0", k) for k in (0, 1)]
    nonlocal_line = _line(MODULE, "nonlocal total")
    found = _found(tmp_path, MODULE, _run_all_but(MODULE, ret0 + [nonlocal_line]))
    assert [(r.first, r.function, r.text) for r in found] == [
        (ret0[0], "f", "return 0"), (ret0[1], "C.g", "return 0")]
    step = _line(MODULE, "total += 1")
    found = _found(tmp_path, MODULE, _run_all_but(MODULE, [step]))
    assert [r.function for r in found] == ["C.g.<locals>.step"]


def test_every_range_listed_passes(tmp_path):
    ret0 = [_line(MODULE, "return 0", k) for k in (0, 1)]
    found = _found(tmp_path, MODULE, _run_all_but(MODULE, ret0))
    assert reach.check(found, reach.parse_allowlist(ALLOW)) == ([], [])


def test_an_unlisted_range_fails(tmp_path):
    ret0 = [_line(MODULE, "return 0", k) for k in (0, 1)]
    step = _line(MODULE, "total += 1")
    found = _found(tmp_path, MODULE, _run_all_but(MODULE, ret0 + [step]))
    unlisted, stale = reach.check(found, reach.parse_allowlist(ALLOW))
    assert [(r.function, r.text) for r in unlisted] == [
        ("C.g.<locals>.step", "total += 1")]
    assert stale == []


def test_a_stale_entry_fails(tmp_path):
    # Only f's return 0 is unreached: the entry for C.g names nothing.
    found = _found(tmp_path, MODULE, _run_all_but(MODULE, [_line(MODULE, "return 0")]))
    unlisted, stale = reach.check(found, reach.parse_allowlist(ALLOW))
    assert unlisted == []
    assert stale == [("mod.py", "C.g", "return 0")]


def test_the_same_text_in_two_functions_is_told_apart(tmp_path):
    # C.g's return 0 is unreached, but the only entry names f's.
    found = _found(tmp_path, MODULE,
                   _run_all_but(MODULE, [_line(MODULE, "return 0", 1)]))
    unlisted, stale = reach.check(
        found, reach.parse_allowlist("mod.py | f | return 0 | tested elsewhere\n"))
    assert [(r.function, r.text) for r in unlisted] == [("C.g", "return 0")]
    assert stale == [("mod.py", "f", "return 0")]


def test_an_entry_survives_a_line_shift_elsewhere(tmp_path):
    shifted = "import os\n\n\n" + MODULE
    ret0 = [_line(shifted, "return 0", k) for k in (0, 1)]
    found = _found(tmp_path, shifted, _run_all_but(shifted, ret0))
    assert [r.first for r in found] == [n + 3 for n in
                                        (_line(MODULE, "return 0", k) for k in (0, 1))]
    assert reach.check(found, reach.parse_allowlist(ALLOW)) == ([], [])


def test_each_entry_matches_one_range(tmp_path):
    # Two unreached ranges with the same key need two entries.
    twice = MODULE + "\n\ndef h(x):\n    if x:\n        return 0\n    y = 1\n    return 0\n"
    skipped = [_line(twice, "return 0", k) for k in (2, 3)]
    found = _found(tmp_path, twice, _run_all_but(twice, skipped))
    assert [(r.function, r.text) for r in found] == [("h", "return 0")] * 2
    one = "mod.py | h | return 0 | tested elsewhere\n"
    unlisted, stale = reach.check(found, reach.parse_allowlist(one))
    assert len(unlisted) == 1 and stale == []
    assert reach.check(found, reach.parse_allowlist(one * 2)) == ([], [])
    unlisted, stale = reach.check(found, reach.parse_allowlist(one * 3))
    assert unlisted == [] and stale == [("mod.py", "h", "return 0")]


def test_an_entry_without_a_reason_is_refused():
    with pytest.raises(ValueError, match="reach_allow.txt:1"):
        reach.parse_allowlist("mod.py | f | return 0\n")
    with pytest.raises(ValueError, match="reach_allow.txt:2"):
        reach.parse_allowlist("# comment\nmod.py | f | return 0 | \n")


def test_the_committed_allowlist_parses_and_gives_reasons():
    entries = reach.parse_allowlist(reach.ALLOW.read_text())
    assert entries
    for (module, _, _), _ in entries:
        assert (reach.SRC / module).exists()
