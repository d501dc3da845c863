"""The mutants of ``mutate.py`` still apply, checked without running any.

``mutate.apply`` finds a stale mutant (its text edited away, or written
twice) only when a full run reaches it, and then stops that run.
"""

from __future__ import annotations

import mutate


def test_every_mutant_changes_one_place_in_a_file_with_suites():
    stale = {}
    for name, (file, old, new) in mutate.MUTANTS.items():
        count = (mutate.REPO / "src" / "kolmozip" / file).read_text().count(old)
        if count != 1 or new == old or file not in mutate.SUITES:
            stale[name] = (file, count, new == old)
    assert stale == {}
    suites = {test for tests in mutate.SUITES.values() for test in tests}
    assert [test for test in sorted(suites) if not (mutate.REPO / "tests" / test).is_file()] == []
