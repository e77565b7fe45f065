"""The figure grid must reproduce its committed golden statistics exactly.

Any change in simulated behaviour shows up here as an explicit diff
against ``golden_figure_grid.json``; regenerate that file with
``tests/golden_grid.py`` only for a deliberate, reviewed change.
"""

import pytest

from tests.golden_grid import CASES, load_golden, pinned_stats, run_case

_GOLDEN = load_golden()


def test_golden_covers_every_case():
    assert sorted(_GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_results_match_golden(name):
    assert pinned_stats(run_case(**CASES[name])) == _GOLDEN[name]
