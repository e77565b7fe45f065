"""Built-in simulator-aware checkers.

Importing this package registers every built-in rule; the registry does
this lazily so ``import repro.analysis`` stays cheap.  Five rules, each
kept because it caught and fixed a real defect in this tree:

* per-file: ``config-bounds`` (config ``validate()`` coverage) and
  ``dimension-mismatch`` (cycle / bit / bit-cycle arithmetic, from
  :mod:`repro.analysis.effects.dimensions`);
* project-wide, over :mod:`repro.analysis.flow`: ``paper-fidelity``
  (catalogued paper constants), ``emit-coverage`` (decision hooks reach
  a ``bus.emit``) and ``state-contract-drift`` (the committed backend
  contract, from :mod:`repro.analysis.effects`).
"""

from repro.analysis.checkers.config_bounds import ConfigBoundsChecker
from repro.analysis.checkers.dimension import DimensionChecker
from repro.analysis.checkers.emit_coverage import EmitCoverageChecker
from repro.analysis.checkers.paper_fidelity import PaperFidelityChecker
from repro.analysis.checkers.state_contract import StateContractDriftChecker

__all__ = [
    "ConfigBoundsChecker",
    "DimensionChecker",
    "EmitCoverageChecker",
    "PaperFidelityChecker",
    "StateContractDriftChecker",
]
