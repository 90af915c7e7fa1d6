"""Anytime weighted partial MaxSAT solving with weight-clustering
approximation strategies, a bundled CDCL backend, and a verification
harness."""

from .clustering import (Partition, WeightScheme, distinct_weight_count,
                         is_bmo, partition, representative_weight)
from .encodings import CnfBuffer, GeneralizedTotalizer, Totalizer
from .harness import (ScoreTable, brute_force_optimum, run_benchmarks, score)
from .satcore import Budget, SatSolver, Status
from .search import (APX_SUBPROB, APX_WEIGHT, CLUSTERS_WEIGHTS,
                     OPTIMUM_FOR_APPROXIMATION, SATISFIABLE, UNKNOWN,
                     UNSATISFIABLE, SearchConfig, SearchReport, check_hard,
                     solve)
from .wcnf import (Clause, Model, WcnfFormula, WcnfParseError, check_model,
                   cost, parse_wcnf, relax, serialize_wcnf)

__version__ = "0.1.0"

__all__ = [
    "APX_SUBPROB", "APX_WEIGHT", "Budget", "CLUSTERS_WEIGHTS", "Clause",
    "CnfBuffer", "GeneralizedTotalizer", "Model", "OPTIMUM_FOR_APPROXIMATION",
    "Partition", "SATISFIABLE", "SatSolver", "ScoreTable",
    "SearchConfig", "SearchReport", "Status", "Totalizer", "UNKNOWN",
    "UNSATISFIABLE", "WcnfFormula", "WcnfParseError", "WeightScheme",
    "brute_force_optimum", "check_hard", "check_model", "cost",
    "distinct_weight_count", "is_bmo", "parse_wcnf", "partition", "relax",
    "representative_weight", "run_benchmarks", "score", "serialize_wcnf",
    "solve",
]
