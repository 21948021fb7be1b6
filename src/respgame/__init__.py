"""Backward responsibility values for lasso counterexamples in finite
transition systems: engraved two-player games, exact Shapley values,
polynomial positivity algorithms and partition refinement.

The names below are the ones the CLI and the package's own modules use;
everything else is imported from its submodule."""

from .errors import (AnalysisTimeout, BlockCapExceeded, InputError,
                     PlayerCapExceeded, RefusalError, StateCapExceeded)
from .explicit import ExplicitModelDoc, build_system, serialize_explicit
from .games import (FORWARD, MODES, OPTIMISTIC, PESSIMISTIC, build_game,
                    engrave, game_value, solve)
from .generators import generate
from .grouping import GroupingSpec, resolve_grouping
from .model import (BUECHI, OBJECTIVE_KINDS, PARITY, REACHABILITY, SAFETY,
                    LassoRun, NoViolation, Objective, TransitionSystem,
                    find_violating_run, violates)
from .modlang import expand_program, parse_program
from .positivity import positivity_buechi_opt_all, positivity_reach_opt
from .refinement import (HeuristicsConfig, RefinementResult, refine_loop,
                         responsibility_via_refinement)
from .shapley import (PayoffGame, PlayerSet, ResponsibilityReport,
                      oracle_shapley, oracle_shapley_and_minimal,
                      prune_dummies, shapley_exact)

__version__ = "0.1.0"
