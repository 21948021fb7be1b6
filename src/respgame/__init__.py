"""Backward responsibility values for lasso counterexamples in finite
transition systems: engraved two-player games, exact Shapley values,
polynomial positivity algorithms and partition refinement."""

from .errors import (AnalysisTimeout, BlockCapExceeded, InputError,
                     PlayerCapExceeded, RefusalError)
from .explicit import (ExplicitModelDoc, build_system, load_explicit,
                       parse_explicit, serialize_explicit)
from .games import (FORWARD, MODES, OPTIMISTIC, PESSIMISTIC, Game, GameArena,
                    WinningRegion, arena_to_dot, attractor, build_game,
                    dual_game, engrave, game_value, solve)
from .generators import generate
from .grouping import GroupingSpec, resolve_grouping, singleton_grouping
from .model import (BUECHI, OBJECTIVE_KINDS, PARITY, REACHABILITY, SAFETY,
                    LassoRun, NoViolation, Objective, RunIssue,
                    TransitionSystem, find_violating_run, validate_run,
                    violates)
from .modlang import (ExpandedModel, ModuleLangProgram, expand_program,
                      load_program, parse_program, serialize_program)
from .positivity import (RhoOrder, positivity_buechi_opt,
                         positivity_buechi_opt_all, positivity_reach_opt,
                         rho_order, values_reach_opt)
from .refinement import (BspWitness, HeuristicsConfig, Partition,
                         RefinementResult, compute_has_bsp, find_witness,
                         frontier, refine_block, refine_loop,
                         responsibility_via_refinement, select_blocks)
from .shapley import (PayoffGame, PlayerSet, ResponsibilityReport,
                      is_switching_pair, oracle_minimal_winning,
                      oracle_shapley, oracle_shapley_and_minimal,
                      prune_dummies, shapley_exact, threshold)

__version__ = "0.1.0"
