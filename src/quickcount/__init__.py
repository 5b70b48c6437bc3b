"""quickcount: sequential vote inspection at minimum expected cost.

Determine the winner of an election whose votes are random with known
per-voter distributions and known inspection costs, using constant-factor
approximation strategies for the absolute- and relative-majority rules, an
exact optimal-strategy oracle, and evaluators that measure every strategy
against it.
"""

from .core import (CERTIFICATES, Instance, InstanceError, Outcome, abs_majority,
                   rel_majority)
from .bench import GeneratorSpec, ResultRow, generate, run_experiment
from .dualgreedy import (AdgRun, MalformedGoalError, RatioSample,
                         adg_ratio_samples, adg_run)
from .goals import (GoalFunction, abs_majority_goal, and_combine, g_against,
                    g_for, or_combine, ternary_threshold_goal)
from .kernels import modified_round_robin
from .oracle import (BudgetExceededError, EvaluationBudgetError,
                     EvaluationReport, MonteCarloResult,
                     OptimalStrategy, StrategyError, estimate_belief_states,
                     evaluate_strategy, exact_strategy_cost, monte_carlo_cost,
                     optimal_expected_cost)
from .strategies import (STRATEGIES, Strategy, Transcript, TranscriptStep,
                         make_strategy, run_strategy)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
