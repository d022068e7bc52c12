"""Quickest-change-detection-driven control of non-stationary MDPs.

The package solves a pair of tabular MDPs (pre/post change), monitors the
state-action stream with sequential likelihood-ratio statistics, and runs
switching policies that trade pre-change reward against detection speed,
together with the Monte Carlo machinery to compare them.
"""

from .controllers import PHASES, SwitchController, kl_policy
from .detectors import (Detector, DetectorConfig, DetectorState, check_stop,
                        cusum_step, geometric_prior, glr_step,
                        log_likelihood_ratio, shiryaev_batch, shiryaev_step,
                        sr_step)
from .engine import EpisodeSetup, simulate_batch
from .errors import ModelError, NumericalError, StateError
from .harness import (EvaluationReport, PolicySet, delay_profile, frontier_sweep,
                      monte_carlo, optimize_thresholds, solve_policies)
from .inventory import (ChangeSpec, InventoryEnv, InventoryParams,
                        build_env, build_inventory_mdp, demand_pmf,
                        sample_change_point)
from .mdp import (TabularMdp, info_number, max_info_number,
                  policy_evaluation, stationary_distribution, value_iteration)
from .momdp import (MomdpSolution, RegimePomdp, belief_grid_solve, belief_update,
                    build_pomdp)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
