"""Qualitative analysis of synchronizing objectives in MDPs, with exact
rational arithmetic, explicit isolation bounds, and brute-force oracles.
"""

from .adversarial import (decide_bounded, decide_positive, freezing_strategy,
                          support_lasso, switch_point)
from .bounds import BoundCert, attach_bounds, compute_bound
from .checks import CheckResult, run_checks
from .classic import decide_almost_sure, decide_limit_sure, decide_sure
from .engine import ConsistencyError, ModelAnalysis, analyze, check_consistency
from .examples import example_model, example_path
from .model import (BudgetExceeded, Dist, GuardExceeded, Limits, Mdp,
                    ModelFormatError, ParsedModel, StrategySpec, SupportSet,
                    SYNC_MODES, Verdict, WIN_MODES, format_rational, load_model,
                    min_initial_probability, min_positive_probability, model_to_obj,
                    parse_model, parse_rational, serialize_model, uniform_strategy)
from .oracle import Trace, enumerate_pure_strategies, max_mass_at_step, simulate
from .regions import (EcDecomposition, Lasso, PreMap, almost_sure_reach_region,
                      iterate_lasso, mec_decomposition, pre, pre_lasso,
                      reach_layers, sure_safety_region)

__version__ = "0.1.0"
