"""Sensor-to-channel scheduling for remote state estimation.

Simulates N linear processes whose smart sensors share M lossy wireless
channels, provides four scheduling baselines, and trains a from-scratch
deep Q-network scheduler, together with boundedness diagnostics and a
benchmark harness.
"""

from .analysis import (DiscountComparison, StabilityReport, abel_comparison,
                       discounted_vs_average, log_success_shortfall_bound,
                       spectral_radius, stability_check,
                       threshold_policy_running_cost)
from .channel import (ChannelModel, channel_reset, channel_step,
                      spawn_channel_rngs)
from .dqn import (AgentState, DqnConfig, EpisodeRecord, ReplayBuffer,
                  act_epsilon_greedy, compute_targets, init_agent,
                  scheduling_policy_from, train, train_step, write_curve_csv)
from .environment import (EnvState, SchedAction, Transition, action_count,
                          action_decode, action_encode, env_reset, env_step,
                          observation_build, rollout)
from .errors import (ChecksumError, GenerationError, MalformedFileError,
                     NumericalError, PersistenceError,
                     RiccatiConvergenceError, SensorSchedError,
                     TrainingDivergedError, VersionMismatchError)
from .estimation import (ProcessModel, SteadyStateCache, TraceTable,
                         is_controllable, is_observable,
                         remote_error_by_holding, steady_state_covariance)
from .harness import (CompareRow, EvalReport, Scenario, compare_all,
                      evaluate_policy, load_scenario, make_policy,
                      save_scenario, scenario_generate, write_compare_csv,
                      write_eval_report)
from .neural import (AdamState, MlpParams, Workspace, adam_update, init_adam,
                     init_mlp, load_weights, loss_and_gradient, mlp_forward,
                     save_weights)
from .policies import (POLICY_NAMES, policy_greedy_covariance,
                       policy_greedy_holding, policy_random,
                       policy_round_robin)

__version__ = "0.1.0"
