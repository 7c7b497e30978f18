"""Mean-field population games: actor-critic fictitious-play training plus
exact discrete-game oracles."""

from .meanfield import (BeliefState, DensityGrid, GridSpec, belief_update,
                        build_empirical_measure, density_at, grid_distance)
from .envs import (CongestionReward, DemandReward, EnvSpec, LqrReward, congestion_env,
                   demand_env, lqr_env, sample_initial, step)
from .approx import AdamState, DivergenceError, GaussianPolicy, Mlp, adam_step
from .learner import (EpisodeLog, Schedules, TrainState, init_train_state, pg_update,
                      rollout, td_update, train)
from .oracle import (DiscreteMFG, best_response, exploitability, fictitious_play,
                     induced_flow, lqr_analytic, ring_game)

__all__ = [name for name in dir() if not name.startswith("_")]
