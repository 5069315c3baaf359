"""Adaptive-control augmentation for model-based RL on desk-scale systems."""

from .affine import AffineModel, SwitchEvent, affinize, reanchor, switching_check
from .dynmodel import Ensemble, Normalizer, TrainOptions, TransitionDataset, make_ensemble, train
from .envsim import DisturbanceSpec, EnvSpec, Transition, make_env, step_true
from .l1core import L1Config, L1State, adapt, decompose, filter_step, l1_control, l1_input
from .mbrl import LoopConfig, MpcConfig, RunRecord, mpc_action, run_episode, train_loop
from .verify import SyntheticSpec, check_assumption_bound, run_bound_experiment

__version__ = "0.1.0"
