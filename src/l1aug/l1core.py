"""Discrete adaptive augmentation loop: switching law, predictor, adaptation, filter.

Between samples the controller carries the affine model the switching law
last anchored, a state predictor running it, and the low-pass filter state.
At each sample, one ``l1_control`` call: the switching law picks the model,
the prediction error drives a memoryless, piecewise-constant adaptation law
whose gain inverts the exact interval response of the error dynamics, and
the matched component of the estimate is low-pass filtered and subtracted
from the baseline input. ``l1_control`` also logs the unmatched component,
which the bound harness, calling ``l1_input`` itself, never computes.

Units convention: the uncertainty estimate ``sigma_rate`` is expressed in
state-units per second and multiplied by the sampling time wherever an
increment is needed (predictor update, matched solve, unmatched split). This
makes the discrete recursion the Euler discretization of the continuous
predictor. The analysis does not carry over exactly: the gain inverts the
exact response exp(As ts), and it is not deadbeat for the Euler error
recursion xtilde+ = (1 + As ts) xtilde + ts (sigma - d). So criterion 1's
one-interval exactness is a property of the bound harness in ``verify``,
which integrates the prediction error exactly. Under this predictor the
estimate of a constant disturbance settles over a few samples instead.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .affine import AffineModel, SwitchDecision, reanchor

Array = np.ndarray

log = logging.getLogger(__name__)

RANK_TOL = 1e-8


@dataclass(frozen=True)
class L1Config:
    """Sampling time, error-feedback eigenvalues, filter cutoff, switch tolerance.

    ``as_diag`` holds the diagonal of the Hurwitz error-feedback matrix
    (default -1 per state). The filter gain is omega per second; the discrete
    filter is stable iff 0 < omega * ts < 2. Only diagonal feedback matrices
    are supported, matching the estimation-error analysis.
    """

    ts: float
    as_diag: Array
    omega: float
    eps_a: float
    gain: Array = field(init=False, repr=False, compare=False)  # adapt's -phi^-1 exp(As ts), per state

    def __post_init__(self):
        object.__setattr__(self, "as_diag", np.atleast_1d(np.asarray(self.as_diag, dtype=float)))
        if not self.ts > 0:
            raise ValueError("L1Config: ts must be positive")
        if np.any(self.as_diag >= 0) or not np.all(np.isfinite(self.as_diag)):
            raise ValueError("L1Config: every diagonal entry of As must be strictly negative")
        if not (0.0 < self.omega * self.ts < 2.0):
            raise ValueError(f"L1Config: omega*ts = {self.omega * self.ts:g} outside (0, 2)")
        if not self.eps_a > 0:
            raise ValueError("L1Config: eps_a must be positive")
        decay = np.exp(self.as_diag * self.ts)
        object.__setattr__(self, "gain", -(decay / ((decay - 1.0) / self.as_diag)))


def default_l1_config(n: int, ts: float, eps_a: float, as_value: float = -1.0, omega_factor: float = 0.35) -> L1Config:
    return L1Config(ts=ts, as_diag=np.full(n, as_value), omega=omega_factor / ts, eps_a=eps_a)


@dataclass(frozen=True)
class L1State:
    """The controller's whole memory between samples: state predictor, filter state and anchor.

    The predictor starts on the measured initial state, the filter at zero
    and the anchor at None, until the first step anchors. Single-owner: step
    strictly in time order.
    """

    xhat: Array
    q: Array
    am: AffineModel | None = None

    @classmethod
    def initial(cls, x0: Array, m: int) -> "L1State":
        return cls(xhat=np.array(x0, dtype=float), q=np.zeros(m))


def adapt(xtilde: Array, cfg: L1Config) -> Array:
    """Piecewise-constant adaptation: sigma = -phi^-1 exp(As ts) xtilde.

    Chosen so that the estimate cancels, at the next sample, the error that
    the uncertainty injected over the current interval. Linear in xtilde;
    output in state-units per second.
    """
    return cfg.gain * np.asarray(xtilde, dtype=float)


def orthonormal_complement(h: Array) -> Array:
    """Orthonormal basis of the orthogonal complement of range(h), (n, max(n-m, 0))."""
    q_full, _ = np.linalg.qr(h, mode="complete")
    return q_full[:, h.shape[1]:]


def decompose(h: Array, sigma_rate: Array, ts: float) -> Array:
    """The matched component sigma_m of the per-step uncertainty increment, in input units.

    sigma_rate * ts = h sigma_m + h_perp sigma_um with h_perp an orthonormal
    complement basis; ``l1_control`` computes sigma_um, which only its trace
    reads. sigma_m is the minimum-norm least-squares solve, which drops singular values below
    ``RANK_TOL`` times the largest. A smallest singular value below
    ``RANK_TOL`` is a rank fallback, logged (one WARNING per call); sigma_m
    is then the pseudo-inverse solve cut at ``RANK_TOL`` itself, which zeroes
    a dead channel (``lstsq`` ignores ``rcond`` for a single column).
    """
    h = np.asarray(h, dtype=float)
    increment = np.asarray(sigma_rate, dtype=float) * ts
    sigma_m, _, _, sv = np.linalg.lstsq(h, increment, rcond=RANK_TOL)
    if sv.min() < RANK_TOL:
        log.warning("decompose: input channel near rank-deficient (smallest sv %.3e)", sv.min())
        sigma_m = np.linalg.pinv(h, rcond=RANK_TOL / max(sv.max(), RANK_TOL)) @ increment
    return sigma_m


def filter_step(q: Array, sigma_m: Array, cfg: L1Config) -> tuple[Array, Array]:
    """One first-order low-pass update; returns (next filter state, control).

    q tracks sigma_m with unit DC gain at rate omega; the adaptive input is
    the negated filter state.
    """
    q_next = q + cfg.omega * cfg.ts * (np.asarray(sigma_m, dtype=float) - q)
    return q_next, -q_next


def l1_input(u_rl: Array, xtilde: Array, h: Array, q: Array, cfg: L1Config) -> tuple[Array, Array, Array, Array]:
    """The adaptive law at one sample: adaptation, matched solve, filter.

    ``h`` is the input gain in increment units. Returns the augmented input
    u_rl + u_a, the estimate sigma_rate, its matched component sigma_m and
    the next filter state.
    """
    sigma_rate = adapt(xtilde, cfg)
    sigma_m = decompose(h, sigma_rate, cfg.ts)
    q_next, u_a = filter_step(q, sigma_m, cfg)
    return u_rl + u_a, sigma_rate, sigma_m, q_next


def l1_control(u_rl: Array, x: Array, model: object, state: L1State, cfg: L1Config
               ) -> tuple[Array, L1State, tuple[Array, Array, Array, Array], SwitchDecision]:
    """One augmented step, in order: the switching law ``reanchor`` at (x, u_rl),
    the prediction-error update, the adaptive law, then the Euler predictor
    advance xhat + dx_affine(x, u) + (sigma_rate + As xtilde) ts with the
    augmented input. Returns the input to execute, the next state, this
    step's estimates (xtilde, sigma_rate, sigma_m, sigma_um) and the switching
    decision. Where the model's parts at x are not finite, it executes u_rl
    and returns ``L1State.initial``, NaN estimates and a decision with no
    switch and a NaN residual, which is undefined there.
    """
    x = np.asarray(x, dtype=float)
    u_rl = np.asarray(u_rl, dtype=float)
    am, decision = reanchor(state.am, model, x, u_rl, cfg.eps_a)
    f_anchor, h = decision.parts
    if not (np.isfinite(f_anchor).all() and np.isfinite(h).all()):
        n, m = h.shape
        estimates = tuple(np.full(k, np.nan) for k in (n, n, m, max(n - m, 0)))
        return u_rl, L1State.initial(x, m), estimates, SwitchDecision(False, np.nan, decision.parts)
    xtilde = state.xhat - x
    u, sigma_rate, sigma_m, q_next = l1_input(u_rl, xtilde, h, state.q, cfg)
    sigma_um = orthonormal_complement(h).T @ (sigma_rate * cfg.ts)
    xhat_next = state.xhat + am.predict(decision.parts, u) + (sigma_rate + cfg.as_diag * xtilde) * cfg.ts
    return u, L1State(xhat=xhat_next, q=q_next, am=am), (xtilde, sigma_rate, sigma_m, sigma_um), decision
