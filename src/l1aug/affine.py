"""Control-affine approximation of a learned model, rebuilt on demand.

Around an anchor input ubar, the model is expanded to first order in the
input only: dx ~ g(x) + h(x) u with h(x) the input Jacobian evaluated at
(x, ubar). When the expansion drifts from the full model by at least eps_a
at the current operating point, the caller re-anchors at the current input.

Any object exposing ``predict_mean(x, u)`` and ``jacobian_u(x, u)`` can be
affinized; the trained ensemble and the synthetic specs of the
verification harness both satisfy that protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class SwitchEvent:
    """One re-anchoring: the residual that tripped the check and both anchors."""

    t: int
    old_anchor: Array
    new_anchor: Array
    residual: float


@dataclass(frozen=True)
class SwitchDecision:
    switch: bool
    residual: float
    parts: tuple[Array, Array] = field(repr=False, compare=False)  # the checked am.parts(x), reused if am is kept


@dataclass(frozen=True)
class AffineModel:
    """First-order-in-u expansion of ``model`` around the anchor ``ubar``.

    Immutable; evaluation is pure. ``parts`` evaluates the model once per
    state and returns everything the adaptive controller needs at that state.
    """

    model: object
    ubar: Array

    def parts(self, x: Array) -> tuple[Array, Array]:
        """(prediction at the anchor, input Jacobian at the anchor), both at x."""
        f_anchor = self.model.predict_mean(x, self.ubar)
        jac = self.model.jacobian_u(x, self.ubar)
        return f_anchor, jac

    def predict(self, x: Array, u: Array, parts: tuple[Array, Array] | None = None) -> Array:
        """g(x) + h(x) u, exact at u = ubar; ``parts`` is ``self.parts(x)`` when already evaluated."""
        f_anchor, jac = self.parts(x) if parts is None else parts
        return f_anchor + jac @ (np.asarray(u, dtype=float) - self.ubar)


def affinize(model: object, ubar: Array) -> AffineModel:
    """Expand ``model`` around the anchor input ``ubar``."""
    ubar = np.asarray(ubar, dtype=float)
    if not np.isfinite(ubar).all():
        raise ValueError("affinize: anchor input must be finite")
    return AffineModel(model=model, ubar=ubar.copy())


def switching_check(am: AffineModel, x: Array, u: Array, eps_a: float) -> SwitchDecision:
    """Compare the expansion against the full model at (x, u).

    Returns switch=True when the Euclidean residual reaches eps_a
    (inclusive). Never mutates the model; the caller re-anchors.
    """
    if eps_a <= 0:
        raise ValueError("switching_check: eps_a must be positive")
    parts = am.parts(x)
    residual = float(np.linalg.norm(am.predict(x, u, parts) - am.model.predict_mean(x, u)))
    return SwitchDecision(switch=residual >= eps_a, residual=residual, parts=parts)


def reanchor(
    am: AffineModel | None, model: object, x: Array, u: Array, eps_a: float
) -> tuple[AffineModel, SwitchDecision | None]:
    """The switching law: the model to use at (x, u) and the check that chose it.

    With no model yet (``am`` is None) it anchors at u silently and returns
    no decision; after that it re-anchors at u whenever the residual reaches
    eps_a.
    """
    if am is None:
        return affinize(model, u), None
    decision = switching_check(am, x, u, eps_a)
    return (affinize(model, u) if decision.switch else am), decision


def kept_parts(decision: SwitchDecision | None) -> tuple[Array, Array] | None:
    """The checked model's ``parts(x)`` when ``reanchor`` kept that model, else None (a new anchor)."""
    return None if decision is None or decision.switch else decision.parts


def replay_switch_count(model: object, xs: Array, us: Array, eps_a: float) -> int:
    """Count re-anchorings of the switching law over a recorded (x_t, u_t) trajectory."""
    am, count = None, 0
    for x, u in zip(xs, us):
        am, decision = reanchor(am, model, x, u, eps_a)
        count += int(decision is not None and decision.switch)
    return count
