"""Homogeneous-equation analysis by two-sided shooting.

Whether any solution of the original equation is q-integrable is decided
numerically on its first-order form y' = A(t) y.  The two-dimensional manifold
of solutions admissible at t -> -inf is integrated as its normal eta, which
solves the adjoint equation eta' = -A^T eta, the one-dimensional manifold
admissible at t -> +inf as a plain vector, and the normalized connection
determinant at t = 0 measures their transversality.  (The cross product of two
solutions is eta times exp(int tr A), a scalar that the normalization discards,
so the adjoint flow need not resolve the fast phase of tr A.)  Both flows are
shifted by the rate A+ at which both sides grow toward t = 0: that keeps them
bounded and only scales them by positive factors.  A mismatch above threshold
certifies that no nontrivial integrable solution exists at that lambda.  The
mode system takes its psi rows from each task's ``KernelK1`` and the U row's
coefficients c_k and kappa of L_k from ``params``, which owns them.

`shoot_batch` integrates many (k, lambda) points at once: the left normals of
all of them as one stacked system and their right vectors as a second.  The
batched points share the adaptive steps and scipy's RMS error norm, so a
point's mismatch depends on its batch companions at about 1e-11 relative;
`shoot_homogeneous` is a batch of one.  Both systems run on `_LinearFlow`,
scipy's DOP853 with its step control and error norm unchanged but its stages
formed for this linear flow: each attempted step builds its twelve stage
matrices A0 + e^{-alpha t} A1 in one broadcast and takes each stage as one
stacked matmul, where stock DOP853 calls a Python right-hand side per stage
(some 20,000 calls for a batch of a dozen points).  The accepted steps and
the evaluation count are stock DOP853's.  The stacked coefficients are
C-contiguous, the adjoint's transposed coupling copied once up front: a
transposed view makes every stage-matrix broadcast strided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853, solve_ivp

from .modes import KernelK1
from .params import VortexParams, _spectral_point

NO_INTEGRABLE = "no_integrable_solution"
INCONCLUSIVE = "inconclusive"

# a normalized connection determinant above this certifies NO_INTEGRABLE
MISMATCH_THRESHOLD = 1e-6
# normal/vector integration: DOP853 relative tolerance
SHOOT_RTOL = 1e-8
# the left side is integrated from t = -SHOOT_SPAN and the right side from
# t = SHOOT_SPAN, both to the matching point t = 0
SHOOT_SPAN = 12.0


@dataclass
class ShootingResult:
    lam: complex
    k: int
    mismatch: float
    verdict: str
    note: str


class _FlowFailed(RuntimeError):
    """Raised when one side of the shooting integration does not finish."""


def _system(params: VortexParams, kernels: list, lams: np.ndarray):
    """The mode ODE of every task, given by its K1 kernel, as
    y' = (M0 + e^{-alpha t} M1) y, with M0 and M1 of shape (tasks, 3, 3)."""
    p = params
    ks = np.array([k1.k for k1 in kernels], dtype=float)
    a_plus = np.array([k1.A_plus for k1 in kernels])
    a_minus = np.array([k1.A_minus for k1 in kernels])
    M0 = np.zeros((len(ks), 3, 3), dtype=complex)
    M1 = np.zeros_like(M0)
    # psi'' = (A+ A-) psi + (A- - A+) psi' + U, the relation K1 inverts
    M0[:, 0, 1] = 1.0
    M0[:, 1, 0] = a_plus * a_minus
    M0[:, 1, 1] = a_minus - a_plus
    M0[:, 1, 2] = 1.0
    M0[:, 2, 2] = p.alpha * (lams - p.a0)
    M1[:, 2, 0] = 2j * p.alpha * p.coupling * (p.m * ks)
    M1[:, 2, 2] = 1j * p.alpha * p.phase_amplitude(ks)
    return M0, M1


class _LinearFlow(DOP853):
    """scipy's DOP853 on the stacked mode flow y' = (A0 + e^{-alpha t} A1) y,
    A0 and A1 of shape (tasks, 3, 3), with the stage work done in numpy.

    Only ``_step_impl`` is replaced, and only in how an attempt forms its
    stages: one broadcast builds the coefficient matrices at the attempt's
    new stage times t + C_s h (s >= 1) and at t + h, and each stage is one
    stacked (tasks, 3, 3) @ (tasks, 3, 1) matmul written into ``K``.  The
    step control is ``RungeKutta``'s (minimum step, safety 0.9, factors 0.2
    and 10, no growth after a rejection) and the error norm DOP853's, so the
    accepted steps and ``nfev`` are stock DOP853's; the stage values agree
    with it to rounding.  ``fun`` still gives the first derivative, scipy's
    initial step and the dense-output stages.
    """

    def __init__(self, fun, t0, y0, t_bound, *, A0, A1, alpha, **options):
        self._A0, self._A1, self._alpha = A0, A1, alpha
        super().__init__(fun, t0, y0, t_bound, **options)
        # stage times of an attempt in units of h: stages 1 .. n_stages - 1, then t + h
        self._c = np.append(self.C[1:], 1.0)
        # per stage s >= 1: the stages it combines, its tableau row (complex, as
        # np.dot would cast it) and its row of K as (tasks, 3, 1); its state goes to _z
        K, A = self.K, self.A.astype(self.K.dtype)
        self._stages = [(K[:s].T, A[s, :s], K[s].reshape(-1, 3, 1))
                        for s in range(1, self.n_stages)]
        self._z = np.empty_like(self.y)

    def _step_impl(self):
        t, y, K, z = self.t, self.y, self.K, self._z
        min_step = 10 * np.abs(np.nextafter(t, self.direction * np.inf) - t)
        if self.h_abs > self.max_step:
            h_abs = self.max_step
        elif self.h_abs < min_step:
            h_abs = min_step
        else:
            h_abs = self.h_abs

        step_accepted = False
        step_rejected = False
        while not step_accepted:
            if h_abs < min_step:
                return False, self.TOO_SMALL_STEP
            h = h_abs * self.direction
            t_new = t + h
            if self.direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = np.abs(h)

            decay = np.exp(-self._alpha * (t + self._c * h))
            M = self._A0 + decay[:, None, None, None] * self._A1
            K[0] = self.f
            for Ms, (Ks, a, out) in zip(M, self._stages):
                # z = y + h * sum_j a_j K_j, summed in scipy's rk_step order
                np.dot(Ks, a, out=z)
                z *= h
                z += y
                np.matmul(Ms, z.reshape(-1, 3, 1), out=out)
            y_new = y + h * np.dot(K[:-1].T, self.B)
            f_new = (M[-1] @ y_new.reshape(-1, 3, 1)).ravel()
            K[-1] = f_new
            self.nfev += self.n_stages

            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            error_norm = self._estimate_error_norm(K, h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = 10
                else:
                    factor = min(10, 0.9 * error_norm ** self.error_exponent)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                step_accepted = True
            else:
                h_abs *= max(0.2, 0.9 * error_norm ** self.error_exponent)
                step_rejected = True

        self.h_previous = h
        self.y_old = y
        self.t = t_new
        self.y = y_new
        self.h_abs = h_abs
        self.f = f_new
        return True, None


def _flow_to_zero(A0, A1, alpha: float, y0, t_start: float, side: str) -> np.ndarray:
    """Integrate every task's y' = (A0 + e^{-alpha t} A1) y from a unit block at
    t_start to t = 0, all as one system on ``_LinearFlow``; returns the unit end
    blocks (tasks, 3).

    A0 and A1 must be C-contiguous (tasks, 3, 3) stacks: each attempted step
    forms A0 + e^{-alpha t} A1 at its twelve stage times, and on a strided view
    numpy takes its slow general loops, step after step."""

    def rhs(t, y):
        return ((A0 + math.exp(-alpha * t) * A1) @ y.reshape(-1, 3, 1)).ravel()

    Y = np.array(y0, dtype=complex)
    Y /= np.linalg.norm(Y, axis=1, keepdims=True)
    # t_eval: store the end state only, not every accepted step
    sol = solve_ivp(rhs, (t_start, 0.0), Y.ravel(), method=_LinearFlow, t_eval=(0.0,),
                    rtol=SHOOT_RTOL, atol=1e-13, A0=A0, A1=A1, alpha=alpha)
    if not sol.success:
        raise _FlowFailed(f"{side} integration failed: {sol.message}")
    Y = sol.y[:, 0].reshape(-1, 3)
    with np.errstate(over="ignore", invalid="ignore"):  # a finite block's norm can overflow
        norms = np.linalg.norm(Y, axis=1, keepdims=True)
    if not np.all(np.isfinite(norms)):
        raise _FlowFailed(f"{side} integration overflowed")
    return Y / norms


def _mismatches(params: VortexParams, kernels: list, lams: list) -> np.ndarray:
    """Normalized connection determinants at t = 0 of a batch of k >= 1 tasks."""
    M0, M1 = _system(params, kernels, np.array(lams, dtype=complex))
    # left 2-plane spanned by (1, A-, 0) and (0, 0, 1): its normal (A-, -1, 0)
    # follows -M^T and grows at the plane's rate A- + alpha (lambda - a0) - tr M0
    # = A+, the right vector like e^{-A+ t}: both flows are shifted by A+
    shift = np.array([k1.A_plus for k1 in kernels])[:, None, None] * np.eye(3)
    # -M1^T copied C-contiguous once: as a transposed view, each attempted step's
    # stage-matrix broadcast would run through numpy's strided loops (15.3 against
    # 10.1 us per attempt at 12 tasks, 202 against 33 us at 75, one core of a
    # 2-vCPU Xeon), and the left flow takes about 93% of the steps; the values,
    # and so every step, are the same
    eta = _flow_to_zero(-M0.transpose(0, 2, 1) - shift,
                        np.ascontiguousarray(-M1.transpose(0, 2, 1)), params.alpha,
                        [[k1.A_minus, -1.0, 0.0] for k1 in kernels], -SHOOT_SPAN, "left")
    yC = _flow_to_zero(M0 + shift, M1, params.alpha,
                       [[1.0, -k1.A_plus, 0.0] for k1 in kernels], SHOOT_SPAN, "right")
    return np.abs(np.sum(eta * yC, axis=1))


def shoot_batch(params: VortexParams, tasks: list[tuple[int, complex]]) -> list[ShootingResult]:
    """Two-sided shooting verdicts on integrable homogeneous solutions, one per
    (k, lambda) in ``tasks``, in order.

    The left-admissible plane (decaying stream-function branch plus the decaying
    U branch) is integrated as its normal under the adjoint flow; the
    right-admissible line (psi ~ e^{-(mk+2-2/q)t}) is integrated backward.
    ``mismatch`` is the normalized connection determinant at t = 0.  The left
    normals of every k >= 1 task are one integration and their right vectors a
    second, each with the growth e^{A+ |t|} shifted out.  If a batch fails or
    overflows, each task is rerun alone: only a task failing alone is inconclusive.
    """
    p = params
    tasks = [(k, _spectral_point(p, lam)) for k, lam in tasks]
    # the radial mode is first-order: its homogeneous solution grows like
    # e^{Re(B) t} as t -> +inf, so no nonzero solution is integrable
    results = [ShootingResult(lam=lam, k=0, mismatch=1.0, verdict=NO_INTEGRABLE,
                              note="first-order radial mode, analytic verdict")
               if k == 0 else None for k, lam in tasks]
    todo = [i for i, (k, _) in enumerate(tasks) if k != 0]
    if not todo:
        return results
    kernels = [KernelK1(tasks[i][0], p.q, p.m) for i in todo]
    try:
        mism = _mismatches(p, kernels, [tasks[i][1] for i in todo])
    except (_FlowFailed, ValueError, FloatingPointError) as exc:
        if len(todo) > 1:
            for i in todo:
                results[i] = shoot_batch(p, [tasks[i]])[0]
            return results
        k, lam = tasks[todo[0]]
        note = str(exc) if isinstance(exc, _FlowFailed) else f"stiff integration failure: {exc}"
        results[todo[0]] = ShootingResult(lam=lam, k=k, mismatch=0.0, verdict=INCONCLUSIVE,
                                          note=note)
        return results
    for i, mi in zip(todo, mism):
        k, lam = tasks[i]
        verdict = NO_INTEGRABLE if mi > MISMATCH_THRESHOLD else INCONCLUSIVE
        note = "" if verdict == NO_INTEGRABLE else \
            "connection determinant below threshold: possible eigenvalue or resolution limit"
        results[i] = ShootingResult(lam=lam, k=k, mismatch=mi, verdict=verdict, note=note)
    return results


def shoot_homogeneous(params: VortexParams, k: int, lam: complex) -> ShootingResult:
    """The shooting verdict at one (k, lambda): a batch of one task."""
    return shoot_batch(params, [(k, lam)])[0]
