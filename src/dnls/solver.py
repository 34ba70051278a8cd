"""Constrained maximization of the lattice energy on the sphere of fixed power.

The engine maximizes P(u) = alpha*L(u) + W(u) over profiles with
sum u_j^2 = rho inside the cone of non-negative even unimodal sequences.
One update step is the normalized ascent map

    I(u) = sqrt(rho) * (u + tau*F(u)) / ||u + tau*F(u)||,
    F(u) = grad P(u) - m(u) * u,   m(u) = <grad P(u), u> / ||u||^2,

which preserves the constraint exactly. Fixed points solve the standing-wave
equation sigma*u_j = alpha*(u_{j+1}+u_{j-1}) + dpsi(u_j^2)*u_j with frequency
sigma = m(u)/2 (the gradient of P at a wave is twice the frequency times u).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from .functionals import EnergyBreakdown, energy, flow, level_energies, p_value
from .lattice import (_CELL_CACHE, Cell, IndexScheme, Profile, _Record, _whole, cone_slack,
                      cone_slack_values, restrict)
from .oracle import oracle_maximize  # noqa: F401  (the benchmark calls dnls.solver.oracle_maximize)
from .potentials import Potential, _require_assumptions


# acceptance slack for the monotone-energy backtracking test; for energies
# beyond ~45 the nominal 1e-14 would be sub-ulp and acceptance would turn
# into a rounding lottery, so the slack never falls below one part in 2^52
_ENERGY_SLACK = 1e-14
_EPS = float(np.finfo(float).eps)


def _energy_slack(p0: float) -> float:
    return max(_ENERGY_SLACK, _EPS * abs(p0))
_MAX_HALVINGS = 30
# sup-distance to the flat profile below which a run counts as near-constant
_NEAR_CONSTANT_TOL = 1e-8
# slack used when monitoring cone membership of iterates
_CONE_MONITOR_TOL = 1e-12
# sup-norm of an iterate change below which a step counts as tiny
_TOL_STEP = 1e-12
# largest spectral (BB2) trial step: the inverse of the flattest curvature it may follow
_TAU_BB_MAX = 1e6
# the tests of ``_step`` that can refuse a trial, in the order they run
_REJECTION_REASONS = ("energy", "cone")
# the ansatz weights: the 120 tuples of four non-negative integers summing to 7,
# in lexicographic order
_ANSATZ_WEIGHTS = np.array([w for w in itertools.product(range(8), repeat=4)
                            if sum(w) == 7], dtype=float)
# step of the differences for psi'', relative to x; near the cube root of the machine
# epsilon, where truncation and roundoff errors balance. ``validate`` keeps x = rho/N
# normal, so the step is positive
_D2PSI_STEP = 1e-5
# the least power rho/N per site of a valid config
_NORMAL_MIN = float(np.finfo(float).tiny)


@dataclass
class SolverConfig(_Record):
    alpha: float
    rho: float
    scheme: IndexScheme = IndexScheme.ON_SITE
    n: int = 25
    tau: float = 1.0
    tol_residual: float = 1e-10
    max_iters: int = 1_000_000

    def validate(self) -> None:
        for name, kinds, what in (("alpha", (int, float), "a real number"),
                                  ("rho", (int, float), "a real number"),
                                  ("tau", (int, float), "a real number"),
                                  ("tol_residual", (int, float), "a real number"),
                                  ("n", int, "an integer"),
                                  ("max_iters", int, "an integer")):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ValueError(f"{name} must be {what}, not {type(value).__name__}")
            if not -math.inf < value < math.inf:
                raise ValueError(f"{name} must be finite, not {value}")
        if self.n < 2:
            raise ValueError("N must be >= 2")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.rho / self.n < _NORMAL_MIN:
            # subnormal site values round the ansatz and the multiplier's dot
            # products at their coarse ulp: the solve would report a wrong wave
            raise ValueError(f"rho/N must be at least the smallest normal float "
                             f"{_NORMAL_MIN!r}, not rho/N = {self.rho!r}/{self.n}")
        if not 0 < self.tau <= 1e3:
            raise ValueError("tau must lie in (0, 1e3]")
        if self.tol_residual <= 0:
            raise ValueError("tol_residual must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")

    def cell(self) -> Cell:
        return Cell.periodic(self.scheme, self.n)

    @staticmethod
    def from_dict(data: dict) -> "SolverConfig":
        unknown = sorted(set(data) - {f.name for f in fields(SolverConfig)})
        if unknown:
            raise ValueError(f"unknown solver config keys: {', '.join(unknown)}")
        kwargs = dict(data)
        if "scheme" in kwargs:
            kwargs["scheme"] = IndexScheme(kwargs["scheme"])
        return SolverConfig(**kwargs)


@dataclass(frozen=True)
class DecayFit(_Record):
    fitted_rate: float
    bound_rate: float
    linear_rate: float
    tail_window: tuple
    fit_residual: float


@dataclass
class RunDiagnostics(_Record):
    """Per-run monitors: constraint drift, energy monotonicity, cone membership.

    ``cone_violations`` is 0 by construction: every accepted trial passed the
    cone test of ``_step``. It stays because acceptance criterion 5 and
    ``perfbench`` read it.
    """

    max_power_drift: float = 0.0          # relative to rho
    min_energy_increment: float = math.inf
    cone_violations: int = 0
    max_cone_slack: float = 0.0
    max_halvings: int = 0
    trials: int = 0                       # trial points evaluated by every step
    # refused trials by the test that refused them
    rejections: dict = field(default_factory=lambda: dict.fromkeys(_REJECTION_REASONS, 0))
    restarted: bool = False               # flat was unstable; a kicked run was made
    # lambda_1 at the flat profile; set only when the first run ended
    # near-constant on a cell where the k=1 mode does not vanish
    flat_lambda1: float | None = None
    stop_reason: str = ""


@dataclass
class WaveSolution(_Record):
    _EXCLUDED = ("potential", "profile")  # the manifest names the one, a CSV holds the other
    config: SolverConfig  # the config and the potential that ``solve`` ran
    potential: Potential
    profile: Profile
    sigma: float
    residual: float
    iterations: int
    converged: bool
    in_cone: bool
    near_constant: bool
    energies: EnergyBreakdown
    decay: DecayFit | None
    diagnostics: RunDiagnostics


@lru_cache(maxsize=_CELL_CACHE)
def _ansatz_basis(cell: Cell) -> tuple:
    """Read-only terms, shape (4, N), and candidate norms of ``initial_ansatz`` on a cell."""
    aj = np.abs(cell.indices())
    terms = np.stack([np.ones_like(aj), (aj < 1.0).astype(float),
                      1.0 + np.cos(np.pi * aj / cell.n), np.exp(-20.0 * (aj / cell.n) ** 2)])
    cands = _ANSATZ_WEIGHTS @ terms
    out = (terms, np.einsum("ij,ij->i", cands, cands))
    for a in out:
        a.flags.writeable = False
    return out


def initial_ansatz(cfg: SolverConfig, p: Potential) -> Profile:
    """Best starting profile from a four-term family of even unimodal shapes.

    Candidates are kappa_1 + kappa_2*chi_j + kappa_3*(1+cos(pi j/N))
    + kappa_4*exp(-20 (j/N)^2) with chi the indicator of |j| < 1, for every
    weight tuple of ``_ANSATZ_WEIGHTS``.
    Each candidate is rescaled to power rho; the energy maximizer wins, ties
    broken by enumeration order. Every term is even and non-increasing in
    |j| and every weight is non-negative, so each candidate lies in the cone.
    """
    cell = cfg.cell()
    site_level, _, right = cell.fold
    terms, norms = _ansatz_basis(cell)
    # the candidates are even: score their levels at power rho, and expand the winner's
    levels = (_ANSATZ_WEIGHTS @ terms).T[right]
    levels *= np.sqrt(cfg.rho / norms)
    p_all = level_energies(levels, cell, p, cfg.alpha)
    return Profile(cell, levels[:, int(np.argmax(p_all))][site_level])


def _step(v: np.ndarray, cfg: SolverConfig, p: Potential, flow0, p_v: float | None,
          cell: Cell, tau: float):
    """One normalized ascent step, always backtracked.

    The trial step is halved (up to 30 times) until the candidate is
    admissible: the energy must not decrease beyond slack, and the candidate
    must stay in the cone. The continuous flow satisfies both, so a
    violation marks a too-large discrete step. The cone test runs only on a
    trial that passed the energy test, and the flow is computed once, at the
    accepted trial. If no admissible step is found the input itself is
    returned, a step of size zero that the caller surfaces as stagnation.

    The base point and the trials are normalized by one factor
    ``sqrt(rho)/||v||``; a trial whose own factor lies more than 4 ulps from
    it takes its own. Two factors rounded apart by one ulp would shift P by
    about eps*rho*|m|, m the flow multiplier, far above the gains of the
    endgame.

    ``p_v`` is P(v) when the caller has it, else None. The energy slack is
    computed once per step, and the cone test reads the plain trial array: a
    non-finite trial has a NaN energy and fails the energy test first.

    Returns (w, flow_of_w, p0, p1, cone_slack, tau_used, rejected);
    flow_of_w carries (multiplier, field, residual) at the accepted point,
    and ``rejected`` counts the refused trials by reason, in the order of
    ``_REJECTION_REASONS``; the step halved ``sum(rejected)`` times.
    """
    sqrt_rho = math.sqrt(cfg.rho)
    # baseline energy of the renormalized point: candidates pass through
    # the same normalization, so its ulp-level radial shift of P (about
    # rho*sigma*eps) cancels out of the comparison and the gain vanishes
    # as tau goes to zero. A factor of exactly 1 leaves v bit for bit, so
    # the carried P(v) is that energy.
    scale = sqrt_rho / math.sqrt(v @ v)
    near = 4.0 * math.ulp(scale)
    p0 = p_v if scale == 1.0 and p_v is not None else p_value(v * scale, True, p, cfg.alpha)
    floor = -_energy_slack(p0)
    rejected = [0, 0]
    for _ in range(_MAX_HALVINGS + 1):
        w = v + tau * flow0[1]
        own = sqrt_rho / math.sqrt(w @ w)
        w *= scale if abs(own - scale) <= near else own
        p1 = p_value(w, True, p, cfg.alpha)
        if not p1 - p0 >= floor:
            rejected[0] += 1
        elif (slack := cone_slack_values(w, cell)) > _CONE_MONITOR_TOL:
            rejected[1] += 1
        else:
            return w, flow(w, True, p, cfg.alpha), p0, p1, slack, tau, rejected
        tau *= 0.5
    return v, flow0, p0, p0, 0.0, tau, rejected


def _run(v: np.ndarray, cfg: SolverConfig, p: Potential, cell: Cell,
         diag: RunDiagnostics, budget: int):
    """Iterate to a stopping rule; returns (values, flow multiplier, residual, steps, stop).

    The energy of each accepted point is carried to the next step, which
    reuses it when the point needs no rescaling. The first trial size is the
    configured tau; each later one is the spectral (Barzilai-Borwein BB2)
    step s.y / y.y of the step just taken, s = w - v and y = F(v) - F(w),
    capped at ``_TAU_BB_MAX``. Where s.y <= 0 (no positive curvature seen) or
    a trial of that step left the cone, the accepted size is carried instead,
    with one doubling and capped at the configured tau. Oversized trials are
    cut back by the energy and cone tests inside the step. Fixed points of the
    map do not depend on the step size. The stop reason is ``residual`` when
    the last residual meets the tolerance, else the rule that ended the loop.
    """
    flow0 = flow(v, True, p, cfg.alpha)
    sig_flow, _, res = flow0
    p_v = None  # P(v), known once a step has been accepted
    steps = 0
    tau_trial = cfg.tau
    tiny_streak = 0
    stop = "max_iters"
    for _ in range(budget):
        if res <= cfg.tol_residual:
            break
        w, flow_w, p0, p1, slack, tau_used, rejected = _step(
            v, cfg, p, flow0, p_v, cell, tau_trial)
        steps += 1
        halvings = sum(rejected)
        diag.trials += halvings + (w is not v)  # plus the accepted trial, if any
        for reason, count in zip(_REJECTION_REASONS, rejected):
            diag.rejections[reason] += count
        diag.min_energy_increment = min(diag.min_energy_increment, p1 - p0)
        diag.max_halvings = max(diag.max_halvings, halvings)
        diag.max_cone_slack = max(diag.max_cone_slack, slack)
        drift = abs(float(w @ w) - cfg.rho) / cfg.rho
        diag.max_power_drift = max(diag.max_power_drift, drift)
        s = w - v
        y = flow0[1] - flow_w[1]
        sy, yy = float(s @ y), float(y @ y)
        step_size = float(np.abs(s).max())
        # a rejected step returns v itself, whose zero step size ends the run
        # below, so p1 is P(w) whenever the loop goes on
        v, flow0, p_v = w, flow_w, p1
        sig_flow, _, res = flow0
        if sy > 0.0 and not rejected[1]:
            tau_trial = _TAU_BB_MAX if sy >= _TAU_BB_MAX * yy else sy / yy
        else:
            # one freak deep backtrack must not destroy the carried size
            tau_trial = min(cfg.tau, max(2.0 * tau_used, 0.25 * tau_trial))
        # a tiny step only counts as stagnation when it is an exact no-op
        # (every size rejected) or when it persists across many iterations
        tiny_streak = tiny_streak + 1 if step_size <= _TOL_STEP else 0
        if step_size == 0.0 or tiny_streak >= 40:
            stop = "stagnation"
            break
    return v, sig_flow, res, steps, "residual" if res <= cfg.tol_residual else stop


def _is_near_constant(v: np.ndarray, cfg: SolverConfig) -> bool:
    return float(np.abs(v - math.sqrt(cfg.rho / cfg.n)).max()) <= _NEAR_CONSTANT_TOL


def _d2psi(p: Potential, x: float) -> float:
    """psi''(x) by a central difference of dpsi."""
    h = _D2PSI_STEP * x
    hi, lo = x + h, x - h
    return float(p.dpsi(np.float64(hi)) - p.dpsi(np.float64(lo))) / (hi - lo)


def _flat_lambda1(cfg: SolverConfig, p: Potential) -> float:
    """Largest second variation of P on the sphere at the flat profile.

    At c = sqrt(rho/N) the second variation is diagonal in Fourier modes,
    lambda_k = 4 c^2 psi''(c^2) - 4 alpha (1 - cos(2 pi k/N)), and lambda_1
    is the largest over k != 0. Flat is a strict local maximum when it is
    negative and no local maximum when it is positive (Weinstein 1999).
    """
    c2 = cfg.rho / cfg.n
    return 4.0 * c2 * _d2psi(p, c2) - 4.0 * cfg.alpha * (1.0 - math.cos(2.0 * math.pi / cfg.n))


def solve(cfg: SolverConfig, p: Potential) -> WaveSolution:
    """Maximize the energy at fixed power and return the converged standing wave.

    The run starts from the best ansatz candidate and stops on the
    standing-wave residual (primary) or iterate stagnation (secondary). The
    flat profile is always a fixed point; a run that lands within
    sup-distance 1e-8 of it is flagged near_constant, and whether flat is a
    strict local maximum is decided in closed form by the sign of the top
    second variation lambda_1 there (reported as ``flat_lambda1``). Flat is
    kept with no further iterations when lambda_1 < 0, or when the even k=1
    mode cos(2 pi j/N) vanishes on the cell (N=2 inter-site, where flat is
    the only even profile). Otherwise the run is repeated once from its end
    point kicked along that mode, and the higher-energy outcome is kept with
    its own stop reason.
    Non-convergence is reported through the returned flags, not raised.
    """
    cfg.validate()
    _require_assumptions(p, cfg.rho)

    start = initial_ansatz(cfg, p)
    cell, v0 = start.cell, start.values.copy()  # the cell whose fold the ansatz derived
    diag = RunDiagnostics()
    v, sig_flow, res, iterations, stop = _run(v0, cfg, p, cell, diag, cfg.max_iters)

    # the even k=1 mode vanishes exactly where the fold has one level (N=2
    # inter-site); elsewhere it is non-increasing in |j|, so flat plus a
    # small multiple of it stays in the cone
    if _is_near_constant(v, cfg) and cell.fold[1].size > 1:
        diag.flat_lambda1 = _flat_lambda1(cfg, p)
        if diag.flat_lambda1 >= 0.0 and iterations < cfg.max_iters:
            diag.restarted = True
            mode = np.cos(2.0 * math.pi * cell.indices() / cfg.n)
            kicked = v + 1e-3 * math.sqrt(cfg.rho) * mode
            kicked *= math.sqrt(cfg.rho / float(kicked @ kicked))
            v2, sig2, res2, steps2, stop2 = _run(kicked, cfg, p, cell, diag,
                                                 cfg.max_iters - iterations)
            iterations += steps2
            if p_value(v2, True, p, cfg.alpha) >= p_value(v, True, p, cfg.alpha):
                v, sig_flow, res, stop = v2, sig2, res2, stop2
    diag.stop_reason = stop

    # the stop rule compared this residual; converged repeats its verdict
    profile = Profile(cell, v)
    sol = WaveSolution(config=cfg, potential=p, profile=profile, sigma=0.5 * sig_flow,
                       energies=energy(profile, p, cfg.alpha), residual=res,
                       iterations=iterations, converged=res <= cfg.tol_residual,
                       in_cone=cone_slack(profile) <= _CONE_MONITOR_TOL,
                       near_constant=_is_near_constant(v, cfg), decay=None, diagnostics=diag)
    if sol.converged and sol.sigma > 2.0 * cfg.alpha:
        sol.decay = decay_fit(sol)
    return sol


def decay_fit(sol: WaveSolution) -> DecayFit | None:
    """Affine fit of log u_j against |j| over the exponential tail.

    The window runs from the first index where u drops below 0.1*max(u) out
    to the last index with u above 1e-13*sqrt(rho); on periodic cells the
    outer edge additionally stays two sites clear of the cell boundary, where
    the periodic image flattens the tail. Reports the fitted rate, the
    a-priori rate -log(alpha/(sigma-alpha)), and the rate of the linearized
    tail recurrence sigma = alpha*(kappa + 1/kappa). A window of fewer than
    four points is too short to fit, and gives None.
    """
    if not sol.converged:
        raise ValueError("decay fit requires a converged solution")
    alpha, rho, sig = sol.config.alpha, sol.config.rho, sol.sigma
    if sig <= 2.0 * alpha:
        raise ValueError("decay fit requires sigma > 2*alpha")

    prof, v = sol.profile, sol.profile.values
    right = prof.cell.indices() > 0
    jr, vr = prof.cell.indices()[right], v[right]

    usable = (vr > 1e-13 * math.sqrt(rho)) & (vr < 0.1 * float(np.max(v)))
    if prof.cell.is_finite:
        usable &= jr <= prof.cell.symmetric_doubled_max() / 2.0 - 2.0
    jw, vw = jr[usable], vr[usable]
    if jw.size < 4:
        return None

    slope, intercept = np.polyfit(jw, np.log(vw), 1)
    fit_res = float(np.max(np.abs(np.log(vw) - (intercept + slope * jw))))
    kappa_lin = (sig - math.sqrt(sig * sig - 4.0 * alpha * alpha)) / (2.0 * alpha)
    return DecayFit(fitted_rate=float(-slope), bound_rate=-math.log(alpha / (sig - alpha)),
                    linear_rate=-math.log(kappa_lin), tail_window=(float(jw[0]), float(jw[-1])),
                    fit_residual=fit_res)


class HomoclinicVerdict(Enum):
    LOCALIZED = "localized"
    DELOCALIZING = "delocalizing"
    UNDETERMINED = "undetermined"


@dataclass
class HomoclinicResult(_Record):
    _EXCLUDED = ("solutions", "restricted")  # the waves' own artifacts hold them
    solutions: list
    restricted: list
    n_sequence: list
    t_values: list
    sup_diffs: list
    tail_fractions: list
    max_amplitudes: list
    verdict: HomoclinicVerdict
    margin: float
    floor: float  # sup diffs at or below it count as converged


# a converged wave lies within about residual/gap of the exact one, with gap the
# distance of the top even second variation from zero; until that gap is
# computed, each wave's error is taken as this multiple of tol_residual, as if
# the gap were 0.1 (criterion 1's waves have gaps of about 1.2)
_WAVE_ERROR_PER_RESIDUAL = 10.0


def homoclinic(cfg: SolverConfig, p: Potential, n_sequence,
               margin: float = 1e-3) -> HomoclinicResult:
    """Solve along increasing cell sizes and classify the infinite-size limit.

    Each maximizer is zero-extended to a common truncated lattice; the runs
    are classified Localized when every normalized energy stays above
    2 + margin and successive extended profiles approach each other down to
    the noise floor of two converged waves: a sup diff at most
    ``2 * _WAVE_ERROR_PER_RESIDUAL * tol_residual`` counts as converged, and
    only a diff above it must not exceed the one before; a ladder of two sizes
    has one diff, which must itself be at the floor. Delocalizing when
    the normalized energy decays towards 2 while the peak amplitude shrinks.
    A ladder with an unconverged wave is Undetermined: it is no evidence.
    """
    n_sequence = [_whole(n, "n_sequence sizes") for n in n_sequence]
    if len(n_sequence) < 2 or any(b <= a for a, b in zip(n_sequence, n_sequence[1:])):
        raise ValueError("n_sequence must be at least two strictly increasing sizes")
    if not 0 < margin < math.inf:
        raise ValueError(f"margin must be positive and finite, not {margin}")

    common = Cell.truncated(cfg.scheme, max(n_sequence) / 2.0 + 1.0)
    solutions, restricted = [], []
    for n in n_sequence:
        sol = solve(replace(cfg, n=n), p)
        solutions.append(sol)
        restricted.append(restrict(sol.profile, common))

    t_values = [s.energies.t_value for s in solutions]
    max_amps = [float(np.max(s.profile.values)) for s in solutions]
    sup_diffs = [float(np.max(np.abs(b.values - a.values)))
                 for a, b in zip(restricted, restricted[1:])]
    tail_fracs = [float(np.sum(s.profile.values[np.abs(s.profile.cell.indices()) > n / 4.0] ** 2))
                  / cfg.rho for n, s in zip(n_sequence, solutions)]

    floor = 2.0 * _WAVE_ERROR_PER_RESIDUAL * cfg.tol_residual
    diffs_shrink = (all(b <= max(a, floor) for a, b in zip(sup_diffs, sup_diffs[1:]))
                    if len(sup_diffs) > 1 else sup_diffs[0] <= floor)
    if not all(s.converged for s in solutions):
        verdict = HomoclinicVerdict.UNDETERMINED
    elif all(t >= 2.0 + margin for t in t_values) and diffs_shrink:
        verdict = HomoclinicVerdict.LOCALIZED
    elif (all(b < a for a, b in zip(t_values, t_values[1:]))
          and all(b < a for a, b in zip(max_amps, max_amps[1:]))
          and t_values[-1] < 2.0 + margin):
        verdict = HomoclinicVerdict.DELOCALIZING
    else:
        verdict = HomoclinicVerdict.UNDETERMINED
    return HomoclinicResult(solutions, restricted, n_sequence, t_values,
                            sup_diffs, tail_fracs, max_amps, verdict, margin, floor)
