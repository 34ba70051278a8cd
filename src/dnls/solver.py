"""Constrained maximization of the lattice energy on the sphere of fixed power.

The engine maximizes P(u) = alpha*L(u) + W(u) over profiles with
sum u_j^2 = rho inside the cone of non-negative even unimodal sequences.
One update step is the normalized ascent map

    I(u) = sqrt(rho) * (u + tau*F(u)) / ||u + tau*F(u)||,
    F(u) = grad P(u) - sigma(u) * u,   sigma(u) = <grad P(u), u> / ||u||^2,

which preserves the constraint exactly. Fixed points solve the standing-wave
equation sigma*u_j = alpha*(u_{j+1}+u_{j-1}) + dpsi(u_j^2)*u_j with frequency
sigma(u)/2 (the gradient of P at a wave is twice the frequency times u).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace
from enum import Enum

import numpy as np

from .functionals import (DegenerateProfileError, EnergyBreakdown, energy, flow,
                          level_energies, p_value)
from .lattice import Cell, IndexScheme, Profile, cone_slack, in_cone, restrict
from .potentials import Potential, check_assumptions


# acceptance slack for the monotone-energy backtracking test; for energies
# beyond ~45 the nominal 1e-14 would be sub-ulp and acceptance would turn
# into a rounding lottery, so the slack never falls below one part in 2^52
_ENERGY_SLACK = 1e-14


def _energy_slack(p0: float) -> float:
    return max(_ENERGY_SLACK, np.finfo(float).eps * abs(p0))
_MAX_HALVINGS = 30
# sup-distance to the flat profile below which a run counts as near-constant
_NEAR_CONSTANT_TOL = 1e-8
# slack used when monitoring cone membership of iterates
_CONE_MONITOR_TOL = 1e-12
# sup-norm of an iterate change below which a step counts as tiny
_TOL_STEP = 1e-12
# the ansatz weights: the 120 tuples of four non-negative integers summing to 7,
# in lexicographic order
_ANSATZ_WEIGHTS = np.array([w for w in itertools.product(range(8), repeat=4)
                            if sum(w) == 7], dtype=float)
# step of the differences for psi'' (relative to x, absolute at 0); near the
# cube root of the machine epsilon, where truncation and roundoff errors balance
_D2PSI_STEP = 1e-5


@dataclass
class SolverConfig:
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
        if not 0 < self.tau <= 1e3:
            raise ValueError("tau must lie in (0, 1e3]")
        if self.tol_residual <= 0:
            raise ValueError("tol_residual must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")

    def cell(self) -> Cell:
        return Cell.periodic(self.scheme, self.n)

    def to_dict(self) -> dict:
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "scheme": self.scheme.value}

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
class DecayFit:
    fitted_rate: float
    bound_rate: float
    linear_rate: float
    tail_window: tuple
    fit_residual: float

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class RunDiagnostics:
    """Per-run monitors: constraint drift, energy monotonicity, cone membership."""

    max_power_drift: float = 0.0          # relative to rho
    min_energy_increment: float = math.inf
    cone_violations: int = 0
    max_cone_slack: float = 0.0
    max_halvings: int = 0
    restarted: bool = False               # flat was unstable; a kicked run was made
    # lambda_1 at the flat profile; set only when the first run ended
    # near-constant on a cell where the k=1 mode does not vanish
    flat_lambda1: float | None = None
    stop_reason: str = ""

    def to_dict(self) -> dict:
        inc = self.min_energy_increment
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "min_energy_increment": None if math.isinf(inc) else inc}


@dataclass
class WaveSolution:
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

    def to_dict(self, cfg: SolverConfig | None = None) -> dict:
        """Every field but the profile, which has its own CSV; the config first if given."""
        out = {f.name: getattr(self, f.name) for f in fields(self)[1:]}
        out.update(energies=self.energies.to_dict(),
                   decay=self.decay.to_dict() if self.decay else None,
                   diagnostics=self.diagnostics.to_dict())
        if cfg is not None:
            out = {"config": cfg.to_dict(), **out}
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
    aj = np.abs(cell.indices())
    terms = np.stack([
        np.ones_like(aj),
        (aj < 1.0).astype(float),
        1.0 + np.cos(np.pi * aj / cfg.n),
        np.exp(-20.0 * (aj / cfg.n) ** 2),
    ])
    cands = _ANSATZ_WEIGHTS @ terms
    norms = np.einsum("ij,ij->i", cands, cands)
    cands *= np.sqrt(cfg.rho / norms)[:, None]
    p_all = level_energies(cands.T[cell.fold[2]], cell, p, cfg.alpha)
    return Profile(cell, cands[int(np.argmax(p_all))])


# energy gains above this relative scale are clearly measurable; below it
# they drown in the roundoff of evaluating the energy terms
_GROWTH_EVIDENCE = 1e-12
# allowed per-step relative growth of the residual: the sup-residual may rise
# a little on the legitimate path (the leading site can switch), while an
# unstable step size multiplies it by a visibly larger factor
_RES_GROWTH = 1e-2


def _step(v: np.ndarray, cfg: SolverConfig, p: Potential, flow0, cell: Cell,
          tau: float):
    """One normalized ascent step, always backtracked.

    The trial step is halved (up to 30 times) until the candidate is
    admissible: the energy must not decrease beyond slack, the candidate must
    stay in the cone, and, once energy gains are too small to measure, the
    standing-wave residual must not grow by more than a token factor. The
    continuous flow satisfies all three, so a violation marks a too-large
    discrete step; the residual test keeps the endgame contracting where
    energy comparisons drown in roundoff. The tests run in that order and
    each runs only when the ones before it pass. If no admissible step is
    found the input itself is returned, a step of size zero that the caller
    surfaces as stagnation.

    Returns (w, flow_of_w, p0, p1, cone_slack, tau_used, halvings);
    flow_of_w carries (multiplier, field, residual) at the accepted point.
    """
    sqrt_rho = math.sqrt(cfg.rho)
    # baseline energy of the renormalized point: candidates pass through
    # the same normalization, so its ulp-level radial shift of P (about
    # rho*sigma*eps) cancels out of the comparison and the gain vanishes
    # as tau goes to zero
    base = v * (sqrt_rho / float(np.sqrt(v @ v)))
    p0 = p_value(base, True, p, cfg.alpha)
    # the smooth 2-norm of the field serves as the contraction measure; the
    # sup residual can rise at a kink when the leading site switches. The
    # ulp-level renormalization jitter shifts the field by about
    # eps*multiplier*sqrt(rho), which the comparison must tolerate.
    res0 = float(np.linalg.norm(flow0[1]))
    res_limit = res0 * (1.0 + _RES_GROWTH) \
        + 8.0 * np.finfo(float).eps * abs(flow0[0]) * sqrt_rho
    for halvings in range(_MAX_HALVINGS + 1):
        w = v + tau * flow0[1]
        norm = float(np.sqrt(w @ w))
        if norm == 0.0:
            raise DegenerateProfileError("ascent step collapsed to the zero profile")
        w *= sqrt_rho / norm
        p1 = p_value(w, True, p, cfg.alpha)
        gain = p1 - p0
        if gain >= -_energy_slack(p0):
            slack = cone_slack(Profile(cell, w))
            if slack <= _CONE_MONITOR_TOL:
                flow_w = flow(w, True, p, cfg.alpha)
                if (gain > _GROWTH_EVIDENCE * max(1.0, abs(p1))
                        or float(np.linalg.norm(flow_w[1])) <= res_limit):
                    return w, flow_w, p0, p1, slack, tau, halvings
        tau *= 0.5
    return v, flow0, p0, p0, 0.0, tau, _MAX_HALVINGS + 1


def _run(v: np.ndarray, cfg: SolverConfig, p: Potential, cell: Cell,
         diag: RunDiagnostics, budget: int):
    """Iterate to a stopping rule; returns (values, flow multiplier, residual, steps).

    The accepted step size is carried to the next trial with one doubling
    (capped at the configured tau); oversized trials are cut back by the
    admissibility tests inside the step. Fixed points of the map do not
    depend on the step size. The stop reason is set once, after the loop:
    ``residual`` when the last residual meets the tolerance, else the rule
    that ended the loop.
    """
    flow0 = flow(v, True, p, cfg.alpha)
    sig_flow, _, res = flow0
    steps = 0
    tau_trial = cfg.tau
    tiny_streak = 0
    stop = "max_iters"
    for _ in range(budget):
        if res <= cfg.tol_residual:
            break
        w, flow_w, p0, p1, slack, tau_used, halvings = _step(
            v, cfg, p, flow0, cell, tau_trial)
        steps += 1
        diag.min_energy_increment = min(diag.min_energy_increment, p1 - p0)
        diag.max_halvings = max(diag.max_halvings, halvings)
        diag.max_cone_slack = max(diag.max_cone_slack, slack)
        drift = abs(float(w @ w) - cfg.rho) / cfg.rho
        diag.max_power_drift = max(diag.max_power_drift, drift)
        step_size = float(np.max(np.abs(w - v)))
        v = w
        flow0 = flow_w
        sig_flow, _, res = flow0
        # one freak deep backtrack must not destroy the carried size
        tau_trial = min(cfg.tau, max(2.0 * tau_used, 0.25 * tau_trial))
        # a tiny step only counts as stagnation when nothing bigger was on
        # offer (a full-size trial barely moved, or an exact no-op such as
        # every size rejected) or when it persists across many iterations
        tiny_streak = tiny_streak + 1 if step_size <= _TOL_STEP else 0
        if (step_size == 0.0 or tiny_streak >= 40
                or (tiny_streak and tau_used >= cfg.tau)):
            stop = "stagnation"
            break
    diag.stop_reason = "residual" if res <= cfg.tol_residual else stop
    return v, sig_flow, res, steps


def _is_near_constant(v: np.ndarray, cfg: SolverConfig) -> bool:
    return float(np.max(np.abs(v - math.sqrt(cfg.rho / cfg.n)))) <= _NEAR_CONSTANT_TOL


def _d2psi(p: Potential, x: float) -> float:
    """psi''(x) by a central difference of dpsi; at x = 0 by a one-sided one."""
    if x == 0.0:  # second order too, with an absolute step
        f0, f1, f2 = (float(p.dpsi(np.float64(t))) for t in (0.0, _D2PSI_STEP, 2.0 * _D2PSI_STEP))
        return (4.0 * f1 - 3.0 * f0 - f2) / (2.0 * _D2PSI_STEP)
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
    report = check_assumptions(p, x_max=max(cfg.rho, 1.0), samples=400)
    if not report.passed:
        kinds = sorted({v.check.value for v in report.violations})
        raise ValueError(f"potential violates growth assumptions on [0, rho]: {kinds}")

    start = initial_ansatz(cfg, p)
    cell, v0 = start.cell, start.values.copy()  # the cell whose fold the ansatz derived
    diag = RunDiagnostics()
    v, sig_flow, res, iterations = _run(v0, cfg, p, cell, diag, cfg.max_iters)

    # the even k=1 mode vanishes exactly where the fold has one level (N=2
    # inter-site); elsewhere it is non-increasing in |j|, so flat plus a
    # small multiple of it stays in the cone
    if _is_near_constant(v, cfg) and cell.fold[1].size > 1:
        diag.flat_lambda1 = _flat_lambda1(cfg, p)
        if diag.flat_lambda1 >= 0.0 and iterations < cfg.max_iters:
            diag.restarted = True
            stop = diag.stop_reason
            mode = np.cos(2.0 * math.pi * cell.indices() / cfg.n)
            kicked = v + 1e-3 * math.sqrt(cfg.rho) * mode
            kicked *= math.sqrt(cfg.rho / float(kicked @ kicked))
            v2, sig2, res2, steps2 = _run(kicked, cfg, p, cell, diag,
                                          cfg.max_iters - iterations)
            iterations += steps2
            if p_value(v2, True, p, cfg.alpha) >= p_value(v, True, p, cfg.alpha):
                v, sig_flow, res = v2, sig2, res2
            else:
                diag.stop_reason = stop

    # the stop rule compared this residual; converged repeats its verdict
    profile = Profile(cell, v)
    sol = WaveSolution(
        profile=profile,
        sigma=0.5 * sig_flow,
        energies=energy(profile, p, cfg.alpha),
        residual=res,
        iterations=iterations,
        converged=res <= cfg.tol_residual,
        in_cone=in_cone(profile, tol=_CONE_MONITOR_TOL),
        near_constant=_is_near_constant(v, cfg),
        decay=None,
        diagnostics=diag,
    )
    if sol.converged and sol.sigma > 2.0 * cfg.alpha:
        sol.decay = decay_fit(sol, cfg)
    return sol


def decay_fit(sol: WaveSolution, cfg: SolverConfig) -> DecayFit | None:
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
    alpha, sig = cfg.alpha, sol.sigma
    if sig <= 2.0 * alpha:
        raise ValueError("decay fit requires sigma > 2*alpha")

    prof = sol.profile
    j = prof.cell.indices()
    v = prof.values
    right = j > 0
    jr, vr = j[right], v[right]

    floor = 1e-13 * math.sqrt(cfg.rho)
    inner_mask = vr < 0.1 * float(np.max(v))
    usable = (vr > floor) & inner_mask
    if prof.cell.is_finite:
        usable &= jr <= prof.cell.symmetric_doubled_max() / 2.0 - 2.0
    jw, vw = jr[usable], vr[usable]
    if jw.size < 4:
        return None

    slope, intercept = np.polyfit(jw, np.log(vw), 1)
    fit_res = float(np.max(np.abs(np.log(vw) - (intercept + slope * jw))))
    kappa_lin = (sig - math.sqrt(sig * sig - 4.0 * alpha * alpha)) / (2.0 * alpha)
    return DecayFit(
        fitted_rate=float(-slope),
        bound_rate=-math.log(alpha / (sig - alpha)),
        linear_rate=-math.log(kappa_lin),
        tail_window=(float(jw[0]), float(jw[-1])),
        fit_residual=fit_res,
    )


class HomoclinicVerdict(Enum):
    LOCALIZED = "localized"
    DELOCALIZING = "delocalizing"
    UNDETERMINED = "undetermined"


@dataclass
class HomoclinicResult:
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

    def to_dict(self) -> dict:
        """Every field but the waves and their restrictions, which have their own artifacts."""
        return {**{f.name: getattr(self, f.name) for f in fields(self)[2:]},
                "verdict": self.verdict.value}


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
    n_sequence = list(n_sequence)
    for n in n_sequence:
        if not float(n).is_integer():
            raise ValueError(f"n_sequence sizes must be whole numbers, not {n!r}")
    n_sequence = [int(n) for n in n_sequence]
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
    tail_fracs = []
    for n, s in zip(n_sequence, solutions):
        jj = np.abs(s.profile.cell.indices())
        mass = float(np.sum(s.profile.values[jj > n / 4.0] ** 2))
        tail_fracs.append(mass / cfg.rho)

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


# most rows per block of the oracle's global scan, so that its memory does not grow
# with the grid; and points per dimension of each window of its local zoom
_ORACLE_BLOCK = 1 << 15
_ORACLE_ZOOM = 41


def oracle_maximize(cfg: SolverConfig, p: Potential, grid_points: int = 2000):
    """Brute-force maximum of P on cone-and-sphere for cells of at most 4 sites.

    On the levels of ``Cell.fold`` at most two amplitude ratios stay free: a
    profile has level amplitudes 1, r1, r1*r2, normalized. One global scan
    covers a uniform grid of ``grid_points`` samples per free ratio (at least
    3; capped at 701 when two ratios are free and at 701**2 = 491,401 when
    one is). ``level_energies`` scores it in blocks of whole runs of the last
    ratio, at most 32,768 rows each, keeping only the running best, so memory
    does not grow with the grid; only the best row is expanded to the sites.
    A local zoom then rescans windows of +-2 spacings around the best point,
    41 samples per ratio, until the spacing reaches (1/(g-1)) * (4/(g-1))**5
    for g samples per ratio, where five rescans of g samples per window would
    end. A cell with no free ratio scores its one profile.
    Returns the best profile and its energy, independent of the ascent.
    """
    cfg.validate()
    if cfg.n > 4:
        raise ValueError("the brute-force oracle covers N <= 4 only")
    if grid_points < 3:
        raise ValueError(f"grid_points must be at least 3, not {grid_points}")
    cell = cfg.cell()
    site_level, mult, _ = cell.fold
    dims = mult.size - 1

    def scan(lo, hi, n, best):
        """``best`` raised to the best row of np.linspace(lo, hi, n) per ratio."""
        step = (hi - lo) / (n - 1)

        def axis(i, ks):
            return np.where(ks == n - 1, hi[i], ks * step[i] + lo[i])

        r2 = axis(1, np.arange(n)) if dims == 2 else np.ones(1)  # one run of one row
        chunk = max(1, _ORACLE_BLOCK // r2.size)
        for start in range(0, n, chunk):
            r1 = axis(0, np.arange(start, min(start + chunk, n)))[:, None]
            amps = np.stack(np.broadcast_arrays(1.0, r1, r1 * r2)[:dims + 1]).reshape(dims + 1, -1)
            amps *= np.sqrt(cfg.rho / (mult @ (amps * amps)))
            p_all = level_energies(amps, cell, p, cfg.alpha)
            k = int(np.argmax(p_all))
            if p_all[k] > best[1]:
                i, j = divmod(k, r2.size)
                best = np.array([r1[i, 0], r2[j]][:dims]), float(p_all[k]), amps[:, k][site_level]
        return best

    if dims == 0:
        amps = np.sqrt(cfg.rho / mult)[:, None]
        p_one = float(level_energies(amps, cell, p, cfg.alpha)[0])
        return Profile(cell, amps[site_level, 0]), p_one
    # no cell scans more than a two-ratio cell's 701**2 rows; the zoom
    # recovers the resolution of a huge flat grid
    g = min(int(grid_points), 701 ** (2 // dims))
    best = scan(np.zeros(dims), np.ones(dims), g, (None, -math.inf, None))
    spacing = np.full(dims, 1.0 / (g - 1))
    final = spacing[0] * (4.0 * spacing[0]) ** 5
    while spacing.max() > final:
        lo = np.maximum(best[0] - 2.0 * spacing, 0.0)
        hi = np.minimum(best[0] + 2.0 * spacing, 1.0)
        spacing = (hi - lo) / (_ORACLE_ZOOM - 1)
        best = scan(lo, hi, _ORACLE_ZOOM, best)
    return Profile(cell, best[2]), best[1]
