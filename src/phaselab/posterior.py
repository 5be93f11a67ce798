"""Posterior samplers for y = Ax + beta*N(0, I).

Two exact samplers: rejection sampling from any unconditional proposal (accept
with probability exp(-||Ax-y||^2/(2 beta^2))), and a brute-force oracle that
enumerates the seed posterior (d <= MAX_ENUM_D). The guided-diffusion heuristic
baseline, which has no correctness contract, is reduction.make_heuristic_sampler.
seed_law_tv measures any sampler's draws against the exact seed posterior.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .circuits import BooleanCircuit, sign_identity
from .circuits import all_inputs  # noqa: F401 - bench/spans.py traces this binding
from .diffusion import reverse_run  # noqa: F401 - bench/spans.py traces this binding
from .instance import DEFAULT_EPS, DEFAULT_R, InstanceParams, check_operator_norm, lattice_atoms
from .instance import phase_of_bit, round_R
from .scores import _LOG_CUTOFF, _phase_specs, _seed_tail_loglik
from .scores import dg_smoothed_log_density


@dataclass(frozen=True)
class PosteriorConfig:
    max_rounds: int
    beta: float

    def __post_init__(self):
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.beta <= 0:
            raise ValueError("beta must be positive")


@dataclass(frozen=True)
class SamplerStats:
    """rounds: proposals drawn up to and including the last acceptance used
    (the whole budget when too few were accepted); accepted: every requested
    draw was accepted."""

    rounds: int
    accepted: bool


# A batch round asks one proposal call for at most this many rows, or for one row's chunk where
# that is larger, so a round of many open rows keeps its peak memory near a lone call's.
_CALL_ROWS = 4096


def rejection_sample(
    proposal,
    A: np.ndarray,
    y: np.ndarray,
    cfg: PosteriorConfig,
    rng: np.random.Generator | Sequence[np.random.Generator],
    size: int = 1,
    chunk: int | None = None,
):
    """Accept a proposal draw x with probability exp(-||Ax-y||^2/(2 beta^2)).

    A lone call takes a (d_prime,) y and one Generator: proposal(n, rng) must return (n, dim)
    unconditional draws, requested in chunks of `chunk` rows or, by default, min(65536,
    256 * size) rows and then twice the previous chunk up to 65536, so an early hit wastes few
    rows; no chunk exceeds the budget left. Returns (up to size accepted rows, the first hits in
    proposal order, as a (rows, dim) array, SamplerStats). The budget is size * cfg.max_rounds
    proposals; exhausting it is a reported outcome (stats.accepted is False), not an error.

    A batch takes a (k, d_prime) y, one generator per row and size=k. Row i's draw and rounds
    are those of the lone call rejection_sample(proposal, A, y[i], cfg, rng[i]) wherever
    x @ A.T is exact, as for A = (0 | I). Each round asks proposal(j * n, [rng[i] for j open
    rows]) for every open row's chunk of n rows, generator i drawing its rows in turn, in calls
    of about _CALL_ROWS rows at most. Returns a (k, dim) array, NaN where a row's budget ran
    out, and SamplerStats(rounds summed over the rows, accepted by every row).
    """
    A = check_operator_norm(A)
    y = np.asarray(y, dtype=float)
    one = y.ndim == 1
    Y, gens, need = (y[None], [rng], size) if one else (y, list(rng), 1)
    if not one and not len(gens) == len(Y) == size:
        raise ValueError("a batch takes a (k, d_prime) y, one generator per row and size=k")
    budget = need * cfg.max_rounds
    step = chunk or min(65536, 256 * need)
    picks, got, rounds = [[] for _ in Y], [0] * len(Y), [budget] * len(Y)
    live, done = list(range(len(Y))), 0
    while live and done < budget:
        n = min(step, budget - done)
        step = chunk or min(65536, 2 * step)
        per = max(1, _CALL_ROWS // n)
        for lo in range(0, len(live), per):
            rows = live[lo : lo + per]
            rs = [gens[i] for i in rows]
            x = np.asarray(proposal(n * len(rows), rs[0] if one else rs), dtype=float)
            resid = (x @ A.T).reshape(len(rows), n, A.shape[0]) - Y[rows, None]
            logq = -np.sum(resid**2, axis=2) / (2.0 * cfg.beta**2)
            u = np.empty((len(rows), n))
            for r, row in zip(rs, u):
                r.random(out=row)
            hit = np.log(u) < logq
            for j in np.flatnonzero(hit.any(axis=1)):
                i = rows[j]
                h = np.flatnonzero(hit[j])[: need - got[i]]
                picks[i].append(x[j * n + h])
                got[i] += h.size
                if got[i] == need:
                    rounds[i] = done + int(h[-1]) + 1
        done += n
        live = [i for i in live if got[i] < need]
    if one:
        rows = np.concatenate(picks[0]) if picks[0] else np.empty((0, A.shape[1]))
        return rows, SamplerStats(rounds[0], got[0] == need)
    out = np.full((len(Y), A.shape[1]), np.nan)
    for i, p in enumerate(picks):
        if p:
            out[i] = p[0][0]
    return out, SamplerStats(sum(rounds), all(g == need for g in got))


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """scipy.special.logsumexp(a, axis=-1, keepdims=True) for rows with a finite max, bit for
    bit: its formula in its order, without importing scipy.special (2/3 of a CLI's imports)."""
    M = a.max(axis=-1, keepdims=True)
    top = a == M
    c = top.sum(axis=-1, keepdims=True)
    s = np.where(top, 0.0, np.exp(a - M)).sum(axis=-1, keepdims=True)
    return np.log1p(s / c) + np.log(c) + M


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def seed_posterior_log_weights(
    params: InstanceParams, f: BooleanCircuit, y: np.ndarray
) -> np.ndarray:
    """Normalised log w_s over all 2^d seeds: w_s ∝ prod_j (psi_{f(s)_j} * N(0, beta^2))(y_j),
    each row less its _logsumexp; a y of shape (n, d_prime) gives an (n, 2^d) table, row i
    as for y[i] alone. ValueError if a y's likelihood summed over the seeds is below e^-700
    (or overflows to NaN, which numpy's over/invalid/divide warnings would only repeat)."""
    if f.n_inputs != params.d:
        raise ValueError("input length mismatch")
    Y = np.atleast_2d(np.asarray(y, dtype=float))
    ld = np.stack([dg_smoothed_log_density(sp, Y) for sp in _phase_specs(params.eps, params.beta)])
    # on a 2^-40 grid every GEMM sum below 2^13 is exact in any order: batch rows = lone rows
    # (a seed with a larger sum has exp(logw) = 0 once y passes the check below)
    ld = np.rint(ld * 2.0**40) * 2.0**-40
    logw = _seed_tail_loglik(ld, f.float_seed_table[2])
    lse = _logsumexp(logw)
    if not (lse >= _LOG_CUTOFF).all():  # False for NaN too: y so far out that it overflowed
        raise ValueError("y has zero likelihood under every seed")
    logw -= lse
    return logw if np.ndim(y) == 2 else logw[0]


def seed_law_tv(params: InstanceParams, f: BooleanCircuit, y: np.ndarray, x: np.ndarray):
    """Total variation between the law of round_R(x_head) over the rows of x and the exact seed
    posterior given y, both over the 2^d seeds in all_inputs order; None for an empty x."""
    if len(x) == 0:
        return None
    minus = round_R(np.asarray(x)[:, : params.d], params.R) == -1  # all_inputs: -1 is bit 1
    law = np.bincount(minus @ (1 << np.arange(params.d - 1, -1, -1)), minlength=2**params.d)
    w = np.exp(seed_posterior_log_weights(params, f, y))
    return float(0.5 * np.abs(law / len(x) - w).sum())


def _tail_posterior_cdf(eps: float, phase: float, beta: float, y: np.ndarray):
    """(pts, cdf): the phase lattice and one row per measurement in y of the CDF of the
    exact lattice posterior of a tail coordinate given that measurement."""
    pts, p = lattice_atoms(eps, phase)
    logpost = np.log(p)[None, :] - (y[:, None] - pts[None, :]) ** 2 / (2.0 * beta**2)
    logpost -= logpost.max(axis=1, keepdims=True)
    w = np.exp(logpost)
    w /= w.sum(axis=1, keepdims=True)
    cdf = np.cumsum(w, axis=1)
    cdf[:, -1] = 1.0  # as in Generator.choice: a sum rounded below 1 must not lose any u
    return pts, cdf


def brute_force_posterior(
    params: InstanceParams,
    f: BooleanCircuit,
    y: np.ndarray,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """Exact posterior draws given y under A = (0 | I).

    Seeds are drawn from the enumerated seed posterior; the first block is
    N(R s, I) (independent of y); tail coordinates come from the exact
    discrete lattice posterior given y. A y of shape (n, d_prime) draws row i
    (size n) as the i-th of size=n draws given y[i] alone. The tail's
    uniforms are drawn coordinate by coordinate, bit +1 then bit -1, each group's
    in draw order; every tail draw is the first atom whose posterior CDF exceeds its
    uniform, as in Generator.choice.
    """
    if params.beta <= 0:
        raise ValueError("posterior requires beta > 0")
    y = np.asarray(y, dtype=float)
    # inverse CDF: per weight row w, the draws of rng.choice(2^d, size, p=w)
    cdf = np.cumsum(np.exp(seed_posterior_log_weights(params, f, y)), axis=-1)
    cdf /= cdf[..., -1:]
    u = rng.random(size)
    if cdf.ndim == 1:  # one weight row: no (n, 2^d) table
        pick = np.searchsorted(cdf, u, side="right")
    else:  # a size that does not match the rows of y fails to broadcast here
        pick = (cdf <= u[:, None]).sum(axis=1)
    S, F = f.seed_table
    x = np.empty((size, params.dim))
    x[:, : params.d] = params.R * S[pick] + rng.standard_normal((size, params.d))
    bits = F[pick]
    tail = x[:, params.d :]
    phases = {b: phase_of_bit(b, params.eps) for b in (1, -1)}
    Y = np.atleast_2d(y)
    if len(Y) == 1:  # one y for every draw: one CDF row per (bit, coordinate)
        tables = {
            b: _tail_posterior_cdf(params.eps, ph, params.beta, Y[0]) for b, ph in phases.items()
        }
    u = np.empty(bits.shape)
    for j in range(params.d_prime):
        for b in (1, -1):
            sel = np.flatnonzero(bits[:, j] == b)
            v = rng.random(sel.size)
            if len(Y) == 1:  # the group's draws share one CDF row: search it now
                pts, cdf = tables[b]
                tail[sel, j] = pts[cdf[j].searchsorted(v, side="right")]
            else:
                u[sel, j] = v
    if len(Y) > 1:  # one y per draw: one CDF row per (draw, coordinate), one table per bit
        for b, ph in phases.items():
            at = bits == b
            pts, cdf = _tail_posterior_cdf(params.eps, ph, params.beta, Y[at])
            tail[at] = pts[(cdf <= u[at][:, None]).sum(axis=1)]
    return x


def acceptance_curve(
    betas,
    ms,
    trials: int,
    master_seed: int,
    eps: float = DEFAULT_EPS,
    max_rounds: int = 10**7,
):
    """Mean rounds-to-accept of rejection sampling vs measurement count m.

    For each (beta, m): a d=m, dPrime=m instance with the sign-identity map,
    exact-direct proposal; trial t draws its target y and proposals from
    child_stream(master_seed, m, t) (see rng), so no row depends on the others.
    A row is one call of reduction.make_rejection_sampler's sampler on the trials'
    streams: each round draws every open trial's chunk, from 256 rows. Returns a list
    of dict rows; mean_rounds is the row's proposals over trials, a censored trial
    (budget hit) counting max_rounds rounds.
    """
    from . import rng as prng
    from .reduction import make_rejection_sampler, sample_measurement_for_target

    rows = []
    for beta in betas:
        for m in ms:
            total, censored = trials, 0  # m = 0 measures nothing: one round each
            if m > 0:
                # R scales only the head, which A = (0 | I) never measures: no row depends on it
                params = InstanceParams(m, m, DEFAULT_R, eps, beta)
                f = sign_identity(m)
                rs = [prng.child_stream(master_seed, m, t) for t in range(trials)]
                s = np.stack([prng.signs(r, m) for r in rs])
                y = sample_measurement_for_target(f(s), params, rs)
                x, info = make_rejection_sampler(params, f, max_rounds)(y, rs, trials)
                total, censored = info["proposals"], int(np.isnan(x).any(axis=1).sum())
            mean = total / trials
            log_mean = float(np.log(mean))
            rows.append({"beta": beta, "m": m, "mean_rounds": mean, "log_mean_rounds": log_mean,
                         "trials": trials, "censored": censored})
    return rows
