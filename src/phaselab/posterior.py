"""Posterior samplers for y = Ax + beta*N(0, I).

A Measurement holds one y batch of an instance (params, f), checked once, and its seed-posterior
table. Exact samplers: rejection sampling from any unconditional proposal (accept with
probability exp(-||Ax-y||^2/(2 beta^2))), and a brute-force oracle: seeds from the enumerated
seed posterior (d <= MAX_ENUM_D), then draw_given_seeds (any d). The guided-diffusion
heuristic, with no correctness contract, is reduction.make_heuristic_sampler. seed_law_tv
measures any sampler's draws against the exact seed posterior.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuits import BooleanCircuit, sign_identity
from .circuits import all_inputs  # noqa: F401 - bench/spans.py traces this binding
from .diffusion import reverse_run  # noqa: F401 - bench/spans.py traces this binding
from .instance import DEFAULT_EPS, DEFAULT_R, InstanceParams, check_operator_norm, lattice_atoms
from .instance import phase_of_bit, round_R
from .scores import _LOG_CUTOFF, _seed_tail_loglik
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


@dataclass(frozen=True, eq=False)
class Measurement:
    """A float measurement y of the instance (params, f): one (d_prime,) row or (k, d_prime) rows.
    ValueError at construction for an f of another arity than (d, d_prime) or a y of another
    shape; beta > 0 is InstanceParams'. log_weights, seed_posterior_log_weights(self), is built
    on first read and kept."""

    params: InstanceParams
    f: BooleanCircuit
    y: np.ndarray

    def __post_init__(self):
        d, d_prime = self.params.d, self.params.d_prime
        if self.f.n_inputs != d:
            raise ValueError(f"input length mismatch: f takes {self.f.n_inputs} bits, d = {d}")
        if self.f.n_outputs != d_prime:
            raise ValueError(f"output length mismatch: f gives {self.f.n_outputs} bits, "
                             f"d_prime = {d_prime}")
        y = np.asarray(self.y, dtype=float)
        if y.ndim not in (1, 2) or y.shape[-1] != d_prime:
            raise ValueError(f"y must be ({d_prime},) or (k, {d_prime}), got shape {y.shape}")
        object.__setattr__(self, "y", y)

    @cached_property
    def log_weights(self) -> np.ndarray:
        return seed_posterior_log_weights(self)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def seed_posterior_log_weights(m: Measurement) -> np.ndarray:
    """Normalised log w_s over all 2^d seeds: w_s ∝ prod_j (psi_{f(s)_j} * N(0, beta^2))(y_j),
    each row less its _logsumexp; a (n, d_prime) m.y gives an (n, 2^d) table, row i as for
    y[i] alone. ValueError if a y's likelihood summed over the seeds is below e^-700 (or NaN,
    as at a far y, whose -inf log densities meet the table's zeros; numpy's warning would only
    repeat it)."""
    params = m.params
    ld = dg_smoothed_log_density(params.eps, params.beta, np.atleast_2d(m.y))
    # on a 2^-40 grid every GEMM sum below 2^13 is exact in any order: batch rows = lone rows
    # (a seed with a larger sum has exp(logw) = 0 once y passes the check below)
    ld = np.rint(ld * 2.0**40) * 2.0**-40
    logw = _seed_tail_loglik(ld, m.f.float_seed_table[2])
    lse = _logsumexp(logw)
    if not (lse >= _LOG_CUTOFF).all():  # False for NaN too: a far y
        raise ValueError("y has zero likelihood under every seed")
    logw -= lse
    return logw if m.y.ndim == 2 else logw[0]


def seed_law_tv(m: Measurement, x: np.ndarray):
    """Total variation between the law of round_R(x_head) over the rows of x and the exact seed
    posterior given m.y, both over the 2^d seeds in all_inputs order; None for an empty x.
    ValueError for a Measurement of (k, d_prime) rows: one law of x has one posterior to meet."""
    if m.y.ndim == 2:
        raise ValueError("seed_law_tv takes a Measurement of one (d_prime,) y")
    if len(x) == 0:
        return None
    d = m.params.d
    minus = round_R(np.asarray(x)[:, :d], m.params.R) == -1  # all_inputs: -1 is bit 1
    law = np.bincount(minus @ (1 << np.arange(d - 1, -1, -1)), minlength=2**d)
    return float(0.5 * np.abs(law / len(x) - np.exp(m.log_weights)).sum())


def _search(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per u, the count of CDF entries <= u: the index that Generator.choice draws. cdf is one
    row that every u searches, or one row per u."""
    if cdf.ndim == 1:
        return cdf.searchsorted(u, side="right")
    return (cdf <= u[:, None]).sum(axis=1)


def _tail_posterior_cdf(params: InstanceParams, b: int, y: np.ndarray):
    """(pts, cdf): bit b's phase lattice and one row per measurement in y of the CDF of the
    exact lattice posterior of a tail coordinate given that measurement."""
    pts, logp = lattice_atoms(params.eps, phase_of_bit(b, params.eps), log=True)
    logpost = logp[None, :] - (y[:, None] - pts[None, :]) ** 2 / (2.0 * params.beta**2)
    logpost -= logpost.max(axis=1, keepdims=True)
    w = np.exp(logpost)
    w /= w.sum(axis=1, keepdims=True)
    cdf = np.cumsum(w, axis=1)
    cdf[:, -1] = 1.0  # as in Generator.choice: a sum rounded below 1 must not lose any u
    return pts, cdf


def brute_force_posterior(m: Measurement, rng: np.random.Generator, size: int) -> np.ndarray:
    """Exact posterior draws given the measurement m under A = (0 | I): `size` seeds drawn
    from the enumerated seed posterior m.log_weights, as Generator.choice draws them from one
    u each, then draw_given_seeds on those seeds' table rows. A (k, d_prime) m.y takes
    size=k and draws row i given y[i] alone."""
    cdf = np.cumsum(np.exp(m.log_weights), axis=-1)
    cdf /= cdf[..., -1:]
    pick = _search(cdf, rng.random(size))
    S, F = m.f.seed_table
    return draw_given_seeds(m, S[pick], F[pick], rng)


def draw_given_seeds(
    m: Measurement, s: np.ndarray, bits: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Exact posterior draws x given their (n, d) seeds s and bits = m.f(s), under A = (0 | I),
    at any d (no seed table is read). The head is N(R s, I); each tail coordinate comes from the
    exact lattice posterior of its bit's phase given one (d_prime,) m.y, or draw i's given y[i]
    of an (n, d_prime) m.y. The head's normals are drawn first, then the tail's uniforms
    coordinate by coordinate, bit +1 then bit -1, each group's in draw order; a tail draw is the
    first atom whose posterior CDF exceeds its uniform, as in Generator.choice."""
    params, Y = m.params, np.atleast_2d(m.y)
    x = np.empty((len(s), params.dim))
    head, tail = x[:, : params.d], x[:, params.d :]
    np.multiply(s, params.R, out=head)
    head += rng.standard_normal(head.shape)
    if len(Y) == 1:  # one y for every draw: one CDF row per (bit, coordinate)
        tables = {b: _tail_posterior_cdf(params, b, Y[0]) for b in (1, -1)}
    u = np.empty(bits.shape)
    for j in range(params.d_prime):
        for b in (1, -1):
            sel = np.flatnonzero(bits[:, j] == b)
            v = rng.random(sel.size)
            if len(Y) == 1:  # the group's draws share one CDF row: search it now
                pts, cdf = tables[b]
                tail[sel, j] = pts[_search(cdf[j], v)]
            else:
                u[sel, j] = v
    if len(Y) > 1:  # one y per draw: one CDF row per (draw, coordinate), one table per bit
        for b in (1, -1):
            at = bits == b
            pts, cdf = _tail_posterior_cdf(params, b, Y[at])
            tail[at] = pts[_search(cdf, u[at])]
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
                meas = Measurement(params, f, sample_measurement_for_target(f(s), params, rs))
                x, info = make_rejection_sampler(params, f, max_rounds)(meas, rs, trials)
                total, censored = info["proposals"], int(np.isnan(x).any(axis=1).sum())
            mean = total / trials
            log_mean = float(np.log(mean))
            rows.append({"beta": beta, "m": m, "mean_rounds": mean, "log_mean_rounds": log_mean,
                         "trials": trials, "censored": censored})
    return rows
