"""Inversion by posterior sampling.

Given a target bit string z, synthesize a measurement y whose law matches the
measurement marginal conditioned on {s : f(s) = z}, run a posterior sampler,
and decode the first block with round_R. An experiment draws every trial's
target and measurement from the trial's own stream, then runs the sampler
once on all the measurements. Also ships a toy one-way-function candidate
constructor (random local circuits).
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from . import rng as prng
from .circuits import BooleanCircuit, Gate
from .circuits import all_inputs  # noqa: F401 - bench/spans.py traces this binding
from .diffusion import DEFAULT_STEPS, default_config, reverse_run
from .instance import InstanceParams, bits_eps, lattice_quantiles, round_R
from .instance import measurement_matrix, sample_unconditional
from .instance import sample_discretized_gaussian  # noqa: F401 - bench/spans.py traces this binding
from .posterior import Measurement, PosteriorConfig, brute_force_posterior, rejection_sample
from .scores import provider_by_name


def sample_measurement_for_target(
    z: np.ndarray, params: InstanceParams, rng: Sequence[np.random.Generator]
) -> np.ndarray:
    """y_j ~ psi_{z_j} + beta*N(0,1), the measurement marginal for targets z of shape
    (n, d_prime): row i draws its d' uniforms and then its d' normals from rng[i], one generator
    per row, and the lattice lookup runs once for the batch."""
    if np.shape(z)[-1] != params.d_prime:
        raise ValueError("target length mismatch")
    if np.ndim(z) != 2 or isinstance(rng, np.random.Generator) or len(rng) != len(z):
        raise ValueError("a batch takes a (n, d_prime) z and one generator per row")
    u, noise = np.empty(np.shape(z)), np.empty(np.shape(z))
    for i, r in enumerate(rng):
        r.random(out=u[i])
        r.standard_normal(out=noise[i])
    y = lattice_quantiles(np.asarray(z), params.eps, u)
    y += params.beta * noise
    return y


def invert(sampler, m: Measurement, rng: np.random.Generator):
    """(guesses, no_guess): one inversion attempt per row of the (n, d_prime) measurement m.y.

    Every sampler has one call form, sampler(m, rng, size) -> (x, info): a (d_prime,) m.y gives
    `size` draws given y, a (k, d_prime) m.y with size=k one draw per row, NaN where the sampler
    made none; info holds its own posterior_stats.json fields. An m of another instance than the
    sampler's, or a (k, d_prime) m.y with size != k, is ValueError before any draw (_own). Here
    info is unused, and a guess is round_R of the first d coordinates of sampler(m, rng, n)'s
    draw.
    """
    x = np.asarray(sampler(m, rng, len(m.y))[0])
    return round_R(x[:, : m.params.d], m.params.R), np.isnan(x).any(axis=1)


def inversion_experiment(
    f: BooleanCircuit, sampler, trials: int, params: InstanceParams, master_seed: int
) -> tuple[dict, float]:
    """(report, nanos): invert() aggregated over i.i.d. targets z = f(uniform s).

    Trial i draws s, z = f(s) and y from stream(master_seed, i), so a trial's
    target does not depend on the trial count. The sampler then runs once on
    all trials' y, with the batch stream stream(master_seed, rng.BATCH); nanos is
    that batch's wall time divided by trials. report is what `phaselab invert` writes: a
    guess succeeds if f(guess) = z, and a trial whose sampler made no draw never does.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    streams = [prng.stream(master_seed, i) for i in range(trials)]
    s = np.array([prng.signs(r, params.d) for r in streams])
    z = f(s)
    m = Measurement(params, f, sample_measurement_for_target(z, params, streams))
    t0 = time.perf_counter_ns()
    guess, no_guess = invert(sampler, m, prng.stream(master_seed, prng.BATCH))
    nanos = (time.perf_counter_ns() - t0) / trials
    solved = np.all(f(guess) == z, axis=1) & ~no_guess
    successes = int(solved.sum())
    report = {
        "trials": trials,
        "successes": successes,
        "success_rate": successes / trials,
        "exact_seed_hits": int((solved & np.all(guess == s, axis=1)).sum()),  # guess = s
        "bits_match_count": int(np.all(bits_eps(m.y, params.eps) == z, axis=1).sum()),
        "no_guess_count": int(no_guess.sum()),
    }
    return report, nanos


def _own(m: Measurement, params: InstanceParams, f: BooleanCircuit, size: int) -> Measurement:
    """m, or ValueError if m is of another instance than the sampler's (params, f), or if its
    (k, d_prime) y comes with size != k; every sampler calls this before its first draw."""
    if not (m.params == params and m.f is f):
        raise ValueError("the measurement is of another instance than the sampler's")
    if m.y.ndim == 2 and size != len(m.y):
        raise ValueError(f"a (k, d_prime) y takes size=k, one draw per row: k = {len(m.y)}, "
                         f"size = {size}")
    return m


def make_brute_force_sampler(params: InstanceParams, f: BooleanCircuit):
    """The exact oracle brute_force_posterior in invert's sampler form; its info is {}. Its seed
    table is built now, so that d > MAX_ENUM_D raises ValueError here."""
    f.seed_table
    return lambda m, rng, size: (brute_force_posterior(_own(m, params, f, size), rng, size), {})


def make_rejection_sampler(params: InstanceParams, f: BooleanCircuit, max_rounds: int):
    """Rejection sampling from sample_unconditional, max_rounds proposals per draw, in invert's
    sampler form: one rejection_sample call. A batch's rows draw from a list of generators as
    given, or from one Generator's children rng.spawn(k). info: proposals, accepted, and
    rounds_per_accept (None without a draw)."""
    A = measurement_matrix(params)
    cfg = PosteriorConfig(max_rounds, params.beta)
    proposal = lambda n, r: sample_unconditional(params, f, r, size=n)[1]

    def sampler(m, rng, size):
        _own(m, params, f, size)
        if np.ndim(m.y) == 2 and isinstance(rng, np.random.Generator):
            rng = rng.spawn(size)
        x, stats = rejection_sample(proposal, A, m.y, cfg, rng, size=size)
        got = int(np.isfinite(x).all(axis=1).sum())
        rate = stats.rounds / got if got else None
        return x, {"proposals": stats.rounds, "accepted": got, "rounds_per_accept": rate}

    return sampler


def make_heuristic_sampler(
    params: InstanceParams, f: BooleanCircuit, provider: str = "exact", steps: int = DEFAULT_STEPS
):
    """Guided reverse diffusion, a baseline with no correctness contract, in invert's sampler
    form: reverse_run with the score provider named `provider` and `steps` steps, adding the
    Gaussian-likelihood gradient -A^T(Ax - y)/(beta^2 + t) to the score at each step; its info
    is {}."""
    A = measurement_matrix(params)
    dcfg = default_config(params, N=steps)
    score = provider_by_name(provider, params, f)

    def sampler(m, rng, size):
        y = _own(m, params, f, size).y
        guidance = lambda t, x: -(x @ A.T - y) @ A / (params.beta**2 + t)
        return reverse_run(score, dcfg, rng, dim=params.dim, size=size, extra_drift=guidance), {}

    return sampler


# --- candidate constructors ---------------------------------------------------


def random_circuit_owf(n: int, m: int, gate_count: int, seed: int) -> BooleanCircuit:
    """Seed-deterministic local candidate: fan-in <= 3, each output reads <= 8 inputs.

    Each output block builds a small random gate tree over its support and
    finishes with an XOR-of-(input, tree) gadget so outputs are rarely constant.
    """
    if gate_count < m:
        raise ValueError("need at least one gate per output")
    r = np.random.default_rng(seed)
    gates: list[Gate] = []
    outputs = []
    per_out = max(1, gate_count // m)
    for j in range(m):
        support = r.choice(n, size=min(8, n), replace=False)
        block: list[int] = [int(v) for v in support]  # references usable in this block
        for _ in range(per_out):
            kind = ("AND", "OR", "NOT")[int(r.integers(0, 3))]
            fan = 1 if kind == "NOT" else int(r.integers(2, 4))
            refs = tuple(int(block[int(r.integers(0, len(block)))]) for _ in range(fan))
            gates.append(Gate(kind, refs))
            block.append(n + len(gates) - 1)
        t = block[-1]
        a = int(support[int(r.integers(0, len(support)))])
        # XOR(a, t) = OR(AND(a, NOT t), AND(NOT a, t))
        gates.append(Gate("NOT", (t,)))
        nt = n + len(gates) - 1
        gates.append(Gate("NOT", (a,)))
        na = n + len(gates) - 1
        gates.append(Gate("AND", (a, nt)))
        g1 = n + len(gates) - 1
        gates.append(Gate("AND", (na, t)))
        g2 = n + len(gates) - 1
        gates.append(Gate("OR", (g1, g2)))
        outputs.append(n + len(gates) - 1)
    return BooleanCircuit(n, tuple(gates), tuple(outputs), f"random-{n}to{m}-seed{seed}")
