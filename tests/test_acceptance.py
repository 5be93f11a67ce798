"""Acceptance suite: one test per headline requirement, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
Every test is seed-pinned and self-contained; tolerances are stated inline.
"""

import time

import numpy as np
from scipy.stats import norm

from phaselab.circuits import all_inputs, sign_identity
from phaselab.instance import (
    InstanceParams,
    bits_eps,
    canonical_params,
    measurement_matrix,
    round_R,
    sample_unconditional,
)
from phaselab.piecewise import (
    C4_L2,
    ApproxParams,
    PiecewiseLinear,
    build_score_approx,
    measure_l2_error,
    score_family,
)
from phaselab.posterior import (
    Measurement,
    PosteriorConfig,
    acceptance_curve,
    brute_force_posterior,
    rejection_sample,
)
from phaselab.reduction import (
    inversion_experiment,
    make_brute_force_sampler,
    random_circuit_owf,
    sample_measurement_for_target,
)
from phaselab.relu import (
    assemble_score_net_large_sigma,
    assemble_score_net_small_sigma,
    circuit_to_relu,
    compile_piecewise,
    eval_net,
)
from phaselab import scores
from phaselab.scores import dg_smoothed_log_density, mixture_score_exact

from lemmas import clipped_noise_tv, conditional_tv_check, ks, measure_clipped, tv_binned


def report(num, name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:>2} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_rejection_sampler_correctness():
    t0 = time.monotonic()
    params = canonical_params(2, 2)
    f = sign_identity(2)
    rng = np.random.default_rng(101)
    s = np.array([1, -1])
    y = sample_measurement_for_target(f(s)[None], params, [rng])[0]
    oracle = brute_force_posterior(Measurement(params, f, y), rng, size=100_000)
    A = measurement_matrix(params)
    cfg = PosteriorConfig(10**6, params.beta)
    proposal = lambda n, r: sample_unconditional(params, f, r, size=n)[1]
    got, stats = rejection_sample(proposal, A, y, cfg, rng, size=100_000)
    proposals = stats.rounds
    tv = tv_binned(oracle, got)
    dt = time.monotonic() - t0
    report(
        1, "rejection sampler TV", stats.accepted and tv <= 0.03 and dt <= 300,
        f"binned TV {tv:.4f} <= 0.03 over 1e5 accepted ({proposals} proposals), {dt:.0f}s <= 300s",
    )


def test_criterion_02_acceptance_rate_scaling():
    rows = acceptance_curve([0.1], [1, 2, 3, 4], trials=100, master_seed=202)
    lm = np.array([r["log_mean_rounds"] for r in rows])
    ms = np.array([r["m"] for r in rows], dtype=float)
    slope = np.polyfit(ms, lm, 1)[0]
    steps = np.diff(lm)
    monotone = bool(np.all(steps > 0))
    in_band = bool(np.all((steps >= 0.5 * slope) & (steps <= 2.0 * slope)))
    ok = slope > 0 and monotone and in_band
    report(
        2, "acceptance-rate scaling", ok,
        f"log-rounds {np.round(lm, 2).tolist()} at beta=0.1; fitted slope {slope:.2f} "
        f"(implied C {0.1 * np.exp(slope):.2f}), per-step increments within [0.5, 2.0]x slope: {in_band}",
    )


def test_criterion_03_inversion_end_to_end():
    t0 = time.monotonic()
    params = canonical_params(8, 8)
    total, succ = 0, 0
    for k in range(4):
        f = random_circuit_owf(8, 8, 24, seed=300 + k)
        rep = inversion_experiment(f, make_brute_force_sampler(params, f), 50, params, 303 + k)
        total += rep.trials
        succ += rep.successes
    rate = succ / total
    dt = time.monotonic() - t0
    report(
        3, "inversion success rate", rate >= 0.9 and dt <= 600,
        f"{succ}/{total} = {rate:.3f} >= 0.9 over 4 random 8->8 circuits, {dt:.0f}s <= 600s",
    )


def test_criterion_04_decode_chain_exactness():
    params = canonical_params(8, 8)
    f = random_circuit_owf(8, 8, 24, seed=404)
    rng = np.random.default_rng(404)
    failures = 0
    n = 0
    while n < 1_000_000:
        batch = min(100_000, 1_000_000 - n)
        s, x = sample_unconditional(params, f, rng, size=batch)
        y = measure_clipped(x, params, rng)
        bad = ~np.all(f(round_R(x[:, :8], params.R)) == bits_eps(y, params.eps), axis=1)
        failures += int(bad.sum())
        n += batch
    report(4, "decode-chain exactness", failures == 0, f"{failures} failures in {n} draws")


def test_criterion_05_score_approximation_error():
    rng = np.random.default_rng(505)
    worst = 0.0
    for sigma in (0.5, 1.0):
        for kappa in (0.04, 0.01):
            score, sampler, m2 = score_family("two_point", sigma)
            l = build_score_approx(score, ApproxParams(kappa, sigma, m2))
            err = measure_l2_error(l, score, sampler, 200_000, rng) * sigma**2 / kappa
            worst = max(worst, err)
    score, _, m2 = score_family("two_point", 1.0)
    n1 = build_score_approx(score, ApproxParams(0.04, 1.0, m2)).piece_count
    n2 = build_score_approx(score, ApproxParams(0.01, 1.0, m2)).piece_count
    ratio = n2 / n1
    ok = worst <= C4_L2 and 4.0 <= ratio <= 16.0
    report(
        5, "score approximation", ok,
        f"max scaled L2 error {worst:.2e} <= {C4_L2:g}; piece ratio {ratio:.2f} in [4, 16] "
        f"({n1} -> {n2} pieces for 4x smaller kappa)",
    )


def test_criterion_06_relu_exactness():
    rng = np.random.default_rng(606)
    worst_rel = 0.0
    for _ in range(10):
        bp = np.sort(rng.uniform(-4, 4, size=9))
        bp = bp[np.concatenate(([True], np.diff(bp) > 1e-3))]
        l = PiecewiseLinear(bp, rng.uniform(-3, 3, size=bp.size), rng.uniform(-2, 2), rng.uniform(-2, 2))
        x = np.linspace(-8, 8, 10_000)
        got = eval_net(compile_piecewise(l), x[:, None])[:, 0]
        want = l(x)
        worst_rel = max(worst_rel, float(np.max(np.abs(got - want) / (1.0 + np.abs(want)))))
    circuits_ok = 0
    for k in range(50):
        n = int(rng.integers(2, 11))
        m = int(rng.integers(1, 7))
        f = random_circuit_owf(n, m, int(rng.integers(m, 4 * m + 1)), seed=660 + k)
        S = all_inputs(n)
        circuits_ok += bool(np.array_equal(eval_net(circuit_to_relu(f), S.astype(float)), f(S)))
    ok = worst_rel <= 1e-9 and circuits_ok == 50
    report(
        6, "ReLU exactness", ok,
        f"compile error {worst_rel:.2e} <= 1e-9 on 1e4-point grids; "
        f"{circuits_ok}/50 circuits (n <= 10) exhaustively exact",
    )


def test_criterion_07_well_modeled_networks():
    params = InstanceParams(2, 2, 30.0, 0.05, 0.00125)
    f = sign_identity(2)
    rng = np.random.default_rng(707)
    lines = []
    ok = True
    for sigma in (0.1, 0.5, 1.0, 5.0, 20.0):
        if sigma <= 1.0:
            net = assemble_score_net_small_sigma(params, f, sigma, kappa=0.25)
        else:
            net = assemble_score_net_large_sigma(params, sigma, kappa=0.01)
        _, x = sample_unconditional(params, f, rng, size=10_000)
        x += sigma * rng.standard_normal(x.shape)
        mse = float(np.mean(np.sum((eval_net(net, x) - mixture_score_exact(params, f, sigma, x)) ** 2, axis=1)))
        ok = ok and mse <= 1e-3 / sigma**2
        lines.append(f"sigma={sigma}: {mse:.2e} <= {1e-3 / sigma**2:.2e}")
    report(7, "well-modeled networks", ok, "; ".join(lines))


def test_criterion_08_fourier_bound_and_route_agreement():
    ok = True
    details = []
    for eps, rho in ((0.5, 0.1), (0.1, 1.0), (0.05, 2.0)):
        v = 1.0 + rho**2
        x = np.linspace(-6 * np.sqrt(v), 6 * np.sqrt(v), 601)
        bound = 3.0 * np.exp(-(rho**2) / (2.0 * eps**2 * v))
        for b in (1, -1):
            g = np.exp(dg_smoothed_log_density(eps, rho, x, (b,))[0])
            w = norm.pdf(x, scale=np.sqrt(v))
            dev = float(np.max(np.abs(g - w) / w))
            # the analytic bound can sit far below double precision; allow
            # a 1e-12 relative floor for float roundoff
            ok = ok and dev <= bound + 1e-12
        details.append(f"(eps={eps}, rho={rho}): deviation {dev:.2e} <= {bound:.2e}")
    agree = 0.0
    for eps, rho in ((0.5, 0.4), (1.0, 0.5), (1.0, 2.0)):
        x = np.linspace(-8, 8, 601)
        a = np.exp(scores._dg_series(eps, rho, (1,), x, 0)[0])
        b = np.exp(scores._dg_lattice(eps, rho, (1,), x, 0)[0])
        agree = max(agree, float(np.max(np.abs(a - b) / np.maximum(b, 1e-300))))
    ok = ok and agree <= 1e-10
    report(8, "Fourier comparison", ok, "; ".join(details) + f"; route agreement {agree:.1e} <= 1e-10")


def test_criterion_09_tv_lemma_checks():
    rng = np.random.default_rng(909)
    holds = 0
    for _ in range(200):
        p = rng.random((6, 6))
        q = rng.random((6, 6))
        lhs, rhs = conditional_tv_check(p / p.sum(), q / q.sum())
        holds += lhs <= rhs + 1e-12
    clip_ok = all(
        clipped_noise_tv(1.0, r) <= 2.0 * np.exp(-(r**2) / 2.0) for r in (1.0, 2.0, 3.0)
    )
    ok = holds == 200 and clip_ok
    report(
        9, "TV lemma checks", ok,
        f"conditional-TV inequality {holds}/200 random joints; clipped-noise bound at 3 ratios: {clip_ok}",
    )


def test_criterion_10_diffusion_sampler_sanity():
    from phaselab.circuits import no_output_candidate
    from phaselab.diffusion import DiffusionConfig, default_config, reverse_run
    from phaselab.scores import ScoreProvider, provider_by_name

    gauss = ScoreProvider("gauss", lambda s, x: -x / (1.0 + s**2))
    cfg = DiffusionConfig(T=100.0, t_min=1e-4, N=1000)
    rng = np.random.default_rng(1010)
    out = reverse_run(gauss, cfg, rng, dim=1, size=10_000)[:, 0]
    stat = ks(out, norm.cdf)

    params = InstanceParams(1, 0, 4.0, 1.0, 0.025)
    provider = provider_by_name("exact", params, no_output_candidate(1))
    cfg2 = default_config(params, N=2000)
    x = reverse_run(provider, cfg2, rng, dim=1, size=100_000)[:, 0]
    frac = float(np.mean(x > 0))
    ok = stat <= 0.02 and abs(frac - 0.5) <= 0.01
    report(
        10, "diffusion sampler sanity", ok,
        f"Gaussian reverse-run KS {stat:.4f} <= 0.02; orthant frequency {frac:.4f} in 0.5 +- 0.01",
    )


def test_criterion_11_hardness_demonstration():
    rows = acceptance_curve([0.3], [4, 8], trials=20, master_seed=1111)
    r4 = next(r for r in rows if r["m"] == 4)
    r8 = next(r for r in rows if r["m"] == 8)
    growth = r8["mean_rounds"] / r4["mean_rounds"]

    # heuristic-sampler inversion on the canonical instance (reported, no threshold)
    from phaselab.reduction import make_heuristic_sampler

    params = canonical_params(8, 8)
    f = random_circuit_owf(8, 8, 24, seed=1112)
    sampler = make_heuristic_sampler(params, f)
    rep = inversion_experiment(f, sampler, 20, params, master_seed=1113)
    heuristic_rate = rep.successes / rep.trials

    ok = growth >= 8.0
    report(
        11, "hardness demonstration", ok,
        f"rejection rounds at beta=0.3: m=4 {r4['mean_rounds']:.3g}, m=8 {r8['mean_rounds']:.3g} "
        f"({r8['censored']} censored), growth {growth:.1f}x >= 8x; "
        f"heuristic-sampler inversion rate {heuristic_rate:.2f} ({rep.trials} trials, reported only)",
    )
