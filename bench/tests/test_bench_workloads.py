from workloads import WORKLOADS, acceptance_totals

CSV = """# config-hash: abc
beta,m,mean_rounds,log_mean_rounds,trials,censored
0.29999999999999999,0,1,0,50,0
0.29999999999999999,1,5.7000000000000002,1.7404661748405046,50,0
0.29999999999999999,2,80.780000000000001,4.3917294101352669,50,0
0.29999999999999999,3,400.94,5.9938117901763297,50,0
"""


def test_acceptance_totals_sum_mean_rounds_times_trials_of_sampled_rows():
    assert acceptance_totals(CSV) == (150, 285 + 4039 + 20047)


def test_workload_argv_carries_the_seed_twice():
    argv = WORKLOADS["invert-bruteforce"].argv(7, "out")
    assert argv[:7] == ["invert", "--seed", "7", "--jobs", "1", "--out", "out"]
    assert "circuit=random:24:7" in argv and "d=8" in argv and "d_prime=8" in argv
    assert "circuit=random:24:7" not in WORKLOADS["acceptance-curve"].argv(7, "out")
