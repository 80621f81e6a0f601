"""The regression and gain rule of ``python -m bench compare``."""

from bench.compare import verdict

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def test_within_the_bound_is_ok():
    assert verdict(BASE, [v * 1.02 for v in BASE], "lower", 0.05)[0] == "ok"


def test_worse_by_more_than_the_bound_regresses():
    outcome, change = verdict(BASE, [v * 1.05 + (i % 3) for i, v
                                     in enumerate(BASE)], "lower", 0.03)
    assert outcome == "regressed" and change > 0.03


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [80.0, 120.0, 100.0, 90.0, 115.0]
    assert verdict(BASE[:5], noisy, "lower", 0.05)[0] == "unresolved"


def test_every_run_better_is_better_even_when_noisy():
    head = [70.0, 60.0, 72.0, 65.0, 50.0]
    assert verdict(BASE[:5], head, "lower", 0.05)[0] == "better"


def test_gain_needs_ten_pairs_nine_wins_and_a_gap_over_the_iqr():
    head = [v * 0.9 for v in BASE]
    assert verdict(BASE, head, "lower", 0.05)[0] == "gain"
    assert verdict(BASE[:9], head[:9], "lower", 0.05)[0] == "better"
    higher = [v * 1.1 for v in BASE]
    assert verdict(BASE, higher, "higher", 0.05)[0] == "gain"
