from compare import verdict

A = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_verdicts():
    faster = [v * 0.8 for v in A]
    assert verdict(A, faster, "lower", 0.1, 1.0) == "improved"
    assert verdict(A, [v * 1.02 for v in A], "lower", 0.1, 0.0) == "within bound"
    assert verdict(A, [v * 1.2 for v in A], "lower", 0.1, 0.0) == "regressed"
    noisy = [50.0, 150.0] * 5
    assert verdict(A, noisy, "lower", 0.1, 0.5) == "unresolved"
    assert verdict(A, [v * 1.2 for v in A], "higher", None, 1.0) == "improved"
    assert verdict(A, A, "higher", None, 0.0) == "no clear change"
    assert verdict(A[:1], A, "lower", 0.1, 1.0) == "unresolved"
