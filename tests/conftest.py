import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from concatqec import builtin_codes
from concatqec.codes import load_code_text

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def codes():
    return builtin_codes()


def random_code(n, seed):
    """An [[n,1]] code made from the trivial one by random H, S and CNOT gates.

    The trivial code has generators Z on qubits 1..n-1 and logicals X and Z
    on qubit 0.  The gates act on the (x, z) bits of those operators, which
    keeps every commutation relation; the text form gives each sign +1.  Up
    to 3n gates leave some codes with many qubit automorphisms and others
    with the identity alone.
    """
    rng = np.random.default_rng([n, seed])
    # rows: the n-1 generators, then logical X, then logical Z
    x = np.zeros((n + 1, n), dtype=np.int64)
    z = np.zeros((n + 1, n), dtype=np.int64)
    z[np.arange(n - 1), np.arange(1, n)] = 1
    x[n - 1, 0] = 1
    z[n, 0] = 1
    for _ in range(rng.integers(0, 3 * n + 1)):
        gate, a, b = rng.integers(3), *rng.choice(n, 2, replace=False)
        if gate == 0:  # H on a
            x[:, a], z[:, a] = z[:, a].copy(), x[:, a].copy()
        elif gate == 1:  # S on a
            z[:, a] ^= x[:, a]
        else:  # CNOT from a to b
            x[:, b] ^= x[:, a]
            z[:, a] ^= z[:, b]
    ops = ["".join("IXZY"[c] for c in row) for row in x + 2 * z]
    lines = [f"name random-{n}-{seed}", f"n {n}", "distance 1"]
    lines += [f"generator {g}" for g in ops[:n - 1]]
    lines += [f"logical_x {ops[n - 1]}", f"logical_z {ops[n]}"]
    return load_code_text("\n".join(lines))


@pytest.fixture(scope="session")
def random_codes():
    """Eight random codes for each n from 3 to 5."""
    return [random_code(n, seed) for n in (3, 4, 5) for seed in range(8)]
