"""Results do not depend on the BLAS thread count.

The coset kernel multiplies through BLAS, whose thread pool is sized from the
environment when numpy loads, so each count runs in a fresh interpreter.
"""

import os
import subprocess
import sys

import concatqec

SCRIPT = """
import hashlib
from concatqec import (
    concatenate_exact, exact_level_entropy, get_code, mc_concatenate, noise_family,
    unoptimized_threshold)
steane = get_code("steane")
child = concatenate_exact(steane, noise_family("depolarizing", 0.0627), 1)
print(repr(exact_level_entropy(steane, child)))
ens = concatenate_exact(steane, noise_family("indep-flips", 0.1095), 2)
print(hashlib.sha256(ens.channels.tobytes() + ens.weights.tobytes()).hexdigest())
est = mc_concatenate(steane, noise_family("depolarizing", 0.0627), 2, 400, seed=7)
print(repr(est.mean_entropy), repr(est.std_error))
print(repr(unoptimized_threshold(steane, "depolarizing").p_star))
"""

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _run(threads):
    env = dict(os.environ)
    env.update({var: str(threads) for var in THREAD_VARS})
    src = os.path.dirname(os.path.dirname(os.path.abspath(concatqec.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_results_identical_across_blas_threads():
    one = _run(1)
    assert len(one.splitlines()) == 4
    assert _run(2) == one
