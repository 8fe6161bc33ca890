import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import consensuslab as cl


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Run every pipeline stage once so timed tests measure steady state."""
    sig = cl.gen_rotating_star(3, 0.5)
    x0 = cl.Configuration.from_positions(np.array([[0.1], [0.2], [-0.3]]))
    traj = cl.integrate(x0, sig, cl.CuckerSmale(1.0, 1.0), 0.2, 0.05)
    cl.integrate(x0, sig, cl.Constant(1.0), 0.2, 0.05)
    cl.scrambling(cl.evaluate(sig, 0.0))
    cl.algebraic_connectivity(cl.window_average(sig, 0.0, 1.5))
    cl.window_contraction(traj, 0.1)
