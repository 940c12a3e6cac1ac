import numpy as np
import pytest

from brightpath.berry import ParameterPath
from brightpath.effective import BrightTrajectory, Piece
from brightpath.gates import stage_trajectory
from brightpath.linalg import HermitianOperator, _expm_hermitian_stack, check_orthonormal
from brightpath.propagators import _step_grid, _unitary_product, reparametrize


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_unitary(rng, dim):
    """Haar-ish unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def midpoint_reference(generator, t0, t1, steps, breakpoints=()):
    """Exponential-midpoint unitary of a scalar generator t -> H(t), as a
    matrix: H (a matrix or a ``HermitianOperator``) is called once at every
    midpoint of the propagators' step grid on the pieces that
    ``breakpoints`` (inside (t0, t1)) cut [t0, t1] into, each block of
    samples is exponentiated as one stack at its piece's step width, and the
    blocks go through the propagators' ordered product.  A reference for
    the trajectory routes, which never call a scalar H."""
    edges = (t0, *breakpoints, t1)
    pieces = tuple(Piece(lo, hi, None, None) for lo, hi in zip(edges, edges[1:]))

    def factors(block):
        _, mids, ends, dt = block
        samples = [generator(float(t)) for t in mids]
        stack = np.array([h.matrix if isinstance(h, HermitianOperator) else h for h in samples], dtype=complex)
        return np.eye(stack.shape[1]), _expm_hermitian_stack(stack, dt).transpose(1, 2, 0), ends

    return _unitary_product(map(factors, _step_grid(BrightTrajectory(1, 1, pieces), t0, t1, steps)))[0].matrix


def frame_at(trajectory, t):
    """The (k, dim) bright frame of a trajectory at one time ``t``, and its
    derivative: the one-sample case of ``sample``."""
    values, derivatives = trajectory.sample(np.array([t], dtype=float))
    return values[0], derivatives[0]


def reversed_trajectory(trajectory):
    """The same bright path traversed backwards on the same interval:
    (B(t0 + t1 - t), -Bdot(t0 + t1 - t)), as one piece: the base's piece
    edges are not carried over."""
    t0, t1 = trajectory.t_start, trajectory.t_end

    def sampler(times):
        values, derivatives = trajectory.sample(t0 + t1 - times)
        return values, -derivatives

    return BrightTrajectory(trajectory.dim, trajectory.k, (Piece(t0, t1, None, sampler),))


def reversed_path(path):
    """The same polyline of drive parameters traversed backwards."""
    return ParameterPath(path.samples[::-1], closed=path.closed)


def matmul_snapshots(blocks, state):
    """The start state and the state after every step of a stream of
    (d, d, m) factor planes, each factor applied on its own as a contiguous
    ``factor @ psi``: the reference the trace reducer's blocked scan must
    match to rounding."""
    rows = [np.asarray(state, dtype=complex)]
    for planes in blocks:
        for factor in planes.transpose(2, 0, 1).copy():
            rows.append(factor @ rows[-1])
    return np.array(rows)


def validate_trajectory(trajectory, times=None):
    """Check a trajectory's frames for orthonormality at probe times and
    assert that its analytic derivative is the one its values have: the
    central-difference error must fall at second order from step 1e-4 to
    1e-5 (a jump in the frame shows up as a stagnating error).  Probes
    within a step of an end or two of a breakpoint skip the
    derivative check; the default probes are nine interior times, nudged
    off the breakpoints and off the integer times, where a loop path's
    one piece has its corners."""
    span = trajectory.t_end - trajectory.t_start
    if times is None:
        raw = [trajectory.t_start + span * (i + 0.5) / 9 for i in range(9)]
        kinks = (*trajectory.breakpoints, *range(int(np.ceil(trajectory.t_start)), int(trajectory.t_end) + 1))
        times = [t + 1e-3 * span if any(abs(t - b) < 1e-6 * span for b in kinks) else t for t in raw]
    h_big, h_small = 1e-4, 1e-5
    for t in times:
        value, derivative = frame_at(trajectory, t)
        check_orthonormal(value)
        if t - h_big < trajectory.t_start or t + h_big > trajectory.t_end:
            continue
        if any(abs(t - b) < 2 * h_big for b in trajectory.breakpoints):
            continue
        value_at = lambda s: frame_at(trajectory, s)[0]
        err = [float(np.linalg.norm((value_at(t + h) - value_at(t - h)) / (2 * h) - derivative)) for h in (h_big, h_small)]
        # Second-order decrease, with an absolute floor for trajectories
        # whose finite-difference error already sits at roundoff.
        assert err[1] <= 1e-9 or err[1] <= 0.05 * err[0], (
            f"central-difference error at t={t:.6g} fell from {err[0]:.3e} to {err[1]:.3e} only; "
            "expected second-order decrease"
        )


def excited_and(bright):
    """(M, 1, n) bright states embedded in n+1 levels, then the excited
    level: the states the full oracle's drive couples."""
    m, _, n = bright.shape
    coupled = np.zeros((m, 2, n + 1), dtype=complex)
    coupled[:, 0, :n] = bright[:, 0]
    coupled[:, 1, n] = 1.0
    return coupled


def frameless(trajectory):
    """The same path, piece for piece (the same edges, so the same step
    grid), with no frames, read through the trajectory's own ``sample`` and
    ``values``: a route steps it on all ``dim`` levels, whatever frames the
    trajectory's pieces carry."""
    pieces = tuple(Piece(piece.t_start, piece.t_end, None, trajectory.sample, trajectory.values) for piece in trajectory.pieces)
    return BrightTrajectory(trajectory.dim, trajectory.k, pieces)


def reference_gate_drive(spec):
    """The gate's bright path on all n ground levels, frameless, on the
    progress clock [0, 1] (``stage_trajectory`` reparametrized by
    t = t3 s): the (n+1)-level drive that the oracle's three-level pieces
    are checked against."""
    return reparametrize(frameless(stage_trajectory(spec)), lambda s: spec.t3 * s, lambda s: spec.t3, 0.0, 1.0)
