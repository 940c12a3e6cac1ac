"""Mutation gate: every listed mutant must make the tier-1 suite fail.

A mutant replaces one exact text in one module of ``src/brightpath/``.  The
script copies ``src/``, ``tests/``, ``pyproject.toml`` and ``README.md``
(whose examples a test runs) to a temporary directory, checks that tier-1
passes there unmutated, and then applies one mutant at a time and runs
tests on it with ``-x`` and no bytecode written:
first its module's own test file, ``tests/test_<module>.py``, where most
mutants fail within seconds, and the whole tier-1 only if that file passes.
A failure in one tier-1 file is a tier-1 failure, so the order changes no
verdict, only how soon it comes.  A mutant that tier-1 passes survives.
The exit code is 1 if a mutant survives that is not marked equivalent, if
a mutant's old text is not found exactly once in its module (the list has
gone stale), or if the unmutated copy fails; else 0.  An equivalent mark
carries the reason no test can tell the mutant apart.

Run from the repository root:  python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIER1 = (sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors")
# A mutant that keeps tier-1 running this long (the unmutated suite takes
# under 20 s on 2 cores) counts as killed: it made the suite hang.
TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str
    old: str
    new: str
    why: str
    equivalent: str = ""


MUTANTS = (
    Mutant(
        "left-endpoint-grid",
        "propagators",
        "t0 + span * (np.arange(lo, min(lo + FULL_BLOCK, steps)) + 0.5) / steps",
        "t0 + span * (np.arange(lo, min(lo + FULL_BLOCK, steps)) + 0.0) / steps",
        "the step grid samples left endpoints: the midpoint rule drops to first order",
    ),
    Mutant(
        "swapped-tree-product",
        "linalg",
        "planes[:, :, 1:m:2], planes[:, :, 0 : m - m % 2 : 2])",
        "planes[:, :, 0 : m - m % 2 : 2], planes[:, :, 1:m:2])",
        "the ordered product puts earlier factors on the left",
    ),
    Mutant(
        "plane-index-transposed",
        "linalg",
        '"ilk,ljk->ijk"',
        '"lik,ljk->ijk"',
        "the tree contraction reads the later factor's entry planes transposed",
    ),
    Mutant(
        "flipped-magnus-commutator",
        "berry",
        "exponents = 0.5 * (e1 + e2) - (np.sqrt(3.0) / 12.0)",
        "exponents = 0.5 * (e1 + e2) + (np.sqrt(3.0) / 12.0)",
        "the fourth-order Magnus term of the holonomy has the wrong sign",
    ),
    Mutant(
        "swapped-gauss-nodes",
        "berry",
        "for node in GAUSS_NODES",
        "for node in GAUSS_NODES[::-1]",
        "E_1 and E_2 swap, which flips the commutator term",
    ),
    Mutant(
        "no-polar-projection",
        "propagators",
        "clean = w @ vh",
        "clean = u",
        "the product is not projected back onto the unitary group",
    ),
    Mutant(
        "flipped-lambda-sine",
        "propagators",
        "np.cos(phase) - 1.0, np.sin(phase)",
        "np.cos(phase) - 1.0, -np.sin(phase)",
        "the full oracle's real-form steps are those of exp(+i H dt), in its single steps and its step pairs",
    ),
    Mutant(
        "lambda-bra-without-conj",
        "propagators",
        "np.multiply(-sine, bra, out=planes[n, :n])",
        "np.multiply(-sine, ket, out=planes[n, :n])",
        "the full oracle's real-form step writes its <B| row as B^T: the step is not unitary for a complex B",
    ),
    Mutant(
        "lambda-pair-cross-transposed",
        "propagators",
        "np.multiply(self.ket1[i], self.bra0, out=self.cross[i])",
        "np.multiply(self.ket0[i], self.bra1, out=self.cross[i])",
        "a step pair's X term is built as |b0><b1| for |b1><b0|",
    ),
    Mutant(
        "lambda-pair-kappa-without-s2",
        "propagators",
        "kappa = c * c * self.omega - s * s",
        "kappa = c * c * self.omega",
        "a step pair's X coefficient drops the s^2 of the two couplings through |e>",
    ),
    Mutant(
        "lambda-pair-mu-without-cos",
        "propagators",
        "mu = c * self.omega + cos",
        "mu = c * self.omega",
        "a step pair's excited-level coupling drops the cos p of the first step's |e><e| entry",
    ),
    Mutant(
        "reparametrize-keeps-unmapped-breakpoints",
        "propagators",
        "edges = (float(t0), *map(float, hi), float(t1))",
        "edges = (float(t0), *map(float, targets), float(t1))",
        "a remapped trajectory's pieces keep their base's edges, not their preimages",
    ),
    Mutant(
        "reparametrize-drops-phases",
        "propagators",
        "return Piece(start, end, piece.phases, sampler,",
        "return Piece(start, end, None, sampler,",
        "a remapped piece forgets its phases: the gate's fall loses e^{i twist} on the levels of psi",
    ),
    Mutant(
        "piece-values-fallback-reads-derivatives",
        "effective",
        "return self.sampler(times)[0] if self.values is None else self.values(times)",
        "return self.sampler(times)[1] if self.values is None else self.values(times)",
        "a piece without its own values reads its sampler's derivatives as its values",
    ),
    Mutant(
        "morris-shore-level-limit-exclusive",
        "cli",
        "_require(levels <= MAX_MORRIS_SHORE_LEVELS,",
        "_require(levels < MAX_MORRIS_SHORE_LEVELS,",
        "a random Morris-Shore system of exactly MAX_MORRIS_SHORE_LEVELS levels is refused",
    ),
    Mutant(
        "closure-tolerance-inclusive",
        "berry",
        "if not gap < CLOSURE_TOL:",
        "if not gap <= CLOSURE_TOL:",
        "a closed path whose ends differ by exactly CLOSURE_TOL is accepted",
    ),
    Mutant(
        "gate-trace-drops-psi-perp",
        "gates",
        "outside = state - frame @ core",
        "outside = 0 * state",
        "a gate trace loses the part of its start state outside the core",
    ),
    Mutant(
        "no-tangency-check",
        "effective",
        "passed = tangency < DERIVATIVE_TANGENCY_TOL\n",
        "passed = tangency < np.inf\n",
        "a derivative with Re <Bdot|B> != 0 is accepted",
    ),
    Mutant(
        "tangency-bound-not-relative",
        "effective",
        "passed = tangency < DERIVATIVE_TANGENCY_TOL * scale\n",
        "passed = tangency < DERIVATIVE_TANGENCY_TOL + 0 * scale\n",
        "the tangency bound stays 1e-8 for a large Bdot, where it is 1e-8 * ||Bdot||",
    ),
    Mutant(
        "tangency-from-the-derivative-norm",
        "effective",
        'np.einsum("mkx,mkx->mk", _floats(derivatives), _floats(values))',
        'np.einsum("mkx,mkx->mk", _floats(derivatives), _floats(derivatives))',
        "the tangency check takes <Bdot|Bdot> for Re <Bdot|B>: every moving frame is refused",
    ),
    Mutant(
        "loop-derivative-without-phase",
        "berry",
        "(rdot[level] + 1j * r[level] * phidot[level]) * phase\n",
        "(rdot[level] + 1j * r[level] * phidot[level]) * (phase if level == 1 else 1.0)\n",
        "the loop sampler's Bdot drops the factor e^{i phi3} from its last column",
    ),
    Mutant(
        "no-phase-floor",
        "cli",
        "> PHASE_OVERLAP_FLOOR, np.angle(overlap), 0.0)",
        "> 0.0, np.angle(overlap), 0.0)",
        "a time series writes the angle of an overlap that carries no digits",
    ),
    Mutant(
        "leakage-takes-the-best-input",
        "propagators",
        "return float(1.0 - retained[0]) if retained.size else 0.0",
        "return float(1.0 - retained[-1]) if retained.size else 0.0",
        "leakage reports the dark input that leaks least: 1 - lambda_max of the retained Gram matrix",
    ),
    Mutant(
        "trace-drops-the-start-row",
        "propagators",
        "first = int(done == 0)",
        "first = 0",
        "a trace's first block hands its sink no start state",
    ),
    Mutant(
        "trace-records-before-the-step",
        "propagators",
        '        state = np.einsum("ijc,jc->ic", at, state[:, : at.shape[-1]])\n        out[p::width] = state.T',
        '        out[p::width] = state[:, : at.shape[-1]].T\n        state = np.einsum("ijc,jc->ic", at, state[:, : at.shape[-1]])',
        "the scan records each state before its step: every chunk's start state, never its last",
    ),
    Mutant(
        "trace-times-one-step-early",
        "propagators",
        "marks = np.arange(done + 1 - len(rows), done + 1)",
        "marks = np.arange(done - len(rows), done)",
        "a trace stamps each row with the grid time of the step before",
    ),
    Mutant(
        "scan-starts-one-chunk-late",
        "propagators",
        "    state = starts\n",
        "    state = np.roll(starts, -1, axis=1)\n",
        "the scan steps each chunk from the next chunk's start state",
    ),
    Mutant(
        "scan-product-on-the-wrong-side",
        "propagators",
        'np.einsum("ilc,ljc->ijc", at, total[:, :, :n])',
        'np.einsum("ilc,ljc->ijc", total[:, :, :n], at)',
        "the in-chunk running product puts each later factor on the right, so the chunk start states are wrong",
    ),
    Mutant(
        "u-z-left-rule",
        "berry",
        "            0.5\n"
        "            * (np.sin(path.samples[1:, 1]) ** 2 + np.sin(path.samples[:-1, 1]) ** 2)",
        "            1.0\n"
        "            * (np.sin(path.samples[:-1, 1]) ** 2)",
        "u_z_analytic integrates sin^2(theta2) d phi3 by the left rule, not the trapezoid",
        equivalent="only rectangles reach u_z_analytic (the CLI's plane loops and the suite), and theta2 is constant "
        "on every rectangle edge along which phi3 moves; only a diagonal edge would tell the rules apart",
    ),
    Mutant(
        "bright-step-c2-limit",
        "linalg",
        "np.where(split, 2.0 * root, 1.0), -0.5)",
        "np.where(split, 2.0 * root, 1.0), 0.5)",
        "the closed-form bright step takes +1/2 as c2 at lam_1 = lam_2 = 0",
        equivalent="root = 0 with |B| = 1 forces e = Re(beta) B, which the tangency check makes 0, so t H = 0 "
        "and every term c2 multiplies (gamma, beta, g e) vanishes",
    ),
    Mutant(
        "embed-transposes-the-frame",
        "gates",
        "outside + frame @ core.unitary.matrix @ frame.conj().T",
        "outside + frame @ core.unitary.matrix @ frame.T",
        "a gate's core unitary is embedded with Pi^T for Pi^dag: wrong for every complex psi",
    ),
    Mutant(
        "measure-gate-swaps-distance-modes",
        "gates",
        'for mode in ("exact", "up_to_global_phase"))',
        'for mode in ("up_to_global_phase", "exact"))',
        "measure_gate reports the phase-mode distance as the exact one and the exact as the phase-mode one",
    ),
    Mutant(
        "core-trace-sink-drops-psi-perp",
        "gates",
        "states = np.broadcast_to(outside, (len(rows), outside.size)).copy()",
        "states = np.zeros((len(rows), outside.size), dtype=complex)",
        "the core trace hands its sink the core rows only: both gate routes lose psi_perp",
    ),
    Mutant(
        "gate-fall-keeps-the-rise-phase",
        "gates",
        "theta_piece(t2, t3, np.pi, -np.pi, np.where(np.arange(n) < n - 1, np.exp(1j * np.array([twist])), 1.0))",
        "theta_piece(t2, t3, np.pi, -np.pi, None)",
        "the fall piece takes the rise's phases (none) for e^{i twist} on the levels of psi",
    ),
    Mutant(
        "gate-fall-phases-one",
        "gates",
        "np.exp(1j * np.array([twist]))",
        "np.exp(0j * np.array([twist]))",
        "the fall piece is built with phases (1, 1): its bright state loses e^{i twist}",
    ),
    Mutant(
        "lift-swaps-d-and-its-inverse",
        "propagators",
        "return np.outer(phi, phi.conj())",
        "return np.outer(phi.conj(), phi)",
        "a real-form product G is mapped back as D^-1 G D for D G D^-1 (Phi^dag G Phi for Phi G Phi^dag)",
    ),
    Mutant(
        "trace-lift-swaps-d-and-its-inverse",
        "propagators",
        "        planes[:n, n] *= -1j\n        planes[n, :n] *= 1j\n",
        "        planes[:n, n] *= 1j\n        planes[n, :n] *= -1j\n",
        "a trace maps its real-form single steps back as D^-1 G D for D G D^-1",
    ),
    Mutant(
        "full-oracle-norm-bound-inclusive",
        "propagators",
        "passed = deviation < COUPLING_NORM_TOL",
        "passed = deviation <= COUPLING_NORM_TOL",
        "the full oracle accepts a bright state whose |<B|B> - 1| equals the coupling tolerance",
    ),
    Mutant(
        "gate-twist-drops-the-auxiliary-rounding",
        "gates",
        "(sin_top,), (cos_top,) = np.sin(top), np.cos(top)",
        "(sin_top,), (cos_top,) = np.sin(top), 0.0 * np.cos(top)",
        "the twist stage writes 0.0 for the auxiliary amplitude cos(pi/2) ~ 6.1e-17, which no physics test sees",
    ),
    Mutant(
        "full-trace-couples-no-excited-level",
        "propagators",
        "    return coupled\n",
        "    return coupled[:, :k]\n",
        "the full oracle's trace hands its sink the bright states without the excited level",
    ),
    Mutant(
        "core-lift-of-coupled-skips-a-column",
        "gates",
        'np.einsum("mkc,dc->mkd", coupled, frame)',
        'np.einsum("mkc,dc->mkd", coupled[:, :, :-1], frame[:, :-1])',
        "a gate trace lifts its coupled states through all but the last column of the core frame",
    ),
    Mutant(
        "wall-time-in-kiloseconds",
        "cli",
        "(time.perf_counter() - started) * 1000.0",
        "(time.perf_counter() - started) / 1000.0",
        "a report's wall_time_ms is the run's seconds divided by 1000",
    ),
    Mutant(
        "criterion-10-anticommutator",
        "acceptance",
        "u_y @ u_z - u_z @ u_y",
        "u_y @ u_z + u_z @ u_y",
        "the universality witness measures the anticommutator, whose norm 2.72 also exceeds 0.1",
    ),
    Mutant(
        "morris-shore-degeneracy-threshold-inverted",
        "morris_shore",
        "<= 1e-10 * strengths[0]",
        "<= 1e-10 / strengths[0]",
        "the degeneracy threshold shrinks as the couplings grow: a pair's order depends on the drive's scale",
    ),
    Mutant(
        "reparametrize-message-second-sample",
        "propagators",
        "onto [{mapped[0]:.6g}, {mapped[-1]:.6g}]",
        "onto [{mapped[0]:.6g}, {mapped[1]:.6g}]",
        "reparametrize's error gives the map's second check point as the end of its image",
    ),
    Mutant(
        "repr-fixed-notation-ends-at-15",
        "floatrepr",
        "fixed = (decpt > -4) & (decpt <= 16)",
        "fixed = (decpt > -4) & (decpt <= 15)",
        "a value with 16 digits before the point is written in scientific notation, where repr writes it fixed",
    ),
    Mutant(
        "repr-odd-interval-closed",
        "floatrepr",
        "out = c & U(1)",
        "out = U(0)",
        "an odd significand's rounding interval keeps its ends, so a shorter decimal at an end is taken",
    ),
    Mutant(
        "repr-ties-to-odd",
        "floatrepr",
        "round_up = vb + (s & U(1))",
        "round_up = vb + (~s & U(1))",
        "a value exactly between two shortest candidates takes the odd one",
    ),
)


def _tier1(tree: str, command=TIER1) -> tuple[bool, str]:
    """Run ``command`` in ``tree`` on its own ``src``; (passed, last line)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    lines = (done.stdout.strip() or done.stderr.strip()).splitlines()
    return done.returncode == 0, lines[-1] if lines else ""


def _copy(tree: str) -> None:
    for part in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(tree, part), ignore=shutil.ignore_patterns("__pycache__"))
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(os.path.join(ROOT, name), tree)


def run(mutants) -> int:
    """Apply each mutant alone to one copy, restored after each run, and
    report it; the number of failures (stale or surviving non-equivalent
    mutants)."""
    failures = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tree:
        _copy(tree)
        located, where = _tier1(tree, (sys.executable, "-c", "import brightpath; print(brightpath.__file__)"))
        if not (located and where.startswith(tree)):
            print(f"the copy's tests would not import its own src: {where}")
            return 1
        passed, summary = _tier1(tree)
        print(f"{'baseline':<11}unmutated copy: {summary}")
        if not passed:
            return 1
        for mutant in mutants:
            path = os.path.join(tree, "src", "brightpath", f"{mutant.module}.py")
            with open(path, encoding="utf-8") as handle:
                original = handle.read()
            found = original.count(mutant.old)
            if found != 1 or mutant.new == mutant.old:
                print(f"{'STALE':<11}{mutant.name}: old text found {found} times in {mutant.module}.py")
                failures += 1
                continue
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(original.replace(mutant.old, mutant.new))
            start = time.perf_counter()
            own = os.path.join("tests", f"test_{mutant.module}.py")
            stages = ([TIER1 + (own,)] if os.path.isfile(os.path.join(tree, own)) else []) + [TIER1]
            try:
                for command in stages:
                    survived, summary = _tier1(tree, command)
                    if not survived:
                        break
            finally:
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(original)
            verdict = "SURVIVED" if survived and not mutant.equivalent else "equivalent" if survived else "killed"
            failures += verdict == "SURVIVED"
            print(f"{verdict:<11}{mutant.name} ({time.perf_counter() - start:.1f} s): {mutant.why}; {summary}")
            if survived and mutant.equivalent:
                print(f"{'':<11}equivalent: {mutant.equivalent}")
    return failures


def main() -> int:
    failures = run(MUTANTS)
    print(f"{failures} failing mutant(s)" if failures else "every mutant killed or marked equivalent")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
