"""The witness builders' engine: one table of expansion terms, and the
iterate doubling behind both constructions.

Generator 1 is ``seeds[0] + sum_j c_j(N) exp(gamma_j z)``, with gamma_j the
target frequencies over m and ``c_j**m phi(m gamma_j)**N = b_j N**K_beta``
(:func:`solve_coeff`); generator i >= 2 is ``seeds[i-1] + N**-k[i-1]``.  The
single generator is the case of one generator, monomials f, ..., f^m,
beta = (m,) and K_beta = 0.  Each construction lists the terms of its
monomials' expansion once, as keys ``(u, v, ell, alpha, case, counted)``
from :func:`_expansion_keys`: u[i][j] factors of seed term j of generator
i, v[j] of survivor j and ell[i-1] of N**-k[i].

:class:`_Terms` holds those terms, once per build.  One log-magnitude
formula, ``log weight + sum v_j log c_j(N) + N log|phi(lambda)| - (k . ell)
log N``, is evaluated for every term at every N = 8, 16, ... of the doubling
grid at once: it admits the terms, gives the bound sum at each N and fills
the report's Theta table.  :func:`_double_until` then doubles N until each
monomial is within epsilon of its target and so is the bound sum of the
counted terms.  The loop cannot stop at an N whose bound sum is above
epsilon, so the table fixes the first N where it could, N*, before the loop
starts: every N from 8 to N* is measured in one batch, and each N past N*
(when a residual at N* is still above epsilon) in one of its own.

The measurement reads the same table; no N gets generators or monomials of
its own.  Each term's row exp(lambda z) on the grid is taken once per build
(a row past the overflow guard is kept as exp(0) and raises once its term
is nonzero), and phi once at the term frequencies.  At each N a term is its
coefficient ``weight * prod c_j(N)**v_j * N**-(k . ell)``, rounded to a
double from its log-modulus and phase, times ``phi(lambda)**N`` in polar
form; a monomial's image is the sum of its terms times their rows.  The
generators are built once, at the final N.  The trace, the report and each
error, with the N that raises it, are those of measuring one N at a time
with generators, monomials and the verifier's diagonal evaluator, in the
order that takes them: the survivor coefficients, then any term coefficient
that is not a finite double ("product overflows"), then monomial by
monomial ``|phi(lambda)|**N`` past the guard and a nonzero term on a row
past it, then a distance that is not finite.  The residuals agree with that
measurement to rounding: the sums take the same terms ungrouped where the
monomials merge them.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator

import numpy as np

from .errors import (
    EvaluationRangeError,
    HypothesisError,
    IterationLimitError,
    ThetaMarginError,
)
from .exppoly import EXP_GUARD, ExpPoly, _exp_row
from .growth import MODULUS_MARGIN
from .symbols import eval_symbol_array

#: Total degree cap for the multinomial weight computation.
GAMMA_DEGREE_CAP = 64


def solve_coeff(b: complex, m: int, phi_val: complex, N: int) -> complex:
    """Principal solution c of ``c**m * phi_val**N = b``.

    Magnitudes are handled in log space so the answer stays finite for N up
    to 2**20; requires |phi_val| > 1 so that |c| decreases in N.
    """
    b, phi_val = complex(b), complex(phi_val)
    if b == 0:
        raise ValueError("target coefficient must be nonzero")
    if m < 1:
        raise ValueError("m must be >= 1")
    if abs(phi_val) <= 1 + MODULUS_MARGIN:
        raise HypothesisError(
            f"|phi| = {abs(phi_val):.9f} at the survivor frequency; need > 1"
        )
    log_mag = (math.log(abs(b)) - N * math.log(abs(phi_val))) / m
    arg = (math.atan2(b.imag, b.real) - N * math.atan2(phi_val.imag, phi_val.real)) / m
    return cmath.exp(complex(log_mag, arg))


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` non-negative integers summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _multi_lattice(alpha, p):
    """All (u, v, ell) of f^alpha for N = len(alpha) generators: u a tuple
    of N vectors in N_0^p, v in N_0^p, ell in N_0^{N-1}, with
    |u_1| + |v| = alpha_1 and |u_i| + ell_i = alpha_i."""
    first_splits = [
        (u1, v)
        for v_total in range(alpha[0] + 1)
        for u1 in _compositions(alpha[0] - v_total, p)
        for v in _compositions(v_total, p)
    ]
    rest_options = [
        [
            (ui, alpha[i] - u_total)
            for u_total in range(alpha[i] + 1)
            for ui in _compositions(u_total, p)
        ]
        for i in range(1, len(alpha))
    ]
    return [
        ((u1, *(ui for ui, _ in rest)), v, tuple(ell_i for _, ell_i in rest))
        for u1, v in first_splits
        for rest in itertools.product(*rest_options)
    ]


def _expansion_keys(exponents, beta, p, case):
    """Expansion tuples ``(u, v, ell, alpha, case, counted)`` of every
    monomial f^alpha, alpha in ``exponents``, with ``case(|u|, v)`` its
    decay case.  The survivors (u = 0, v = m e_j with m = beta_1) of the
    distinguished monomial beta carry the target and are not counted; for
    any other alpha the survivor shape forces alpha_1 = m, so the weight
    separation of :func:`~hyperalg.witness.select_weights` makes the term
    decay in N."""
    m = beta[0]
    keys = []
    for alpha in exponents:
        for u, v, ell in _multi_lattice(alpha, p):
            usum = sum(map(sum, u))
            survivor = alpha == beta and usum == 0 and max(v) == m == sum(v)
            keys.append((u, v, ell, alpha, case(usum, v), not survivor))
    return keys


def multinomial_gamma(u, v, a) -> complex:
    """Expansion weight ``(|u|+|v|)! * prod a_i^{u_i} / (u_i! v_i!)``."""
    u, v = tuple(int(x) for x in u), tuple(int(x) for x in v)
    total = sum(u) + sum(v)
    if total > GAMMA_DEGREE_CAP:
        raise ValueError(f"total degree {total} beyond supported cap")
    denom = 1
    for x in list(u) + list(v):
        denom *= math.factorial(x)
    weight = complex(math.factorial(total) / denom)
    for ai, ui in zip(a, u):
        weight *= complex(ai) ** ui
    return weight


def _contraction(phi_val: complex, v, phi_surv, m: int):
    """``(log|phi_val|, Theta)``: the term's eigenvalue ``phi_val`` against
    the survivor eigenvalues ``phi_surv`` weighted by ``v / m``."""
    log_phi = math.log(max(abs(phi_val), 1e-300))
    log_den = sum(
        (vi / m) * math.log(abs(pv)) for vi, pv in zip(v, phi_surv) if vi
    )
    return log_phi, math.exp(log_phi - log_den)


class _Terms:
    """The table of one build's expansion terms, from its keys (grouped by
    monomial), seeds, target, weights k and grid.

    It keeps the survivor values b_j, gamma_j and ``phi(m gamma_j)``, and
    per term its frequency, Theta, multinomial count, log and arg weight,
    1/N exponent ``k . ell``, v, row exp(lambda z) on the grid (past the
    overflow guard as exp(0)) with its fit flag, and log|phi| in two forms:
    clamped as :func:`_contraction` clamps it, for the bound table, and
    polar, -inf where phi = 0, with arg phi, for the images.  A monomial's
    target is ``target`` when it holds the survivors, else 0."""

    def __init__(self, spec, m, seeds, target, keys, grid, k=(1.0,), K_beta=0):
        self.m, self.seeds, self.keys, self.k, self.K_beta = m, seeds, keys, k, K_beta
        self.radius, self.points = grid.radius, grid.points()
        self.b = [c for c, _ in target.terms]
        self.gammas = [f / m for _, f in target.terms]
        self.phi_surv = eval_symbol_array(spec, [m * g for g in self.gammas]).tolist()
        for g, val in zip(self.gammas, self.phi_surv):
            if abs(val) <= 1 + MODULUS_MARGIN:
                raise HypothesisError(
                    f"|phi({m * g})| = {abs(val):.9f}; survivor frequencies "
                    "need |phi| > 1"
                )
        self.freqs = [
            sum(
                uij * f
                for row, s in zip(u, seeds)
                for uij, (_, f) in zip(row, s.terms)
            ) + sum(vj * g for vj, g in zip(v, self.gammas))
            for u, v, *_ in keys
        ]
        self.thetas, self.counts, columns = [], [], []
        for (u, v, ell, *_), val in zip(keys, eval_symbol_array(spec, self.freqs).tolist()):
            log_phi, theta = _contraction(val, v, self.phi_surv, m)
            count = math.prod(  # of each generator's power, seeds aside
                multinomial_gamma(row, w, ())
                for row, w in zip(u, (v, *((e,) for e in ell)))
            )
            log_weight, arg_weight = math.log(abs(count)), 0.0
            for row, s in zip(u, seeds):
                for uij, (a, _) in zip(row, s.terms):
                    if uij:
                        log_weight += uij * math.log(abs(a))
                        arg_weight += uij * cmath.phase(a)
            self.thetas.append(theta)
            self.counts.append(count)
            columns.append((
                log_weight, arg_weight, sum(ki * e for ki, e in zip(k[1:], ell)),
                log_phi, math.log(abs(val)) if val else -math.inf, cmath.phase(val),
            ))
        (
            self.log_weight, self.arg_weight, self.ell_weight,
            self.log_phi_clamped, self.log_phi, self.arg_phi,
        ) = np.array(columns, dtype=float).T
        self.v = np.array([v for _, v, *_ in keys]).reshape(len(keys), -1)
        self.counted = [i for i, key in enumerate(keys) if key[5]]
        w = np.multiply.outer(np.array(self.freqs, dtype=complex), self.points)
        self.fits = np.max(np.abs(w.real), axis=1) <= EXP_GUARD
        w[~self.fits] = 0
        rows = np.exp(w)
        self.monomials = []  # (key indices, their rows, target) per monomial
        for alpha in dict.fromkeys(key[3] for key in keys):
            index = [i for i, key in enumerate(keys) if key[3] == alpha]
            carries = not all(keys[i][5] for i in index)
            index.sort(key=lambda i: (self.freqs[i].real, self.freqs[i].imag))
            self.monomials.append((index, rows[index], target if carries else ExpPoly.zero()))
        self.target_values = None

    def admit(self, epsilon, n_max):
        """The doubling grid N = 8, 16, ... up to ``n_max``, and the log
        magnitude and log bound ``log|x| + R|lambda|`` of every term there, a
        row per term and a column per N, both capped at 700.

        Raises ThetaMarginError, naming each term with its smallest bound
        and the N of it, when a counted term's bound stays above epsilon at
        every N of the grid: it would keep the bound sum above epsilon too,
        so no doubling could finish.  An empty grid is left to the iterate
        cap."""
        ns = [2**i for i in range(3, int(n_max).bit_length())]
        n_grid = np.array(ns, dtype=float)  # exact: every N is a power of 2
        log_n = np.log(n_grid)  # np.log = math.log at powers of 2
        log_mag = np.tile(self.log_weight[:, None], len(ns))
        for j, (bj, pv) in enumerate(zip(self.b, self.phi_surv)):
            # in order of j; a term with v_j = 0 adds an exact 0 (log c_j is finite)
            log_c = (
                math.log(abs(bj)) + self.K_beta * log_n - n_grid * math.log(abs(pv))
            ) / self.m
            log_mag += self.v[:, j, None] * log_c
        log_mag = (
            log_mag + n_grid * self.log_phi_clamped[:, None]
            - self.ell_weight[:, None] * log_n
        )
        # Python's abs, not np.abs: the two round some moduli differently
        log_bound = log_mag + self.radius * np.array([abs(f) for f in self.freqs])[:, None]
        log_mag, log_bound = np.minimum(log_mag, 700.0), np.minimum(log_bound, 700.0)
        violations = []
        if ns:
            at = log_bound.argmin(axis=1).tolist()
            lowest = log_bound.min(axis=1).tolist()
            for i in self.counted:
                bound = math.exp(lowest[i])
                if bound > epsilon:
                    u, v, _, alpha, case, _ = self.keys[i]
                    violations.append(dict(
                        alpha=alpha, u=u, v=v, theta=self.thetas[i], case=case,
                        bound=bound, n=ns[at[i]],
                    ))
        if violations:
            raise ThetaMarginError(
                f"{len(violations)} expansion tuples stay above epsilon at every "
                f"N <= {n_max}", entries=violations,
            )
        return ns, log_mag, log_bound

    def bound_sum(self, log_bound) -> float:
        """The sum of the counted terms' bounds, from one column of
        :meth:`admit`'s log bounds."""
        total = 0.0  # math.exp, in term order: np.exp and np.sum round otherwise
        for x in log_bound[self.counted].tolist():
            total += math.exp(x)
        return total

    def theta_rows(self, log_mag, log_bound) -> tuple:
        """The Theta table at one column of :meth:`admit`'s table, a row
        ``(u, v, ell, alpha, theta, case, magnitude, bound)`` per term."""
        return tuple(
            (u, v, ell, alpha, theta, case, math.exp(lm), math.exp(lb))
            for (u, v, ell, alpha, case, _), theta, lm, lb in zip(
                self.keys, self.thetas, log_mag.tolist(), log_bound.tolist()
            )
        )

    def distances(self, batch: list[tuple[int, list[complex]]]) -> list[list[float]]:
        """The sup distance of every monomial's image to its target, one row
        per ``(N, c)`` of ``batch``; raises the first error of measuring
        one N at a time."""
        ns = np.array([N for N, _ in batch], dtype=float)[:, None]
        c = np.array([cs for _, cs in batch], dtype=complex)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_c, arg_c = np.log(np.abs(c)), np.angle(c)  # -inf where c_j = 0
            log_mod = self.log_weight - np.log(ns) * self.ell_weight
            phase = self.arg_weight + 0 * ns  # one row per N
            for j, vj in enumerate(self.v.T):
                log_mod = log_mod + np.where(vj > 0, vj * log_c[:, j, None], 0.0)
                phase = phase + vj * arg_c[:, j, None]
            coef = np.exp(log_mod + 1j * phase)  # each term's own coefficient
            log_power = ns * self.log_phi
            # a power past the guard raises unless its coefficient is 0
            power = np.exp(np.minimum(log_power, EXP_GUARD) + 1j * (ns * self.arg_phi))
            terms = coef * power
            fails = (
                ~np.isfinite(coef)
                | ((log_power > EXP_GUARD) & (coef != 0))
                | ((terms != 0) & ~self.fits)
            ).any(axis=1)
        clean = int(np.argmax(fails)) if fails.any() else len(batch)
        if clean == 0:
            self._raise(batch[0], coef[0], log_power[0], terms[0])
        with np.errstate(over="ignore", invalid="ignore"):
            if self.target_values is None:
                self.target_values = [t.evaluate_array(self.points) for *_, t in self.monomials]
            dists = np.array([
                np.max(np.abs(terms[:clean, index] @ rows - values), axis=1)
                for (index, rows, _), values in zip(self.monomials, self.target_values)
            ]).T
        for (N, _), row in zip(batch, dists.tolist()):
            if not all(map(math.isfinite, row)):  # the image, the target or their difference
                raise EvaluationRangeError(
                    f"|phi(D)^{N} f - target| overflows on the grid"
                )
        if clean < len(batch):
            self._raise(batch[clean], coef[clean], log_power[clean], terms[clean])
        return dists.tolist()

    def _raise(self, at, coef, log_power, terms):
        """Raises the error of the one N of ``at = (N, c)``, in the order
        of the product chain and then of the diagonal evaluator."""
        N, c = at
        for index, *_ in self.monomials:
            for i in index:
                if not cmath.isfinite(coef[i]):
                    raise EvaluationRangeError(
                        "product overflows: coefficient must be finite, got "
                        f"{self._linear(i, N, c)!r}"
                    )
        for index, *_ in self.monomials:
            for i in index:
                if coef[i] != 0 and log_power[i] > EXP_GUARD:
                    l = self.freqs[i]
                    raise EvaluationRangeError(
                        f"|phi({l})|^{N} overflows double precision", z=l
                    )
            for i in index:
                if terms[i] != 0 and not self.fits[i]:
                    _exp_row(self.freqs[i], self.points)  # raises

    def _linear(self, i, N, c) -> complex:
        """Key i's coefficient in linear arithmetic, factor by factor."""
        u, v, ell, *_ = self.keys[i]
        factors = [
            a for row, s in zip(u, self.seeds)
            for uij, (a, _) in zip(row, s.terms) for _ in range(uij)
        ]
        factors += [cj for vj, cj in zip(v, c) for _ in range(vj)]
        factors += [N**-ki for e, ki in zip(ell, self.k[1:]) for _ in range(e)]
        return functools.reduce(operator.mul, factors, self.counts[i])


def _double_until(
    spec, m, seeds, target, keys, targets, grid, epsilon, n_max,
    perm=(0,), k=(1.0,), K_beta=0,
):
    """The iterate doubling of the module docstring, on the table of
    ``keys``.  Slot i here is the caller's generator ``perm[i]``;
    ``targets`` is keyed by the caller's exponents, in the order of the
    keys' monomials, and everything else is in slot order.

    Returns the report fields, with the Theta table as :meth:`_Terms.theta_rows`
    gives it, and the survivor values c_j^m phi_j^N / N^K.  Raises
    HypothesisError when a survivor frequency has |phi| <= 1 +
    MODULUS_MARGIN, then the ThetaMarginError of :meth:`_Terms.admit`, and
    IterationLimitError, with the trace so far, when N passes ``n_max`` or
    the coefficients overflow.
    """
    terms = _Terms(spec, m, seeds, target, keys, grid, k, K_beta)
    ns, log_mag, log_bound = terms.admit(epsilon, n_max)
    names = [",".join(map(str, alpha)) for alpha in targets]
    # the loop stops only at an N whose bound sum is at most epsilon, so it
    # measures every N up to the first such N* in one batch, and each N past
    # N* in one of its own
    first = next(
        (col for col in range(len(ns)) if terms.bound_sum(log_bound[:, col]) <= epsilon),
        len(ns) - 1,
    )
    batches = [range(first + 1)] + [[col] for col in range(first + 1, len(ns))]
    trace: list[tuple[int, float]] = []
    for cols in filter(None, batches):
        batch, failure = [], None  # (N, c) per N
        for N in [ns[col] for col in cols]:
            # an N's error is raised once the N before it are measured
            try:
                batch.append((N, [
                    solve_coeff(bj * N**K_beta, m, pv, N)
                    for bj, pv in zip(terms.b, terms.phi_surv)
                ]))
            except OverflowError:
                failure = f"survivor coefficients overflow at N = {N}"
                break
        if batch:
            dists = terms.distances(batch)
            trace += [(N, max(row)) for (N, _), row in zip(batch, dists)]
        if failure is not None:
            raise IterationLimitError(failure, trace=trace)
        N, c = batch[-1]
        residuals = dict(zip(names, dists[-1]))
        bound_sum = terms.bound_sum(log_bound[:, cols[-1]])
        if trace[-1][1] <= epsilon and bound_sum <= epsilon:
            break
    else:
        raise IterationLimitError(
            f"residual target {epsilon} not met by N = {n_max}", trace=trace
        )

    gens = [seeds[0] + ExpPoly.of(list(zip(c, terms.gammas)))] + [
        s + ExpPoly.of([(N**-ki, 0j)]) for s, ki in zip(seeds[1:], k[1:])
    ]
    survivor_values = [
        cj**m
        * cmath.exp(complex(N * math.log(abs(pv)), N * math.atan2(pv.imag, pv.real)))
        / N**K_beta
        for cj, pv in zip(c, terms.phi_surv)
    ]
    fields = dict(
        generators=tuple(gens[perm.index(i)] for i in range(len(gens))), q=N,
        residuals=residuals, coefficients=tuple(c), trace=tuple(trace),
        theta_table=terms.theta_rows(log_mag[:, cols[-1]], log_bound[:, cols[-1]]),
        bound_sum=bound_sum,
    )
    return fields, survivor_values
