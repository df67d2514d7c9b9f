"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (visible with pytest -s; pytest -v also shows one line per
criterion).  These are end-to-end checks at the sizes and time limits the
package promises, in contrast to the per-module unit tests.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from lpregroup import (bounds, decide, fnz, lexfn, oracle, spacing, term,
                       wreath)
from lpregroup.decide import FAILS, VALID, verify_witness
from lpregroup.diagram import CChain, SpacingEmbedding


@contextmanager
def report(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL  {label}")
        raise
    print(f"criterion {num}: PASS  {label}")


# ---------------------------------------------------------------------- 1

def test_criterion_1_function_algebra_laws():
    with report(1, "algebra laws on 1000 seeded functions in under 10s"):
        rng = random.Random(10)
        t0 = time.perf_counter()
        for _ in range(1000):
            n = rng.choice((1, 2, 3))
            f = oracle.random_periodic_fn(n, 3 * n, rng)
            fl = fnz.linv(f)
            assert fnz.compose(f, fnz.compose(fl, f)) == f
            assert fnz.compose(fl, fnz.compose(f, fl)) == fl
            assert fnz.rinv(fl) == f
            assert fnz.linv(fnz.rinv(f)) == f
            assert fnz.iter_inv(f, 2 * n) == f
            f2 = fnz.iter_inv(f, 2)
            x = rng.randint(-3 * n, 3 * n)
            assert fnz.eval(f2, x) == fnz.eval(f, x - 1) + 1
        assert time.perf_counter() - t0 < 10


# ---------------------------------------------------------------------- 2

def _linv_by_scan(f):
    vals = []
    for a in range(f.n):
        b = a - 3 * f.n
        while fnz.eval(f, b) < a:
            b += 1
        vals.append(b)
    return fnz.tabulated(f.n, tuple(vals))


def _rinv_by_scan(f):
    vals = []
    for b in range(f.n):
        a = b + 3 * f.n
        while fnz.eval(f, a) > b:
            a -= 1
        vals.append(a)
    return fnz.tabulated(f.n, tuple(vals))


def test_criterion_2_worked_component_reproduction():
    with report(2, "worked 2-periodic component decomposes and inverts "
                   "exactly"):
        f0 = fnz.tabulated(2, (4, 4))
        shift, star = fnz.decompose(f0)
        assert shift == 4
        assert star == fnz.tabulated(2, (0, 0))

        assert fnz.linv(f0) == _linv_by_scan(f0)
        assert fnz.rinv(f0) == _rinv_by_scan(f0)
        for m in range(-4, 5):
            g = f0
            for _ in range(abs(m)):
                g = _linv_by_scan(g) if m > 0 else _rinv_by_scan(g)
            assert fnz.iter_inv(f0, m) == g


# ---------------------------------------------------------------------- 3

def test_criterion_3_extension_lemma_at_scale():
    with report(3, "500 periodic partials extend exactly, 500 perturbed "
                   "ones are rejected"):
        rng = random.Random(30)
        for _ in range(500):
            n = rng.choice((1, 2, 3))
            f = oracle.random_periodic_fn(n, 3 * n, rng)
            dom = rng.sample(range(-4 * n, 4 * n + 1), rng.randint(1, 6))
            h = {x: fnz.eval(f, x) for x in dom}
            g = fnz.extend_partial(h, n)
            assert all(fnz.eval(g, x) == hx for x, hx in h.items())
        for _ in range(500):
            n = rng.choice((1, 2, 3))
            f = oracle.random_periodic_fn(n, 3 * n, rng)
            dom = rng.sample(range(-4 * n, 4 * n + 1), rng.randint(2, 6))
            h = {x: fnz.eval(f, x) for x in dom}
            # pushing the lowest point's value far above the rest breaks
            # pairwise periodicity against every other point
            x0 = min(h)
            h[x0] += 3 * n + (max(h) - x0)
            assert not fnz.is_periodic_pairs(h, n)
            try:
                fnz.extend_partial(h, n)
            except ValueError:
                pass
            else:
                raise AssertionError("non-periodic input was extended")


# ---------------------------------------------------------------------- 4

def _random_embedded_chain(rng):
    size = rng.randint(2, 6)
    gaps = [rng.randint(1, 5) for _ in range(size - 1)]
    positions = [0]
    for g in gaps:
        positions.append(positions[-1] + g)
    covers = frozenset((i, i + 1) for i in range(size - 1)
                       if gaps[i] == 1 and rng.random() < 0.5)
    return SpacingEmbedding(CChain(size, covers), tuple(positions))


def test_criterion_4_spacing_bounds():
    with report(4, "short re-spacings stay within rho/nu and transfer "
                   "periodicity on 100 chains"):
        assert spacing.rho(1) == 4
        assert spacing.rho(2) == 35
        assert spacing.nu(1, 2) == 658

        rng = random.Random(40)
        for i in range(100):
            before = _random_embedded_chain(rng)
            q = before.chain.size

            short1 = bounds.find_short_1transfer(before)
            assert short1.height <= spacing.rho(q)
            pts = before.positions
            shifts = {b - a for a in pts for b in pts}
            for c in shifts:
                assert bounds.transfers_periodicity(
                    before, short1, fnz.shift_fn(1, c))

            n = 2 + i % 2
            shortn = bounds.find_short_ntransfer(before, n)
            assert shortn.height <= spacing.nu(q, n)
            for _ in range(200):
                f = oracle.random_periodic_fn(n, 3 * n, rng)
                assert bounds.transfers_periodicity(before, shortn, f)


# ---------------------------------------------------------------------- 5

def test_criterion_5_known_valid_corpus_complete():
    with report(5, "known-valid corpus proves out in complete mode, each "
                   "run under 60s"):
        corpus = [
            ("1 <= x^(-1) x", 2),
            ("1 <= x x^l", 2),
            ("x^l^r = x", 2),
            ("x^(2) = x", 1),   # the 2n-fold inverse law at matching n
            ("x^l = x^r", 1),
        ]
        for eq, n in corpus:
            for proc in (decide.decide_fnz, decide.decide_lpn):
                t0 = time.perf_counter()
                v = proc(eq, n, complete=True)
                dt = time.perf_counter() - t0
                assert v.status == VALID, (eq, n, proc.__name__, v.status)
                assert dt < 60, (eq, n, proc.__name__, dt)


# ---------------------------------------------------------------------- 6

def test_criterion_6_known_failing_corpus_and_separation():
    with report(6, "known-failing corpus yields verified witnesses; "
                   "commutativity separates the theories at n=1"):
        for n in (1, 2, 3):
            v = decide.decide_fnz("1 <= x", n)
            assert v.status == FAILS and verify_witness("1 <= x", v.witness)

        v = decide.decide_lpn("x^l = x^r", 2)
        assert v.status == FAILS
        assert verify_witness("x^l = x^r", v.witness)

        # the separation: commutativity fails in the variety at n=1 but
        # holds over the integer chain, whose 1-periodic maps commute
        v = decide.decide_lpn("x y = y x", 1)
        assert v.status == FAILS
        assert verify_witness("x y = y x", v.witness)
        w = oracle.search_counterexample_lex("x y = y x", 1, budget=500)
        assert w is not None and verify_witness("x y = y x", w)
        u = decide.decide_fnz("x y = y x", 1, complete=True)
        assert u.status == VALID


# ---------------------------------------------------------------------- 7

# (theory, equation, n, expected validity, oracle budget)
_AGREEMENT_CORPUS = [
    ("fnz", "1 <= x^(-1) x", 1, True, 2000),
    ("fnz", "1 <= x^(-1) x", 2, True, 2000),
    ("fnz", "1 <= x x^l", 2, True, 2000),
    ("fnz", "x^l^r = x", 2, True, 2000),
    ("fnz", "x^r^l = x", 2, True, 2000),
    ("fnz", "x^(2) = x", 1, True, 2000),
    ("fnz", "x^l = x^r", 1, True, 2000),
    ("fnz", "1 <= x | x^l", 2, True, 2000),
    ("fnz", "x & 1 <= x", 3, True, 1000),
    ("fnz", "x y = y x", 1, True, 2000),
    ("lpn", "1 <= x x^l", 1, True, 300),
    ("lpn", "1 <= x^l x", 1, True, 300),
    ("lpn", "x^l^r = x", 2, True, 300),
    ("fnz", "1 <= x", 1, False, 2000),
    ("fnz", "1 <= x", 3, False, 2000),
    ("fnz", "x^l = x^r", 2, False, 2000),
    ("fnz", "x^(2) = x", 2, False, 2000),
    ("fnz", "1 <= x x", 2, False, 2000),
    ("fnz", "x y x^l y^l <= 1", 2, False, 2000),
    ("lpn", "x y = y x", 1, False, 400),
]


def test_criterion_7_oracle_agreement():
    with report(7, "20-equation corpus: deciders and oracle agree, all "
                   "witnesses verify, under 30 minutes"):
        assert len(_AGREEMENT_CORPUS) == 20
        t0 = time.perf_counter()
        for theory, eq, n, expect_valid, budget in _AGREEMENT_CORPUS:
            assert term.equation_size(term.parse(eq)) <= 12, eq
            proc = decide.decide_fnz if theory == "fnz" else decide.decide_lpn
            search = (oracle.search_counterexample_fnz if theory == "fnz"
                      else oracle.search_counterexample_lex)
            if expect_valid:
                v = proc(eq, n, complete=True)
                assert v.status == VALID, (theory, eq, n, v.status)
                w = search(eq, n, budget=budget)
                assert w is None, (theory, eq, n, "oracle contradicts valid")
            else:
                v = proc(eq, n)
                assert v.status == FAILS, (theory, eq, n, v.status)
                assert verify_witness(eq, v.witness), (theory, eq, n)
                w = search(eq, n, budget=budget)
                assert w is not None, (theory, eq, n, "oracle missed")
                assert verify_witness(eq, w), (theory, eq, n)
        assert time.perf_counter() - t0 < 30 * 60


# ---------------------------------------------------------------------- 8

def _random_wreath(rng, n):
    h = rng.randint(-2, 2)
    support = rng.sample(range(-2, 3), rng.randint(0, 3))
    comps = tuple((j, oracle.random_periodic_fn(n, 2 * n, rng))
                  for j in support)
    return wreath.WreathElement(n, h, comps)


def test_criterion_8_wreath_representation():
    with report(8, "wreath/function-algebra agreement on 500 samples plus "
                   "the inversion strictness negative"):
        rng = random.Random(80)
        samples = []
        for _ in range(500):
            n = rng.choice((1, 2, 3))
            a, b = _random_wreath(rng, n), _random_wreath(rng, n)
            samples.append((a, b))
            fa, fb = wreath.iso_to_lexfn(a), wreath.iso_to_lexfn(b)
            assert wreath.iso_to_lexfn(wreath.multiply(a, b)) == \
                lexfn.compose(fa, fb)
            assert wreath.leq(a, b) == lexfn.leq(fa, fb)
            assert wreath.iso_to_lexfn(wreath.linv(a)) == lexfn.linv(fa)
            assert wreath.iso_to_lexfn(wreath.rinv(a)) == lexfn.rinv(fa)
            assert wreath.iso_from_lexfn(fa) == a

        for (a, b), (c, _) in zip(samples[:150], samples[1:151]):
            assert wreath.iter_inv(a, 2 * a.n) == a
            if b.n == c.n == a.n:
                assert wreath.meet(a, wreath.join(b, c)) == \
                    wreath.join(wreath.meet(a, b), wreath.meet(a, c))

        # acting by a non-invertible map breaks the group-style inversion
        # roundtrip one-sidedly: the twisted component drops strictly
        n = 2
        h = fnz.tabulated(n, (0, 0))
        twist = fnz.compose(fnz.linv(h), h)
        assert twist != fnz.id_fn(n)
        comps = {0: fnz.id_fn(n), 1: fnz.tabulated(n, (1, 1))}
        roundtrip = comps.get(fnz.eval(twist, 1), fnz.id_fn(n))
        assert roundtrip != comps[1]
        assert fnz.leq(roundtrip, comps[1])
        assert not fnz.leq(comps[1], roundtrip)


# ---------------------------------------------------------------------- 9

def test_criterion_9_dlp_reduction_plumbing():
    with report(9, "distributive reduction computes its period exactly "
                   "and refutes the failing corpus at it"):
        eq = term.parse("x <= x^l")
        assert term.equation_size(eq) == 3
        assert decide.decide_dlp(eq).n == 2 ** 3 * 3 ** 4 == 648

        v = decide.decide_dlp("1 <= x")
        assert v.status == FAILS and verify_witness("1 <= x", v.witness)
        # a failure in LP_1, which lies inside DLP, refutes there too
        v = decide.decide_lpn("1 <= x", 1)
        assert v.status == FAILS and verify_witness("1 <= x", v.witness)

        # complete mode runs at the reduced period itself: a realized
        # function has one step per chain point, whatever the period
        v = decide.decide_dlp("x y = y x", complete=True)
        assert v.status == FAILS and v.n == 2 ** 6 * 6 ** 4
        assert verify_witness("x y = y x", v.witness)
