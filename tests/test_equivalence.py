"""Results frozen before a refactor, and the sharing of one sample of g and f.

goldens/probe_and_tube.json holds every ProbeReport field (notes included)
and the MinimalTube defect, flux, profile, profile residual and life of
the slit tubes, as computed when each winding, loop and path integral still
evaluated its own integrand tree.  Sampling g (and f) once per quadrature
level performs the same floating-point operations in the same order, so the
numbers must agree exactly; a change that alters the arithmetic on purpose
freezes its numbers under a new key and keeps the old ones at a stated
tolerance.  The theta comb that sums each point on its own, from its nearest
tooth by a multiplicative recurrence, rounds differently from the comb that
summed one window for the whole argument array: the slit tubes move by at
most 1.2e-11 (the q = 0.72 defect), so "tube" holds at an absolute 1e-10.
Calibrating by the closed-form root s* = sqrt(-B/A) instead of Brent's
method moves the scale by at most one ulp, and the q = 0.33 tube by at most
5.6e-15 (its defect), so "tube_pointwise_comb" holds at an absolute 1e-14
and "tube_closed_form_scale" exactly.  The probe reports did not move.
Calibrating with no scale at all, g0 as it stands with its level in closed
form, moves the q = 0.72 tube's defect from -0.0 to -6.97e-10, which is
2.0e-15 |Q| with |Q| = 3.49e5, and its flux by 5.8e-11, one ulp of J1; the
three older keys hold with those moves added to their tolerances (1e-14
for "tube_closed_form_scale", whose profile and life move by 4.4e-16), and
"tube_closed_form_level" held exactly.  Loop integrals kept as running
sums, each level adding only its new nodes, from the level that the
annulus predicts (128 nodes at q = 0.1 and 0.33 and 256 at q = 0.72,
where all started at 1,024), round differently: the defects move by at most
2.9e-16 |Q| (q = 0.72) and the flux by 3 ulps of |Q| (q = 0.33), while
the profile, its residual and the life keep every bit.  Every older key
holds with that move added to its tolerance, "tube_closed_form_level" at
that move alone, and "tube_running_sums" holds exactly.

"probe_relative_stop" holds every ProbeReport field at the inputs whose
winding levels the integer stop lowers (slit nomes from 0.0025 to 0.95 and
two parsed maps), frozen while each winding sum still refined until two
levels agreed to 1e-8 relative; the reports must not move at all.
"probe_nested_sums" holds every ProbeReport field (dataclasses.asdict) at
13 slit nomes and 13 parsed maps, frozen while each winding level summed
every node from 1,024 up, with no pole correction; the nested sums from 128
nodes must give the same reports.  g and g' from one evaluation pass, and
the probe targets from one call, must give the values of separate calls bit
for bit.

goldens/witness_and_ring.json holds crossing witnesses from the scalar,
one-bracket-at-a-time bisection and a grid estimate from the loop-built
grid axes.  Where two roots of a locus have residuals at rounding level, the
pick follows the last bits: "witness" angles must be the pick to 1e-12 or
another root tied with it.  "witness_pointwise_comb" (the per-point comb
and the tie rule of modulus._crossings) and "witness_closed_form_scale"
were frozen from 80-halving bisections.  The safeguarded Illinois steps
that replaced them end a root at the sampled end of its bracket with the
smaller |fn|, not at a midpoint sampled once more: the angles move by at
most 8.9e-16 and the residuals by 2.1e-14, and no pick changes root, so
both keys hold at those tolerances and "witness_illinois" holds exactly.
On 25 of test_10's 600 witnesses each pick is the 80-halving one to
8.9e-16, or a root tied with it.  The closed-form level moves the angles by
at most 2.3e-15 and the residuals by 2.4e-14 against the three 80-halving
and Illinois keys, and no pick changes root: those keys hold at those
tolerances and "witness_closed_form_level" holds exactly.  The witness
that samples g once per step for both loci must equal each locus scanned
on its own, with each bracket narrowed on its own, bit for bit: the comb
sums each point on its own, and each bracket's steps read only its own
ends.  The grid estimate was frozen from
a Jacobi-preconditioned solve; the V-cycle-preconditioned solve agrees with
it to 1e-12.  "ring_e_h0.04_vcycle" is the V-cycle's freeze at Jacobi weight
2/3 with an unscaled coarse step; the V-cycle at weight 4/5 around a coarse
step scaled by 1.4 agrees with it to the tolerance below and exactly with
its own freeze, "ring_e_h0.04_overcorrected".

goldens/grid_network.json holds grid estimates (value, indicator and
truncation sensitivity as float.hex, and dof) and the refusal messages of
the network assembled while a RingDomain carried an ``inside`` predicate,
insulating cuts were found by sampling the predicates beside each edge and
floating islands were labelled away.  The box minus its two conductors,
halved weights on the box edge and no labelling give the same network, so
every message and dof must agree exactly.  One bisection of the cut
edges of all four edge groups gives each arm the bits of its own group's
bisection, at a quarter of the domain-predicate calls.  Each estimate's
own key "overcorrected" holds the figures of the V-cycle at weight 4/5
around a coarse step scaled by 1.4, which must agree exactly; they moved
only at the solver's floor from the figures of record beside them (at most
2.2e-15 relative in value and 1.6e-15 of value in indicator and truncation
sensitivity), which must agree to GRID_VALUE_RTOL and GRID_DIFF_RTOL.

The offset family's scan takes the zeros of every (a, kappa) pair from one
batched eigenvalue call; its message and diagnostics must equal, value and
type, those of the per-pair np.roots loop kept below.  The rim reality check
samples both rims in one call and must equal one call per rim bit for bit.

One walk-out of the theta comb gives theta and theta' together (the jet).
Each must equal, bit for bit and in type, the walk-out of its own that the
comb made before, kept below as separate_comb; goldens/wp_prime.json holds
P' as that comb gave it.  One walk-out also stacks theta1 and theta3 (and
their derivatives): each row must equal its one-row walk-out bit for bit,
at every batch size.  A pass of g' and g takes one stacked jet for both
thetas and must equal separate passes of each.

The expression walks became one iterative post-order that evaluation,
differentiate and to_string fold over.  The recursive walkers they replaced
are kept below (plain_value, plain_differentiate, plain_render) as the
references: on 200 seeded grammar draws each tree's text and its
derivative's must be equal strings, and their values equal bits or the same
EvalDomainError at the same point; differentiate must refuse the leaf the
recursive walk refused first.
"""

import json
import math
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from tubeflux import (
    Annulus, EllipticParams, FamilyBalanceError, HoloFn, MinimalTube, RingDomain,
    WeierstrassData, boundary_reality, calibrate_candidate, circle_integral,
    crossing_witness, grid_module_estimate, joukowski_family, tube_from_gauss,
    univalence_probe,
)
from tubeflux import elliptic, modulus
from tubeflux.contour import PROBE_MARGIN, _path_integrals, path_integral
from tubeflux.expr import (
    _BINARY, LOG_CUT_TOL, Add, Const, Div, EvalDomainError, Exp, ExprError, Log, Mul, Neg,
    Opaque, Pow, Sub, Var, _add, _const_str, _div, _is_zero, _mul, _sub,
    differentiate, evaluate, parse, to_string,
)
from tubeflux.modulus import _SLACK, _TIE_EPS, _assemble, _bisect, _crossings, _illinois
from tubeflux.slitmap import RIM_SAMPLES
from tubeflux.tubes import _height_points

GOLDENS = Path(__file__).parent / "goldens"
FROZEN = json.loads((GOLDENS / "probe_and_tube.json").read_text())
WITNESS_AND_RING = json.loads((GOLDENS / "witness_and_ring.json").read_text())
GRID_NETWORK = json.loads((GOLDENS / "grid_network.json").read_text())
# how far a grid estimate may sit from its figures of record: the value
# relative to itself; indicator and truncation sensitivity, each a difference
# of two energies, relative to the value
GRID_VALUE_RTOL = 1e-14
GRID_DIFF_RTOL = 1e-13
WP_PRIME = json.loads((GOLDENS / "wp_prime.json").read_text())


def probe_fields(report):
    witness = report.witness
    return {
        "univalent": report.univalent,
        "omits_zero": report.omits_zero,
        "zero_count": report.zero_count,
        "witness": None if witness is None else [[w.real, w.imag] for w in witness],
        "n_targets": report.n_targets,
        "notes": report.notes,
    }


@pytest.mark.parametrize("text", ["z^2", "z + 0.2/z", "z - 1.9726"])
def test_expression_probe_is_unchanged(text):
    report = univalence_probe(HoloFn.parse(text, Annulus(2.0)))
    assert probe_fields(report) == FROZEN["probe"][text]


@pytest.mark.parametrize("q", [0.1, 0.72])
def test_slit_probe_is_unchanged(candidate, q):
    report = univalence_probe(candidate(q).g)
    assert probe_fields(report) == FROZEN["probe"][f"slit q={q!r}"]


@pytest.mark.parametrize("case", sorted(FROZEN["probe_relative_stop"]))
def test_probe_reports_survive_the_integer_stop(candidate, case):
    if case.startswith("slit q="):
        g = candidate(float(case.split("=")[1])).g
    else:
        g = HoloFn.parse(case, Annulus(2.0))
    want = dict(FROZEN["probe_relative_stop"][case])
    del want["zero_notes"]  # the frozen copy of the first notes
    assert probe_fields(univalence_probe(g)) == want


def probe_dict(report):
    """dataclasses.asdict of a ProbeReport, its witness as [re, im] pairs."""
    fields = asdict(report)
    if fields["witness"] is not None:
        fields["witness"] = [[w.real, w.imag] for w in fields["witness"]]
    return fields


@pytest.mark.parametrize("case", sorted(FROZEN["probe_nested_sums"]))
def test_probe_reports_survive_the_nested_sums(candidate, case):
    if case.startswith("slit q="):
        g = candidate(float(case.split("=")[1])).g
    else:
        text, R = case.rsplit(" R=", 1)
        g = HoloFn.parse(text, Annulus(float(R)))
    assert probe_dict(univalence_probe(g)) == FROZEN["probe_nested_sums"][case]


def tube_fields(tube):
    return {
        "defect": list(tube.defect),
        "flux": [tube.flux.J1, tube.flux.J2, tube.flux.J3],
        "profile": list(tube.profile),
        "profile_residual": tube.profile_residual,
        "life": list(tube.life),
    }


# how far a change of the arithmetic moved the slit tubes: (defect relative
# to |Q|, flux in ulps of |Q|).  g0 unscaled, with its level in closed form,
# moved the q = 0.72 defect by 2.0e-15 |Q| and its flux by one ulp; loop
# sums kept as running sums from the level the annulus predicts moved the
# defects by at most 2.9e-16 |Q| (q = 0.72) and the flux by 3 ulps (q = 0.33)
LEVEL_MOVE = (2.0e-15, 1)
SUMS_MOVE = (3.0e-16, 3)


def assert_moved(tube, want, atol, moves):
    got, norm = tube_fields(tube), tube.flux.norm
    defect = sum(d for d, _ in moves) * norm
    flux = sum(ulps for _, ulps in moves) * np.spacing(norm)
    for key, value in want.items():
        tol = atol + {"defect": defect, "flux": flux}.get(key, 0.0)
        assert np.allclose(got[key], value, rtol=0.0, atol=tol), key


@pytest.mark.parametrize("q", [0.1, 0.33, 0.72])
def test_slit_tube_is_unchanged(slit_tube, q):
    assert_moved(slit_tube(q), FROZEN["tube"][repr(q)], 1e-10, [LEVEL_MOVE, SUMS_MOVE])


@pytest.mark.parametrize("q", [0.1, 0.33, 0.72])
def test_slit_tube_keeps_its_pointwise_comb_values(slit_tube, q):
    # the closed-form scale moved the q = 0.33 defect by 5.6e-15
    assert_moved(slit_tube(q), FROZEN["tube_pointwise_comb"][repr(q)], 1e-14,
                 [LEVEL_MOVE, SUMS_MOVE])


@pytest.mark.parametrize("q", [0.1, 0.33, 0.72])
def test_slit_tube_keeps_its_closed_form_scale_values(slit_tube, q):
    # the q = 0.72 profile and life move by at most 4.4e-16
    assert_moved(slit_tube(q), FROZEN["tube_closed_form_scale"][repr(q)], 1e-14,
                 [LEVEL_MOVE, SUMS_MOVE])


@pytest.mark.parametrize("q", [0.1, 0.33, 0.72])
def test_slit_tube_keeps_its_closed_form_level_values(slit_tube, q):
    # the loop integrals; the height fields follow the flux since the
    # profile is taken from it, and tube_flux_slope holds them
    want = FROZEN["tube_closed_form_level"][repr(q)]
    assert_moved(slit_tube(q), {key: want[key] for key in ("defect", "flux")}, 0.0,
                 [SUMS_MOVE])


@pytest.mark.parametrize("q", [0.1, 0.33, 0.72])
def test_slit_tube_is_frozen(slit_tube, q):
    assert tube_fields(slit_tube(q)) == FROZEN["tube_flux_slope"][repr(q)]


@pytest.mark.parametrize("q", [0.1, 0.72, "expr"])
def test_batched_profile_paths_equal_single_path_integrals(slit_tube, q):
    if q == "expr":
        tube = MinimalTube(tube_from_gauss(HoloFn.parse("1.3*z - 0.1/z", Annulus(2.2)), 0.8))
    else:
        tube = slit_tube(q)
    pts = _height_points(tube.annulus)
    batched = _path_integrals(tube.data.F[2], tube.z0, pts)
    single = [path_integral(tube.data.F[2], tube.z0, z) for z in pts]
    assert len(pts) == 48
    assert batched == single


@pytest.mark.parametrize("kind", ["slit 0.1", "slit 0.72", "expr"])
def test_stacked_path_integral_equals_one_per_component(slit_tube, kind):
    if kind == "expr":
        data = tube_from_gauss(HoloFn.parse("1.3*z - 0.1/z", Annulus(2.2)), 0.8)
    else:
        data = slit_tube(float(kind.split()[1])).data
    R = data.annulus.R
    for z in (R ** 0.5 * np.exp(0.7j), R ** -0.6 * np.exp(-2.1j), -R ** 0.3, 1.0j):
        stacked = path_integral(data, 1.0, z)
        assert list(stacked) == [path_integral(phi, 1.0, z) for phi in data.F]


def weierstrass_data(kind, candidate):
    ann = Annulus(2.0)
    if kind == "gauss":
        return tube_from_gauss(HoloFn.parse("z + 0.2/z", ann), 1.5)
    if kind == "explicit":
        return WeierstrassData(f=HoloFn.parse("exp(z)/z", ann),
                               g=HoloFn.parse("z - 0.3/z^2", ann))
    return tube_from_gauss(candidate(0.1).g, 1.0)


@pytest.mark.parametrize("kind", ["gauss", "explicit", "slit"])
def test_one_sample_equals_the_triple_trees(candidate, kind):
    data = weierstrass_data(kind, candidate)
    R = data.annulus.R
    z = (R ** np.linspace(-0.9, 0.9, 7)[:, None]
         * np.exp(1j * np.linspace(0.0, 6.2, 40)[None, :])).ravel()
    assert np.array_equal(data(z), [phi(z) for phi in data.F])


@pytest.mark.parametrize("kind", ["gauss", "explicit", "slit"])
def test_stacked_circle_integral_equals_one_call_per_component(candidate, kind):
    data = weierstrass_data(kind, candidate)
    stacked = circle_integral(data, 1.0)
    assert stacked.shape == (3,)
    assert np.array_equal(stacked, [circle_integral(phi, 1.0) for phi in data.F])


def _first_bad(mask, z):
    idx = np.argwhere(mask)
    if idx.size == 0:
        return None
    return complex(z[tuple(idx[0])])


def plain_value(node, z):
    """The recursive walk of one root that evaluate made before its plan,
    with no memo: every reference to a node evaluates it again, and a leaf
    that shares a walk-out calls its own fn."""
    op = _BINARY.get(type(node))
    if op is not None:
        left, right = plain_value(node.left, z), plain_value(node.right, z)
        if type(node) is Div:
            bad = _first_bad(right == 0, z)
            if bad is not None:
                raise EvalDomainError("division by zero", bad)
        return op.apply(left, right)
    if isinstance(node, Const):
        return np.broadcast_to(np.asarray(node.value, dtype=complex), z.shape)
    if isinstance(node, Var):
        return z
    if isinstance(node, Neg):
        return -plain_value(node.arg, z)
    if isinstance(node, Pow):
        base = plain_value(node.base, z)
        k = node.exponent
        if k < 0:
            bad = _first_bad(base == 0, z)
            if bad is not None:
                raise EvalDomainError(f"zero base raised to power {k}", bad)
        return base ** k
    if isinstance(node, Exp):
        return np.exp(plain_value(node.arg, z))
    if isinstance(node, Log):
        w = plain_value(node.arg, z)
        bad = _first_bad(w == 0, z)
        if bad is not None:
            raise EvalDomainError("log of zero", bad)
        near_cut = (w.real < 0) & (np.abs(w.imag) < LOG_CUT_TOL)
        bad = _first_bad(near_cut, z)
        if bad is not None:
            raise EvalDomainError("log evaluated too close to its branch cut", bad)
        return np.log(w)
    if isinstance(node, Opaque):
        value = np.asarray(node.fn(plain_value(node.arg, z)))
        return value if value.shape == z.shape else np.broadcast_to(value, z.shape)
    raise ExprError(f"unknown node {node!r}")


def plain_evaluate(node, z):
    arr = np.asarray(z, dtype=complex)
    with np.errstate(all="ignore"):
        return np.broadcast_to(np.asarray(plain_value(node, arr)), arr.shape).copy()


def plain_differentiate(node):
    """The recursive differentiate that the iterative one replaced."""
    if isinstance(node, Const):
        return Const(0)
    if isinstance(node, Var):
        return Const(1)
    if isinstance(node, Add):
        return _add(plain_differentiate(node.left), plain_differentiate(node.right))
    if isinstance(node, Sub):
        return _sub(plain_differentiate(node.left), plain_differentiate(node.right))
    if isinstance(node, Neg):
        d = plain_differentiate(node.arg)
        return Const(0) if _is_zero(d) else Neg(d)
    if isinstance(node, Mul):
        a, b = node.left, node.right
        return _add(_mul(plain_differentiate(a), b), _mul(a, plain_differentiate(b)))
    if isinstance(node, Div):
        a, b = node.left, node.right
        num = _sub(_mul(plain_differentiate(a), b), _mul(a, plain_differentiate(b)))
        return _div(num, Pow(b, 2))
    if isinstance(node, Pow):
        k = node.exponent
        if k == 0:
            return Const(0)
        inner = plain_differentiate(node.base)
        step = _mul(Const(k), Pow(node.base, k - 1)) if k != 1 else Const(k)
        return _mul(step, inner)
    if isinstance(node, Exp):
        return _mul(node, plain_differentiate(node.arg))
    if isinstance(node, Log):
        return _div(plain_differentiate(node.arg), node.arg)
    if isinstance(node, Opaque):
        if node.deriv is None:
            raise ExprError(f"no derivative available for {node.name}")
        return _mul(node.deriv, plain_differentiate(node.arg))
    raise ExprError(f"unknown node {node!r}")


def plain_render(node):
    """The recursive printer that to_string replaced: (text, precedence)."""
    if isinstance(node, Const):
        return _const_str(node.value)
    if isinstance(node, Var):
        return "z", 5
    op = _BINARY.get(type(node))
    if op is not None:
        lt, lp = plain_render(node.left)
        rt, rp = plain_render(node.right)
        lt = f"({lt})" if lp < op.prec else lt
        rt = f"({rt})" if rp < op.prec or (op.strict_right and rp == op.prec) else rt
        return f"{lt}{op.text}{rt}", op.prec
    if isinstance(node, Neg):
        t, p = plain_render(node.arg)
        t = f"({t})" if p < 3 else t
        return f"-{t}", 3
    if isinstance(node, Pow):
        t, p = plain_render(node.base)
        safe = isinstance(node.base, (Var, Exp, Log)) or (
            isinstance(node.base, Const)
            and node.base.value.imag == 0 and node.base.value.real >= 0)
        if not safe:
            t = f"({t})"
        return f"{t}^{node.exponent}", 4
    if isinstance(node, Exp):
        return f"exp({plain_render(node.arg)[0]})", 5
    if isinstance(node, Log):
        return f"log({plain_render(node.arg)[0]})", 5
    if isinstance(node, Opaque):
        return f"{node.name}({plain_render(node.arg)[0]})", 5
    raise ExprError(f"unknown node {node!r}")


# shared subtrees: g' holds g's exp and log nodes, and the quotient rule
# holds the denominator twice
SHARED_MAPS = ["exp(z/3) + 0.1/z", "z*exp(z/4)", "log(z + 3)*exp(z)/(z - 4)^2",
               "(z + 0.1/z)^3/(z - 4)", "exp(log(z + 2.5)*z) - 1/(z^2 + 9)"]


def ring_points(R):
    return (R ** np.linspace(-0.95, 0.95, 9)[:, None]
            * np.exp(1j * np.linspace(0.0, 6.2, 33)[None, :])).ravel()


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("text", SHARED_MAPS + ["slit q=0.1"])
def test_one_pass_over_several_roots_equals_separate_walks(candidate, text):
    if text.startswith("slit"):
        g = candidate(0.1).g
        roots = [g.node, g.derivative().node]  # the theta' leaves have no derivative
    else:
        g = HoloFn.parse(text, Annulus(2.0))
        roots = [g.node, g.derivative().node, g.derivative().derivative().node]
    z = ring_points(g.annulus.R)
    got = evaluate(roots, z)
    for value, root in zip(got, roots):
        assert same_bits(value, evaluate(root, z))
        assert same_bits(value, plain_evaluate(root, z))
    scalar = evaluate(roots[::-1], z[5])
    assert scalar == [complex(evaluate(root, z[5:6])[0]) for root in roots[::-1]]


def slit_pair_apart(cand, z):
    """g0 and g0' at z, each by its own theta formula, as the slit map
    formed them while it was one leaf whose derivative was a second leaf."""
    q = cand.params.q
    v = np.log(math.sqrt(q) * z) / 2j
    t1v, t3v = elliptic.theta1(v, q), elliptic.theta3(v, q)
    quot = (elliptic.theta1_prime(v, q) * t3v - t1v * elliptic.theta3_prime(v, q)) / (t3v * t3v)
    return (elliptic.theta1(v, q) / elliptic.theta3(v, q)) ** 2, (t1v / t3v) * quot / (1j * z)


# g' from the theta leaves' chain rule, 2 (t1/t3) (t1' t3 - t1 t3') v'/t3^2
# with v' = -0.5i/z, rounds differently from the old one-leaf formula: at
# most 3.6e-15 relative on these nomes and points
SLIT_DERIVATIVE_RTOL = 1e-14


@pytest.mark.parametrize("q", [0.0025, 0.1, 0.72, 0.95])
def test_slit_joint_pass_equals_value_and_derivative_apart(candidate, q):
    cand = candidate(q)
    g, gprime = cand.g, cand.g.derivative()
    z = ring_points(g.annulus.R)
    dv, gv = evaluate([gprime.node, g.node], z)
    want_g, want_dg = slit_pair_apart(cand, z)
    assert same_bits(gv, want_g) and same_bits(gv, g(z))
    assert same_bits(dv, plain_evaluate(gprime.node, z))
    assert np.max(np.abs(dv - want_dg) / np.abs(want_dg)) <= SLIT_DERIVATIVE_RTOL


def comb_reach(v, q):
    """How many teeth the comb walks out from each point of v."""
    t = -math.log(q) / math.pi
    return np.ceil(np.sqrt(math.pi * t * 42.0 + np.imag(v) ** 2) / math.pi + 0.5)


def separate_comb(v, q, half_step, deriv):
    """The theta comb before one walk-out served theta and theta': a call
    accumulates the value or, with ``deriv``, the derivative."""
    t = -math.log(q) / math.pi
    arr = np.asarray(v, dtype=complex)
    n0 = np.rint(arr.real.reshape(-1) / math.pi - half_step)
    d = arr.reshape(-1) - math.pi * (n0 + half_step)
    reach = comb_reach(d, q)
    hi = lo = np.exp(-d * d / (math.pi * t))
    up, down = np.exp((2.0 * d - math.pi) / t), np.exp((-2.0 * d - math.pi) / t)
    if half_step:
        hi = lo = np.where(n0 % 2.0 == 0.0, hi, -hi)
        up, down = -up, -down
    kappa = math.exp(-2.0 * math.pi / t)
    total = hi * d if deriv else hi
    for k in range(1, int(reach.max(initial=0.0)) + 1):
        hi, lo = hi * up, lo * down
        up, down = up * kappa, down * kappa
        step = hi * (d - math.pi * k) + lo * (d + math.pi * k) if deriv else hi + lo
        total = total + step if reach.min() >= k else np.where(reach >= k, total + step, total)
    if deriv:
        total = total * (-2.0 / (math.pi * t))
    out = (total / math.sqrt(t)).reshape(arr.shape)
    return out if arr.ndim else complex(out)


JET_NOMES = (0.0025, 0.1, 0.33, 0.72, 0.9, 0.95)


def jet_inputs(q):
    """Ring coordinates v: the probe's outer circle, points whose Im v (and
    so the comb's reach) varies, and a 0-d array."""
    zeta = (q ** -0.5) ** (1.0 - PROBE_MARGIN) * np.exp(2j * math.pi * np.arange(1024) / 1024)
    spread = np.linspace(-3.0, 3.0, 257) + 1j * np.linspace(-1.0, 1.0, 257) * (
        1.5 * math.pi - 2.0 * math.log(q))
    return {"circle": np.log(math.sqrt(q) * zeta) / 2j, "spread": spread,
            "0-d": np.asarray(spread[40])}


@pytest.mark.parametrize("q", JET_NOMES)
@pytest.mark.parametrize("k", [1, 3])
def test_one_walk_out_gives_theta_and_theta_prime_bit_for_bit(q, k):
    half_step = 0.5 if k == 1 else 0.0
    theta, theta_prime = {1: (elliptic.theta1, elliptic.theta1_prime),
                          3: (elliptic.theta3, elliptic.theta3_prime)}[k]
    inputs = jet_inputs(q)
    reach = comb_reach(inputs["spread"], q)
    assert reach.min() < reach.max()  # the spread runs the comb's np.where branch
    for name, v in inputs.items():
        value, slope = elliptic._gauss_comb(v, q, (half_step,), True)
        want_value, want_slope = (separate_comb(v, q, half_step, deriv) for deriv in (False, True))
        for got in (value, theta(v, q)):
            assert type(got) is type(want_value) and same_bits(got, want_value), name
        for got in (slope, theta_prime(v, q)):
            assert type(got) is type(want_slope) and same_bits(got, want_slope), name
    assert type(value) is complex  # the last input is 0-d


@pytest.mark.parametrize("q", JET_NOMES)
def test_pass_of_g_prime_and_g_takes_one_jet_a_theta(candidate, comb_calls, q):
    # one stacked jet walk-out gives theta1, theta3, theta1' and theta3'
    # (two jet walk-outs, one a theta, before).  g' alone takes one jet
    # walk-out, since its plan holds the theta' leaves (a value walk-out and
    # then a jet one before, four combs before that), and g one value
    # walk-out for both thetas (two before)
    g = candidate(q).g
    gprime = g.derivative()
    z = ring_points(g.annulus.R)
    calls = comb_calls()
    dv, gv = evaluate([gprime.node, g.node], z)
    assert calls == [(4, z.size)]
    assert same_bits(dv, evaluate(gprime.node, z)) and same_bits(gv, evaluate(g.node, z))
    assert calls == [(4, z.size), (4, z.size), (2, z.size)]
    assert same_bits(dv, plain_evaluate(gprime.node, z))


# the cell points of goldens/wp_prime.json, as (Re u, Im u / t)
WP_CELL = [(0.13, 0.21), (0.37, -0.08), (-0.22, 0.4), (0.31, 0.0), (0.02, 0.49), (-0.45, -0.3)]


@pytest.mark.parametrize("q", JET_NOMES)
def test_wp_prime_keeps_its_separate_comb_values(q):
    p = EllipticParams(q)
    u = np.array([a + 1j * b * p.t for a, b in WP_CELL])
    got = elliptic.wp_prime(u, p)
    want = WP_PRIME["separate_comb"][f"q={q}"]
    assert [[w.real.hex(), w.imag.hex()] for w in got.tolist()] == [
        [x.hex() for x in pair] for pair in want]
    one = elliptic.wp_prime(complex(u[0]), p)
    assert type(one) is complex and one == got[0]


def test_wp_and_wp_prime_take_one_comb_each(comb_calls):
    # theta1 and theta3 stacked in one walk-out: P took two combs, and P'
    # two jets, one a theta
    p = EllipticParams(0.1)
    u = np.array([a + 1j * b * p.t for a, b in WP_CELL])
    calls = comb_calls()
    elliptic.wp(u, p)
    elliptic.wp_prime(u, p)
    assert calls == [(2, u.size), (4, u.size)]


STACK_SIZES = (1, 5, 513, 8192, 16384)


def stack_inputs(q, n):
    """n ring coordinates whose Im v, and so the comb's reach, varies."""
    t = -math.log(q) / math.pi
    return np.linspace(-3.0, 3.0, n) + 1j * np.linspace(-1.0, 1.0, n) * (1.5 * math.pi + math.pi * t)


@pytest.mark.parametrize("q", JET_NOMES)
@pytest.mark.parametrize("jet", [False, True], ids=["values", "jets"])
def test_each_stacked_row_is_its_one_row_walk_out(q, jet):
    # theta1's and theta3's rows (then theta1' and theta3') from one call
    # equal each half step walked out alone, bit for bit and at every size:
    # one block, several blocks and a short last block
    for n in STACK_SIZES:
        v = stack_inputs(q, n)
        stacked = elliptic._gauss_comb(v, q, (0.5, 0.0), jet)
        alone = [elliptic._gauss_comb(v, q, (h,), jet) for h in (0.5, 0.0)]
        want = [row for rows in zip(*alone) for row in rows]
        assert len(stacked) == len(want) == (4 if jet else 2)
        for got, row in zip(stacked, want):
            assert got.shape == (n,) and same_bits(got, row), n
    one = elliptic._gauss_comb(np.asarray(v[40]), q, (0.5, 0.0), jet)
    assert [type(x) for x in one] == [complex] * len(stacked)
    assert all(same_bits(x, row[40]) for x, row in zip(one, stacked))


@pytest.mark.parametrize("q", JET_NOMES)
def test_theta_prime_does_not_depend_on_the_batch(q):
    # a walk-out's arrays once passed 256 KiB at 16,384 points, where numpy
    # reused a temporary and swapped a complex product's operands, which
    # moved theta' by up to 1.9e-15 relative from the same points in blocks
    for n in (16384, 32768):
        v = stack_inputs(q, n)
        for half_steps in ((0.5,), (0.0,), (0.5, 0.0)):
            whole = elliptic._gauss_comb(v, q, half_steps, True)
            blocks = [elliptic._gauss_comb(v[s:s + 512], q, half_steps, True)
                      for s in range(0, n, 512)]
            for i, row in enumerate(whole):
                assert same_bits(row, np.concatenate([b[i] for b in blocks])), (n, half_steps, i)


def first_error(fn):
    with pytest.raises(EvalDomainError) as info:
        fn()
    return str(info.value), info.value.z


@pytest.mark.parametrize("text, bad", [
    ("log(z - 0.5) + 1/(z + 0.25)", [-0.25, 0.5]),  # g' divides by z - 0.5
    ("1/(z - 0.3) + log(z)", [-0.5, 0.3]),  # the pole, then the cut
    ("exp(z)/(z^2 - 0.25)", [0.5, -0.5]),
    ("z^-2 + log(z + 0.6)", [-0.6, 0.0]),
])
def test_one_pass_names_the_point_separate_walks_name(text, bad):
    g = HoloFn.parse(text, Annulus(2.0))
    roots = [g.node, g.derivative().node]
    z = np.concatenate([[0.9 + 0.1j, 1.3j], bad, [-1.1]])

    def separate():
        for root in roots:
            plain_evaluate(root, z)

    want = first_error(separate)
    assert first_error(lambda: evaluate(roots, z)) == want
    assert first_error(lambda: evaluate(roots[::-1], z)) == first_error(
        lambda: [plain_evaluate(root, z) for root in roots[::-1]])


def outcome(fn):
    """fn()'s value, or the message and point of the EvalDomainError it raises."""
    try:
        return fn()
    except EvalDomainError as exc:
        return str(exc), exc.z


def same_outcome(got, want):
    if isinstance(want, tuple):  # a refusal
        return got == want
    return not isinstance(got, tuple) and same_bits(got, want)


@pytest.mark.parametrize("seed", range(4))
def test_fuzzed_trees_equal_the_recursive_walks(fuzz_expr, seed):
    # 50 seeded draws a seed from the grammar: the text of each tree and of
    # its derivative equals the recursive printer's and differentiate's, and
    # their values at ring points the recursive evaluation's (the same bits,
    # or an EvalDomainError at the same point), apart and in one pass
    rng = np.random.default_rng(seed)
    z = ring_points(2.0)
    for _ in range(50):
        text = fuzz_expr(rng, 5)
        node = parse(text)
        d, plain_d = differentiate(node), plain_differentiate(node)
        assert to_string(node) == plain_render(node)[0], text
        assert to_string(d) == plain_render(plain_d)[0], text
        for root, plain_root in ((node, node), (d, plain_d)):
            assert same_outcome(outcome(lambda: evaluate(root, z)),
                                outcome(lambda: plain_evaluate(plain_root, z))), text
        got = outcome(lambda: evaluate([node, d], z))
        want = outcome(lambda: [plain_evaluate(root, z) for root in (node, plain_d)])
        if isinstance(want, tuple):
            assert got == want, text
        else:
            assert all(same_outcome(a, b) for a, b in zip(got, want)), text


def bare(name, arg=Var()):
    """A leaf with no derivative."""
    return Opaque(name, np.exp, None, arg)


@pytest.mark.parametrize("node", [
    Add(bare("a"), bare("b")),
    bare("outer", bare("inner")),
    Mul(Exp(bare("a", bare("inner"))), bare("b")),
    Add(Pow(bare("a"), 0), bare("b")),
    Pow(bare("a"), 0),
    Sub(Pow(Log(bare("a")), 0), Var()),
], ids=["left first", "outer leaf first", "outer leaf of the left", "zero power skipped",
        "zero power of a bare leaf", "zero power of a log"])
def test_differentiate_refuses_the_leaf_the_recursive_walk_met_first(node):
    def derivative_text(differentiate):
        try:
            return to_string(differentiate(node))
        except ExprError as exc:
            return str(exc)

    assert derivative_text(differentiate) == derivative_text(plain_differentiate)


def balance_loci(cand, u):
    rho, g, lam = cand.annulus.R ** u, cand.g, cand.lam
    return (lambda t: np.real(g(rho * np.exp(1j * t))) - lam,
            lambda t: np.real(1.0 / g(rho * np.exp(1j * t))) + lam)


def stacked_loci(cand, u):
    return lambda t: np.stack([fn(t) for fn in balance_loci(cand, u)])


def plain_bisect(stays, lo, hi, iters):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        keep = stays(mid)
        lo, hi = np.where(keep, mid, lo), np.where(keep, hi, mid)
    return lo, hi


def scan_brackets(fn):
    t = 2.0 * math.pi * (np.arange(512) + 0.5) / 512
    f = fn(t)
    k = np.nonzero(np.sign(f) * np.sign(np.roll(f, -1)) <= 0.0)[0]
    return t, f, k, t[k], np.append(t[1:], t[0] + 2.0 * math.pi)[k]


def reference_crossings(fn, lam):
    """One locus on its own: scan, 80 halvings and a residual call."""
    t, f, k, lo, hi = scan_brackets(fn)
    if not k.size:
        return None
    neg = f[k] <= 0.0
    lo, hi = plain_bisect(lambda mid: (fn(mid) <= 0.0) == neg, lo, hi, 80)
    roots = (0.5 * (lo + hi)) % (2.0 * math.pi)
    resid = np.abs(fn(roots))
    slope = np.abs(np.roll(f, -1) - f)[k] * (512 / (2.0 * math.pi))
    return roots, resid, resid <= resid.min() + _TIE_EPS * (roots * slope + abs(lam))


def illinois_crossings(fn, lam):
    """One locus on its own: scan, and each bracket narrowed on its own."""
    t = 2.0 * math.pi * (np.arange(513) + 0.5) / 512
    f = fn(t % (2.0 * math.pi))
    k = np.nonzero(np.sign(f[:-1]) * np.sign(f[1:]) <= 0.0)[0]
    if not k.size:
        return None
    lo, hi, flo, fhi = map(np.concatenate, zip(*(
        _illinois(lambda x, j: fn(x % (2.0 * math.pi)), t[i:i + 1], t[i + 1:i + 2],
                  f[i:i + 1], f[i + 1:i + 2]) for i in k)))
    at_lo = np.abs(flo) <= np.abs(fhi)
    roots = np.where(at_lo, lo, hi) % (2.0 * math.pi)
    resid = np.abs(np.where(at_lo, flo, fhi))
    slope = np.abs(f[k + 1] - f[k]) * (512 / (2.0 * math.pi))
    return roots, resid, resid <= resid.min() + _TIE_EPS * (roots * slope + abs(lam))


FAMILY_NOMES = np.geomspace(0.0025, 0.33, 30)  # test_10's family


@pytest.mark.parametrize("q", FAMILY_NOMES[[0, 7, 14, 21, 29]])
def test_witness_equals_two_loci_with_80_halvings(candidate, q):
    # to 8.9e-16, or at another root that ties with the bisection's pick: the
    # Illinois root is a sampled bracket end, the bisection's a midpoint
    cand = candidate(q)
    for u in np.linspace(-0.7, 0.7, 20)[::4]:
        w = crossing_witness(cand.g, cand.annulus.R ** u, cand.lam)
        found = _crossings(stacked_loci(cand, u), cand.lam)
        for pick, fn, (roots, resid, tied) in zip((w.t1, w.t2), balance_loci(cand, u), found):
            old, _, old_tied = reference_crossings(fn, cand.lam)
            want = old[np.argmax(old_tied)]
            assert abs(pick - want) <= 8.9e-16 or np.any(tied & (np.abs(roots - want) <= 1.8e-15)), u


@pytest.mark.parametrize("q", [0.0025, 0.1, 0.33])
def test_stacked_crossings_equal_one_locus_at_a_time(candidate, q):
    cand = candidate(q)
    for u in (-0.7, 0.0, 0.7):
        for got, fn in zip(_crossings(stacked_loci(cand, u), cand.lam), balance_loci(cand, u)):
            want = illinois_crossings(fn, cand.lam)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("q", [0.0025, 0.1, 0.33])
def test_early_stop_equals_all_halvings_on_witness_brackets(candidate, counting, q):
    cand = candidate(q)
    for fn in balance_loci(cand, -0.7) + balance_loci(cand, 0.7):
        _, f, k, lo, hi = scan_brackets(fn)
        neg = f[k] <= 0.0
        calls = []
        stays = counting(lambda mid: (fn(mid) <= 0.0) == neg, calls)
        got = _bisect(stays, lo, hi, 80)
        assert len(calls) < 80  # the early stop did cut the loop short
        want = plain_bisect(stays, lo, hi, 80)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


SLOW_FOR_REGULA_FALSI = {
    # steep and convex on one side: plain regula falsi keeps the far end for good
    "expm1": lambda x, r: np.expm1(3e4 * (x - r)),
    # flat at the root, or flat away from it: the secant lands far from the root
    "ninth power": lambda x, r: (x - r) ** 9,
    "cbrt": lambda x, r: np.cbrt(x - r),
    # no slope at all: every secant point is a guess
    "step": lambda x, r: np.where(x < r, -1.0, 1.0),
}


@pytest.mark.parametrize("name", sorted(SLOW_FOR_REGULA_FALSI))
def test_illinois_closes_slow_brackets_within_the_cap(counting, name):
    # scan brackets at both ends and in the middle of the circle, random roots;
    # each closes (adjacent ends, or fn = 0 at one) at most _SLACK + 1 steps
    # after bisection would, and batched, as alone, bit for bit
    fn = SLOW_FOR_REGULA_FALSI[name]
    t = 2.0 * math.pi * (np.arange(513) + 0.5) / 512
    k = np.array([0, 1, 255, 511] * 4)
    root = t[k] + (t[k + 1] - t[k]) * np.random.default_rng(7).uniform(size=k.size)
    lo, hi = t[k], t[k + 1]
    got = _illinois(lambda x, j: fn(x, root[j]), lo, hi, fn(lo, root), fn(hi, root))
    for i in range(k.size):
        one, steps, halvings = np.s_[i:i + 1], [], []
        alone = _illinois(counting(lambda x, j: fn(x, root[i]), steps),
                          lo[one], hi[one], fn(lo[one], root[i]), fn(hi[one], root[i]))
        assert [end[i] for end in got] == [end[0] for end in alone]
        a, b, fa, fb = alone
        assert np.nextafter(a, b) == b or fa == 0.0 or fb == 0.0
        neg = fn(lo[i], root[i]) <= 0.0
        _bisect(counting(lambda mid: (fn(mid, root[i]) <= 0.0) == neg, halvings), lo[one], hi[one], 80)
        assert len(steps) <= len(halvings) - 1 + _SLACK + 1, i  # the last halving moves nothing


@pytest.mark.parametrize("domain, h", [
    (RingDomain.comparison(1.0), 0.1),
    (RingDomain.from_json({"kind": "annulus", "ratio": math.e}), 0.04),
])
def test_early_stop_equals_all_halvings_on_grid_arms(monkeypatch, counting, domain, h):
    arms = []

    def both(stays, lo, hi, iters):
        calls = []
        got = _bisect(counting(stays, calls), lo, hi, iters)
        want = plain_bisect(stays, lo, hi, iters)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        arms.append((lo.size, len(calls), iters))
        return got

    monkeypatch.setattr(modulus, "_bisect", both)
    _assemble(domain, h)
    assert arms and all(size > 0 and calls <= iters for size, calls, iters in arms)


def test_witness_samples_g_once_per_step_for_both_loci(candidate, comb_calls):
    # one scan and 8 Illinois steps, the most any of the four brackets takes
    # (6, 6, 8 and 6), one comb a sample stacking theta1 and theta3: 9.
    # With a comb for each theta it took 2 * 9 = 18.
    # The third bracket took 9 steps, and the witness 20 calls, on g0 times
    # the quadrature scale and at the quadrature level.  With 47 halvings and
    # a residual call it took 2 * 49 = 98, and two loci with 80 halvings each
    # 2 * 82 * 2 = 328.  The witness evaluates g alone, so the theta' leaves
    # never run.
    cand = candidate(0.1)
    calls = comb_calls()
    crossing_witness(cand.g, 1.0, cand.lam)
    assert len(calls) == 9 and all(rows == 2 for rows, _ in calls)


def without_jets(g):
    """The slit map g with theta leaves that share no walk-out: a pass takes
    each of theta1, theta3, theta1' and theta3' from a walk-out of its own,
    as before one walk-out gave several.  It keeps g's rim divisor and its
    mirrors, so the probe removes the same poles and reaches the same levels."""
    def unshared(leaf):
        return replace(leaf, shared=None, deriv=replace(leaf.deriv, shared=None))
    t1, t3 = g.node.base.left, g.node.base.right
    return HoloFn(Pow(Div(unshared(t1), unshared(t3)), 2), g.annulus, g.divisor, g.mirrors)


# The probe's 32 targets take one call of two combs, where they took 32
# calls.  The winding levels nest from 128 nodes, so a circle evaluates g on
# as many nodes as its top level: 256 at q = 0.1 and at q = 0.9 with g's rim
# divisor and each target's two reflected preimages removed in closed form
# (8,192 at q = 0.9 with the divisor alone; 1,024 and 16,384 before it;
# 2,048 at q = 0.1 before each target's own pole was removed, and the 65,536
# cap at q = 0.9 under the 1e-8 relative stop alone).  Its winding samples
# take g and g' from one pass: without jets that is four combs a node
# (theta1, theta1', theta3 and theta3'), 2 * 256 * 4 + 64 points at both
# nomes (65,600 at q = 0.9 before the reflections; 8,256 and 131,136 before
# the divisor; 24,640 and 786,496 when g and g' were sampled apart, six
# combs a node, and 16,448 at q = 0.1 before the pole correction).  A
# theta' comb is a one-row jet: it walks out theta too, so it returns two
# rows.
@pytest.mark.parametrize("q, points", [(0.1, 2112), (0.9, 2112)])
def test_probe_comb_points(candidate, comb_calls, q, points):
    g = without_jets(candidate(q).g)
    calls = comb_calls()
    univalence_probe(g)
    assert sum(n for _, n in calls) == points
    assert {rows for rows, _ in calls} == {1, 2}


# With the shared walk-out one stacked jet gives theta1, theta3, theta1'
# and theta3' (four rows): one comb a node, 2 * 256 + 32 points at both
# nomes (16,416 at q = 0.9 before the reflections), and the 32 targets one
# two-row comb.  With a jet a theta it was two combs a node, 1,088 and
# 32,832 points (4,160 and 65,600 before the divisor, and 8,256 at q = 0.1
# before the pole correction).  The levels and the report are those
# without jets.
@pytest.mark.parametrize("q, points", [(0.1, 544), (0.9, 544)])
def test_probe_jet_comb_points(candidate, comb_calls, q, points):
    g = candidate(q).g
    calls = comb_calls()
    report = univalence_probe(g)
    assert sum(n for _, n in calls) == points
    assert sorted({rows for rows, _ in calls}) == [2, 4]
    assert probe_fields(report) == probe_fields(univalence_probe(without_jets(g)))


def test_tube_samples_g_once_per_node(candidate, comb_calls):
    # f = c/(2zg) holds g's tree, and data(z) and the F3 tree of the profile
    # fit take g once a node from one pass: one comb stacking theta1 and
    # theta3 x (256 loop nodes + 57 distinct legs x 96 fit nodes, 32 and
    # 64 a leg).  It was 7,520 when the loop sum started at 1,024 nodes and
    # stopped at 2,048; twice that, 15,040, with a comb for each theta;
    # 22,528 when each of the 48 paths integrated its own two legs, and
    # 45,056 when g was sampled once for itself and once inside f.
    data = tube_from_gauss(candidate(0.1).g, 1.0)
    assert data.probe.zero_count == 0  # MinimalTube reads the probe first: run it uncounted
    calls = comb_calls()
    MinimalTube(data)
    assert sum(n for _, n in calls) == 5728 and all(rows == 2 for rows, _ in calls)


def test_paths_integrate_a_shared_leg_once(counting):
    # four ends up the imaginary axis share the arc from 1 to i: one arc and
    # four radial legs at 32 and then 64 nodes, where eight legs took 256 and 512
    calls, inv = [], HoloFn.parse("1/z", Annulus(2.0))

    class Counted:
        annulus = inv.annulus
        __call__ = staticmethod(counting(inv, calls))

    ends = [0.6j, 0.8j, 1.25j, 1.6j]
    batched = _path_integrals(Counted(), 1.0, ends)
    assert calls == [160, 320]
    assert batched == [path_integral(inv, 1.0, z) for z in ends]


@pytest.mark.parametrize("case", sorted(WITNESS_AND_RING["witness"]))
def test_crossing_witness_keeps_its_crossings(candidate, case):
    q, u = (float(part.split("=")[1]) for part in case.split())
    cand = candidate(q)
    w = crossing_witness(cand.g, cand.annulus.R ** u, cand.lam)
    assert w.residual1 < 1e-10 and w.residual2 < 1e-10
    found = _crossings(stacked_loci(cand, u), cand.lam)
    for pick, old, (roots, resid, tied) in zip((w.t1, w.t2), WITNESS_AND_RING["witness"][case], found):
        near = np.abs(roots - old) <= 1e-12
        assert abs(pick - old) <= 1e-12 or np.any(near & tied & (resid < 1e-10))


def level_drift(got, want):
    # ending a root at a sampled bracket end moved the 80-halving angles by
    # at most 8.9e-16 and their residuals by 2.1e-14; the closed-form level
    # then moved every frozen angle by at most 2.3e-15 and residual by 2.4e-14
    return np.all(np.abs(np.subtract(got, want)) <= [2.3e-15, 2.3e-15, 2.4e-14, 2.4e-14])


@pytest.mark.parametrize("case", sorted(WITNESS_AND_RING["witness"]))
def test_crossing_witness_keeps_its_pointwise_comb_values(candidate, case):
    q, u = (float(part.split("=")[1]) for part in case.split())
    cand = candidate(q)
    w = crossing_witness(cand.g, cand.annulus.R ** u, cand.lam)
    got = [w.t1, w.t2, w.residual1, w.residual2]
    assert level_drift(got, WITNESS_AND_RING["witness_pointwise_comb"][case])


@pytest.mark.parametrize("case", sorted(WITNESS_AND_RING["witness"]))
def test_crossing_witness_keeps_its_closed_form_scale_values(candidate, case):
    q, u = (float(part.split("=")[1]) for part in case.split())
    cand = candidate(q)
    w = crossing_witness(cand.g, cand.annulus.R ** u, cand.lam)
    got = [w.t1, w.t2, w.residual1, w.residual2]
    assert level_drift(got, WITNESS_AND_RING["witness_closed_form_scale"][case])


@pytest.mark.parametrize("case", sorted(WITNESS_AND_RING["witness"]))
def test_crossing_witness_keeps_its_illinois_values(candidate, case):
    q, u = (float(part.split("=")[1]) for part in case.split())
    cand = candidate(q)
    w = crossing_witness(cand.g, cand.annulus.R ** u, cand.lam)
    got = [w.t1, w.t2, w.residual1, w.residual2]
    assert level_drift(got, WITNESS_AND_RING["witness_illinois"][case])


@pytest.mark.parametrize("case", sorted(WITNESS_AND_RING["witness"]))
def test_crossing_witness_is_frozen(candidate, case):
    q, u = (float(part.split("=")[1]) for part in case.split())
    cand = candidate(q)
    w = crossing_witness(cand.g, cand.annulus.R ** u, cand.lam)
    got = [w.t1, w.t2, w.residual1, w.residual2]
    assert got == WITNESS_AND_RING["witness_closed_form_level"][case]


@pytest.mark.parametrize("q", [0.0025, 0.1, 0.33])
def test_batched_crossing_residuals_equal_one_root_at_a_time(candidate, q):
    cand = candidate(q)
    for u in (-0.7, 0.7):
        loci = stacked_loci(cand, u)
        for j, (roots, resid, _) in enumerate(_crossings(loci, cand.lam)):
            assert list(resid) == [abs(loci(roots[i:i + 1])[j])[0] for i in range(len(roots))]


@pytest.fixture(scope="module")
def ring_estimate():
    return grid_module_estimate(RingDomain.from_json({"kind": "annulus", "ratio": math.e}), 0.04)


def test_ring_estimate_is_unchanged(ring_estimate):
    # frozen from the Jacobi-preconditioned solve; the V-cycle moves the
    # round-off of value and indicator by about 7e-14
    est, want = ring_estimate, WITNESS_AND_RING["ring_e_h0.04"]
    assert abs(est.value - want["value"]) <= 1e-12
    assert abs(est.indicator - want["indicator"]) <= 1e-12
    assert (est.truncation_sensitivity, est.dof) == (
        want["truncation_sensitivity"], want["dof"])


def test_ring_estimate_is_frozen(ring_estimate):
    est, was = ring_estimate, WITNESS_AND_RING["ring_e_h0.04_vcycle"]
    assert abs(est.value - was["value"]) <= GRID_VALUE_RTOL * est.value
    assert abs(est.indicator - was["indicator"]) <= GRID_DIFF_RTOL * est.value
    want = WITNESS_AND_RING["ring_e_h0.04_overcorrected"]
    assert (est.value, est.indicator, est.truncation_sensitivity, est.dof) == (
        want["value"], want["indicator"], want["truncation_sensitivity"], want["dof"])


def grid_case_id(case):
    return " ".join(f"{k}={v:.6g}" if isinstance(v, float) else str(v)
                    for k, v in {**case["domain"], "h": case["h"]}.items())


@pytest.mark.parametrize("case", GRID_NETWORK["estimates"], ids=grid_case_id)
def test_grid_estimate_is_frozen(case):
    est = grid_module_estimate(RingDomain.from_json(case["domain"]), case["h"])
    assert est.dof == case["dof"]
    assert abs(est.value - float.fromhex(case["value"])) <= GRID_VALUE_RTOL * est.value
    for key in ("indicator", "truncation_sensitivity"):
        if case[key] is not None:
            assert abs(getattr(est, key) - float.fromhex(case[key])) <= GRID_DIFF_RTOL * est.value
    got = [None if x is None else x.hex()
           for x in (est.value, est.indicator, est.truncation_sensitivity)]
    want = case["overcorrected"]
    assert got == [want["value"], want["indicator"], want["truncation_sensitivity"]]


@pytest.mark.parametrize("case", GRID_NETWORK["refusals"], ids=grid_case_id)
def test_grid_refusal_is_frozen(case):
    with pytest.raises(ValueError) as err:
        grid_module_estimate(RingDomain.from_json(case["domain"]), case["h"])
    assert str(err.value) == case["message"]


def test_assemble_bisects_every_arm_in_one_pass(counting):
    # 2 calls on the grid + 45 halvings x 2 predicates; 362 when each of the
    # four edge groups bisected its own cut edges
    calls, dom = [], RingDomain.comparison(1.0)
    dom.first, dom.second = counting(dom.first, calls), counting(dom.second, calls)
    _assemble(dom, 0.1)
    assert len(calls) == 92


def reference_family(lam, R):
    """The offset-family scan as one np.roots call and one residual per pair."""
    kap_lim = 0.999 / (R * R)
    a_grid = np.concatenate([-np.geomspace(1e-3, 1e3, 61), np.geomspace(1e-3, 1e3, 61)])
    k_grid = np.linspace(-kap_lim, kap_lim, 41)
    best = None
    for a in a_grid:
        for kap in k_grid:
            r = np.roots([a, lam, a * kap])
            inside = [rt for rt in r if abs(rt) < 1.0]
            if any(1.0 / R < abs(rt) < R for rt in r):
                continue
            if len(inside) == 1:
                other = r[0] if r[1] == inside[0] else r[1]
                mean = 1.0 / (a * (inside[0] - other))
            else:
                mean = 0.0 + 0.0j
            res = abs(mean + lam)
            if best is None or res < best[0]:
                best = (res, a, kap)
    return best, a_grid.size * k_grid.size


def typed(value):
    if isinstance(value, tuple):
        return tuple(map(typed, value))
    return type(value), value


@pytest.mark.parametrize("R", [1.01, 1.5, 5.0, 30.0])
@pytest.mark.parametrize("lam", [0.05, 1.0, 5.0])
def test_family_scan_equals_the_per_pair_roots_loop(monkeypatch, lam, R):
    best, n = reference_family(lam, R)
    calls = []
    monkeypatch.setattr(np, "roots", lambda *args: calls.append(args))
    with pytest.raises(FamilyBalanceError) as err:
        joukowski_family(lam, R)
    assert calls == []
    diag = err.value.diagnostics
    assert {k: typed(v) for k, v in diag.items()} == {
        "lam": typed(lam), "R": typed(R),
        "residual_floor": typed(None if best is None else best[0]),
        "best_params": typed(None if best is None else best[1:]),
        "n_scanned": typed(n), "theoretical_floor": typed(lam)}
    if best is None:
        want = (f"all {n} scanned parameters place a zero of g inside the "
                f"annulus at R={R:g}")
    else:
        want = (f"smallest residual over {n} scanned parameters is {best[0]:.6g} "
                f"(the attainable means keep distance {lam} from the target)")
    assert str(err.value) == (f"no (a, kappa) with |kappa| < 1/R^2 balances "
                              f"a0[1/g] = {-lam}: " + want)


@pytest.mark.parametrize("q", [0.0025, 0.1, 0.33, 0.72, 0.9, 0.95])
def test_rims_in_one_call_equal_one_call_per_rim(q):
    cand = calibrate_candidate(q)
    R = cand.params.ring_radius
    t = 2.0 * math.pi * (np.arange(RIM_SAMPLES) + 0.5) / RIM_SAMPLES
    worst_abs = worst_rel = 0.0
    for rho in (R, 1.0 / R):
        vals = cand.g(rho * np.exp(1j * t))
        im = np.abs(vals.imag)
        worst_abs = max(worst_abs, float(im.max()))
        worst_rel = max(worst_rel, float((im / (1.0 + np.abs(vals))).max()))
    got = boundary_reality(cand)
    assert (got["abs"].hex(), got["rel"].hex()) == (worst_abs.hex(), worst_rel.hex())
