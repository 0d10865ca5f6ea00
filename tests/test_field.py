"""Hamiltonian structure: samples, linearization, declared-H validation."""

import math

import numpy as np
import pytest

from planarham import corpus
from planarham import field as field_mod
from planarham.expr import DomainError, compile_polys, parse_expr, to_poly
from planarham.field import (
    VALIDATE_N,
    Box,
    OverflowEvent,
    PLANE_BOX,
    PlanarMap,
    SIGN_PROOF_MAX_BOXES,
    ValidationInconclusive,
    effective_hamiltonian_poly,
    jacobian_sign_change,
    linearization_at,
    load_map_spec,
    parse_map_spec,
    sample,
    validate_hamiltonian,
    MapSpecError,
)


# ---- sampling ----

def test_sample_example1_det_is_exp(example1):
    for x in (-1.0, 0.0, 0.7, 2.0):
        s = sample(example1, (x, 0.3))
        assert abs(s.det - math.exp(x)) <= 1e-12 * (1 + math.exp(x))


def test_sample_identity_at_1_0(identity_map):
    s = sample(identity_map, (1.0, 0.0))
    assert s.hamiltonian == 0.5
    assert s.field == (0.0, 1.0)


def test_sample_example3_at_origin(example3):
    s = sample(example3, (0.0, 0.0))
    assert s.f_value == (0.0, 0.0)
    assert abs(s.det - 1.0) <= 1e-14
    assert s.field == (0.0, 0.0)


def test_sample_example3_det_is_exp2x(example3):
    for x, y in [(-0.5, 1.0), (0.3, -2.0), (1.1, 0.4)]:
        s = sample(example3, (x, y))
        assert abs(s.det - math.exp(2 * x)) <= 1e-12 * (1 + math.exp(2 * x))


def test_hamiltonian_nonnegative_everywhere(example1, example2, example3):
    rng = np.random.default_rng(11)
    for pmap in (example1, example2, example3):
        for _ in range(200):
            x, y = rng.uniform(-3, 3, size=2)
            s = sample(pmap, (x, y))
            assert s.hamiltonian >= 0.0
            v1, v2 = s.f_value
            assert s.hamiltonian == 0.5 * (v1 * v1 + v2 * v2)


def test_field_is_rotated_gradient(example1, example2, example3, identity_map):
    rng = np.random.default_rng(12)
    for pmap in (example1, example2, example3, identity_map):
        for _ in range(50):
            x, y = rng.uniform(-2, 2, size=2)
            s = sample(pmap, (x, y))
            gx, gy = s.grad_h()
            assert s.field == (-gy, gx)


def test_gradient_consistency_finite_differences(example1, example2, example3):
    # field must equal (-dH/dy, dH/dx) with H evaluated directly
    rng = np.random.default_rng(13)
    step = 1e-6
    for pmap in (example1, example2, example3):
        for _ in range(100):
            x, y = rng.uniform(-2, 2, size=2)
            s = sample(pmap, (x, y))
            h = lambda px, py: sample(pmap, (px, py)).hamiltonian
            fd_hx = (h(x + step, y) - h(x - step, y)) / (2 * step)
            fd_hy = (h(x, y + step) - h(x, y - step)) / (2 * step)
            scale = 1e-5 * (1.0 + math.hypot(*s.field))
            assert abs(s.field[0] + fd_hy) <= scale
            assert abs(s.field[1] - fd_hx) <= scale


def test_field_norm_lower_bound(example1, example2, example3):
    # |field| = |Df^T f| >= sigma_min(Df) |f|
    rng = np.random.default_rng(14)
    for pmap in (example1, example2, example3):
        for _ in range(334):
            x, y = rng.uniform(-2.5, 2.5, size=2)
            s = sample(pmap, (x, y))
            smin = np.linalg.svd(np.array(s.jacobian), compute_uv=False)[-1]
            fnorm = math.hypot(*s.f_value)
            assert math.hypot(*s.field) >= smin * fnorm * (1 - 1e-9) - 1e-12


def test_overflow_event_on_exp(example1):
    with pytest.raises(OverflowEvent):
        sample(example1, (800.0, 0.0))


def test_overflow_event_on_large_polynomial(noninjective_map):
    with pytest.raises(OverflowEvent):
        sample(noninjective_map, (1e100, 0.0))


def test_domain_error_is_located():
    pmap = PlanarMap(f1=parse_expr("sqrt(x)"), f2=parse_expr("y"))
    with pytest.raises(DomainError) as exc:
        sample(pmap, (-1.0, 0.0))
    assert "sqrt" in str(exc.value)


# ---- linearization ----

def test_linearization_identity(identity_map):
    lin = linearization_at(identity_map, (0.0, 0.0))
    assert lin.matrix == ((0.0, -1.0), (1.0, 0.0))
    assert lin.trace == 0.0
    assert lin.eigenvalues == (1j, -1j)


def test_linearization_example1(example1):
    lin = linearization_at(example1, (0.0, 0.0))
    assert lin.matrix == ((0.0, -1.0), (1.0, 0.0))
    assert lin.eigenvalues == (1j, -1j)


def test_linearization_scaled(scaled_map):
    lin = linearization_at(scaled_map, (0.0, 0.0))
    assert lin.matrix == ((0.0, -1.0), (4.0, 0.0))
    assert lin.eigenvalues == (2j, -2j)


def test_linearization_det_is_detdf_squared(example1, example2, example3, identity_map):
    for pmap, z in [(example1, (0.0, 0.0)), (example2, (0.0, 0.0)),
                    (example3, (0.0, 0.0)), (example3, (0.0, 2 * math.pi)),
                    (identity_map, (0.0, 0.0))]:
        lin = linearization_at(pmap, z)
        det_df = sample(pmap, z).det
        assert lin.trace == 0.0
        assert abs(lin.det - det_df ** 2) <= 1e-9 * (1 + det_df ** 2)
        l1, l2 = lin.eigenvalues
        assert abs(l1 + l2) <= 1e-9
        assert abs(l1.real) <= 1e-9 and abs(l2.real) <= 1e-9
        assert abs(abs(l1.imag) - abs(det_df)) <= 1e-9 * (1 + abs(det_df))


def test_linearization_rejects_nonzero(example1):
    with pytest.raises(ValueError, match="not a zero"):
        linearization_at(example1, (1.0, 1.0))


def test_linearization_rejects_degenerate():
    pmap = PlanarMap(f1=parse_expr("x^2"), f2=parse_expr("y"))
    with pytest.raises(ValueError, match="degenerate"):
        linearization_at(pmap, (0.0, 0.0))


# ---- declared Hamiltonian ----

def test_validate_example2_hamiltonian(example2):
    result = validate_hamiltonian(example2)
    assert result.ok
    assert result.n_skipped == 0
    assert result.worst_residual <= 1e-10


def test_validate_identity_correct_declaration():
    declared = to_poly(parse_expr("0.5*x^2 + 0.5*y^2"))
    pmap = PlanarMap(f1=parse_expr("x"), f2=parse_expr("y"),
                     declared_hamiltonian=declared)
    assert validate_hamiltonian(pmap).ok


def test_validate_mismatch_reports_worst_point():
    declared = to_poly(parse_expr("x^2 + y^2"))  # off by the half
    pmap = PlanarMap(f1=parse_expr("x"), f2=parse_expr("y"),
                     declared_hamiltonian=declared)
    result = validate_hamiltonian(pmap)
    assert not result.ok
    assert result.worst_residual > 0.1
    x, y = result.worst_point
    assert math.isfinite(x) and math.isfinite(y)


def test_validate_inconclusive_when_domain_mostly_bad():
    declared = to_poly(parse_expr("0.5*x^2"))
    pmap = PlanarMap(f1=parse_expr("sqrt(x - 10)"), f2=parse_expr("y"),
                     declared_hamiltonian=declared)
    with pytest.raises(ValidationInconclusive):
        validate_hamiltonian(pmap)


def test_validate_on_a_domain_away_from_the_origin():
    # box(10, 20, 10, 20) misses [-3, 3]^2, so the grid covers the domain
    declared = to_poly(parse_expr("0.5*(x - 15)^2 + 0.5*(y - 15)^2"))
    pmap = PlanarMap(f1=parse_expr("x - 15"), f2=parse_expr("y - 15"),
                     domain=Box(10.0, 20.0, 10.0, 20.0), declared_hamiltonian=declared)
    result = validate_hamiltonian(pmap)
    assert result.ok and result.n_skipped == 0
    assert 10.0 <= result.worst_point[0] <= 20.0


def _validate_by_sample(pmap):
    """The reference: validate_hamiltonian as the loop over sample() it
    was, skipping where sample raises (a magnitude past 1e150, or a nan
    anywhere in the jet)."""
    box = pmap.working_box()
    if box.xmin < 3.0 and box.xmax > -3.0 and box.ymin < 3.0 and box.ymax > -3.0:
        box = box.intersect(Box(-3.0, 3.0, -3.0, 3.0))
    h_at = compile_polys(pmap.declared_hamiltonian)
    worst_res = -1.0
    worst_pt = (math.nan, math.nan)
    skipped = checked = 0
    for i in range(VALIDATE_N):
        x = box.xmin + (box.xmax - box.xmin) * i / (VALIDATE_N - 1)
        for j in range(VALIDATE_N):
            y = box.ymin + (box.ymax - box.ymin) * j / (VALIDATE_N - 1)
            try:
                s = sample(pmap, (x, y))
            except (DomainError, OverflowEvent):
                skipped += 1
                continue
            checked += 1
            res = abs(h_at(x, y)[0] - s.hamiltonian) / (1.0 + abs(s.hamiltonian))
            if res > worst_res:
                worst_res = res
                worst_pt = (x, y)
    total = VALIDATE_N * VALIDATE_N
    if skipped > 0.2 * total:
        raise ValidationInconclusive(
            f"{skipped}/{total} grid points skipped on domain errors")
    return field_mod.HamiltonianValidation(worst_res <= 1e-8, worst_pt, worst_res,
                                           checked, skipped)


# the polynomial workload's strip-scaled map at seed 7, round 0
_STRIPSCALED_A = """
f1 = "0.94729*x/sqrt(1 + 0.8973583440999999*x^2)"
f2 = "(0.8973583440999999*x^2 + (1 + 0.8973583440999999*x^2)^2*1.00032*y)/sqrt(1 + 0.8973583440999999*x^2)"
hamiltonian = "0.5*(1 + 0.8973583440999999*x^2)^3*1.0006401024000002*y^2 + 0.8973583440999999*x^2*(1 + 0.8973583440999999*x^2)*1.00032*y + 0.5*0.8973583440999999*x^2"
"""


def _declaring(f1, f2, hamiltonian, domain=None):
    return PlanarMap(f1=parse_expr(f1), f2=parse_expr(f2), domain=domain,
                     declared_hamiltonian=to_poly(parse_expr(hamiltonian)))


def _edge_map():
    # sqrt fails on columns 0 and 1; exp(119*y) passes 1e150 on rows 48
    # and 49, and exp(240*y) raises on row 49; column 49 gives f1 = nan
    # (0 * inf) and rows 44 to 49 give f2 = nan, which sample skips too
    return _declaring("sqrt(x + 2.8) + exp(119*y) + 1e-300*exp(240*y)"
                      " + (y - y)*(exp(80*x)*exp(80*x)*exp(80*x))",
                      "x + y + (x - x)*(exp(100*y)*exp(100*y)*exp(100*y))",
                      "0.5*x^2 + 0.5*y^2")


_VALIDATION_MAPS = {
    "example2": lambda: corpus.builtin("example2"),
    "stripscaled_a": lambda: parse_map_spec(_STRIPSCALED_A, "stripscaled_a", "stripscaled_a"),
    "domain-failing and overflowing": _edge_map,
    "mismatch": lambda: _declaring("x", "y", "x^2 + y^2"),
    "inconclusive": lambda: _declaring("sqrt(x - 10)", "y", "0.5*x^2"),
    "far box": lambda: _declaring("x - 15", "y - 15", "0.5*(x - 15)^2 + 0.5*(y - 15)^2",
                                  Box(10.0, 20.0, 10.0, 20.0)),
    "H overflows": lambda: _declaring("x", "y", "0.5*x^4", Box(1e100, 2e100, 0.0, 1.0)),
}


@pytest.mark.parametrize("name", list(_VALIDATION_MAPS))
def test_validate_equals_the_loop_over_sample(name):
    pmap = _VALIDATION_MAPS[name]()
    try:
        want = _validate_by_sample(pmap)
    except (ValidationInconclusive, OverflowError) as exc:
        with pytest.raises(type(exc)):
            validate_hamiltonian(pmap)
        return
    assert validate_hamiltonian(pmap) == want


def test_validate_skips_where_sample_raises():
    result = validate_hamiltonian(_edge_map())
    # columns 0, 1 and 49 and rows 44 to 49, each point once
    assert result.n_skipped == 3 * 50 + 6 * 47
    assert result.n_checked == VALIDATE_N * VALIDATE_N - result.n_skipped
    assert not result.ok and math.isfinite(result.worst_residual)


def test_sample_rejects_a_nan_past_the_first_jet_value():
    # f2 = y + 0 * inf is nan while |f1| is finite
    pmap = PlanarMap(f1=parse_expr("x"), f2=parse_expr("y + (x - x)*(y*1e200*1e200)"))
    with pytest.raises(OverflowEvent):
        sample(pmap, (1.0, 2.0))


def test_declared_hamiltonian_not_validated_over_nans():
    spec = ('f1 = "x"\nf2 = "y + (x - x)*(y*1e200*1e200)"\n'
            'hamiltonian = "7*x^4 + 3"\n')
    with pytest.raises(MapSpecError, match="2500/2500"):
        parse_map_spec(spec, "nan map", "nan_map")


def test_effective_hamiltonian_poly(example1, example2, identity_map):
    assert effective_hamiltonian_poly(example2) == example2.declared_hamiltonian
    assert effective_hamiltonian_poly(example1) is None
    p = effective_hamiltonian_poly(identity_map)
    assert p == to_poly(parse_expr("0.5*x^2 + 0.5*y^2"))


# ---- Jacobian hypothesis check ----

def test_jacobian_sign_change_witnesses(noninjective_map, example1, identity_map):
    proof = jacobian_sign_change(noninjective_map, Box(-2, 2, -2, 2))
    assert proof.sign == 0
    pos, neg = proof.flip
    assert sample(noninjective_map, pos).det > 0 > sample(noninjective_map, neg).det
    assert jacobian_sign_change(example1, Box(-2, 2, -2, 2)).flip is None
    assert jacobian_sign_change(identity_map).flip is None


def test_jacobian_sign_change_finds_the_sign_change_of_an_even_map(noninjective_map):
    # f = (x^2, y): det Df = 2x, on the working box and on a small one
    for box in (None, Box(-2, 2, -2, 2)):
        proof = jacobian_sign_change(noninjective_map, box)
        assert proof.sign == 0
        pos, neg = proof.flip
        assert pos[0] > 0 > neg[0]
        assert sample(noninjective_map, pos).det > 0 > sample(noninjective_map, neg).det


@pytest.mark.parametrize("name", ["example1", "example3", "identity_map"])
def test_jacobian_sign_change_proves_a_positive_sign(name, request):
    pmap = request.getfixturevalue(name)
    proof = jacobian_sign_change(pmap)
    assert (proof.sign, proof.flip, proof.box) == (1, None, pmap.working_box())
    # once per map and box; the default box is the working box
    assert proof is jacobian_sign_change(pmap, pmap.working_box())
    small = jacobian_sign_change(pmap, Box(-2, 2, -2, 2))
    assert (small.sign, small.flip, small.box) == (1, None, Box(-2, 2, -2, 2))


def test_jacobian_sign_change_witnesses_a_narrow_strip():
    # det Df = x^2 - 0.01 is negative only on the strip |x| < 0.1
    pmap = PlanarMap(f1=parse_expr("x^3/3 - 0.01*x"), f2=parse_expr("y"))
    pos, neg = jacobian_sign_change(pmap).flip
    assert abs(neg[0]) < 0.1
    assert sample(pmap, pos).det > 0 > sample(pmap, neg).det


def test_jacobian_sign_change_gives_up_at_the_cap(example2):
    # det Df = 1, but the enclosures of its two terms overlap too widely;
    # the centres of the undecided boxes are all sampled positive
    proof = jacobian_sign_change(example2)
    assert (proof.sign, proof.flip) == (0, None)
    assert SIGN_PROOF_MAX_BOXES < proof.boxes <= 2 * SIGN_PROOF_MAX_BOXES


def test_jacobian_sign_change_samples_the_undecided_boxes(monkeypatch):
    # det Df = cos x: its enclosure holds 0 on each of the first split's
    # 5-wide boxes, which are not split further here, so the sign change
    # shows only at their centres
    monkeypatch.setattr(field_mod, "SIGN_PROOF_HALVINGS", 0)
    pmap = PlanarMap(f1=parse_expr("sin(x)"), f2=parse_expr("y"))
    proof = jacobian_sign_change(pmap)
    assert (proof.sign, proof.boxes) == (0, 64)
    pos, neg = proof.flip
    assert sample(pmap, pos).det > 0 > sample(pmap, neg).det


def test_sampled_witnesses_are_the_first_defined_centre_of_each_sign(monkeypatch):
    # the 64 boxes of sin(x) stay undecided; a stand-in array jet gives
    # det Df = dx1 at their centres: the point it raises at and the nan
    # and 0 carry no sign, so the witnesses are centres 4 and 5
    monkeypatch.setattr(field_mod, "SIGN_PROOF_HALVINGS", 0)
    pmap = PlanarMap(f1=parse_expr("sin(x)"), f2=parse_expr("y"))
    dets = np.array([-3.0, math.nan, 0.0, 2.0, 7.0, -1.0, 5.0, -6.0] * 8)
    centres = []

    def array_jet(xs, ys):
        centres.extend(zip(xs.tolist(), ys.tolist()))
        zero, one = np.zeros(len(xs)), np.ones(len(xs))
        raised = np.arange(len(xs)) % 8 == 0
        raised[3] = True
        return (zero, dets[:len(xs)], zero, zero, zero, one), raised

    pmap.__dict__["array_jet"] = array_jet
    proof = jacobian_sign_change(pmap)
    assert len(centres) == 64
    assert (proof.sign, proof.flip) == (0, (centres[4], centres[5]))
    assert all(type(v) is float for v in proof.flip[0] + proof.flip[1])


def test_jacobian_sign_change_undecided_where_f_is_undefined():
    # no sign is proved on a box that reaches x < -5, where f is
    # undefined, and the centres sampled where it is defined are positive
    proof = jacobian_sign_change(PlanarMap(f1=parse_expr("sqrt(x + 5) - 2"),
                                           f2=parse_expr("y")))
    assert (proof.sign, proof.flip) == (0, None)


# ---- boxes ----

def test_box_basics():
    b = Box(-1, 2, -3, 4)
    assert b.contains((0, 0)) and not b.contains((3, 0))
    assert b.exit_side((3, 0)) == "xmax"
    assert b.exit_side((0, -5)) == "ymin"
    assert b.exit_side((0, 0)) is None
    assert b.diameter() == math.hypot(3, 7)
    with pytest.raises(ValueError):
        Box(1, 1, 0, 2)


@pytest.mark.parametrize("corners", [
    (-math.inf, math.inf, -1, 1), (-1, 1, 0, math.inf), (math.nan, 1, 0, 1),
    (-1e308, 1e308, -1, 1),          # finite corners, infinite width
])
def test_box_must_be_finite(corners):
    with pytest.raises(ValueError):
        Box(*corners)


def test_plane_box_window(example1):
    assert example1.is_plane_domain()
    assert example1.working_box() == PLANE_BOX


# ---- map-spec files ----

def test_load_map_spec_round_trip(tmp_path):
    spec = tmp_path / "m.map"
    spec.write_text(
        '# demo map\n'
        'name = "demo"\n'
        'f1 = "exp(x) - 1"\n'
        'f2 = "y"\n'
        'domain = "box(-4, 4, -4, 4)"\n'
    )
    pmap = load_map_spec(spec)
    assert pmap.name == "demo"
    assert pmap.domain == Box(-4, 4, -4, 4)
    assert sample(pmap, (0.0, 0.0)).f_value == (0.0, 0.0)


def test_load_map_spec_defaults(tmp_path):
    spec = tmp_path / "plain.map"
    spec.write_text('f1 = "x"\nf2 = "y"\n')
    pmap = load_map_spec(spec)
    assert pmap.name == "plain"
    assert pmap.domain is None


def test_load_map_spec_with_hamiltonian(tmp_path):
    spec = tmp_path / "m.map"
    spec.write_text(
        'f1 = "x"\nf2 = "y"\n'
        'hamiltonian = "0.5*x^2 + 0.5*y^2"\n'
    )
    pmap = load_map_spec(spec)
    assert pmap.declared_hamiltonian is not None
    assert pmap.declared_hamiltonian.degree() == 2


@pytest.mark.parametrize("content, fragment", [
    ('f2 = "y"\n', "missing required key 'f1'"),
    ('f1 = "x"\nf2 = "y"\nwhat = "z"\n', "unknown key"),
    ('f1 = "x"\nf2 = "y"\nf1 = "x"\n', "duplicate"),
    ('f1 = "x"\nf2 = "y"\ndomain = "disc"\n', "domain must be"),
    ('f1 = "x"\nf2 = "y"\nhamiltonian = "exp(x)"\n', "not a polynomial"),
    ('f1 = "x"\nf2 = "y"\nhamiltonian = "x^2 + y^2"\n', "mismatch"),
    ('f1 = x\n', "expected key"),
])
def test_load_map_spec_errors(tmp_path, content, fragment):
    spec = tmp_path / "bad.map"
    spec.write_text(content)
    with pytest.raises(MapSpecError, match=fragment):
        load_map_spec(spec)


def test_corpus_maps_validate(example2):
    # the shipped declared Hamiltonian must satisfy the map invariant
    assert validate_hamiltonian(example2).ok
