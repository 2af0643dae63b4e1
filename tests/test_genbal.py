"""Tests for the general balance-law boundary layer."""

import json

import numpy as np
import pytest

from rollgap import genbal as gb
from rollgap import matgap as mg
from rollgap import rollwave as rw
from rollgap.errors import InvalidInputError, RegularityThresholdError


@pytest.fixture(scope="module")
def sv_data():
    p = rw.build_profile(3.0, n_grid=400)
    cd = rw.characteristics(p)
    rep = rw.stability_index(p, cd)
    return gb.from_sv_profile(p, cd), rep


def make_data(rng, n, m):
    k = n - 1
    tau = np.empty(k)
    tau[:m] = rng.uniform(0.5, 2.0, m)
    tau[m:] = -rng.uniform(0.5, 2.0, k - m)
    return gb.GeneralModeData(
        n=n, m=m, tau=tau, g=rng.standard_normal(k),
        coupling=rng.standard_normal((k, k)) / np.sqrt(k),
        sonic_alpha_prime=0.5, sonic_gamma=0.1,
    )


# ---------------------------------------------------------------------------
# construction and I/O
# ---------------------------------------------------------------------------


def test_build_B_trivial_cases():
    rng = np.random.default_rng(0)
    d = make_data(rng, 4, 1)
    zero = gb.GeneralModeData(n=4, m=1, tau=d.tau, g=d.g,
                              coupling=np.zeros((3, 3)),
                              sonic_alpha_prime=0.5, sonic_gamma=0.1)
    assert np.all(gb.build_B(zero).B == 0.0)
    nog = gb.GeneralModeData(n=4, m=1, tau=d.tau, g=np.zeros(3),
                             coupling=d.coupling,
                             sonic_alpha_prime=0.5, sonic_gamma=0.1)
    assert np.allclose(gb.build_B(nog).B, d.coupling)


def test_build_B_group_exponents():
    rng = np.random.default_rng(1)
    d = make_data(rng, 4, 2)
    B = gb.build_B(d).B
    expected = np.diag(np.concatenate([np.exp(-d.g[:2]), np.exp(d.g[2:])])) @ d.coupling
    assert np.allclose(B, expected)


def test_sv_reduction_scalar_matches_index(sv_data):
    d, rep = sv_data
    B = gb.build_B(d)
    assert abs(abs(B.B[0, 0]) - rep.index) < 1e-8
    # the scalar spectral condition is exactly the index condition
    assert gb.hf_rat(B) == pytest.approx(rep.index, abs=1e-8)


def test_mode_data_validation():
    rng = np.random.default_rng(2)
    with pytest.raises(InvalidInputError):
        gb.GeneralModeData(n=4, m=5, tau=np.ones(3), g=np.zeros(3),
                           coupling=np.eye(3), sonic_alpha_prime=0.5,
                           sonic_gamma=0.0)
    with pytest.raises(InvalidInputError):
        # wrong transit sign in the positive-speed group
        gb.GeneralModeData(n=3, m=1, tau=np.array([-1.0, -1.0]), g=np.zeros(2),
                           coupling=np.eye(2), sonic_alpha_prime=0.5,
                           sonic_gamma=0.0)


def test_load_mode_data_roundtrip(tmp_path):
    doc = {
        "n": 3, "m": 1, "tau": [1.5, -0.7], "g": [0.2, -0.1],
        "C": [[0.3, 0.1], [0.0, 0.4]],
        "sonic": {"alpha_prime": 0.5, "gamma": 0.05},
    }
    path = tmp_path / "modes.json"
    path.write_text(json.dumps(doc))
    d = gb.load_mode_data(path)
    assert d.n == 3 and d.m == 1
    assert np.allclose(d.tau, [1.5, -0.7])
    d2 = gb.load_mode_data(doc)
    assert np.allclose(d2.coupling, d.coupling)
    with pytest.raises(InvalidInputError):
        gb.load_mode_data({"n": 3})


# ---------------------------------------------------------------------------
# spectral vs energetic conditions
# ---------------------------------------------------------------------------


def test_hf_conditions_examples():
    assert gb.hf_rat(0.5 * np.eye(3)) == pytest.approx(0.5, abs=1e-8)
    assert gb.hf_sat(np.diag([0.2, -0.4, 0.3])) == pytest.approx(0.4, abs=1e-8)


def test_sat_dominates_rat():
    rng = np.random.default_rng(3)
    for _ in range(10):
        k = int(rng.integers(2, 6))
        B = rng.standard_normal((k, k)) / np.sqrt(k)
        assert gb.hf_sat(B) - gb.hf_rat(B) >= -1e-8


def test_real_small_sizes_no_gap():
    rng = np.random.default_rng(4)
    for _ in range(6):
        k = int(rng.integers(2, 6))
        B = rng.standard_normal((k, k)) / np.sqrt(k)
        sat = gb.hf_sat(B)
        rat = gb.hf_rat(B)
        assert abs(sat - rat) / sat < 1e-3


def test_c4_scaled_consistency_with_matgap():
    B, _, _ = mg.counterexample_c4()
    scaled = 0.9 * B.entries
    assert gb.hf_rat(scaled) == pytest.approx(0.9 * mg.max_phase_rho(B)[0], abs=1e-6)
    assert gb.hf_sat(scaled) == pytest.approx(0.9, abs=1e-6)


def test_hf_rat_equals_gap_max_rho():
    # hf_rat bounds the phase search by min_scaled_norm itself, as gap does
    rng = np.random.default_rng(8)
    mats = [mg.counterexample_c4()[0].entries]
    mats += [rng.standard_normal((k, k)) / np.sqrt(k) for k in (2, 3, 4)]
    mats += [(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / np.sqrt(6)]
    for B in mats:
        assert gb.hf_rat(B) == mg.gap(B).max_rho


# ---------------------------------------------------------------------------
# frequency sampling
# ---------------------------------------------------------------------------


def test_sample_ulem_stable_case(sv_data):
    d, _ = sv_data
    out = gb.sample_ulem(d, zeta_count=200, xi_count=32, seed=0)
    assert out["spectral_condition_holds"]
    assert out["min_det"] > 0.5 * (1.0 - out["max_rho_over_grid"])
    assert out["assumes_rational_independence"]


def test_sample_ulem_unstable_case(sv_data):
    d, _ = sv_data
    bad = gb.GeneralModeData(
        n=2, m=0, tau=d.tau, g=d.g,
        coupling=d.coupling * (1.3 / abs(gb.build_B(d).B[0, 0])),
        sonic_alpha_prime=d.sonic_alpha_prime, sonic_gamma=d.sonic_gamma,
    )
    out = gb.sample_ulem(bad, zeta_count=400, xi_count=64, seed=0)
    assert not out["spectral_condition_holds"]
    assert out["min_det"] < 0.1


def test_sample_ulem_deterministic(sv_data):
    d, _ = sv_data
    a = gb.sample_ulem(d, zeta_count=50, xi_count=16, seed=5)
    b = gb.sample_ulem(d, zeta_count=50, xi_count=16, seed=5)
    assert a == b


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def test_general_weights_boundary_form_equivalence():
    rng = np.random.default_rng(5)
    for _ in range(25):
        k = int(rng.integers(1, 5))
        d = make_data(rng, k + 1, int(rng.integers(0, k + 1)))
        S = mg.DiagonalScaling.from_s(np.exp(rng.uniform(-1, 1, k)))
        gw = gb.general_weights(d, S, 1)
        assert (gw.boundary_form_min_eig > 0) == (gw.scaled_norm < 1.0)


def test_general_weights_from_argmin_scaling():
    rng = np.random.default_rng(6)
    d = make_data(rng, 4, 1)
    Bmat = gb.build_B(d).B
    val, S, _, _ = mg.min_scaled_norm(Bmat)
    if val < 1.0:
        gw = gb.general_weights(d, S, 1)
        assert gw.boundary_dissipative


def test_general_weights_sv_reduction_matches_transverse_weight(sv_data):
    # at k = 1 and sigma = 1 the descriptor reproduces the zero-epsilon
    # transverse weight |alpha_1| exp(int 2 gamma_1/alpha_1)
    d, _ = sv_data
    gw = gb.general_weights(d, mg.DiagonalScaling.identity(1), 1)
    w = gw.weights[0]
    assert w.power == 1
    assert w.sigma == pytest.approx(1.0)

    p = rw.build_profile(3.0, n_grid=400)
    cd = rw.characteristics(p)
    eps = 1e-9
    dw = rw.damping_weights(p, cd, eps, 1.0)
    f = cd.fields
    xs = np.linspace(0.1 * p.X, 0.9 * p.X, 5)
    from rollgap.rollwave import _cumulative_gauss

    expo = _cumulative_gauss(lambda x: 2.0 * f.gamma1(x) / f.alpha1(x), xs)
    recipe = w.sigma * np.abs(f.alpha1(xs)) ** w.power * np.exp(expo)
    assert np.allclose(dw.omega1_at(xs), recipe, rtol=1e-5)


def test_general_weights_threshold_guard():
    rng = np.random.default_rng(7)
    d = make_data(rng, 3, 1)
    # threshold is 1/2 - 0.1/0.5 = 0.3, so k = 0 must be rejected
    with pytest.raises(RegularityThresholdError):
        gb.general_weights(d, mg.DiagonalScaling.identity(2), 0)
    gb.general_weights(d, mg.DiagonalScaling.identity(2), 1)
