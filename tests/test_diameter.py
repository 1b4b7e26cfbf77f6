"""Diameter bounds: formula arithmetic, index form, end-to-end closed spaces."""

import math

import numpy as np
import pytest

from conftest import random_perturbed_suite
from smmskit import diameter
from smmskit.diameter import (actual_diameter, check_myers, index_form_total,
                              myers_bound_bounded_f, myers_bound_gradient,
                              myers_bound_indexform)
from smmskit.smms import make_space
from test_comparison import sphere_with_potential


class TestBoundFormulas:
    def test_bounded_f_arithmetic(self):
        assert myers_bound_bounded_f(3, 1.0, 0.0, 0.0) == pytest.approx(math.pi, abs=0)
        assert myers_bound_bounded_f(3, 1.0, 1.0, 0.0) == pytest.approx(math.pi + 2.0, abs=1e-14)
        assert myers_bound_bounded_f(3, 1.0, 0.0, 1.0) == pytest.approx(math.pi + 1.0, abs=1e-14)

    def test_bounded_f_at_H4(self):
        # pi/sqrt(H) + (4 k sqrt(H) + 2 l)/((n-1) H): at H = 4 the k term
        # is 4k sqrt(H) = 8k, not 4kH = 16k.
        k, l = 0.1, 0.3
        want = math.pi / 2.0 + (8.0 * k + 2.0 * l) / (2.0 * 4.0)
        assert myers_bound_bounded_f(3, 4.0, k, l) == pytest.approx(want, rel=1e-14)

    def test_gradient_arithmetic(self):
        assert myers_bound_gradient(3, 1.0, 0.0, 0.0) == pytest.approx(math.pi, abs=0)
        assert myers_bound_gradient(3, 1.0, 1.0, 0.0) == pytest.approx(math.pi + 1.0, abs=1e-14)
        assert myers_bound_gradient(5, 4.0, 2.0, 2.0) == pytest.approx(
            math.pi / 2 + 0.5, abs=1e-14)

    def test_indexform_arithmetic(self):
        assert myers_bound_indexform(3, 1.0, 0.0, 0.0) == pytest.approx(2 * math.pi, abs=0)
        # inner radicand 1 + 8(pi/4)/(2 pi) = 2
        assert myers_bound_indexform(3, 1.0, math.pi / 4, 0.0) == pytest.approx(
            2 * math.pi * math.sqrt(2.0), rel=1e-14)
        # l = 2 pi makes l^2/((n-1)^2 H pi^2) = 1 and 2l/((n-1)H) = 2 pi
        assert myers_bound_indexform(3, 1.0, 0.0, 2 * math.pi) == pytest.approx(
            2 * math.pi * math.sqrt(2.0) + 2 * math.pi, rel=1e-14)

    def test_requires_positive_curvature(self):
        for fn in (myers_bound_bounded_f, myers_bound_gradient,
                   myers_bound_indexform):
            with pytest.raises(ValueError):
                fn(3, 0.0, 0.0, 0.0)

    def test_monotone_in_hypothesis_constants(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            H = float(rng.uniform(0.2, 4.0))
            k, a, l = rng.uniform(0.0, 2.0, size=3)
            dk, da, dl = rng.uniform(0.0, 1.0, size=3)
            assert myers_bound_bounded_f(n, H, k + dk, l) >= myers_bound_bounded_f(n, H, k, l)
            assert myers_bound_bounded_f(n, H, k, l + dl) >= myers_bound_bounded_f(n, H, k, l)
            assert myers_bound_gradient(n, H, a + da, l) >= myers_bound_gradient(n, H, a, l)
            assert myers_bound_gradient(n, H, a, l + dl) >= myers_bound_gradient(n, H, a, l)
            assert myers_bound_indexform(n, H, k + dk, l) >= myers_bound_indexform(n, H, k, l)
            assert myers_bound_indexform(n, H, k, l + dl) >= myers_bound_indexform(n, H, k, l)

    def test_limit_recovers_classical(self):
        for H in (0.5, 1.0, 4.0):
            assert myers_bound_bounded_f(4, H, 0.0, 0.0) == math.pi / math.sqrt(H)
            assert myers_bound_gradient(4, H, 0.0, 0.0) == math.pi / math.sqrt(H)


class TestActualDiameter:
    def test_round_spheres(self):
        assert actual_diameter(make_space("sphere", n=3, H=1.0)) == math.pi
        assert actual_diameter(make_space("sphere", n=3, H=4.0)) == math.pi / 2

    def test_perturbed_sphere_no_caveat(self):
        s = make_space("perturbed_sphere", n=3, H=1.0, eps=0.05, omega=3.0)
        assert actual_diameter(s) == math.pi
        rep = check_myers(s, 1.0)
        assert not rep.chord_caveat

    def test_open_space_rejected(self):
        with pytest.raises(ValueError):
            actual_diameter(make_space("euclidean", n=3))


class TestIndexForm:
    def test_sphere_borderline_vanishes(self):
        s = make_space("sphere", n=3, H=1.0)
        assert abs(index_form_total(s, math.pi)) < 1e-8

    def test_flat_hand_integral(self):
        # 2 int_0^2 (pi/2)^2 cos^2(pi t/2) dt = pi^2/2.
        s = make_space("euclidean", n=3)
        assert abs(index_form_total(s, 2.0) - math.pi ** 2 / 2) < 1e-9

    def test_sphere_half_length_hand_integral(self):
        # phi = sin(2t): 2 int 4 cos^2(2t) - 2 sin^2(2t) dt = 2pi - pi/2.
        s = make_space("sphere", n=3, H=1.0)
        want = 3 * math.pi / 2
        assert abs(index_form_total(s, math.pi / 2) - want) < 1e-9

    def test_nonnegative_up_to_diameter(self):
        spaces = [make_space("sphere", n=3, H=1.0),
                  make_space("sphere", n=4, H=2.0),
                  make_space("perturbed_sphere", n=3, H=1.0, eps=0.08, omega=2.0)]
        for s in spaces:
            for L in np.linspace(0.2 * s.r_max, s.r_max, 7):
                assert index_form_total(s, L) >= -1e-8

    def test_domain_validation(self):
        s = make_space("sphere", n=3, H=1.0)
        with pytest.raises(ValueError):
            index_form_total(s, 2 * math.pi)


class TestCheckMyers:
    def test_round_sphere_is_sharp(self):
        rep = check_myers(make_space("sphere", n=3, H=1.0), 1.0)
        assert rep.passed
        assert abs(rep.bounds["MYERS_F"] - math.pi) < 1e-12
        assert abs(rep.bounds["MYERS_GRAD"] - math.pi) < 1e-12
        assert abs(rep.bounds["MYERS_INDEX"] - 2 * math.pi) < 1e-12
        assert rep.actual_diameter == math.pi
        assert rep.verification_scope == "pole+antipode"

    def test_sphere_with_potential(self):
        s = sphere_with_potential(amp=0.1)
        rep = check_myers(s, 1.0)
        assert rep.passed
        assert abs(rep.params["k"] - 0.1) < 1e-9
        # rho = [0.1 cos r]_+ integrates to 0.1 over the hemisphere
        assert abs(rep.params["l"] - 0.1) < 1e-8
        assert all(b > math.pi for b in rep.bounds.values())

    def test_perturbed_closed_spaces(self):
        for s, H in random_perturbed_suite(10, seed=4):
            if not s.closed:
                continue
            rep = check_myers(s, H)
            assert rep.passed
            assert rep.actual_diameter <= min(rep.bounds.values()) + 1e-9

    def test_requires_closed_and_positive_H(self):
        with pytest.raises(ValueError):
            check_myers(make_space("euclidean", n=3), 1.0)
        with pytest.raises(ValueError):
            check_myers(make_space("sphere", n=3, H=1.0), -1.0)

    def test_report_dict(self):
        rep = check_myers(make_space("sphere", n=3, H=1.0), 1.0)
        d = rep.to_dict()
        assert d["theorem_id"] == "MYERS"
        assert d["verdict"] == "PASS"
        assert set(d["bounds"]) == {"MYERS_F", "MYERS_GRAD", "MYERS_INDEX"}

    def test_states_its_slack_and_the_bounds_exceeded(self, monkeypatch):
        d = check_myers(make_space("sphere", n=3, H=1.0), 1.0).to_dict()
        assert d["verdict"] == "PASS" and d["tolerance"] == 1e-9 and d["reason"] == ""
        # pi/sqrt(H) is sharp on the round sphere, so a diameter 1e-6
        # longer exceeds MYERS_F and MYERS_GRAD but not MYERS_INDEX.
        monkeypatch.setattr(diameter, "actual_diameter",
                            lambda s: s.r_max + 1e-6)
        d = check_myers(make_space("sphere", n=3, H=1.0), 1.0).to_dict()
        assert d["verdict"] == "FAIL" and d["pass"] is False
        assert "MYERS_F" in d["reason"] and "MYERS_GRAD" in d["reason"]
        assert "MYERS_INDEX" not in d["reason"]
