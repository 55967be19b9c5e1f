"""Growth-case, band, behavior, and dominance classification."""

from __future__ import annotations

import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wellbeing_dynamics import (
    Band,
    Behavior,
    Dominance,
    DomainError,
    GrowthCase,
    ScenarioParams,
    classify,
    exponent_g,
    exponent_g_star,
    growth_case,
    low_band_feasibility,
    ratio_analysis,
    verify_nhat_bracketing,
    wellbeing_ratio,
)
from wellbeing_dynamics import errors, regime
from wellbeing_dynamics.regime import coefficient_labels, regime_labels
from conftest import draw_case_params, draw_params, uniform

LOW = ScenarioParams(a=1.0, a_star=1.0, b=0.2, b_star=0.2, lam=0.1,
                     n=1.0, B0=1.0, B0_star=1.0, p0=1.0)
HIGH = ScenarioParams(a=1.0, a_star=1.0, b=0.05, b_star=0.05, lam=0.1,
                      n=1.5, B0=1.0, B0_star=1.0, p0=2.0)

# Expected (behavior_g, behavior_g_star) per band, one table per case.
TABLE_LOW = {
    Band.LOW: (Behavior.DIVERGES, Behavior.DECAYS),
    Band.MEDIUM: (Behavior.DECAYS, Behavior.DECAYS),
    Band.HIGH: (Behavior.DECAYS, Behavior.DIVERGES),
}
TABLE_HIGH = {
    Band.LOW: (Behavior.DIVERGES, Behavior.DECAYS),
    Band.MEDIUM: (Behavior.DIVERGES, Behavior.DIVERGES),
    Band.HIGH: (Behavior.DECAYS, Behavior.DIVERGES),
}


class TestGrowthCase:
    def test_low(self):
        # 0.01 < 0.04
        assert growth_case(LOW) is GrowthCase.LOW

    def test_high(self):
        # 0.01 > 0.0025
        assert growth_case(HIGH) is GrowthCase.HIGH

    def test_critical_exact(self):
        p = LOW._replace(lam=math.sqrt(LOW.b * LOW.b_star / (LOW.a * LOW.a_star)))
        assert growth_case(p) is GrowthCase.CRITICAL

    def test_critical_within_tolerance(self):
        lam = math.sqrt(0.2 * 0.2 / 1.0)
        p = LOW._replace(lam=lam * (1.0 + 1e-12))
        assert growth_case(p) is GrowthCase.CRITICAL
        assert growth_case(p, epsilon=1e-14) is not GrowthCase.CRITICAL

    def test_epsilon_validated(self):
        with pytest.raises(DomainError):
            growth_case(LOW, epsilon=0.0)
        with pytest.raises(DomainError):
            growth_case(LOW, epsilon=1.5)


class TestClassify:
    def test_low_growth_medium_band(self):
        r = classify(LOW)
        assert r.growth_case is GrowthCase.LOW
        assert r.boundary_g == pytest.approx(0.5, rel=1e-12)
        assert r.boundary_g_star == pytest.approx(2.0, rel=1e-12)
        assert r.band is Band.MEDIUM
        assert r.behavior_g is Behavior.DECAYS
        assert r.behavior_g_star is Behavior.DECAYS
        assert r.interval_j is None

    def test_low_growth_high_band(self):
        r = classify(LOW._replace(n=10.0))
        assert r.band is Band.HIGH
        assert r.behavior_g is Behavior.DECAYS
        assert r.behavior_g_star is Behavior.DIVERGES

    def test_low_growth_low_band(self):
        r = classify(LOW._replace(n=0.25))
        assert r.band is Band.LOW
        assert r.behavior_g is Behavior.DIVERGES
        assert r.behavior_g_star is Behavior.DECAYS

    def test_high_growth_medium_band(self):
        r = classify(HIGH)
        assert r.growth_case is GrowthCase.HIGH
        assert r.band is Band.MEDIUM
        assert r.behavior_g is Behavior.DIVERGES
        assert r.behavior_g_star is Behavior.DIVERGES
        assert r.n_hat == pytest.approx(1.0, rel=1e-12)
        assert r.dominance is Dominance.G_STAR
        left, right = r.interval_j
        assert left == pytest.approx(0.5, rel=1e-12)
        assert right == pytest.approx(2.0, rel=1e-12)

    def test_boundary_band_constant_level(self):
        # n exactly at a*lam/b: the plain group neither grows nor decays.
        r = classify(LOW._replace(n=0.5))
        assert r.band is Band.BOUNDARY
        assert r.behavior_g is Behavior.CONSTANT
        assert r.behavior_g_star is Behavior.DECAYS

    def test_starred_boundary_band(self):
        r = classify(LOW._replace(n=2.0))
        assert r.band is Band.BOUNDARY
        assert r.behavior_g_star is Behavior.CONSTANT

    def test_dominance_equal_at_root(self):
        r = classify(HIGH._replace(n=1.0))
        assert r.dominance is Dominance.EQUAL

    def test_dominance_plain_group_below_root(self):
        r = classify(HIGH._replace(n=0.7))
        assert r.dominance is Dominance.G

    def test_roles_reversed_flag(self):
        assert classify(HIGH._replace(n=0.7)).roles_reversed is True
        assert classify(HIGH).roles_reversed is False
        assert classify(HIGH._replace(n=1.0)).roles_reversed is False

    def test_crossover_time_value(self):
        p = HIGH._replace(B0=2.0, B0_star=1.0)
        r = classify(p)
        want = math.log(2.0) / (1.0 / 24.0)
        assert r.crossover_time == pytest.approx(want, rel=1e-12)
        t_cross = p.t0 + r.crossover_time
        assert wellbeing_ratio(p, t_cross) == pytest.approx(1.0, rel=1e-9)

    def test_crossover_none_when_levels_equal(self):
        assert classify(HIGH).crossover_time is None

    def test_crossover_none_when_rate_zero(self):
        p = LOW._replace(n=1.0, B0=2.0, B0_star=1.0)  # g == 0 exactly
        assert classify(p).crossover_time is None

    def test_classification_consistent_with_parts(self):
        rng = random.Random(77)
        for _ in range(200):
            p = draw_params(rng)
            r = classify(p)
            ra = ratio_analysis(p)
            assert r.n_hat == ra.n_hat
            assert r.growth_case is growth_case(p)
            assert (r.interval_j is not None) == (r.growth_case is GrowthCase.HIGH)

    def test_report_carries_ratio_analysis(self):
        # The first 2000 draws of acceptance criteria 2 (seeds 202, 203) and 3 (seed 303).
        for seed, draw in ((202, lambda rng: draw_case_params(rng, "low")),
                           (203, lambda rng: draw_case_params(rng, "high")),
                           (303, lambda rng: draw_params(rng, n=(0.05, 8.0)))):
            rng = random.Random(seed)
            for _ in range(2000):
                p = draw(rng)
                r, ra = classify(p), ratio_analysis(p)
                assert (r.g_rate, r.f_value) == (ra.g_rate, ra.f_value), p


class TestTableFidelity:
    @pytest.mark.parametrize("case,table", [("low", TABLE_LOW), ("high", TABLE_HIGH)])
    def test_all_bands_match_table(self, case, table):
        rng = random.Random(11 if case == "low" else 13)
        seen = set()
        for _ in range(300):
            p = draw_case_params(rng, case)
            r0 = classify(p)
            lo = min(r0.boundary_g, r0.boundary_g_star)
            hi = max(r0.boundary_g, r0.boundary_g_star)
            for n, band in ((0.5 * lo, Band.LOW),
                            (math.sqrt(lo * hi), Band.MEDIUM),
                            (2.0 * hi, Band.HIGH)):
                r = classify(p._replace(n=n))
                assert r.band is band
                assert (r.behavior_g, r.behavior_g_star) == table[band]
                seen.add(band)
        assert seen == {Band.LOW, Band.MEDIUM, Band.HIGH}

    def test_beyond_max_boundary_decays_while_starred_diverges(self):
        # For any scenario there is a finite n past which the poorer group
        # declines and the richer one still grows.
        rng = random.Random(17)
        for _ in range(300):
            p = draw_params(rng)
            r0 = classify(p)
            big = max(r0.boundary_g, r0.boundary_g_star) + 1.0
            r = classify(p._replace(n=big))
            assert r.band is Band.HIGH
            assert r.behavior_g is Behavior.DECAYS
            assert r.behavior_g_star is Behavior.DIVERGES
            assert exponent_g(p._replace(n=big)) < 0
            assert exponent_g_star(p._replace(n=big)) > 0


class TestIntervalJ:
    """classify's interval_j: the n where both groups' well-being grows."""

    def test_high_growth_interval(self):
        j = classify(HIGH).interval_j
        assert j is not None
        assert j[0] == pytest.approx(0.5, rel=1e-12)
        assert j[1] == pytest.approx(2.0, rel=1e-12)

    def test_low_growth_absent(self):
        assert classify(LOW).interval_j is None

    def test_critical_absent(self):
        p = LOW._replace(lam=math.sqrt(0.04))
        assert classify(p).interval_j is None

    def test_presence_iff_high_growth(self):
        rng = random.Random(19)
        for _ in range(500):
            p = draw_params(rng)
            j = classify(p).interval_j
            if growth_case(p) is GrowthCase.HIGH:
                assert j is not None and j[0] < j[1]
                # Midpoint of J: both groups grow without bound.
                mid = math.sqrt(j[0] * j[1])
                assert exponent_g(p._replace(n=mid)) > 0
                assert exponent_g_star(p._replace(n=mid)) > 0
            else:
                assert j is None

    def test_interval_monotone_in_coefficients(self):
        base = classify(HIGH).interval_j

        wider_lam = classify(HIGH._replace(lam=0.11)).interval_j
        assert wider_lam[0] < base[0] and wider_lam[1] > base[1]

        higher_a = classify(HIGH._replace(a=1.1)).interval_j
        assert higher_a[1] > base[1] and higher_a[0] == base[0]

        # Raising the loss coefficient b shrinks the interval from the right.
        higher_b = classify(HIGH._replace(b=0.06)).interval_j
        assert higher_b[1] < base[1] and higher_b[0] == base[0]

        higher_b_star = classify(HIGH._replace(b_star=0.06)).interval_j
        assert higher_b_star[0] > base[0] and higher_b_star[1] == base[1]

        higher_a_star = classify(HIGH._replace(a_star=1.1)).interval_j
        assert higher_a_star[0] < base[0] and higher_a_star[1] == base[1]


class TestLowBandFeasibility:
    def test_symmetric_coefficients_never_feasible(self):
        for lam in (0.01, 0.05, 0.1, 0.2, 1.0):
            p = LOW._replace(lam=lam, b=0.05, b_star=0.05)
            rec = low_band_feasibility(p)
            assert rec.feasible is False
            assert rec.low_band_upper <= 1.0

    def test_symmetric_draws_never_feasible(self):
        rng = random.Random(29)
        for _ in range(300):
            p = draw_params(rng)
            p = p._replace(a_star=p.a, b_star=p.b)
            assert low_band_feasibility(p).feasible is False

    def test_feasible_requires_asymmetry(self):
        p = ScenarioParams(a=10.0, a_star=0.1, b=0.05, b_star=0.5, lam=0.1,
                           n=0.5, B0=1.0, B0_star=1.0, p0=1.0)
        rec = low_band_feasibility(p)
        assert rec.feasible is True
        assert rec.own_margin == pytest.approx(20.0, rel=1e-12)
        assert rec.favored_margin == pytest.approx(0.02, rel=1e-12)
        assert rec.low_band_upper > 1.0
        # n below the upper bound really lands in a Low band where the
        # poorer group grows.
        assert classify(p).band is Band.LOW
        assert classify(p).behavior_g is Behavior.DIVERGES

    def test_exact_margin_is_infeasible(self):
        # a*lam == b makes the plain boundary exactly 1.
        p = ScenarioParams(a=1.0, a_star=1.0, b=0.1, b_star=0.3, lam=0.1,
                           n=0.5, B0=1.0, B0_star=1.0, p0=1.0)
        rec = low_band_feasibility(p)
        assert rec.own_margin == 1.0
        assert rec.feasible is False

    def test_feasible_iff_unit_gap_in_low_band(self):
        rng = random.Random(31)
        for _ in range(500):
            p = draw_params(rng)
            rec = low_band_feasibility(p)
            r = classify(p._replace(n=1.0))
            in_low_band = r.band is Band.LOW
            assert rec.feasible == in_low_band


class TestBracketing:
    def test_high_growth_example(self):
        p = ScenarioParams(a=2.0, a_star=1.0, b=0.1, b_star=0.2, lam=0.5,
                           n=1.0, B0=1.0, B0_star=1.0, p0=1.0)
        chk = verify_nhat_bracketing(p)
        assert chk.growth_case is GrowthCase.HIGH
        assert chk.lower == pytest.approx(0.4, rel=1e-12)
        assert chk.upper == pytest.approx(10.0, rel=1e-12)
        assert chk.n_hat == pytest.approx(5.372281323269014, rel=1e-9)
        assert chk.passed is True

    def test_low_growth_symmetric(self):
        chk = verify_nhat_bracketing(LOW)
        assert chk.growth_case is GrowthCase.LOW
        assert (chk.lower, chk.upper) == (pytest.approx(0.5), pytest.approx(2.0))
        assert chk.n_hat == pytest.approx(1.0, rel=1e-12)
        assert chk.passed is True

    def test_critical_rejected(self):
        p = LOW._replace(lam=math.sqrt(0.04))
        with pytest.raises(DomainError, match="Critical"):
            verify_nhat_bracketing(p)

    @pytest.mark.parametrize("case", ["low", "high"])
    def test_random_draws_always_pass(self, case):
        rng = random.Random(37 if case == "low" else 43)
        for _ in range(1000):
            chk = verify_nhat_bracketing(draw_case_params(rng, case))
            assert chk.passed is True
            assert chk.lower < chk.upper


class TestDominanceRatioConsistency:
    def test_dominance_predicts_ratio_side(self):
        rng = random.Random(47)
        checked = 0
        for _ in range(300):
            p = draw_params(rng)
            p = p._replace(B0=1.0, B0_star=1.0)
            r = classify(p)
            if r.dominance is Dominance.EQUAL:
                continue
            checked += 1
            for dt in (1.0, 10.0, 50.0):
                ratio = wellbeing_ratio(p, p.t0 + dt)
                if r.dominance is Dominance.G:
                    assert ratio > 1.0
                else:
                    assert ratio < 1.0
        assert checked > 250


coefficient = st.floats(min_value=1e-3, max_value=1e3)
# Relative tolerances from 1e-12 to about 0.1, spread over the decades.
tolerance = st.builds(lambda m, k: m * 10.0**k, st.floats(1.0, 9.9), st.integers(-12, -2))


@st.composite
def labelled_params(draw):
    """A valid scenario whose n sits anywhere, or within a few tolerances
    of a boundary or of n_hat, where the tolerance comparisons flip."""
    p = draw(st.builds(ScenarioParams, a=coefficient, a_star=coefficient,
                       b=coefficient, b_star=coefficient, lam=coefficient,
                       n=coefficient, B0=coefficient, B0_star=coefficient,
                       p0=coefficient, t0=st.floats(-100.0, 100.0)))
    epsilon = draw(tolerance)
    anchor = draw(st.sampled_from(["free", "boundary_g", "boundary_g_star", "n_hat"]))
    if anchor != "free":
        centre = {"boundary_g": p.a * p.lam / p.b,
                  "boundary_g_star": p.b_star / (p.a_star * p.lam),
                  "n_hat": ratio_analysis(p).n_hat}[anchor]
        p = p._replace(n=centre * (1.0 + draw(st.floats(-3.0, 3.0)) * epsilon))
    return p, epsilon


class TestRegimeLabels:
    @given(labelled_params())
    @settings(max_examples=300)
    def test_labels_are_classify_fields(self, drawn):
        p, epsilon = drawn
        r = classify(p, epsilon)
        assert regime_labels(p, epsilon) == (
            r.growth_case, r.boundary_g, r.boundary_g_star,
            r.band, r.behavior_g, r.behavior_g_star,
        )
        # Sweep rows print these exponents and classify core's: the same bits.
        exponents = coefficient_labels(p.a, p.a_star, p.b, p.b_star, p.lam, p.n, epsilon)[6:]
        assert [x.hex() for x in exponents] == [exponent_g(p).hex(), exponent_g_star(p).hex()]

    @given(labelled_params(), st.floats(0.0, 4.0) | st.just(1.0), st.integers(-4, 4))
    @settings(max_examples=300)
    def test_high_band_always_decays(self, drawn, k, ulps):
        # The paper's theorem: n above both boundaries means G's well-being decays. n sits
        # k tolerances past the larger boundary, then ulps floats either way: k = 1 puts it
        # on the edge of the Boundary band, where two roundings of one comparison can part.
        p, epsilon = drawn
        n = max(p.a * p.lam / p.b, p.b_star / (p.a_star * p.lam)) * (1.0 + k * epsilon)
        for _ in range(abs(ulps)):
            n = math.nextafter(n, math.copysign(math.inf, ulps))
        r = classify(p._replace(n=n), epsilon)
        assert r.band is not Band.HIGH or r.behavior_g is Behavior.DECAYS

    def test_crossover_time_when_level_ratio_underflows(self):
        g = ratio_analysis(HIGH).g_rate
        for B0, B0_star in ((1e-200, 1e200), (1e200, 1e-200)):
            r = classify(HIGH._replace(B0=B0, B0_star=B0_star))
            want = (math.log(B0) - math.log(B0_star)) / -g
            assert r.crossover_time == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("fields,product", [
        ({"a": 1e-200, "a_star": 1e-200}, "a * a_star"),
        ({"a_star": 1e-200, "lam": 1e-200}, "a_star * lam"),
    ])
    def test_underflowed_product_named(self, fields, product):
        p = HIGH._replace(**fields)
        calls = [classify, low_band_feasibility, verify_nhat_bracketing]
        if product == "a * a_star":  # growth_case forms no boundary
            calls.append(growth_case)
        for call in calls:
            with pytest.raises(DomainError, match=rf"^{re.escape(product)} = .* underflows to 0"):
                call(p)


PUBLIC = (classify, growth_case, low_band_feasibility, verify_nhat_bracketing)


class TestEpsilonCheckedOnce:
    @pytest.mark.parametrize("call", PUBLIC, ids=lambda f: f.__name__)
    def test_one_check_per_call(self, call, monkeypatch):
        # A deterministic work counter: checks of the name "epsilon".
        names = []

        def counting(value, name, *args, **kwargs):
            names.append(name)
            return errors.checked(value, name, *args, **kwargs)

        monkeypatch.setattr(regime, "checked", counting)
        call(HIGH, 1e-6)
        assert names.count("epsilon") == 1

    @pytest.mark.parametrize("call", PUBLIC, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("epsilon,message", [
        (0.0, "epsilon must be > 0, got 0.0"),
        (1.0, "epsilon must be < 1, got 1.0"),
        (math.nan, "epsilon must be finite, got nan"),
        (math.inf, "epsilon must be finite, got inf"),
        (1e-16, "epsilon must be >= 1e-15, got 1e-16"),
    ])
    def test_rejected_with_message(self, call, epsilon, message):
        with pytest.raises(DomainError) as exc:
            call(HIGH, epsilon)
        assert str(exc.value) == message

    @pytest.mark.parametrize("call", PUBLIC, ids=lambda f: f.__name__)
    def test_floor_is_inclusive(self, call):
        # 1e-15 itself is a valid tolerance; only values below it are refused.
        assert call(HIGH, 1e-15) == call(HIGH, 1e-9)


#: Four units in the last place: the bound of a float that two routes round differently.
ULPS4 = 4 * 2.0**-52


class TestToleranceFloor:
    @given(a=coefficient, a_star=coefficient, b=coefficient, b_star=coefficient,
           ulps=st.integers(-16, 16), epsilon=st.just(1e-15) | st.floats(1e-15, 4e-15))
    @settings(max_examples=200)
    def test_case_agrees_with_boundary_order(self, a, a_star, b, b_star, ulps, epsilon):
        # lam within 16 ulp of the critical rate. Below the floor of 1e-15, lam**2 against
        # b*b_star/(a*a_star) could call a case whose boundary floats order the other way.
        lam = math.sqrt(b * b_star / (a * a_star))
        for _ in range(abs(ulps)):
            lam = math.nextafter(lam, math.copysign(math.inf, ulps))
        r = classify(ScenarioParams(a=a, a_star=a_star, b=b, b_star=b_star, lam=lam, n=1.0,
                                    B0=1.0, B0_star=1.0, p0=1.0), epsilon)
        if r.growth_case is GrowthCase.HIGH:
            assert r.boundary_g_star < r.boundary_g
        elif r.growth_case is GrowthCase.LOW:
            assert r.boundary_g < r.boundary_g_star


@st.composite
def power_of_two_params(draw):
    """A scenario whose n is a power of two, often within a few tolerances of a boundary:
    b or b_star is set so that boundary_g or boundary_g_star lands near n."""
    p, epsilon = draw(labelled_params())
    n = 2.0 ** draw(st.integers(-20, 20))
    nudge = 1.0 + draw(st.floats(-3.0, 3.0)) * epsilon
    anchor = draw(st.sampled_from(["free", "boundary_g", "boundary_g_star"]))
    if anchor == "boundary_g":
        p = p._replace(b=p.a * p.lam / n * nudge)
    elif anchor == "boundary_g_star":
        p = p._replace(b_star=p.a_star * p.lam * n * nudge)
    return p._replace(n=n), epsilon


class TestRoleSwap:
    """Swapping (a, b) with (a_star, b_star) and n with 1/n swaps the two groups."""

    MIRROR = {Band.LOW: Band.HIGH, Band.HIGH: Band.LOW,
              Band.MEDIUM: Band.MEDIUM, Band.BOUNDARY: Band.BOUNDARY}

    @given(labelled_params() | power_of_two_params())
    @settings(max_examples=200)
    def test_swap_mirrors_the_report(self, drawn):
        p, epsilon = drawn
        r = classify(p, epsilon)
        s = classify(p._replace(a=p.a_star, a_star=p.a, b=p.b_star, b_star=p.b, n=1.0 / p.n),
                     epsilon)
        if math.frexp(p.n)[0] == 0.5:  # n is a power of two: 1/n is exact, and so is each label
            assert (s.growth_case, s.band, s.behavior_g, s.behavior_g_star) == (
                r.growth_case, self.MIRROR[r.band], r.behavior_g_star, r.behavior_g)
        assert math.isclose(s.boundary_g, 1.0 / r.boundary_g_star, rel_tol=ULPS4)
        assert math.isclose(s.boundary_g_star, 1.0 / r.boundary_g, rel_tol=ULPS4)
        assert math.isclose(s.n_hat, 1.0 / r.n_hat, rel_tol=ULPS4)
        # g_rate may cancel to near 0: bound it by the magnitude of its terms.
        scale = abs((p.a - p.a_star) * p.lam) + p.b * p.n + p.b_star / p.n
        assert abs(s.g_rate + r.g_rate) <= ULPS4 * scale


class TestTimeTranslation:
    def test_classify_ignores_t0(self):
        # The regime is a property of the coefficients, n and B0/B0*: crossover_time is
        # counted from t0, so no field moves when t0 does.
        rng = random.Random(4)
        for k in range(1000):
            params = draw_case_params(rng, ("low", "high")[k % 2], t0=uniform(rng, -1e3, 1e3))
            shift = rng.choice([-1.0, 1.0]) * 10.0 ** uniform(rng, -300.0, 300.0)
            assert classify(params._replace(t0=params.t0 + shift)) == classify(params)
            assert classify(params._replace(t0=-0.0)) == classify(params)
