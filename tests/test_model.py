"""Value-object validation and right-hand-side arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icufunnel import (
    CapacityPolicy,
    EpidemicParams,
    InitialState,
    Scenario,
    State,
    derivatives,
)
from icufunnel.model import SCENARIO_KEYS

TABLE = dict(
    beta_A=0.37, beta_S=0.43, alpha_A=0.1, alpha_S=0.085, p=0.02, rho=0.15,
    gamma_0=1.0, gamma_1=1.0, psi_bar=0.31, gamma_K=1.0,
)
INIT = dict(S0=89950.0, IA0=49.0, IS0=1.0, R0=10000.0, D0=0.0, psi0=1.0)


def make_scenario(**overrides):
    unknown = set(overrides) - set(SCENARIO_KEYS)
    if unknown:
        raise TypeError(f"not scenario coordinates: {sorted(unknown)}")
    return Scenario.from_values({**TABLE, **INIT, "n_icu": 40.0, "xi": 0.1, **overrides})


class TestParams:
    def test_accepts_table_values(self):
        EpidemicParams(**TABLE)

    @pytest.mark.parametrize("field,value", [
        ("beta_A", 1.5), ("beta_S", -0.01), ("p", 1.0001), ("rho", -1e-9),
        ("gamma_K", 2.0),
    ])
    def test_rejects_out_of_unit_interval(self, field, value):
        bad = dict(TABLE, **{field: value})
        with pytest.raises(ValueError, match=field):
            EpidemicParams(**bad)

    def test_boundary_values_allowed(self):
        EpidemicParams(**dict(TABLE, p=0.0, rho=1.0, gamma_K=0.0))


class TestInitialState:
    def test_rejects_negative_compartment(self):
        with pytest.raises(ValueError, match="IA0"):
            InitialState(**dict(INIT, IA0=-1.0))

    @pytest.mark.parametrize("field", ["S0", "IA0", "IS0", "R0", "D0"])
    def test_rejects_infinite_compartment(self, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            InitialState(**dict(INIT, **{field: math.inf}))

    def test_rejects_psi0_outside_unit(self):
        with pytest.raises(ValueError, match="psi0"):
            InitialState(**dict(INIT, psi0=1.5))

    def test_zero_compartments_allowed(self):
        InitialState(S0=0.0, IA0=0.0, IS0=0.0, R0=1.0, D0=0.0, psi0=0.0)


class TestCapacityPolicy:
    def test_phi_plus(self):
        cap = CapacityPolicy(n_icu=40.0, xi=0.1)
        assert cap.phi_plus() == 44.0

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            CapacityPolicy(n_icu=0.0, xi=0.1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="xi"):
            CapacityPolicy(n_icu=40.0, xi=-0.1)


    @pytest.mark.parametrize("n_icu,xi,name", [
        (math.inf, 0.1, "n_icu"), (40.0, math.inf, "xi"), (1e300, 1e300, "capacity bound"),
    ])
    def test_infinite_rejected(self, n_icu, xi, name):
        # (1 + xi) * n_icu overflows to inf in the last case
        with pytest.raises(ValueError, match=f"{name} .*must be finite"):
            CapacityPolicy(n_icu=n_icu, xi=xi)


class TestScenario:
    def test_population_counts_deaths(self):
        sc = make_scenario(D0=5.0)
        assert sc.population() == 89950.0 + 49.0 + 1.0 + 10000.0 + 5.0

    def test_zero_population_rejected(self):
        with pytest.raises(ValueError, match="population"):
            make_scenario(S0=0.0, IA0=0.0, IS0=0.0, R0=0.0, D0=0.0)

    def test_infinite_population_rejected(self):
        # each compartment is finite, their sum is not
        with pytest.raises(ValueError, match="population must be finite"):
            make_scenario(S0=1e308, R0=1e308)

    def test_dead_living_population_rejected(self):
        # N = 3.4e-47 + 1 rounds to 1, so N - D0 is 0 although R0 > 0, and
        # the right-hand side would fail on it at t = 0
        with pytest.raises(ValueError, match=r"^living population N - D0 must be > 0$"):
            make_scenario(S0=0.0, IA0=0.0, IS0=0.0, R0=3.4e-47, D0=1.0)

    def test_values_round_trip(self):
        sc = make_scenario(D0=5.0, psi0=0.9, xi=0.25)
        assert tuple(sc.values()) == SCENARIO_KEYS
        assert Scenario.from_values(sc.values()) == sc
        # names that are not coordinates, such as a file's eps_plus, are ignored
        assert Scenario.from_values({**sc.values(), "eps_plus": 10.0}) == sc


class TestDerivatives:
    # hand-computed at the initial point:
    #   force = (0.37*49 + 0.43*1) * 89950/100000 = 18.56 * 0.8995
    #   dI_S  = 0.02*force - 0.1*1, removal 0.085/0.85 = 0.1
    #   dD    = (0.15*0.1)*1
    EXPECTED = (-16.69472, 11.460825599999998, 0.23389440000000003,
                4.985, 0.015)

    def test_hand_values_at_start(self):
        pm = EpidemicParams(**TABLE)
        d = derivatives(89950.0, 49.0, 1.0, 0.0, 1.0, 0, pm, 100000.0)
        for got, want in zip(d[:5], self.EXPECTED):
            assert got == pytest.approx(want, rel=1e-12)
        assert d[5] == 0.0  # u=0, psi already at 1

    def test_psi_pull_down_under_input(self):
        pm = EpidemicParams(**TABLE)
        d = derivatives(89950.0, 49.0, 1.0, 0.0, 1.0, 1, pm, 100000.0)
        assert d[:5] == derivatives(89950.0, 49.0, 1.0, 0.0, 1.0, 0, pm, 100000.0)[:5]
        assert d[5] == pytest.approx(-0.6900026805882353, rel=1e-12)

    def test_population_conserved(self):
        pm = EpidemicParams(**TABLE)
        for u in (0, 1):
            d = derivatives(50000.0, 800.0, 30.0, 20000.0, 400.0, u, pm, 100000.0)
            assert abs(sum(d[:5])) < 1e-9

    def test_psi_relaxes_toward_one(self):
        pm = EpidemicParams(**TABLE)
        d = derivatives(89950.0, 49.0, 1.0, 0.0, 0.5, 0, pm, 100000.0)
        assert d[5] == pytest.approx(pm.gamma_0 * 0.5, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_python_floats_give_the_numpy_scalar_bits(self, scenario, interior_scenario, data):
        # the simulator passes Python floats where it used to pass np.float64
        # scalars; every output must keep its exact bits
        sc = data.draw(st.sampled_from([scenario, interior_scenario]))
        N = sc.population()
        S, I_A, I_S = (data.draw(st.floats(0.0, N), label=k) for k in ("S", "I_A", "I_S"))
        D = data.draw(st.floats(0.0, N, exclude_max=True), label="D")
        psi = data.draw(st.floats(0.0, 1.0), label="psi")
        u = data.draw(st.sampled_from([0, 1]), label="u")
        got = derivatives(S, I_A, I_S, D, psi, u, sc.params, N)
        want = derivatives(*map(np.float64, (S, I_A, I_S, D, psi)), u, sc.params, N)
        assert [type(x) for x in got] == [float] * 6
        assert list(map(float.hex, got)) == list(map(float.hex, want))


class TestVectorField:
    def test_state_as_tuple(self):
        s = State(S=1.0, I_A=2.0, I_S=3.0, R=4.0, D=5.0, psi=0.5, t=7.0)
        assert s.as_tuple() == (1.0, 2.0, 3.0, 4.0, 5.0, 0.5)
        assert math.isfinite(s.t)
