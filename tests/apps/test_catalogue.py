"""The app catalogue: one entry per application, shared by every harness."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.apps import APPS
from repro.apps.catalogue import CATALOGUE, get_app, rel_err


def _gtc_domain(domain, phi, tags, energy):
    return SimpleNamespace(domain=domain, nparticles=len(tags),
                           phi_planes=[np.asarray(phi, float)],
                           tags=np.asarray(tags), kinetic_energy=energy)


class TestEntries:
    def test_one_entry_per_app_in_canonical_order(self):
        assert tuple(CATALOGUE) == APPS
        assert [a.name for a in CATALOGUE.values()] == list(APPS)

    def test_unknown_app_and_size_rejected(self):
        with pytest.raises(ValueError, match="unknown app"):
            get_app("spark")
        with pytest.raises(ValueError, match="unknown size"):
            get_app("lbmhd").case("huge")

    def test_case_binds_rank_count(self):
        gtc = get_app("gtc")
        assert gtc.case().nprocs == gtc.nprocs
        # the small GTC torus has one poloidal plane per rank
        assert gtc.case(nprocs=4).inputs[0].nplanes == 4
        assert gtc.case("medium", 4).inputs[0].nplanes == 12


class TestEqualityRules:
    def test_fields_bitwise_and_relative(self):
        lbmhd = get_app("lbmhd")
        a = (np.ones((2, 2)), np.zeros((2, 2, 2)), np.full((2, 2), 2.0))
        assert lbmhd.compare(a, a).bitwise
        b = (a[0], a[1], a[2] * (1 + 1e-9))
        m = lbmhd.compare(a, b)
        assert not m.bitwise
        assert m.rel_err == pytest.approx(1e-9)
        assert m.abs_err == pytest.approx(2e-9)

    def test_gtc_compares_tags_when_domains_agree(self):
        gtc = get_app("gtc")
        clean = [_gtc_domain(0, [1.0], [0, 1], 1.0),
                 _gtc_domain(1, [2.0], [2, 3], 1.0)]
        moved = [_gtc_domain(0, [1.0], [0, 2], 1.0),
                 _gtc_domain(1, [2.0], [1, 3], 1.0)]
        assert gtc.compare(clean, clean).bitwise
        assert not gtc.compare(clean, moved).bitwise

    def test_gtc_lost_particles_are_not_comparable(self):
        gtc = get_app("gtc")
        clean = [_gtc_domain(0, [1.0], [0, 1], 1.0)]
        lost = [_gtc_domain(0, [1.0], [0], 1.0)]
        m = gtc.compare(clean, lost)
        assert not m.bitwise
        assert math.isinf(m.rel_err) and math.isinf(m.abs_err)

    def test_rel_err_floors_zero_reference(self):
        assert rel_err([0.0, 2.0], [0.0, 2.0]) == 0.0
        assert rel_err([2.0], [3.0]) == 0.5


class TestPhysicsGates:
    def test_lbmhd_mass_gate(self):
        lbmhd = get_app("lbmhd")
        case = lbmhd.case()
        rho = case.inputs[0]
        assert lbmhd.physics(case, (rho, None, None)) == "mass conserved"
        with pytest.raises(AssertionError, match="mass not conserved"):
            lbmhd.physics(case, (rho * 1.001, None, None))

    def test_gtc_particle_gate(self):
        gtc = get_app("gtc")
        case = gtc.case()
        n = len(case.inputs[1])
        full = [SimpleNamespace(nparticles=n)]
        assert gtc.physics(case, full) == f"{n} particles conserved"
        with pytest.raises(AssertionError, match="not conserved"):
            gtc.physics(case, [SimpleNamespace(nparticles=n - 1)])
