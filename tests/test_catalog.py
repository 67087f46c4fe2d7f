import math

import numpy as np
import pytest

from ufgsim import catalog
from ufgsim.cli import parse_system_file
from conftest import compiled_evaluate


class TestRegistry:
    def test_listing(self):
        names = catalog.list_entries()
        assert "random-circles" in names and "circle-line" in names
        assert len(names) == 9

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown catalog system"):
            catalog.get("brownian-sheet")

    def test_every_entry_selfchecks(self):
        for name in catalog.list_entries():
            entry = catalog.get(name)
            assert entry.selfcheck()

    def test_selfcheck_catches_wrong_identity(self, circles):
        broken = catalog.CatalogEntry(
            name="broken",
            system=circles.system,
            level=1,
            variables=circles.variables,
            v0perp=None,
            known_brackets=[((1, 0), circles.system.noises[0], "wrong")],
            sample_box=circles.sample_box,
        )
        with pytest.raises(AssertionError, match="bracket identity"):
            broken.selfcheck()


class TestParameters:
    def test_grushin_range(self):
        with pytest.raises(ValueError, match="nonzero"):
            catalog.get("grushin", {"k": 0.0})
        assert catalog.get("grushin", {"k": -0.5}).params["k"] == -0.5

    def test_sine_ou_range(self):
        with pytest.raises(ValueError, match="positive"):
            catalog.get("sine-ou", {"k": -1.0})

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="no parameters"):
            catalog.get("gbm", {"k": 1.0})

    def test_linear_shapes(self):
        with pytest.raises(ValueError):
            catalog.get("linear", {"A": [[0.0, 1.0]], "C": [[1.0, 0.0]]})
        entry = catalog.get("linear", {"A": [[0, 1], [0, 0]], "C": [[0.0, 1.0]]})
        assert entry.system.dim == 2 and entry.level == 3


class TestFacts:
    def test_sine_ou_limits(self, sine_ou_k2):
        lim = sine_ou_k2.facts["ode_limit"]
        assert lim(4.0) == pytest.approx(2 * math.pi)
        assert lim(1.0) == 0.0
        assert lim(7.0) == pytest.approx(2 * math.pi)
        assert sine_ou_k2.facts["limit_variance"](2 * math.pi) == pytest.approx(
            (2 * math.pi) ** 2 / 2.0)

    def test_grushin_variance(self):
        entry = catalog.get("grushin", {"k": -1.0})
        assert entry.facts["z_marginal_variance"](1.0, 1.0) == pytest.approx(
            1 - math.exp(-2.0))

    def test_gbm_mean(self):
        entry = catalog.get("gbm")
        assert entry.facts["mean"](1.0, 1.0) == pytest.approx(math.exp(-1.0))


class TestDensity:
    def test_normalization_constant(self):
        c, err = catalog.stationary_density_normalization()
        assert c > 0 and err < 1e-8
        quad = pytest.importorskip("scipy.integrate").quad
        rho_at = compiled_evaluate([catalog.stationary_density_expr()])
        total, _ = quad(lambda z: rho_at([z]) / c, 1e-6, 2 * math.pi - 1e-6, limit=200)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_density_positive_inside(self):
        rho = compiled_evaluate([catalog.stationary_density_expr()])
        for z in np.linspace(0.3, 6.0, 11):
            assert rho([z]) > 0


class TestExport:
    def test_roundtrip_through_system_file(self, tmp_path, circles):
        path = tmp_path / "circles.sys"
        path.write_text(circles.export_system_file())
        system, variables = parse_system_file(str(path))
        assert variables == circles.variables
        assert system.dim == 2 and system.d == 1
        pts = np.random.default_rng(0).uniform(-2, 2, size=(16, 2))
        for mine, theirs in zip(circles.system.all_fields(), system.all_fields()):
            assert np.array_equal(mine.eval_batch(pts), theirs.eval_batch(pts))

    def test_every_entry_exports_parseable_text(self, tmp_path):
        for name in catalog.list_entries():
            entry = catalog.get(name)
            path = tmp_path / f"{name}.sys"
            path.write_text(entry.export_system_file())
            system, _ = parse_system_file(str(path))
            assert system.dim == entry.system.dim
            assert system.d == entry.system.d
        # parameters are carried by the fields, and exported as comments only
        assert "\n# param k = 2.0\n" in catalog.get("sine-ou").export_system_file()
