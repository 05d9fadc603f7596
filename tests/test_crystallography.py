"""Unit tests for the crystallography subpackage."""

import numpy as np
import pytest

from repro.crystallography.lattice import Lattice
from repro.crystallography.laue import predict_laue_spots
from repro.crystallography.materials import MATERIALS, get_material
from repro.crystallography.orientation import Orientation
from repro.crystallography.structure_factor import is_reflection_allowed, structure_factor_magnitude
from repro.geometry.beam import Beam
from repro.geometry.detector import Detector
from repro.utils.validation import ValidationError


class TestLattice:
    def test_cubic_metric(self):
        lattice = Lattice.cubic(4.0)
        np.testing.assert_allclose(lattice.g_vector(np.eye(3)), (2 * np.pi / 4.0) * np.eye(3), atol=1e-12)
        assert np.isclose(lattice.volume, 64.0)

    def test_reciprocal_orthogonality(self):
        lattice = Lattice(a=3.0, b=4.0, c=5.0, alpha=90, beta=90, gamma=90)
        # a_i . g_j = 2 pi delta_ij for the direct basis diag(a, b, c)
        product = np.diag([3.0, 4.0, 5.0]) @ lattice.g_vector(np.eye(3)).T
        np.testing.assert_allclose(product, 2 * np.pi * np.eye(3), atol=1e-9)
        assert np.isclose(lattice.volume, 60.0)

    def test_reciprocal_orthogonality_triclinic(self):
        lattice = Lattice(a=3.1, b=4.2, c=5.3, alpha=85.0, beta=95.0, gamma=102.0)
        # the direct basis dual to g_vector's rows (a_i . g_j = 2 pi delta_ij)
        # has the cell's edge lengths, angles and volume
        direct = 2 * np.pi * np.linalg.inv(lattice.g_vector(np.eye(3))).T
        lengths = np.linalg.norm(direct, axis=1)
        np.testing.assert_allclose(lengths, [3.1, 4.2, 5.3], atol=1e-9)
        a, b, c = direct / lengths[:, None]
        angles = np.degrees(np.arccos([b @ c, a @ c, a @ b]))
        np.testing.assert_allclose(angles, [85.0, 95.0, 102.0], atol=1e-9)
        assert np.isclose(abs(np.linalg.det(direct)), lattice.volume)

    def test_d_spacing_cubic_formula(self):
        a = 3.6149
        lattice = Lattice.cubic(a)
        for hkl in [(1, 1, 1), (2, 0, 0), (2, 2, 0)]:
            expected = a / np.sqrt(sum(i * i for i in hkl))
            d_spacing = 2 * np.pi / np.linalg.norm(lattice.g_vector(hkl))
            assert np.isclose(d_spacing, expected, rtol=1e-10)

    def test_g_vector_batched(self):
        lattice = Lattice.cubic(2.0)
        g = lattice.g_vector([[1, 0, 0], [0, 2, 0]])
        assert g.shape == (2, 3)
        np.testing.assert_allclose(np.linalg.norm(g, axis=1), [np.pi, 2 * np.pi])

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            Lattice(a=-1, b=1, c=1)
        with pytest.raises(ValidationError):
            Lattice(a=1, b=1, c=1, alpha=200.0)
        with pytest.raises(ValidationError):
            Lattice(a=1, b=1, c=1, centering="X")


class TestOrientation:
    def test_identity(self):
        np.testing.assert_allclose(Orientation.identity().matrix, np.eye(3))

    def test_rotate_preserves_length(self):
        rng = np.random.default_rng(0)
        orientation = Orientation.random(rng)
        v = np.array([1.0, 2.0, 3.0])
        assert np.isclose(np.linalg.norm(orientation.rotate(v)), np.linalg.norm(v))

    def test_misorientation_of_perturbed(self):
        base = Orientation.identity()
        tilted = base.perturbed((0, 0, 1), 0.1)
        # the rotation angle of base -> tilted, from the trace of the relative rotation
        cos_angle = (np.trace(base.matrix @ tilted.matrix.T) - 1.0) / 2.0
        assert np.isclose(np.arccos(np.clip(cos_angle, -1.0, 1.0)), 0.1, atol=1e-9)

    def test_non_rotation_rejected(self):
        with pytest.raises(ValidationError):
            Orientation(np.ones((3, 3)))


class TestStructureFactor:
    def test_primitive_allows_everything_but_000(self):
        assert is_reflection_allowed((1, 2, 3), "P")
        assert not np.any(is_reflection_allowed([[0, 0, 0]], "P"))

    def test_bcc_extinction(self):
        assert is_reflection_allowed((1, 1, 0), "I")
        assert not is_reflection_allowed((1, 0, 0), "I")

    def test_fcc_extinction(self):
        assert is_reflection_allowed((1, 1, 1), "F")
        assert is_reflection_allowed((2, 0, 0), "F")
        assert not is_reflection_allowed((1, 1, 0), "F")

    def test_diamond_extinction(self):
        assert is_reflection_allowed((1, 1, 1), "diamond")
        assert not is_reflection_allowed((2, 0, 0), "diamond")  # h+k+l = 2 = 4n+2
        assert is_reflection_allowed((4, 0, 0), "diamond")

    def test_magnitude_zero_for_forbidden(self):
        assert structure_factor_magnitude((1, 0, 0), "I") == 0.0

    def test_magnitude_decreases_with_hkl(self):
        low = structure_factor_magnitude((1, 1, 1), "F")
        high = structure_factor_magnitude((5, 5, 5), "F")
        assert low > high > 0

    def test_unknown_centering_rejected(self):
        with pytest.raises(ValidationError):
            is_reflection_allowed((1, 1, 1), "Z")


class TestMaterials:
    def test_catalogue_contains_copper(self):
        assert "Cu" in MATERIALS
        cu = get_material("Cu")
        assert cu.centering == "F"
        assert np.isclose(cu.lattice.a, 3.6149)

    def test_unknown_material(self):
        with pytest.raises(ValidationError):
            get_material("Unobtanium")


class TestLauePrediction:
    @pytest.fixture()
    def geometry(self):
        # span the ~410 mm the real 34-ID area detector covers so that the
        # Laue pattern of an arbitrary orientation reliably intersects it
        detector = Detector(n_rows=128, n_cols=128, pixel_size=3200.0, distance=510_000.0)
        beam = Beam(energy_min_kev=7.0, energy_max_kev=30.0)
        return detector, beam

    def test_spots_found_for_copper(self, geometry):
        detector, beam = geometry
        spots = predict_laue_spots(get_material("Cu"), Orientation.random(np.random.default_rng(0)), beam, detector)
        assert len(spots) > 0

    def test_spots_on_detector_and_in_band(self, geometry):
        detector, beam = geometry
        spots = predict_laue_spots(get_material("Cu"), Orientation.random(np.random.default_rng(1)), beam, detector)
        for spot in spots:
            assert 0 <= spot.row <= detector.n_rows - 1
            assert 0 <= spot.col <= detector.n_cols - 1
            assert beam.energy_min_kev <= spot.energy_kev <= beam.energy_max_kev
            assert 0 < spot.intensity <= 1.0

    def test_bragg_condition_satisfied(self, geometry):
        # |k_out| must equal |k_in| for every predicted spot
        detector, beam = geometry
        material = get_material("Cu")
        orientation = Orientation.random(np.random.default_rng(2))
        spots = predict_laue_spots(material, orientation, beam, detector)
        assert spots
        for spot in spots[:10]:
            g = orientation.rotate(material.lattice.g_vector(np.array(spot.hkl)))
            wavelength = 12.39842 / spot.energy_kev
            k = 2 * np.pi / wavelength
            k_in = k * beam.unit_direction
            k_out = k_in + g
            assert np.isclose(np.linalg.norm(k_out), k, rtol=1e-6)

    def test_spot_directions_unit_and_upward(self, geometry):
        detector, beam = geometry
        spots = predict_laue_spots(get_material("Si"), Orientation.random(np.random.default_rng(3)), beam, detector)
        for spot in spots:
            direction = np.array(spot.direction)
            assert np.isclose(np.linalg.norm(direction), 1.0)
            assert direction[1] > 0  # towards the detector

    def test_only_allowed_reflections(self, geometry):
        detector, beam = geometry
        material = get_material("Cu")
        spots = predict_laue_spots(material, Orientation.random(np.random.default_rng(4)), beam, detector)
        for spot in spots:
            assert is_reflection_allowed(spot.hkl, material.centering)

    def test_narrow_band_gives_fewer_spots(self, geometry):
        detector, _ = geometry
        orientation = Orientation.random(np.random.default_rng(5))
        wide = predict_laue_spots(get_material("Cu"), orientation, Beam(energy_min_kev=7, energy_max_kev=30), detector)
        narrow = predict_laue_spots(get_material("Cu"), orientation, Beam(energy_min_kev=10, energy_max_kev=12), detector)
        assert len(narrow) <= len(wide)

    def test_pixel_property(self, geometry):
        detector, beam = geometry
        spots = predict_laue_spots(get_material("W"), Orientation.random(np.random.default_rng(6)), beam, detector)
        if spots:
            row, col = int(round(spots[0].row)), int(round(spots[0].col))
            assert 0 <= row < detector.n_rows and 0 <= col < detector.n_cols

    def test_invalid_max_hkl(self):
        detector = Detector(n_rows=8, n_cols=8)
        with pytest.raises(ValidationError):
            predict_laue_spots(get_material("Cu"), Orientation.identity(), Beam(), detector, max_hkl=0)
