import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seldkit.audio import AudioClip
from seldkit.features import FeatureConfig, doa_from_features, extract_features
from seldkit.geometry import Direction, angular_distance, dir_to_unit
from seldkit.labels import ClipAnnotation, EventLabel, read_labels
from seldkit.rotation import (
    all_patterns,
    apply_to_audio,
    apply_to_direction,
    apply_to_features,
    apply_to_vector,
    compose,
    inverse,
    pattern_by_id,
    rotate_annotation,
)

from conftest import count_constructions, plane_wave_clip, random_direction, two_event_scene

AZ_MAPS = ("phi", "-phi", "90-phi", "phi+90", "phi-90", "-phi-90", "180-phi", "phi+180")


def by_map(azimuth_map: str, sign_z: int = 1):
    return next(p for p in all_patterns() if p.azimuth_map == azimuth_map and p.sign_z == sign_z)


class TestPatternTable:
    def test_sixteen_distinct_with_identity_first(self):
        patterns = all_patterns()
        assert len(patterns) == 16
        assert [p.id for p in patterns] == list(range(16))
        identity = patterns[0]
        assert (identity.azimuth_map, identity.signs) == ("phi", (1, 1, 1))
        assert identity.src == (0, 1, 2)
        assert len({tuple(p.matrix().ravel()) for p in patterns}) == 16

    def test_derived_channels_match_hand_table(self):
        # rotated X = sign_x * source x_src, rotated Y = sign_y * source y_src,
        # as the table of each azimuth map was written out by hand
        hand = {
            "phi": ("x", 1, "y", 1),
            "-phi": ("x", 1, "y", -1),
            "90-phi": ("y", 1, "x", 1),
            "phi+90": ("y", -1, "x", 1),
            "phi-90": ("y", 1, "x", -1),
            "-phi-90": ("y", -1, "x", -1),
            "180-phi": ("x", -1, "y", 1),
            "phi+180": ("x", -1, "y", -1),
        }
        axis = {"x": 0, "y": 1}
        for p in all_patterns():
            x_src, sign_x, y_src, sign_y = hand[p.azimuth_map]
            assert p.src == (axis[x_src], axis[y_src], 2)
            assert p.signs == (sign_x, sign_y, p.sign_z)

    def test_all_azimuth_maps_twice(self):
        maps = [p.azimuth_map for p in all_patterns()]
        for name in AZ_MAPS:
            assert maps.count(name) == 2

    def test_swap_pattern_is_90_minus_phi(self):
        # brute-force: swapping the encode gains cos(az)cos(el) / sin(az)cos(el)
        # must equal encoding at 90 - az
        p = by_map("90-phi")
        assert (p.src, p.signs) == ((1, 0, 2), (1, 1, 1))
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = random_direction(rng)
            swapped = apply_to_vector(dir_to_unit(d).as_array(), p)
            target = dir_to_unit(Direction(90.0 - d.azimuth, d.elevation)).as_array()
            np.testing.assert_allclose(swapped, target, atol=1e-12)

    def test_elevation_flip(self):
        p = by_map("phi", sign_z=-1)
        out = apply_to_direction(Direction(0.0, 20.0), p)
        assert (out.azimuth, out.elevation) == (0.0, -20.0)

    def test_bad_id_rejected(self):
        with pytest.raises(ValueError):
            pattern_by_id(16)


class TestDirectionMap:
    def test_identity(self):
        d = Direction(73.0, -12.0)
        assert apply_to_direction(d, pattern_by_id(0)) == d

    def test_symbolic_examples(self):
        assert apply_to_direction(Direction(30, 0), by_map("90-phi")).azimuth == 60.0
        out = apply_to_direction(Direction(170, -5), by_map("phi+180"))
        assert (out.azimuth, out.elevation) == (-10.0, -5.0)

    def test_matches_matrix_action(self, rng):
        for _ in range(100):
            d = random_direction(rng, max_abs_el=89.0)
            for p in all_patterns():
                via_angles = dir_to_unit(apply_to_direction(d, p)).as_array()
                via_matrix = apply_to_vector(dir_to_unit(d).as_array(), p)
                np.testing.assert_allclose(via_angles, via_matrix, atol=1e-12)


class TestGroup:
    def test_compose_with_identity(self):
        identity = pattern_by_id(0)
        for p in all_patterns():
            assert compose(p, identity).id == p.id
            assert compose(identity, p).id == p.id

    def test_reflection_squared_is_identity(self):
        p = by_map("90-phi")
        assert compose(p, p).id == 0

    def test_inverse_examples(self):
        assert inverse(pattern_by_id(0)).id == 0
        assert inverse(by_map("phi+90")).azimuth_map == "phi-90"
        assert inverse(by_map("90-phi")).azimuth_map == "90-phi"

    def test_full_composition_table_closed(self):
        ids = {p.id for p in all_patterns()}
        for p in all_patterns():
            for q in all_patterns():
                r = compose(p, q)
                assert r.id in ids
                # the returned member really is the matrix product
                np.testing.assert_array_equal(r.matrix(), p.matrix() @ q.matrix())

    def test_inverses_within_group(self):
        for p in all_patterns():
            inv = inverse(p)
            assert compose(p, inv).id == 0
            assert compose(inv, p).id == 0

    def test_associativity_on_matrices(self):
        patterns = all_patterns()
        rng = np.random.default_rng(0)
        for _ in range(60):
            p, q, r = (patterns[i] for i in rng.integers(0, 16, size=3))
            left = compose(compose(p, q), r)
            right = compose(p, compose(q, r))
            assert left.id == right.id


class TestAudioAction:
    def test_identity_bit_identical(self, rng):
        clip = AudioClip(rng.standard_normal((4, 500)))
        out = apply_to_audio(clip, pattern_by_id(0))
        assert np.array_equal(out.samples, clip.samples)

    def test_inverse_round_trip_bit_identical(self, rng):
        clip = AudioClip(rng.standard_normal((4, 500)))
        for p in all_patterns():
            back = apply_to_audio(apply_to_audio(clip, p), inverse(p))
            assert np.array_equal(back.samples, clip.samples)

    def test_w_untouched_and_energy_preserved(self, rng):
        clip = AudioClip(rng.standard_normal((4, 500)))
        for p in all_patterns():
            out = apply_to_audio(clip, p)
            assert np.array_equal(out.samples[0], clip.samples[0])
            assert np.sum(out.samples[1:] ** 2) == pytest.approx(
                np.sum(clip.samples[1:] ** 2), rel=1e-12
            )

    def test_plus90_moves_30_to_120(self):
        clip = plane_wave_clip(Direction(30, 10), n_samples=4800)
        rotated = apply_to_audio(clip, by_map("phi+90"))
        est = doa_from_features(extract_features(rotated, FeatureConfig()))
        assert angular_distance(est, Direction(120, 10)) < 1.0

    def test_commutation_all_patterns(self, rng):
        # intensity DOA of rotated audio == rotated direction, within 1 degree
        cfg = FeatureConfig()
        for trial in range(20):
            d = random_direction(rng)
            clip = plane_wave_clip(d, n_samples=4800, seed=trial)
            for p in all_patterns():
                est = doa_from_features(extract_features(apply_to_audio(clip, p), cfg), cfg)
                assert angular_distance(est, apply_to_direction(d, p)) < 1.0


class TestFeatureAction:
    @pytest.mark.parametrize(
        "cfg", [FeatureConfig(), FeatureConfig(hop=300, n_mels=32)], ids=["default", "hop300_mels32"]
    )
    def test_equals_features_of_rotated_audio_exactly(self, cfg):
        clip, _ = two_event_scene(seed=23)
        samples = clip.samples.copy()
        samples[:, :2400] = 0.0  # a silent stretch exercises the intensity floor
        clip = AudioClip(samples)
        features = extract_features(clip, cfg)
        for p in all_patterns():
            expected = extract_features(apply_to_audio(clip, p), cfg)
            assert np.array_equal(apply_to_features(features, p), expected), p.id

    def test_composes_like_the_group(self, rng):
        features = rng.standard_normal((7, 6, 5))
        for p in all_patterns():
            for q in all_patterns():
                assert np.array_equal(
                    apply_to_features(apply_to_features(features, q), p),
                    apply_to_features(features, compose(p, q)),
                )

    @pytest.mark.parametrize("shape", [(4, 10, 8), (7, 10), (7, 10, 8, 1), (8, 10, 8)])
    def test_rejects_non_feature_tensor(self, shape):
        with pytest.raises(ValueError, match=r"\(7, frames, n_mels\)"):
            apply_to_features(np.zeros(shape), pattern_by_id(3))

    def test_input_unmodified(self, rng):
        features = rng.standard_normal((7, 20, 16))
        before = features.copy()
        for p in all_patterns():
            out = apply_to_features(features, p)
            assert not np.shares_memory(out, features)
            out[:] = 0.0
        assert np.array_equal(features, before)


# (frame, class, track) -> (azimuth, elevation)
label_cells = st.dictionaries(
    st.tuples(st.integers(0, 49), st.integers(0, 12), st.integers(0, 2)),
    st.tuples(
        st.floats(min_value=-180.0, max_value=180.0, allow_nan=False),
        st.floats(min_value=-90.0, max_value=90.0, allow_nan=False),
    ),
    max_size=12,
)


def annotation_of(cells) -> ClipAnnotation:
    return ClipAnnotation(
        tuple(EventLabel(f, c, t, Direction(az, el)) for (f, c, t), (az, el) in cells.items())
    )


def cells_of(annotation: ClipAnnotation):
    return [(ev.frame, ev.class_id, ev.track_id) for ev in annotation.events]


class TestAnnotationAction:
    @settings(max_examples=50, deadline=None)
    @given(label_cells)
    def test_matches_per_event_direction_map(self, cells):
        annotation = annotation_of(cells)
        for p in all_patterns():
            rotated = rotate_annotation(annotation, p)
            assert rotated.n_classes == annotation.n_classes
            assert cells_of(rotated) == cells_of(annotation)
            assert [ev.direction for ev in rotated.events] == [
                apply_to_direction(ev.direction, p) for ev in annotation.events
            ]

    @settings(max_examples=50, deadline=None)
    @given(label_cells)
    def test_inverse_round_trip(self, cells):
        annotation = annotation_of(cells)
        for p in all_patterns():
            back = rotate_annotation(rotate_annotation(annotation, p), inverse(p))
            assert cells_of(back) == cells_of(annotation)
            for ev, ev_back in zip(annotation.events, back.events):
                assert angular_distance(ev.direction, ev_back.direction) < 1e-9

    def test_rotates_each_distinct_direction_once(self, tmp_path, monkeypatch):
        # three text pairs over five rows: one Direction each per pattern, no EventLabel
        rows = ["0,1,0,30,10", "1,1,0,30,10", "2,1,0,30.0,10", "2,4,1,-90,-0.0", "3,4,1,-90,-0.0"]
        (tmp_path / "a.csv").write_text("\n".join(rows) + "\n")
        annotation = read_labels(tmp_path / "a.csv")
        counts = count_constructions(monkeypatch)
        for p in all_patterns():
            rotated = rotate_annotation(annotation, p)
            for name in ("frame", "class_id", "track_id", "inverse"):
                assert getattr(rotated, name) is getattr(annotation, name)
        assert counts == {"Direction": 16 * 3, "EventLabel": 0, "DetectedEvent": 0}

    def test_with_directions_needs_one_per_distinct_direction(self):
        annotation = annotation_of({(0, 1, 0): (30.0, 10.0), (1, 1, 0): (40.0, 10.0)})
        with pytest.raises(ValueError, match="expected 2 directions, got 1"):
            annotation.with_directions([Direction(0.0, 0.0)])
