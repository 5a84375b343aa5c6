import math

import numpy as np
import pytest
from scipy.io import wavfile

import seldkit.audio
from seldkit.audio import AudioClip


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo one pass/fail line per acceptance criterion after the run."""
    import sys

    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "CRITERION_LINES", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.line(line)
from seldkit.accdoa import DetectedEvent
from seldkit.emulate import LibrarySample, SampleLibrary, SceneEvent, SceneSpec, foa_encode_gains, mix_scene
from seldkit.features import doa_from_features
from seldkit.geometry import Direction, dir_to_unit
from seldkit.labels import EventLabel


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def unit_to_dir_reference(v) -> Direction:
    """``unit_to_dir`` as one vector's scalar ``math``: the reference for the array forms."""
    x, y, z = (float(c) for c in np.asarray(v, dtype=float).reshape(3))
    n = math.sqrt(x * x + y * y + z * z)
    x, y, z = x / n, y / n, z / n
    horiz = math.hypot(x, y)
    az = 0.0 if horiz == 0.0 else math.degrees(math.atan2(y, x))
    return Direction(az, math.degrees(math.atan2(z, horiz)))


def dir_to_unit_reference(d: Direction) -> tuple[float, float, float]:
    """``dir_to_unit`` as one direction's scalar ``math``: the reference for the array forms."""
    az, el = math.radians(d.azimuth), math.radians(d.elevation)
    return math.cos(az) * math.cos(el), math.sin(az) * math.cos(el), math.sin(el)


def plane_wave_clip(direction: Direction, n_samples: int = 12000, seed: int = 0) -> AudioClip:
    """Noiseless FOA plane wave from a fixed direction (pure encoding gains)."""
    mono = np.random.default_rng(seed).standard_normal(n_samples)
    return AudioClip(np.outer(foa_encode_gains(direction), mono))


@pytest.fixture
def conversions(monkeypatch):
    """Count the WAV sample arrays converted to float64."""
    calls = []
    original = seldkit.audio._normalize_pcm

    def counting(data):
        calls.append(data.shape)
        return original(data)

    monkeypatch.setattr(seldkit.audio, "_normalize_pcm", counting)
    return calls


def write_mono_wav(path, samples, sample_rate: int = 24000) -> None:
    """Write a 1-D signal as a float32 mono WAV, such as a sample library reads."""
    wavfile.write(path, sample_rate, np.asarray(samples, dtype=np.float32))


def random_direction(rng, max_abs_el: float = 80.0) -> Direction:
    return Direction(rng.uniform(-180.0, 180.0), rng.uniform(-max_abs_el, max_abs_el))


def count_constructions(monkeypatch) -> dict:
    """From now on, count the ``EventLabel``, ``DetectedEvent`` and ``Direction`` objects built."""
    counts = {}
    for cls in (EventLabel, DetectedEvent, Direction):
        counts[cls.__name__] = 0

        def counting(self, _original=cls.__post_init__, _name=cls.__name__):
            counts[_name] += 1
            _original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    return counts


def two_event_scene(seed: int = 0, n_classes: int = 13):
    """A 5 s emulated scene with two events of different classes."""
    gen = np.random.default_rng(seed)
    lib = SampleLibrary(
        {
            "s0": LibrarySample("s0", 2, gen.standard_normal(24000) * 0.5),
            "s1": LibrarySample(
                "s1", 5, np.sin(2 * np.pi * 700 * np.arange(36000) / 24000)
            ),
        }
    )
    spec = SceneSpec(
        5.0,
        (
            SceneEvent(2, "s0", 0.5, random_direction(gen)),
            SceneEvent(5, "s1", 2.0, random_direction(gen)),
        ),
        snr_db=30.0,
        seed=seed,
    )
    clip, annotation = mix_scene(spec, lib, n_classes=n_classes)
    return clip, annotation


class IntensityPredictor:
    """A feature-reading model: class 0 active in every label frame, along the
    intensity DOA of the whole clip. It has no ``reads_features`` attribute,
    so callers must treat it as reading its features."""

    def __init__(self, n_classes: int = 13):
        self.n_classes = n_classes

    def predict(self, features, identity, label_frames):
        seq = np.zeros((label_frames, self.n_classes, 3))
        seq[:, 0] = dir_to_unit(doa_from_features(features)).as_array()
        return seq
