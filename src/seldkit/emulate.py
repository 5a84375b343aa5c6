"""Scene emulation: FOA encoding, synthetic SRIRs, scene mixing, dataset sampling.

Dry class-wise samples are rendered into spatial scenes by convolving each
event with its own synthetic spatial room impulse response (a direct path
plus an exponentially decaying diffuse tail) and adding spatially diffuse
ambient noise at a prescribed SNR. Real spatial IRs recorded as 4-channel
WAVs can be dropped in through the same (4, length) array interface.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.signal import fftconvolve

from .audio import AudioClip, read_wav_mono
from .geometry import Direction, dir_to_unit
from .labels import LABEL_FRAME_S, ClipAnnotation, EventLabel
from .manifest import DatasetManifest, ManifestEntry
from .tensorio import check_keys, config_from_doc, read_json, typed_value

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SrirSynthConfig:
    sample_rate: int = 24000
    direct_delay_ms: float = 5.0
    rt60_s: float = 0.3
    direct_to_diffuse_db: float = 20.0
    ir_length_s: float = 0.5

    def __post_init__(self):
        for name in ("direct_delay_ms", "rt60_s", "ir_length_s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if math.isnan(self.direct_to_diffuse_db) or self.direct_to_diffuse_db == -math.inf:
            raise ValueError("direct_to_diffuse_db must be finite or +inf")
        if self.direct_delay_ms < 0:
            raise ValueError("direct_delay_ms must be >= 0")
        if self.rt60_s <= 0:
            raise ValueError("rt60_s must be positive")
        if self.ir_length_s <= self.direct_delay_ms / 1000.0:
            raise ValueError("ir_length_s must exceed the direct delay")


@dataclass(frozen=True)
class SceneEvent:
    class_id: int
    sample_id: str
    onset_s: float
    direction: Direction

    def __post_init__(self):
        if not (math.isfinite(self.onset_s) and self.onset_s >= 0):
            raise ValueError(f"onset_s must be finite and >= 0, got {self.onset_s}")


@dataclass(frozen=True)
class SceneSpec:
    """Declarative description of one emulated scene."""

    duration_s: float
    events: tuple = field(default_factory=tuple)
    snr_db: float = 30.0
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ValueError(f"duration_s must be finite and positive, got {self.duration_s}")
        if not math.isfinite(self.snr_db):
            raise ValueError("snr_db must be finite")
        object.__setattr__(self, "events", tuple(self.events))


@dataclass(frozen=True)
class LibrarySample:
    sample_id: str
    class_id: int
    waveform: np.ndarray
    sample_rate: int = 24000

    def __post_init__(self):
        w = np.asarray(self.waveform, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError(f"sample {self.sample_id!r}: waveform must be non-empty 1-D")
        if self.class_id < 0:
            raise ValueError(f"sample {self.sample_id!r}: class_id must be >= 0")
        object.__setattr__(self, "waveform", w)

    @property
    def duration_s(self) -> float:
        return self.waveform.size / self.sample_rate


@dataclass(frozen=True)
class SampleLibrary:
    """Dry mono source material, keyed by sample id."""

    samples: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "samples", dict(self.samples))

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, sample_id: str) -> LibrarySample:
        try:
            return self.samples[sample_id]
        except KeyError:
            raise KeyError(f"unknown sample_id {sample_id!r}") from None

    def class_counts(self) -> dict:
        counts: dict = {}
        for s in self.samples.values():
            counts[s.class_id] = counts.get(s.class_id, 0) + 1
        return counts


def foa_encode_gains(d: Direction) -> np.ndarray:
    """SN3D first-order encoding gains (W, X, Y, Z) for a plane wave from d."""
    u = dir_to_unit(d)
    return np.array([1.0, u.x, u.y, u.z])


def synth_srir(d: Direction, config: SrirSynthConfig, rng: np.random.Generator) -> np.ndarray:
    """Synthesize a 4-channel spatial impulse response, shaped (4, length).

    Direct path: a delta at the direct delay carrying the encoding gains of
    d. Diffuse tail: white noise, independent per channel (W included at
    the same level), under a 10^(-3 t / rt60) amplitude envelope so energy
    falls 60 dB over rt60_s; total tail energy is scaled to sit
    direct_to_diffuse_db below the direct-path energy. An infinite ratio
    disables the tail.
    """
    sr = config.sample_rate
    length = round(config.ir_length_s * sr)
    delay = round(config.direct_delay_ms / 1000.0 * sr)
    ir = np.zeros((4, length))
    gains = foa_encode_gains(d)
    ir[:, delay] = gains
    if math.isinf(config.direct_to_diffuse_db):
        return ir
    tail_len = length - delay - 1
    if tail_len <= 0:
        return ir
    t = np.arange(1, tail_len + 1) / sr
    envelope = 10.0 ** (-3.0 * t / config.rt60_s)
    tail = rng.standard_normal((4, tail_len)) * envelope
    direct_energy = float(gains @ gains)
    target = direct_energy * 10.0 ** (-config.direct_to_diffuse_db / 10.0)
    tail *= math.sqrt(target / float(np.sum(tail**2)))
    ir[:, delay + 1 :] = tail
    return ir


def render_event(sample: LibrarySample, srir: np.ndarray, sample_rate: int = 24000) -> AudioClip:
    """Convolve a dry mono sample with a 4-channel IR (full linear convolution)."""
    if sample.sample_rate != sample_rate:
        raise ValueError(
            f"sample rate mismatch: sample at {sample.sample_rate}, IR at {sample_rate}"
        )
    srir = np.asarray(srir, dtype=float)
    if srir.ndim != 2 or srir.shape[0] != 4:
        raise ValueError(f"IR must be shaped (4, length), got {srir.shape}")
    out = fftconvolve(sample.waveform[np.newaxis, :], srir, axes=1)
    return AudioClip(out, sample_rate)


def mix_scene(
    spec: SceneSpec,
    library: SampleLibrary,
    srir_config: SrirSynthConfig | None = None,
    n_classes: int = 13,
) -> tuple[AudioClip, ClipAnnotation]:
    """Render a scene spec into a 4-channel clip plus its annotation.

    Every event gets its own SRIR draw; rendered events are summed at their
    onsets and truncated at the scene end. Ambient noise (independent white
    noise per channel) is scaled so the ratio of event power to noise power
    over the event-active samples equals snr_db. Labels cover the frames
    [floor(onset / 0.1), ceil((onset + dry duration) / 0.1)) with one
    track id per same-class event.
    """
    srir_config = srir_config or SrirSynthConfig()
    sr = srir_config.sample_rate
    rng = np.random.default_rng(spec.seed)
    n = round(spec.duration_s * sr)
    mix = np.zeros((4, n))
    active = np.zeros(n, dtype=bool)
    labels = []
    tracks_per_class: dict = {}
    for ev in spec.events:
        sample = library[ev.sample_id]
        if sample.class_id != ev.class_id:
            raise ValueError(
                f"scene event class {ev.class_id} != library class {sample.class_id} "
                f"for sample {ev.sample_id!r}"
            )
        if sample.sample_rate != sr:
            raise ValueError(f"sample {ev.sample_id!r} rate {sample.sample_rate} != scene rate {sr}")
        if ev.onset_s + sample.duration_s > spec.duration_s + 1e-9:
            raise ValueError(
                f"event {ev.sample_id!r} at {ev.onset_s}s overruns the {spec.duration_s}s scene"
            )
        srir = synth_srir(ev.direction, srir_config, rng)
        rendered = render_event(sample, srir, sr)
        onset_n = round(ev.onset_s * sr)
        span = min(rendered.n_samples, n - onset_n)
        mix[:, onset_n : onset_n + span] += rendered.samples[:, :span]
        active[onset_n : onset_n + span] = True

        track_id = tracks_per_class.get(ev.class_id, 0)
        tracks_per_class[ev.class_id] = track_id + 1
        first = math.floor(ev.onset_s / LABEL_FRAME_S)
        last = math.ceil((ev.onset_s + sample.duration_s) / LABEL_FRAME_S)
        for frame in range(first, last):
            labels.append(EventLabel(frame, ev.class_id, track_id, ev.direction))

    noise = rng.standard_normal((4, n))
    if active.any():
        event_power = float(np.mean(np.sum(mix[:, active] ** 2, axis=0)))
        noise_power = float(np.mean(np.sum(noise[:, active] ** 2, axis=0)))
        noise *= math.sqrt(event_power * 10.0 ** (-spec.snr_db / 10.0) / noise_power)
    clip = AudioClip(mix + noise, sr)
    return clip, ClipAnnotation(tuple(labels), n_classes=n_classes)


def balance_classes(library: SampleLibrary, seed: int = 0) -> SampleLibrary:
    """Down-sample every class to the minimum nonzero class count."""
    if len(library) == 0:
        raise ValueError("library is empty")
    target = min(library.class_counts().values())
    rng = np.random.default_rng(seed)
    by_class: dict = {}
    for sid in sorted(library.samples):
        by_class.setdefault(library.samples[sid].class_id, []).append(sid)
    keep = set()
    for class_id in sorted(by_class):
        ids = by_class[class_id]
        if len(ids) <= target:
            keep.update(ids)
        else:
            keep.update(rng.choice(ids, size=target, replace=False))
    return SampleLibrary({sid: library.samples[sid] for sid in sorted(keep)})


def sample_epoch(real: DatasetManifest, emulated: DatasetManifest, seed: int = 0) -> DatasetManifest:
    """Compose one training epoch: all real entries plus an equal-size emulated draw.

    The emulated half is drawn without replacement (with replacement only
    when fewer emulated entries exist than real ones) and the combined
    order is shuffled by the seed. An empty emulated manifest degrades to
    the real entries with a warning.
    """
    if len(real) == 0:
        raise ValueError("real manifest must be non-empty")
    rng = np.random.default_rng(seed)
    combined = list(real.entries)
    if len(emulated) == 0:
        log.warning("sample_epoch: emulated manifest is empty, epoch is real data only")
    else:
        replace = len(emulated) < len(real)
        picks = rng.choice(len(emulated), size=len(real), replace=replace)
        combined.extend(emulated.entries[i] for i in picks)
    rng.shuffle(combined)
    return DatasetManifest(tuple(combined))


def load_library(path) -> SampleLibrary:
    """Load a sample library JSON: {"samples": [{sample_id, class_id, path}]}.

    WAV paths are resolved relative to the JSON file's directory. Every
    key is required: ``samples`` is an array, ``sample_id`` and ``path``
    are strings, ``class_id`` is an integer, and no two samples share a
    ``sample_id``. A missing key, a key the library does not read, a
    non-object or a value of the wrong type raises ValueError naming the
    library, and the sample's index for a sample.
    """
    base = Path(path).parent
    doc = read_json(path)
    check_keys(doc, LIBRARY_KEYS, "sample library", required=LIBRARY_KEYS)
    samples: dict = {}
    index_of: dict = {}
    for i, item in enumerate(typed_value(doc, "samples", (list,), "array", "sample library")):
        where = f"sample library sample {i}"
        check_keys(item, SAMPLE_KEYS, where, required=SAMPLE_KEYS)
        sample_id = typed_value(item, "sample_id", (str,), "string", where)
        class_id = typed_value(item, "class_id", (int,), "integer", where)
        wav_path = Path(typed_value(item, "path", (str,), "string", where))
        first = index_of.setdefault(sample_id, i)
        if first != i:
            raise ValueError(f"{where}: sample {first} has the same sample_id {sample_id!r}")
        if not wav_path.is_absolute():
            wav_path = base / wav_path
        waveform, sr = read_wav_mono(wav_path)
        try:
            samples[sample_id] = LibrarySample(sample_id, class_id, waveform, sr)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return SampleLibrary(samples)


LIBRARY_KEYS = frozenset(("samples",))
SAMPLE_KEYS = frozenset(("sample_id", "class_id", "path"))
SCENE_KEYS = frozenset(("duration_s", "snr_db", "seed", "events"))
EVENT_KEYS = frozenset(("class_id", "sample_id", "onset_s", "azimuth", "elevation"))
NUMBER = (int, float)


def scene_spec_from_json(doc: dict) -> SceneSpec:
    """Build a SceneSpec from its JSON document form.

    ``duration_s`` and every event key are required. Times, angles and
    ``snr_db`` are numbers, ``seed`` and ``class_id`` integers,
    ``sample_id`` a string, and ``events`` an array. A missing key, a key
    the spec does not read, a non-object or a value of the wrong type
    raises ValueError naming the spec, and the event's index for an event.
    """
    check_keys(doc, SCENE_KEYS, "scene spec", required=("duration_s",))
    events = []
    for i, e in enumerate(typed_value(doc, "events", (list,), "array", "scene spec", [])):
        where = f"scene spec event {i}"
        check_keys(e, EVENT_KEYS, where, required=EVENT_KEYS)
        class_id = typed_value(e, "class_id", (int,), "integer", where)
        sample_id = typed_value(e, "sample_id", (str,), "string", where)
        onset, azimuth, elevation = (
            float(typed_value(e, key, NUMBER, "number", where)) for key in ("onset_s", "azimuth", "elevation")
        )
        try:
            events.append(SceneEvent(class_id, sample_id, onset, Direction(azimuth, elevation)))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return config_from_doc(SceneSpec, {**doc, "events": events}, "scene spec")
