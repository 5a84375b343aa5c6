"""Scene emulation: FOA encoding, synthetic SRIRs, scene mixing, dataset sampling.

Dry class-wise samples are rendered into spatial scenes by convolving each
event with its own synthetic spatial room impulse response (a direct path
plus an exponentially decaying diffuse tail) and adding spatially diffuse
ambient noise at a prescribed SNR. Real spatial IRs recorded as 4-channel
WAVs can be dropped in through the same (4, length) array interface.
"""

from __future__ import annotations

import json
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

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SrirSynthConfig:
    sample_rate: int = 24000
    direct_delay_ms: float = 5.0
    rt60_s: float = 0.3
    direct_to_diffuse_db: float = 20.0
    ir_length_s: float = 0.5

    def __post_init__(self):
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
        if self.onset_s < 0:
            raise ValueError("onset_s must be >= 0")


@dataclass(frozen=True)
class SceneSpec:
    """Declarative description of one emulated scene."""

    duration_s: float
    events: tuple = field(default_factory=tuple)
    snr_db: float = 30.0
    seed: int = 0

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
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

    WAV paths are resolved relative to the JSON file's directory. A key
    the library does not read raises ValueError naming it, and the
    sample's index for a sample key.
    """
    base = Path(path).parent
    with open(path) as f:
        doc = json.load(f)
    _reject_unknown_keys(doc, LIBRARY_KEYS, "sample library")
    samples = {}
    for i, item in enumerate(doc["samples"]):
        _reject_unknown_keys(item, SAMPLE_KEYS, f"sample library sample {i}")
        wav_path = Path(item["path"])
        if not wav_path.is_absolute():
            wav_path = base / wav_path
        waveform, sr = read_wav_mono(wav_path)
        samples[item["sample_id"]] = LibrarySample(
            item["sample_id"], int(item["class_id"]), waveform, sr
        )
    return SampleLibrary(samples)


LIBRARY_KEYS = frozenset(("samples",))
SAMPLE_KEYS = frozenset(("sample_id", "class_id", "path"))
SCENE_KEYS = frozenset(("duration_s", "snr_db", "seed", "events"))
EVENT_KEYS = frozenset(("class_id", "sample_id", "onset_s", "azimuth", "elevation"))


def _reject_unknown_keys(doc: dict, keys: frozenset, where: str) -> None:
    unknown = sorted(set(doc) - keys)
    if unknown:
        raise ValueError(f"unknown {where} keys: {', '.join(unknown)}")


def scene_spec_from_json(doc: dict) -> SceneSpec:
    """Build a SceneSpec from its JSON document form.

    A key the spec does not read raises ValueError naming it, and the
    event's index for an event key.
    """
    _reject_unknown_keys(doc, SCENE_KEYS, "scene spec")
    for i, e in enumerate(doc.get("events", ())):
        _reject_unknown_keys(e, EVENT_KEYS, f"scene spec event {i}")
    events = tuple(
        SceneEvent(
            int(e["class_id"]),
            str(e["sample_id"]),
            float(e["onset_s"]),
            Direction(float(e["azimuth"]), float(e["elevation"])),
        )
        for e in doc.get("events", ())
    )
    return SceneSpec(
        duration_s=float(doc["duration_s"]),
        events=events,
        snr_db=float(doc.get("snr_db", 30.0)),
        seed=int(doc.get("seed", 0)),
    )
