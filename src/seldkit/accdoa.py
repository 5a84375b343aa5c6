"""Activity-coupled Cartesian DOA sequences: encode, decode, event CSV.

A sequence is an array shaped (label_frames, n_classes, 3). The vector of
an active (frame, class) cell is the source's unit DOA scaled by its
activity; inactive cells are zero. Decoding thresholds the vector norm.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Direction, dir_to_unit, unit_to_dir
from .labels import ClipAnnotation

MAX_ACTIVITY = math.sqrt(3.0)

EVENT_COLUMNS = ("frame", "class_id", "azimuth", "elevation", "activity")


@dataclass(frozen=True)
class DetectedEvent:
    """A decoded detection: one class active in one label frame."""

    frame: int
    class_id: int
    direction: Direction
    activity: float

    def __post_init__(self):
        if self.activity <= 0:
            raise ValueError(f"activity must be positive, got {self.activity}")


def encode(annotation: ClipAnnotation, label_frames: int) -> np.ndarray:
    """Encode ground truth as an ACCDOA sequence.

    A single-track sequence holds one vector per (frame, class), so two
    same-class tracks in one frame cannot be represented and raise; the
    clustering TTA stage is the mechanism that emits same-class multiples.
    """
    seq = np.zeros((label_frames, annotation.n_classes, 3))
    occupied = set()
    for ev in annotation.events:
        if ev.frame >= label_frames:
            raise ValueError(f"event frame {ev.frame} outside sequence of {label_frames} frames")
        cell = (ev.frame, ev.class_id)
        if cell in occupied:
            raise ValueError(
                f"cannot encode two class-{ev.class_id} events in frame {ev.frame}: "
                "single-track sequences hold one vector per class"
            )
        occupied.add(cell)
        seq[ev.frame, ev.class_id] = dir_to_unit(ev.direction).as_array()
    return seq


def decode(seq, threshold: float = 0.5) -> list[DetectedEvent]:
    """Decode events from a sequence: active wherever the vector norm exceeds the threshold.

    A NaN or infinite value raises ValueError rather than reading as inactive.
    """
    if not 0.0 < threshold < MAX_ACTIVITY:
        raise ValueError(f"threshold must be in (0, sqrt(3)), got {threshold}")
    arr = np.asarray(seq, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"expected shape (frames, classes, 3), got {arr.shape}")
    bad = np.argwhere(~np.isfinite(arr))
    if len(bad):
        raise ValueError(f"non-finite sequence value at frame {bad[0][0]}, class {bad[0][1]}")
    norms = np.linalg.norm(arr, axis=2)
    events = []
    for frame, class_id in zip(*np.nonzero(norms > threshold)):
        v = arr[frame, class_id]
        events.append(
            DetectedEvent(int(frame), int(class_id), unit_to_dir(v), float(norms[frame, class_id]))
        )
    return events


def write_events(events, path) -> None:
    """Write detections as CSV rows frame,class_id,azimuth,elevation,activity."""
    ordered = sorted(events, key=lambda e: (e.frame, e.class_id, e.direction.azimuth))
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        for ev in ordered:
            writer.writerow(
                [
                    ev.frame,
                    ev.class_id,
                    repr(ev.direction.azimuth),
                    repr(ev.direction.elevation),
                    repr(ev.activity),
                ]
            )


def read_events(path) -> list[DetectedEvent]:
    events = []
    with open(path, newline="") as f:
        for lineno, row in enumerate(csv.reader(f), start=1):
            if not row:
                continue
            if len(row) != len(EVENT_COLUMNS):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(EVENT_COLUMNS)} columns, got {len(row)}"
                )
            try:
                events.append(
                    DetectedEvent(
                        int(row[0]),
                        int(row[1]),
                        Direction(float(row[2]), float(row[3])),
                        float(row[4]),
                    )
                )
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return events
