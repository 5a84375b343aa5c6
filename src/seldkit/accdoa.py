"""Activity-coupled Cartesian DOA sequences: encode, decode, event CSV.

A sequence is an array shaped (label_frames, n_classes, 3). The vector of
an active (frame, class) cell is the source's unit DOA scaled by its
activity; inactive cells are zero. Decoding thresholds the vector norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Direction, unit_vectors, vector_directions
from .labels import ClipAnnotation, read_table, write_table

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
        object.__setattr__(self, "activity", float(self.activity))
        if not (math.isfinite(self.activity) and self.activity > 0):
            raise ValueError(f"activity must be positive and finite, got {self.activity}")


class EncodingIndex:
    """An annotation's event cells and distinct directions, ready to encode under any direction map.

    Index a clip once; each ``encode`` call then converts every distinct
    direction once and scatters the unit vectors into the events' cells.
    Directions are distinct by their exact float bits, not by ``==``:
    elevations 0.0 and -0.0 compare equal but encode to z = 0.0 and -0.0.
    """

    def __init__(self, annotation: ClipAnnotation):
        events = annotation.events  # sorted by (frame, class, track)
        self.n_classes = annotation.n_classes
        self.frames = np.fromiter((ev.frame for ev in events), dtype=np.intp, count=len(events))
        self.classes = np.fromiter((ev.class_id for ev in events), dtype=np.intp, count=len(events))
        # an event sharing its (frame, class) cell with the event before it
        self.repeats = np.zeros(len(events), dtype=bool)
        self.repeats[1:] = (self.frames[1:] == self.frames[:-1]) & (self.classes[1:] == self.classes[:-1])
        slots: dict = {}
        self.directions: list[Direction] = []
        self.inverse = np.empty(len(events), dtype=np.intp)
        for i, ev in enumerate(events):
            key = (ev.direction.azimuth.hex(), ev.direction.elevation.hex())
            if key not in slots:
                slots[key] = len(self.directions)
                self.directions.append(ev.direction)
            self.inverse[i] = slots[key]

    def encode(self, label_frames: int, transform=None) -> np.ndarray:
        """The sequence of the events with each direction ``d`` mapped to ``transform(d)``.

        Raises ValueError at the first event, in (frame, class, track)
        order, that lies past the sequence or shares its cell with another.
        """
        bad = self.repeats | (self.frames >= label_frames)
        if bad.any():
            i = int(bad.argmax())
            frame, class_id = int(self.frames[i]), int(self.classes[i])
            if frame >= label_frames:
                raise ValueError(f"event frame {frame} outside sequence of {label_frames} frames")
            raise ValueError(
                f"cannot encode two class-{class_id} events in frame {frame}: "
                "single-track sequences hold one vector per class"
            )
        mapped = self.directions if transform is None else map(transform, self.directions)
        seq = np.zeros((label_frames, self.n_classes, 3))
        seq[self.frames, self.classes] = unit_vectors(mapped)[self.inverse]
        return seq


def encode(annotation: ClipAnnotation, label_frames: int) -> np.ndarray:
    """Encode ground truth as an ACCDOA sequence (see ``EncodingIndex``).

    A single-track sequence holds one vector per (frame, class), so two
    same-class tracks in one frame cannot be represented and raise
    ValueError, as does an event past ``label_frames``; the clustering
    TTA stage is the mechanism that emits same-class multiples.
    """
    return EncodingIndex(annotation).encode(label_frames)


def decode(seq, threshold: float = 0.5) -> list[DetectedEvent]:
    """Decode events from a sequence: active wherever the vector norm exceeds the threshold.

    Events come in (frame, class) order, each with the direction of its
    cell's vector (``geometry.vector_directions``, bit-equal to
    ``unit_to_dir`` cell by cell) and its norm as the activity. A NaN or
    infinite value raises ValueError rather than reading as inactive, and
    so does a finite vector whose norm overflows; both name the frame and
    the class.
    """
    if not 0.0 < threshold < MAX_ACTIVITY:
        raise ValueError(f"threshold must be in (0, sqrt(3)), got {threshold}")
    arr = np.asarray(seq, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"expected shape (frames, classes, 3), got {arr.shape}")
    bad = np.argwhere(~np.isfinite(arr))
    if len(bad):
        raise ValueError(f"non-finite sequence value at frame {bad[0][0]}, class {bad[0][1]}")
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(arr, axis=2)
    bad = np.argwhere(np.isinf(norms))
    if len(bad):
        raise ValueError(f"vector norm overflows at frame {bad[0][0]}, class {bad[0][1]}")
    frames, classes = np.nonzero(norms > threshold)
    directions = vector_directions(arr[frames, classes])
    return [
        DetectedEvent(frame, class_id, direction, activity)
        for frame, class_id, direction, activity in zip(
            frames.tolist(), classes.tolist(), directions, norms[frames, classes].tolist()
        )
    ]


def write_events(events, path) -> None:
    """Write detections as CSV rows frame,class_id,azimuth,elevation,activity."""
    ordered = sorted(events, key=lambda e: (e.frame, e.class_id, e.direction.azimuth))
    rows = ((ev.frame, ev.class_id, ev.direction.azimuth, ev.direction.elevation, ev.activity) for ev in ordered)
    write_table(rows, path)


def _parse_event(row) -> DetectedEvent:
    frame, class_id = int(row[0]), int(row[1])
    if frame < 0 or class_id < 0:
        raise ValueError(f"frame and class_id must be non-negative, got {frame}, {class_id}")
    return DetectedEvent(frame, class_id, Direction(float(row[2]), float(row[3])), float(row[4]))


def read_events(path) -> list[DetectedEvent]:
    """Read detections from CSV rows frame,class_id,azimuth,elevation,activity.

    Blank lines are skipped. A row with the wrong column count, a negative
    frame or class, an invalid direction or an activity that is not
    positive and finite raises ValueError naming the file and line:
    scoring has no cell for a negative frame or class, so such a row
    would otherwise vanish.
    """
    return read_table(path, EVENT_COLUMNS, _parse_event)
