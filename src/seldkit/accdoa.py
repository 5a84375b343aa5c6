"""Activity-coupled Cartesian DOA sequences: encode, decode, event CSV.

A sequence is an array shaped (label_frames, n_classes, 3). The vector of
an active (frame, class) cell is the source's unit DOA scaled by its
activity; inactive cells are zero. Decoding thresholds the vector norm.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .geometry import Direction, norm3, unit_vectors, vector_angles
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


class EventTable(Sequence):
    """Detections as columns: ``frame``, ``class_id``, ``azimuth``, ``elevation``, ``activity``.

    What ``decode``, ``aggregate`` and ``run_tta`` return and
    ``metrics.evaluate_stats`` reads: one row per detection, as read-only
    arrays, so no per-event object is built on the scoring path. The
    azimuths are wrapped into (-180, 180], as a ``Direction`` holds them.
    The table is also a read-only ``Sequence[DetectedEvent]``: indexing or
    iterating makes the event of a row, and a table equals the list (or
    any sequence) of its events, as its ``repr`` is that list's.
    ``EventTable.from_events`` gives the table of any detections.
    """

    __slots__ = ("frame", "class_id", "azimuth", "elevation", "activity")

    def __init__(self, frame, class_id, azimuth, elevation, activity):
        columns = [np.asarray(frame, dtype=np.intp), np.asarray(class_id, dtype=np.intp)]
        columns += [np.asarray(column, dtype=float) for column in (azimuth, elevation, activity)]
        if len({column.shape for column in columns}) != 1 or columns[0].ndim != 1:
            raise ValueError(f"event columns must be 1-D of one length, got {[c.shape for c in columns]}")
        for name, column in zip(self.__slots__, columns):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @classmethod
    def from_events(cls, events) -> "EventTable":
        """The table of ``DetectedEvent`` objects, in their order; a table is returned as it is."""
        if isinstance(events, EventTable):
            return events
        events = list(events)
        return cls(
            [ev.frame for ev in events],
            [ev.class_id for ev in events],
            [ev.direction.azimuth for ev in events],
            [ev.direction.elevation for ev in events],
            [ev.activity for ev in events],
        )

    def __setattr__(self, name, value):
        raise AttributeError("an EventTable is read-only")

    def __len__(self) -> int:
        return len(self.frame)

    def __iter__(self):
        columns = (getattr(self, name).tolist() for name in self.__slots__)
        for frame, class_id, azimuth, elevation, activity in zip(*columns):
            yield DetectedEvent(frame, class_id, Direction(azimuth, elevation), activity)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        i = range(len(self))[index]  # an int in range, or IndexError
        return DetectedEvent(
            int(self.frame[i]), int(self.class_id[i]), Direction(float(self.azimuth[i]), float(self.elevation[i])),
            float(self.activity[i]),
        )

    def __eq__(self, other):
        if isinstance(other, EventTable):
            return len(self) == len(other) and all(
                np.array_equal(getattr(self, name), getattr(other, name)) for name in self.__slots__
            )
        if isinstance(other, Sequence) and not isinstance(other, (str, bytes)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


def encode(annotation: ClipAnnotation, label_frames: int) -> np.ndarray:
    """Encode ground truth as an ACCDOA sequence.

    Reads the annotation's columns (``labels.ClipAnnotation``): each
    distinct direction is converted once and its unit vector scattered
    into the cells of its events. A single-track sequence holds one vector
    per (frame, class), so two same-class tracks in one frame cannot be
    represented and raise ValueError, as does an event past
    ``label_frames``; the first such event in (frame, class, track) order
    names the error. The clustering TTA stage is the mechanism that emits
    same-class multiples.
    """
    frames, classes = annotation.frame, annotation.class_id  # sorted by (frame, class, track)
    # an event past the sequence, or sharing its (frame, class) cell with the event before it
    bad = frames >= label_frames
    bad[1:] |= (frames[1:] == frames[:-1]) & (classes[1:] == classes[:-1])
    if bad.any():
        i = int(bad.argmax())
        frame, class_id = int(frames[i]), int(classes[i])
        if frame >= label_frames:
            raise ValueError(f"event frame {frame} outside sequence of {label_frames} frames")
        raise ValueError(
            f"cannot encode two class-{class_id} events in frame {frame}: "
            "single-track sequences hold one vector per class"
        )
    seq = np.zeros((label_frames, annotation.n_classes, 3))
    seq[frames, classes] = unit_vectors(annotation.directions)[annotation.inverse]
    return seq


def decode(seq, threshold: float = 0.5) -> EventTable:
    """Decode events from a sequence: active wherever the vector norm exceeds the threshold.

    Returns an ``EventTable``, equal to the list of ``DetectedEvent``
    objects it holds. Events come in (frame, class) order, each with the
    azimuth and elevation of its cell's vector (``geometry.vector_angles``,
    bit-equal to ``unit_to_dir`` cell by cell) and its norm as the
    activity. A NaN or infinite value raises ValueError rather than
    reading as inactive, and so does a finite vector whose norm overflows;
    both name the frame and the class.
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
        norms = norm3(arr)
    bad = np.argwhere(np.isinf(norms))
    if len(bad):
        raise ValueError(f"vector norm overflows at frame {bad[0][0]}, class {bad[0][1]}")
    frames, classes = np.nonzero(norms > threshold)
    azimuth, elevation = vector_angles(arr[frames, classes])
    return EventTable(frames, classes, azimuth, elevation, norms[frames, classes])


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
