"""Frame-level event annotations and the headerless CSV table format.

``read_table``/``write_table`` are the one CSV format: label files here
and event files in ``accdoa`` share it. A label file holds one row per
active (frame, class, track) triple:
``frame,class_id,track_id,azimuth,elevation`` with the frame index on the
100 ms label grid. Azimuth/elevation are degrees.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .geometry import Direction

LABEL_COLUMNS = ("frame", "class_id", "track_id", "azimuth", "elevation")
LABEL_FRAME_S = 0.1  # length of one label frame, seconds


def _check_ids(frame: int, class_id: int, track_id: int) -> None:
    for name, value in (("frame", frame), ("class_id", class_id), ("track_id", track_id)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class EventLabel:
    """One active source in one 100 ms label frame."""

    frame: int
    class_id: int
    track_id: int
    direction: Direction

    def __post_init__(self):
        _check_ids(self.frame, self.class_id, self.track_id)


class ClipAnnotation:
    """All event labels of one clip, as columns sorted by (frame, class_id, track_id).

    ``frame``, ``class_id`` and ``track_id`` are read-only integer arrays
    with one row per label. An event keeps its direction over many label
    frames, so the directions are held once each: row ``i`` has
    ``directions[inverse[i]]``, and scoring or encoding converts each of
    them once. ``ClipAnnotation(events, n_classes)`` builds the columns
    from ``EventLabel`` objects, sharing a direction among the events that
    carry the same ``Direction`` object; ``events`` is the tuple of
    ``EventLabel`` objects again, in row order, made when first read.
    A repeated (frame, class, track) triple or a class of ``n_classes`` or
    above raises ValueError.
    """

    def __init__(self, events=(), n_classes: int = 13):
        events = tuple(events)
        directions = list({id(ev.direction): ev.direction for ev in events}.values())
        slot = {id(d): i for i, d in enumerate(directions)}
        ids = np.array([(ev.frame, ev.class_id, ev.track_id) for ev in events], dtype=np.intp).reshape(-1, 3)
        inverse = np.array([slot[id(ev.direction)] for ev in events], dtype=np.intp)
        order = self._set(*ids.T, tuple(directions), inverse, n_classes)
        self._events = tuple(events[i] for i in order.tolist())

    @classmethod
    def from_columns(cls, frame, class_id, track_id, directions, inverse, n_classes: int = 13) -> "ClipAnnotation":
        """Sort and check label columns; row ``i`` has direction ``directions[inverse[i]]``.

        The ids must be non-negative, as ``read_labels`` checks them row by row.
        """
        annotation = cls.__new__(cls)
        annotation._set(frame, class_id, track_id, tuple(directions), inverse, n_classes)
        annotation._events = None
        return annotation

    def _set(self, frame, class_id, track_id, directions, inverse, n_classes) -> np.ndarray:
        """Store the columns in (frame, class_id, track_id) order; returns the sorting permutation."""
        order = np.lexsort((track_id, class_id, frame))  # stable, as sorted() is
        frame, class_id, track_id, inverse = (
            np.asarray(column, dtype=np.intp)[order] for column in (frame, class_id, track_id, inverse)
        )
        # the first row, in sorted order, that repeats its predecessor's triple or has a class out of range
        repeat = np.zeros(len(frame), dtype=bool)
        repeat[1:] = (frame[1:] == frame[:-1]) & (class_id[1:] == class_id[:-1]) & (track_id[1:] == track_id[:-1])
        bad = repeat | (class_id >= n_classes)
        if bad.any():
            i = int(bad.argmax())
            if repeat[i]:
                key = (int(frame[i]), int(class_id[i]), int(track_id[i]))
                raise ValueError(f"duplicate (frame, class, track) label {key}")
            raise ValueError(f"class_id {int(class_id[i])} out of range for n_classes={n_classes}")
        for column in (frame, class_id, track_id, inverse):
            column.flags.writeable = False
        self.frame, self.class_id, self.track_id, self.inverse = frame, class_id, track_id, inverse
        self.directions = directions
        self.n_classes = n_classes
        return order

    @property
    def events(self) -> tuple:
        """The labels as ``EventLabel`` objects, in row order; rows of one direction share its object."""
        if self._events is None:
            columns = (self.frame.tolist(), self.class_id.tolist(), self.track_id.tolist())
            directions = [self.directions[i] for i in self.inverse.tolist()]
            self._events = tuple(map(EventLabel, *columns, directions))
        return self._events

    @property
    def max_frame(self) -> int:
        """Largest labeled frame index, or -1 when empty."""
        return int(self.frame[-1]) if len(self.frame) else -1

    def __eq__(self, other):
        if not isinstance(other, ClipAnnotation):
            return NotImplemented
        return self.n_classes == other.n_classes and self.events == other.events

    def __hash__(self):
        return hash((self.events, self.n_classes))

    def __repr__(self):
        return f"ClipAnnotation(events={self.events!r}, n_classes={self.n_classes!r})"


def read_table(path, columns: tuple, parse) -> list:
    """Read a headerless CSV table, one ``parse(row)`` record per row.

    Blank rows are skipped. A row without one value per column, or one
    ``parse`` rejects with ValueError, raises ValueError naming the file
    and line.
    """
    records = []
    with open(path, newline="") as f:
        for lineno, row in enumerate(csv.reader(f), start=1):
            if not row:
                continue
            try:
                if len(row) != len(columns):
                    raise ValueError(f"expected {len(columns)} columns ({','.join(columns)}), got {len(row)}")
                records.append(parse(row))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return records


def write_table(rows, path) -> None:
    """Write rows as a headerless CSV table with ``\\r\\n`` row ends.

    csv writes a float as its ``repr``, the shortest form that reads back
    to the same value, so write(read(f)) is byte-identical for a file
    written here.
    """
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)


def read_labels(path, n_classes: int = 13) -> ClipAnnotation:
    """Parse a label CSV file into columns. Malformed rows report their line number.

    The rows of one ``(azimuth, elevation)`` text pair share one
    ``Direction``, built from the first of them; a text pair that fails to
    parse is never shared, so each row giving it names its own line. No
    ``EventLabel`` is built (see ``ClipAnnotation``). The checks and their
    messages are those of ``EventLabel`` rows read one by one: a row's
    column count, its direction, then its integer ids, the first bad row
    raising; then, in (frame, class, track) order, a repeated triple or a
    class of ``n_classes`` or above, naming the file.
    """
    slots: dict = {}  # (azimuth text, elevation text) -> index into directions
    directions: list = []

    def parse(row) -> tuple:
        slot = slots.get((row[3], row[4]))
        if slot is None:
            direction = Direction(float(row[3]), float(row[4]))
            slot = slots[row[3], row[4]] = len(directions)
            directions.append(direction)
        frame, class_id, track_id = int(row[0]), int(row[1]), int(row[2])
        if frame < 0 or class_id < 0 or track_id < 0:
            _check_ids(frame, class_id, track_id)
        return frame, class_id, track_id, slot

    rows = read_table(path, LABEL_COLUMNS, parse)
    try:
        frame, class_id, track_id, inverse = np.array(rows, dtype=np.intp).reshape(-1, 4).T
    except OverflowError as exc:
        raise ValueError(f"{path}: a frame, class or track id does not fit in 64 bits") from exc
    try:
        return ClipAnnotation.from_columns(frame, class_id, track_id, directions, inverse, n_classes)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_labels(annotation: ClipAnnotation, path) -> None:
    """Write an annotation in the canonical CSV form."""
    rows = (
        (ev.frame, ev.class_id, ev.track_id, ev.direction.azimuth, ev.direction.elevation)
        for ev in annotation.events
    )
    write_table(rows, path)
