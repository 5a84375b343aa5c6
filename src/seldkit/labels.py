"""Frame-level event annotations and the headerless CSV table format.

``read_table``/``write_table`` are the one CSV format: label files here
and event files in ``accdoa`` share it. A label file holds one row per
active (frame, class, track) triple:
``frame,class_id,track_id,azimuth,elevation`` with the frame index on the
100 ms label grid. Azimuth/elevation are degrees.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

from .geometry import Direction

LABEL_COLUMNS = ("frame", "class_id", "track_id", "azimuth", "elevation")
LABEL_FRAME_S = 0.1  # length of one label frame, seconds


@dataclass(frozen=True)
class EventLabel:
    """One active source in one 100 ms label frame."""

    frame: int
    class_id: int
    track_id: int
    direction: Direction

    def __post_init__(self):
        if self.frame < 0:
            raise ValueError(f"frame must be >= 0, got {self.frame}")
        if self.class_id < 0:
            raise ValueError(f"class_id must be >= 0, got {self.class_id}")
        if self.track_id < 0:
            raise ValueError(f"track_id must be >= 0, got {self.track_id}")


@dataclass(frozen=True)
class ClipAnnotation:
    """All event labels of one clip, sorted by (frame, class_id, track_id)."""

    events: tuple = field(default_factory=tuple)
    n_classes: int = 13

    def __post_init__(self):
        events = tuple(sorted(self.events, key=lambda e: (e.frame, e.class_id, e.track_id)))
        seen = set()
        for ev in events:
            key = (ev.frame, ev.class_id, ev.track_id)
            if key in seen:
                raise ValueError(f"duplicate (frame, class, track) label {key}")
            seen.add(key)
            if ev.class_id >= self.n_classes:
                raise ValueError(
                    f"class_id {ev.class_id} out of range for n_classes={self.n_classes}"
                )
        object.__setattr__(self, "events", events)

    @property
    def max_frame(self) -> int:
        """Largest labeled frame index, or -1 when empty."""
        return self.events[-1].frame if self.events else -1


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


def _parse_label(row) -> EventLabel:
    return EventLabel(int(row[0]), int(row[1]), int(row[2]), Direction(float(row[3]), float(row[4])))


def read_labels(path, n_classes: int = 13) -> ClipAnnotation:
    """Parse a label CSV file. Malformed rows report their line number."""
    events = read_table(path, LABEL_COLUMNS, _parse_label)
    try:
        return ClipAnnotation(tuple(events), n_classes=n_classes)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_labels(annotation: ClipAnnotation, path) -> None:
    """Write an annotation in the canonical CSV form."""
    rows = (
        (ev.frame, ev.class_id, ev.track_id, ev.direction.azimuth, ev.direction.elevation)
        for ev in annotation.events
    )
    write_table(rows, path)
