"""Frame-level event annotations and their CSV format.

One CSV row per active (frame, class, track) triple:
``frame,class_id,track_id,azimuth,elevation`` with the frame index on the
100 ms label grid. No header. Azimuth/elevation are degrees; writing uses
the shortest lossless float representation, so write(read(f)) is
byte-identical for files this module produced.
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


def _fmt_angle(value: float) -> str:
    return repr(float(value))


def read_labels(path, n_classes: int = 13) -> ClipAnnotation:
    """Parse a label CSV file. Malformed rows report their line number."""
    events = []
    with open(path, newline="") as f:
        for lineno, row in enumerate(csv.reader(f), start=1):
            if not row:
                continue
            if len(row) != len(LABEL_COLUMNS):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(LABEL_COLUMNS)} columns "
                    f"({','.join(LABEL_COLUMNS)}), got {len(row)}"
                )
            try:
                frame, class_id, track_id = int(row[0]), int(row[1]), int(row[2])
                az, el = float(row[3]), float(row[4])
                events.append(EventLabel(frame, class_id, track_id, Direction(az, el)))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    try:
        return ClipAnnotation(tuple(events), n_classes=n_classes)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_labels(annotation: ClipAnnotation, path) -> None:
    """Write an annotation in the canonical CSV form."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        for ev in annotation.events:
            writer.writerow(
                [
                    ev.frame,
                    ev.class_id,
                    ev.track_id,
                    _fmt_angle(ev.direction.azimuth),
                    _fmt_angle(ev.direction.elevation),
                ]
            )
