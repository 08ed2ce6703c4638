"""Artifact writers: CSV with 17 significant digits, atomic file replacement,
and a small dependency-free SVG line plot for the optional diagnostics."""
from __future__ import annotations

import math
import os
import tempfile
from pathlib import Path


def fmt_number(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def atomic_write_text(path, text):
    """Write via a sibling temp file and rename, so readers never see a
    half-written artifact and parallel runs into distinct dirs cannot clash.
    text is a str or an iterable of str chunks, written in order."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            if isinstance(text, str):
                handle.write(text)
            else:
                handle.writelines(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt_number(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


CSV_CHUNK_ROWS = 512


def write_float_csv(path, header, table):
    """write_csv of a 2-D float array, the same text streamed to the file:
    each chunk of CSV_CHUNK_ROWS rows is one %-format of its values."""
    row = ",".join(["%.17g"] * len(header)) + "\n"

    def chunks():
        yield ",".join(header) + "\n"
        for start in range(0, len(table), CSV_CHUNK_ROWS):
            part = table[start : start + CSV_CHUNK_ROWS]
            yield (row * len(part)) % tuple(part.ravel().tolist())

    atomic_write_text(path, chunks())


def _scale(values, log: bool, span: tuple, pixel: tuple):
    lo, hi = span
    a, b = pixel
    if log:
        lo, hi = math.log10(lo), math.log10(hi)
        values = [math.log10(v) for v in values]
    if hi <= lo:
        hi = lo + 1.0
    return [a + (v - lo) / (hi - lo) * (b - a) for v in values]


def svg_line_plot(path, xs, ys, title: str, xlabel: str, ylabel: str,
                  log_x: bool = False, log_y: bool = False):
    """One polyline on labeled axes; decorative output, CSV is the contract."""
    width, height = 640, 480
    m = 60
    pts = [(x, y) for x, y in zip(xs, ys)
           if (not log_x or x > 0) and (not log_y or y > 0)]
    if len(pts) < 2:
        atomic_write_text(path, f'<svg xmlns="http://www.w3.org/2000/svg" '
                                f'width="{width}" height="{height}"/>')
        return
    px = [p[0] for p in pts]
    py = [p[1] for p in pts]
    sx = _scale(px, log_x, (min(px), max(px)), (m, width - m))
    sy = _scale(py, log_y, (min(py), max(py)), (height - m, m))
    poly = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(sx, sy))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{m}" y1="{height - m}" x2="{width - m}" y2="{height - m}" stroke="black"/>',
        f'<line x1="{m}" y1="{m}" x2="{m}" y2="{height - m}" stroke="black"/>',
        f'<polyline points="{poly}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" font-size="15">{title}</text>',
        f'<text x="{width / 2:.0f}" y="{height - 18}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="18" y="{height / 2:.0f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 18 {height / 2:.0f})">{ylabel}</text>',
        f'<text x="{m}" y="{height - m + 16}" font-size="10">{fmt_short(min(px))}</text>',
        f'<text x="{width - m}" y="{height - m + 16}" text-anchor="end" font-size="10">{fmt_short(max(px))}</text>',
        f'<text x="{m - 4}" y="{height - m}" text-anchor="end" font-size="10">{fmt_short(min(py))}</text>',
        f'<text x="{m - 4}" y="{m + 4}" text-anchor="end" font-size="10">{fmt_short(max(py))}</text>',
        "</svg>",
    ]
    atomic_write_text(path, "\n".join(parts) + "\n")


def fmt_short(x: float) -> str:
    return f"{x:.3g}"
