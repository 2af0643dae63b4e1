"""Serialization: matrix input, JSON reports, CSV exports, run manifests.

Matrices are accepted either as JSON (row-major ``entries`` with ``[re, im]``
pairs) or as whitespace-separated real rows in plain text.  All JSON outputs
are emitted with sorted keys and fixed formatting so identical inputs and
seeds produce bit-identical files; manifests, which carry timestamps, are
written as separate sidecar files and never mixed into result payloads.
"""

from __future__ import annotations

import csv
import datetime
import io
import json
import sys

import numpy as np

from . import __version__
from .errors import InvalidInputError
from .matgap import ComplexMatrix, DiagonalScaling

__all__ = [
    "load_matrix",
    "load_scaling",
    "dump_json",
    "profile_csv",
    "weights_csv",
    "trajectory_csv",
    "landscape_csv",
    "build_manifest",
]


def _matrix_from_json_doc(doc) -> ComplexMatrix:
    if isinstance(doc, dict):
        if "entries" not in doc:
            raise InvalidInputError("matrix JSON must carry an 'entries' field")
        rows = doc["entries"]
    else:
        rows = doc
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is not None and arr.ndim == 2:
        return ComplexMatrix(arr)
    if arr is not None and arr.ndim == 3 and arr.shape[2] == 2:
        return ComplexMatrix(arr[..., 0] + 1j * arr[..., 1])
    raise InvalidInputError("matrix JSON entries must be rows of numbers or [re, im] pairs")


def _read_text(source, what) -> str:
    """Text of an open file, of stdin for '-', or of the file at a path."""
    if hasattr(source, "read"):
        return source.read()
    if source == "-":
        return sys.stdin.read()
    try:
        with open(source) as fh:
            return fh.read()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {what} file {source!r}: {exc.strerror}") from exc


def load_matrix(source) -> ComplexMatrix:
    """Read a matrix from a path, an open file, or '-' (stdin)."""
    text = _read_text(source, "matrix")
    text = text.strip()
    if not text:
        raise InvalidInputError("empty matrix input")
    if text[0] in "{[":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"matrix JSON does not parse: {exc}") from exc
        return _matrix_from_json_doc(doc)
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([float(tok) for tok in line.split()])
        except ValueError as exc:
            raise InvalidInputError(f"bad matrix row {line!r}") from exc
    if not rows or any(len(r) != len(rows) for r in rows):
        raise InvalidInputError("text matrix must be square, one row per line")
    return ComplexMatrix(np.asarray(rows))


def load_scaling(source) -> DiagonalScaling:
    """Read a diagonal scaling from JSON at a path, an open file, or '-'.

    The key decides: ``{"s": [...]}`` or a bare list gives the positive
    diagonal entries, ``{"logs": [...]}`` their logarithms, shifted so that
    t_1 = 0.
    """
    try:
        doc = json.loads(_read_text(source, "scaling"))
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"scaling JSON does not parse: {exc}") from exc
    key = "s"
    if isinstance(doc, dict):
        keys = [k for k in ("s", "logs") if k in doc]
        if len(keys) != 1:
            raise InvalidInputError("scaling JSON must carry exactly one of 's' and 'logs'")
        key = keys[0]
        doc = doc[key]
    try:
        vals = np.asarray(doc, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError("scaling entries must be numbers") from exc
    if vals.ndim != 1 or vals.size < 1:
        raise InvalidInputError("scaling entries must be a nonempty list")
    if key == "s":
        return DiagonalScaling.from_s(vals)
    return DiagonalScaling(vals - vals[0])


def dump_json(obj, path=None) -> str:
    """Deterministic JSON encoding; optionally written to a file."""
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.16g}" if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def profile_csv(profile, cd) -> str:
    head = ["x", "h", "U", "alpha1", "alpha2", "gamma1", "gamma2"]
    rows = [
        [float(profile.grid[i]), float(profile.h_samples[i]),
         float(profile.U_samples[i]), float(cd.alpha1[i]), float(cd.alpha2[i]),
         float(cd.gamma1[i]), float(cd.gamma2[i])]
        for i in range(len(profile.grid))
    ]
    return _csv_text(head, rows)


def weights_csv(profile, cd, weights) -> str:
    head = ["x", "h", "U", "alpha1", "alpha2", "gamma1", "gamma2",
            "Omega1", "Omega2"]
    rows = [
        [float(profile.grid[i]), float(profile.h_samples[i]),
         float(profile.U_samples[i]), float(cd.alpha1[i]), float(cd.alpha2[i]),
         float(cd.gamma1[i]), float(cd.gamma2[i]),
         float(weights.omega1[i]), float(weights.omega2[i])]
        for i in range(len(profile.grid))
    ]
    return _csv_text(head, rows)


def trajectory_csv(traj) -> str:
    complex_shift = np.any(np.abs(np.imag(traj.y)) > 0)
    head = ["t", "L2", "H1", "E", "y"] + (["y_im"] if complex_shift else [])
    rows = []
    for i in range(len(traj.times)):
        row = [float(traj.times[i]), float(traj.L2[i]), float(traj.H1[i]),
               float(traj.energy[i]), float(np.real(traj.y[i]))]
        if complex_shift:
            row.append(float(np.imag(traj.y[i])))
        rows.append(row)
    return _csv_text(head, rows)


def landscape_csv(curve, n_points: int = 721) -> str:
    thetas = np.linspace(0.0, 2.0 * np.pi, n_points)
    head = ["theta", "rho", "closed_form"]
    rows = [
        [float(t), float(curve(float(t))), float(np.sqrt(2.0 * (1.0 - np.cos(t))))]
        for t in thetas
    ]
    return _csv_text(head, rows)


def build_manifest(command: str, parameters: dict, seed, outputs,
                   started_at: str, finished_at: str):
    return {
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "version": __version__,
        "started_at": started_at,
        "finished_at": finished_at,
        "outputs": list(outputs),
    }


def now_iso() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()
