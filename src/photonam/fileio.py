"""Single-file container for wavefunctions and fields.

Layout (all integers little endian):

    bytes 0..7    magic  b"PHOTONAM"
    bytes 8..15   uint64 manifest length M
    next M bytes  manifest, UTF-8 JSON with sorted keys
    next 8 bytes  uint64 payload length P
    next P bytes  float64 payload

The payload is the concatenation of the named components, each in C order
over (x, y, z) with z fastest, complex data interleaved (re, im), which is
the memory layout of little-endian complex128.
Momentum-space data keeps the FFT axis ordering; a wavefunction's amplitudes
are stored in the construction gauge of its chart, so a re-gauged state
reads back as the same physical state.  Writing is deterministic:
write -> read -> write reproduces the file byte for byte.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys

import numpy as np

from . import photon_state, polarization
from .fields_bridge import RSField, RealVectorField
from .grids import make_grid, UnitsConfig, _readonly

MAGIC = b"PHOTONAM"
FORMAT_VERSION = 1


class FieldFileError(ValueError):
    pass


#: manifest keys the reader needs; per kind, the component count, extra keys and its "complex" flag
_COMMON_KEYS = {"kind", "components", "complex", "dims", "spacing", "units", "time"}
_KINDS = {"wavefunction": (2, {"chart_axis"}, True), "rs_field": (3, set(), True),
          "real_field": (3, {"role"}, False)}


def _write(path, grid, arrays, provenance, entries):
    """Write the header, then each array straight from memory; return the manifest."""
    manifest = {
        "dims": list(grid.dims),
        "spacing": list(grid.spacing),
        "units": {"c": grid.units.c, "hbar": grid.units.hbar, "eps0": grid.units.eps0},
        "index_order": "x-major, z fastest",
        "byte_order": "little",
        "format_version": FORMAT_VERSION,
        **entries,
    }
    if provenance:
        manifest["provenance"] = provenance
    dtype = "<c16" if manifest["complex"] else "<f8"
    arrays = [np.ascontiguousarray(a, dtype=dtype) for a in arrays]
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<Q", len(blob)) + blob)
        fh.write(struct.pack("<Q", sum(a.nbytes for a in arrays)))
        for a in arrays:
            fh.write(a.data)
    return manifest


def write_wavefunction(path, wf, provenance=None):
    """Write the amplitudes in the construction gauge of the chart, which the manifest names."""
    amplitudes = [photon_state._construction_gauge(wf, chi, g) for chi, g in wf.components.items()]
    return _write(path, wf.grid, amplitudes, provenance, {
        "kind": "wavefunction",
        "components": ["gL", "gR"],
        "complex": True,
        "time": wf.time,
        "chart_axis": [float(v) for v in wf.basis.chart_axis],
        "k_ordering": "fft",
    })


def write_rs_field(path, rs, provenance=None):
    return _write(path, rs.grid, rs.F, provenance, {
        "kind": "rs_field",
        "components": ["Fx", "Fy", "Fz"],
        "complex": True,
        "time": rs.time,
        "chart_axis": None,
    })


def write_real_field(path, field, provenance=None):
    return _write(path, field.grid, field.values, provenance, {
        "kind": "real_field",
        "role": field.role,
        "components": [field.role + ax for ax in "xyz"],
        "complex": False,
        "time": field.time,
        "chart_axis": None,
    })


def _read_container(path):
    """Validate a file; return (manifest, its (ncomp, nx, ny, nz) payload as a writable array held nowhere else).

    The header is read and checked first, the payload lengths against the
    manifest and the file's size, so a corrupt file allocates nothing of
    grid size; the payload is then read straight into the one array.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(16)
        if head[:8] != MAGIC:
            raise FieldFileError(f"{path}: not a photonam field file")
        try:
            (mlen,) = struct.unpack_from("<Q", head, 8)
            if mlen > size - 16:
                raise ValueError("the manifest runs past the end of the file")
            manifest = json.loads(fh.read(mlen).decode("utf-8"))
            (plen,) = struct.unpack("<Q", fh.read(8))
        except (struct.error, ValueError) as exc:
            raise FieldFileError(f"{path}: truncated or corrupt header ({exc})") from None
        shape, dtype = _payload_layout(path, manifest)
        left = size - (24 + mlen)
        if left < plen:
            raise FieldFileError(f"{path}: truncated payload")
        if plen != left or plen != math.prod(shape) * dtype.itemsize:
            raise FieldFileError(f"{path}: payload length {plen} does not match manifest")
        payload = np.empty(shape, dtype=dtype)
        if fh.readinto(payload.reshape(-1).view(np.uint8)) != plen:
            raise FieldFileError(f"{path}: truncated payload")
    return manifest, payload


def _payload_layout(path, manifest):
    """Validate a file's manifest; return the shape and dtype of its payload."""
    if not isinstance(manifest, dict) or manifest.get("kind") not in _KINDS:
        raise FieldFileError(f"{path}: manifest names no known file kind")
    ncomp, kind_keys, is_complex = _KINDS[manifest["kind"]]
    missing = (_COMMON_KEYS | kind_keys) - manifest.keys()
    if missing:
        raise FieldFileError(f"{path}: manifest lacks {', '.join(sorted(missing))}")
    if manifest["complex"] is not is_complex:
        raise FieldFileError(f"{path}: a {manifest['kind']} file has \"complex\": {json.dumps(is_complex)}, "
                             f"not {json.dumps(manifest['complex'])}")
    time, dims, components = manifest["time"], manifest["dims"], manifest["components"]
    if not _finite_number(time):
        raise FieldFileError(f"{path}: manifest time {time!r} is not a finite number")
    if not (isinstance(dims, list) and len(dims) == 3 and all(type(n) is int and n > 0 for n in dims)):
        raise FieldFileError(f"{path}: manifest dims {dims!r} are not three positive integers")
    if not isinstance(components, list) or len(components) != ncomp:
        raise FieldFileError(f"{path}: a {manifest['kind']} file needs a list of {ncomp} components")
    if "chart_axis" in kind_keys:
        axis = manifest["chart_axis"]
        if not (isinstance(axis, list) and len(axis) == 3 and all(map(_finite_number, axis))):
            raise FieldFileError(f"{path}: manifest chart_axis {axis!r} is not three finite numbers")
    return (ncomp,) + tuple(dims), np.dtype("<c16" if is_complex else "<f8")


def _finite_number(v):
    """True for a JSON number, not a bool, that converts to a finite float."""
    return type(v) in (int, float) and -sys.float_info.max <= v <= sys.float_info.max


def read(path):
    """Read any field file; returns (object, manifest).

    Every malformed file raises `FieldFileError`.  The payload is read once,
    into the arrays the object holds, read-only.
    """
    manifest, data = _read_container(path)
    kind, time, u = manifest["kind"], manifest["time"], manifest["units"]
    try:
        grid = make_grid(tuple(manifest["dims"]), tuple(manifest["spacing"]),
                         UnitsConfig(c=u["c"], hbar=u["hbar"], eps0=u["eps0"]))
        if kind == "wavefunction":
            basis = polarization.chart_basis(grid, tuple(manifest["chart_axis"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise FieldFileError(f"{path}: manifest grid or chart axis is invalid ({exc!r})") from None

    if kind == "wavefunction":
        return photon_state._adopted(grid, basis, data[0], data[1], time=time), manifest
    if kind == "rs_field":
        return RSField(F=_readonly(data), grid=grid, time=time), manifest
    return RealVectorField(values=_readonly(data), role=manifest["role"], grid=grid, time=time), manifest
