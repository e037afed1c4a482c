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
Momentum-space data keeps the FFT axis ordering.  Writing is deterministic:
write -> read -> write reproduces the file byte for byte.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from . import photon_state, polarization
from .fields_bridge import RSField, RealVectorField
from .grids import make_grid, UnitsConfig, _readonly

MAGIC = b"PHOTONAM"
FORMAT_VERSION = 1


class FieldFileError(ValueError):
    pass


#: manifest keys the reader needs; per kind, the component count and extra keys
_COMMON_KEYS = {"kind", "components", "complex", "dims", "spacing", "units", "time"}
_KINDS = {"wavefunction": (2, {"chart_axis"}), "rs_field": (3, set()), "real_field": (3, {"role"})}


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
    return _write(path, wf.grid, [wf.gL, wf.gR], provenance, {
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
    """Validate a file; return (manifest, read-only (ncomp, nx, ny, nz) array)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != MAGIC:
        raise FieldFileError(f"{path}: not a photonam field file")
    try:
        (mlen,) = struct.unpack_from("<Q", raw, 8)
        manifest = json.loads(raw[16:16 + mlen].decode("utf-8"))
        (plen,) = struct.unpack_from("<Q", raw, 16 + mlen)
    except (struct.error, ValueError) as exc:
        raise FieldFileError(f"{path}: truncated or corrupt header ({exc})") from None
    if not isinstance(manifest, dict) or manifest.get("kind") not in _KINDS:
        raise FieldFileError(f"{path}: manifest names no known file kind")
    ncomp, kind_keys = _KINDS[manifest["kind"]]
    missing = (_COMMON_KEYS | kind_keys) - manifest.keys()
    if missing:
        raise FieldFileError(f"{path}: manifest lacks {', '.join(sorted(missing))}")
    time = manifest["time"]
    if not isinstance(time, (int, float)) or not np.isfinite(time):
        raise FieldFileError(f"{path}: manifest time {time!r} is not a finite number")
    shape = (len(manifest["components"]),) + tuple(manifest["dims"])
    if len(shape) != 4 or shape[0] != ncomp:
        raise FieldFileError(f"{path}: a {manifest['kind']} file needs {ncomp} components on a 3-d grid")
    payload = memoryview(raw)[24 + mlen:]
    if len(payload) < plen:
        raise FieldFileError(f"{path}: truncated payload")
    dtype = np.dtype("<c16" if manifest["complex"] else "<f8")
    if plen != len(payload) or plen != int(np.prod(shape)) * dtype.itemsize:
        raise FieldFileError(f"{path}: payload length {plen} does not match manifest")
    return manifest, np.frombuffer(payload, dtype=dtype).reshape(shape)


def _grid_from_manifest(manifest):
    u = manifest["units"]
    return make_grid(
        tuple(manifest["dims"]),
        tuple(manifest["spacing"]),
        UnitsConfig(c=u["c"], hbar=u["hbar"], eps0=u["eps0"]),
    )


def read(path, grid=None, basis=None):
    """Read any field file; returns (object, manifest).

    `grid` (and, for wavefunctions, `basis`) may be supplied to reuse
    existing instances; they must match the manifest.
    """
    manifest, data = _read_container(path)
    if grid is None:
        try:
            grid = _grid_from_manifest(manifest)
        except (KeyError, TypeError, ValueError) as exc:
            raise FieldFileError(f"{path}: manifest grid is invalid ({exc!r})") from None
    elif list(grid.dims) != manifest["dims"] or list(grid.spacing) != manifest["spacing"]:
        raise FieldFileError("supplied grid does not match the file manifest")

    kind = manifest["kind"]
    if kind == "wavefunction":
        if basis is None:
            basis = polarization.build_basis(grid, tuple(manifest["chart_axis"]))
        wf = photon_state.wavefunction(grid, basis, data[0], data[1], time=manifest["time"], warn=False)
        return wf, manifest
    if kind == "rs_field":
        return RSField(F=_readonly(data), grid=grid, time=manifest["time"]), manifest
    return RealVectorField(values=_readonly(data), role=manifest["role"],
                           grid=grid, time=manifest["time"]), manifest
