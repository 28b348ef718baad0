"""The on-disk format for systems and certificates.

A system file is a JSON document: one ring declaration, a map of named
systems in pair form, and an optional map of named certificates whose
matrices are written over the declared ring.  Element literals follow
the scalar grammar of the ring (``5/6``, ``3``, ``x^2*y - 3/2*z + 1``).
Emission is deterministic, so parse and emit are mutually inverse down
to the byte level.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .equivalence import IsoCertificate
from .errors import ElementSyntaxError, SystemFileError
from .linalg import RingMatrix
from .rings import RingDescriptor, descriptor_from_dict, descriptor_to_dict
from .systems import LinearSystem, from_pair

_CERT_FIELDS = ("phi", "psi", "U", "V", "Kw")


def _normalize_empty(m: RingMatrix) -> RingMatrix:
    # A matrix without rows cannot carry its column count through the
    # row-list file format, so it is stored as 0x0.
    if m.rows == 0 and m.cols != 0:
        return RingMatrix.zeros(m.ring, 0, 0)
    return m


@dataclass(frozen=True)
class PairEntry:
    """A named system as written: state rank plus the raw matrix pair."""

    n: int
    endo: RingMatrix
    input_gens: RingMatrix

    def __post_init__(self):
        if self.endo.rows != self.n or self.endo.cols != self.n:
            raise SystemFileError(f"endo must be {self.n}x{self.n}")
        if self.input_gens.rows != self.n:
            raise SystemFileError(f"input_gens must have {self.n} rows")
        object.__setattr__(self, "endo", _normalize_empty(self.endo))
        object.__setattr__(self, "input_gens", _normalize_empty(self.input_gens))


@dataclass(frozen=True)
class CertEntry:
    source: str
    target: str
    certificate: IsoCertificate

    def __post_init__(self):
        cert = self.certificate
        normalized = IsoCertificate(
            _normalize_empty(cert.phi),
            _normalize_empty(cert.psi),
            _normalize_empty(cert.U),
            _normalize_empty(cert.V),
            _normalize_empty(cert.Kw),
        )
        object.__setattr__(self, "certificate", normalized)


@dataclass(frozen=True)
class SystemFile:
    ring: RingDescriptor
    systems: dict[str, PairEntry] = field(default_factory=dict)
    certificates: dict[str, CertEntry] = field(default_factory=dict)

    def system(self, name: str) -> LinearSystem:
        entry = self._entry(name)
        return from_pair(entry.endo, entry.input_gens)

    def raw_pair(self, name: str) -> tuple[RingMatrix, RingMatrix]:
        entry = self._entry(name)
        return entry.endo, entry.input_gens

    def _entry(self, name: str) -> PairEntry:
        if name not in self.systems:
            known = ", ".join(sorted(self.systems)) or "none"
            raise SystemFileError(f"unknown system {name!r} (known: {known})")
        return self.systems[name]

    def certificate(self, name: str) -> CertEntry:
        if name not in self.certificates:
            known = ", ".join(sorted(self.certificates)) or "none"
            raise SystemFileError(f"unknown certificate {name!r} (known: {known})")
        return self.certificates[name]


def _reject_duplicates(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise SystemFileError(f"duplicate name {key!r}")
        seen[key] = value
    return seen


def _parse_matrix(ring: RingDescriptor, data, where: str, memo: dict, rows=None, cols=None) -> RingMatrix:
    if not isinstance(data, list) or any(not isinstance(r, list) for r in data):
        raise SystemFileError(f"{where}: expected a list of rows")
    parsed = []
    width = None
    for i, row in enumerate(data):
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SystemFileError(f"{where}[{i}]: ragged row (expected {width} entries)")
        out = []
        for j, literal in enumerate(row):
            if not isinstance(literal, str):
                raise SystemFileError(f"{where}[{i}][{j}]: entries must be strings")
            # Payloads are immutable, so each distinct text is parsed once per file
            payload = memo.get(literal)
            if payload is None:
                try:
                    payload = memo[literal] = ring.parse_payload(literal)
                except ElementSyntaxError as exc:
                    raise SystemFileError(f"{where}[{i}][{j}]: {exc}") from exc
            out.append(payload)
        parsed.append(out)
    if rows is not None and len(parsed) != rows:
        raise SystemFileError(f"{where}: expected {rows} rows, found {len(parsed)}")
    if cols is not None and (width if width is not None else cols) != cols:
        raise SystemFileError(f"{where}: expected {cols} columns, found {width}")
    # parse_payload returns canonical payloads, so nothing is reduced twice
    return RingMatrix._of_rows(ring, parsed, width if parsed else (cols or 0))


def _named_map(data: dict, key: str) -> dict:
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise SystemFileError(f"{key}: expected an object mapping names to entries")
    return value


def parse_text(text: str) -> SystemFile:
    """Parse and validate a system file from its JSON text."""
    try:
        data = json.loads(text, object_pairs_hook=_reject_duplicates)
    except json.JSONDecodeError as exc:
        raise SystemFileError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # over-long number, over-deep nesting
        raise SystemFileError(f"unreadable JSON: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("ring"), dict):
        raise SystemFileError("top level must be an object with a 'ring' block")
    try:
        ring = descriptor_from_dict(data["ring"])
    except (KeyError, ValueError, TypeError, ElementSyntaxError) as exc:
        raise SystemFileError(f"ring: {exc}") from exc
    memo: dict = {}
    systems: dict[str, PairEntry] = {}
    for name, spec in _named_map(data, "systems").items():
        where = f"systems.{name}"
        if not isinstance(spec, dict):
            raise SystemFileError(f"{where}: expected an object")
        n = spec.get("n")
        if type(n) is not int or n < 0:
            raise SystemFileError(f"{where}.n: missing or not a nonnegative integer")
        endo = _parse_matrix(ring, spec.get("endo"), f"{where}.endo", memo, rows=n, cols=n)
        gens = _parse_matrix(ring, spec.get("input_gens"), f"{where}.input_gens", memo, rows=n)
        systems[name] = PairEntry(n, endo, gens)
    certificates: dict[str, CertEntry] = {}
    for name, spec in _named_map(data, "certificates").items():
        where = f"certificates.{name}"
        if not isinstance(spec, dict):
            raise SystemFileError(f"{where}: expected an object")
        for key in ("source", "target"):
            if not isinstance(spec.get(key), str) or spec[key] not in systems:
                raise SystemFileError(f"{where}.{key}: must name a system in this file")
        mats = {}
        for key in _CERT_FIELDS:
            if key not in spec:
                raise SystemFileError(f"{where}.{key}: missing matrix")
            mats[key] = _parse_matrix(ring, spec[key], f"{where}.{key}", memo)
        certificates[name] = CertEntry(
            spec["source"],
            spec["target"],
            IsoCertificate(mats["phi"], mats["psi"], mats["U"], mats["V"], mats["Kw"]),
        )
    return SystemFile(ring, systems, certificates)


def parse(path) -> SystemFile:
    """Parse a system file from disk (UTF-8)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SystemFileError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    return parse_text(text)


def emit(sf: SystemFile) -> str:
    """Deterministic JSON text; identical files emit identical bytes."""
    doc = {
        "ring": descriptor_to_dict(sf.ring),
        "systems": {
            name: {
                "n": entry.n,
                "endo": entry.endo.to_str_rows(),
                "input_gens": entry.input_gens.to_str_rows(),
            }
            for name, entry in sf.systems.items()
        },
    }
    if sf.certificates:
        doc["certificates"] = {
            name: {
                "source": entry.source,
                "target": entry.target,
                "phi": entry.certificate.phi.to_str_rows(),
                "psi": entry.certificate.psi.to_str_rows(),
                "U": entry.certificate.U.to_str_rows(),
                "V": entry.certificate.V.to_str_rows(),
                "Kw": entry.certificate.Kw.to_str_rows(),
            }
            for name, entry in sf.certificates.items()
        }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write(sf: SystemFile, path) -> None:
    Path(path).write_text(emit(sf), encoding="utf-8")
