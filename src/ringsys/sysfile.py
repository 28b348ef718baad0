"""The on-disk format for systems and certificates.

A system file is a JSON document: one ring declaration, a map of named
systems in pair form, and an optional map of named certificates whose
matrices are written over the declared ring.  Element literals follow
the scalar grammar of the ring (``5/6``, ``3``, ``x^2*y - 3/2*z + 1``).
A parsed file holds each system as a ``LinearSystem``.  Emission is
deterministic and writes each system's generator matrix as given, never
the canonical one, so parse and emit are mutually inverse down to the
byte level.  ``parse`` builds and validates every entry, or
only the entries a caller names, for commands that read no more.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .equivalence import WITNESSES as _CERT_FIELDS, IsoCertificate
from .errors import ElementSyntaxError, SystemFileError
from .linalg import RingMatrix
from .rings import RingDescriptor, descriptor_from_dict, descriptor_to_dict
from .systems import LinearSystem, from_pair


def _normalize_empty(m: RingMatrix) -> RingMatrix:
    # A matrix without rows cannot carry its column count through the
    # row-list file format, so it is stored as 0x0.
    if m.rows == 0 and m.cols != 0:
        return RingMatrix.zeros(m.ring, 0, 0)
    return m


@dataclass(frozen=True)
class CertEntry:
    source: str
    target: str
    certificate: IsoCertificate

    def __post_init__(self):
        normalized = IsoCertificate(*map(_normalize_empty, self.certificate.witnesses()))
        object.__setattr__(self, "certificate", normalized)


@dataclass(frozen=True)
class SystemFile:
    ring: RingDescriptor
    systems: dict[str, LinearSystem] = field(default_factory=dict)
    certificates: dict[str, CertEntry] = field(default_factory=dict)

    def system(self, name: str) -> LinearSystem:
        _check_known(self.systems, "system", name)
        return self.systems[name]

    def certificate(self, name: str) -> CertEntry:
        _check_known(self.certificates, "certificate", name)
        return self.certificates[name]


def _check_known(names, kind: str, name: str) -> None:
    if name not in names:
        known = ", ".join(sorted(names)) or "none"
        raise SystemFileError(f"unknown {kind} {name!r} (known: {known})")


def _reject_duplicates(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise SystemFileError(f"duplicate name {key!r}")
        seen[key] = value
    return seen


class _Literals(dict):
    """Payloads by literal text for one file read.  A text is parsed when
    it is first looked up and stored; payloads are immutable, so each
    distinct text is parsed once per read.  A literal that fails is not
    stored, and an entry that is not a string raises TypeError."""

    __slots__ = ("parse",)

    def __init__(self, ring: RingDescriptor):
        super().__init__()
        self.parse = ring.parse_payload

    def __missing__(self, literal):
        if not isinstance(literal, str):
            raise TypeError("entries must be strings")
        payload = self[literal] = self.parse(literal)
        return payload


def _parse_matrix(ring: RingDescriptor, data, where: str, memo: _Literals, rows=None, cols=None) -> RingMatrix:
    if not isinstance(data, list) or any(not isinstance(r, list) for r in data):
        raise SystemFileError(f"{where}: expected a list of rows")
    entries = []
    width = None
    lookup = memo.__getitem__
    for i, row in enumerate(data):
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SystemFileError(f"{where}[{i}]: ragged row (expected {width} entries)")
        try:
            entries.extend(map(lookup, row))
        except (ElementSyntaxError, TypeError) as exc:
            # Every literal before the failing one was found or stored,
            # so the first entry that is not a stored string failed.
            j = next(j for j, x in enumerate(row) if not isinstance(x, str) or x not in memo)
            if not isinstance(row[j], str):
                raise SystemFileError(f"{where}[{i}][{j}]: entries must be strings") from None
            if not isinstance(exc, ElementSyntaxError):
                raise
            raise SystemFileError(f"{where}[{i}][{j}]: {exc}") from exc
    if rows is not None and len(data) != rows:
        raise SystemFileError(f"{where}: expected {rows} rows, found {len(data)}")
    if cols is not None and (width if width is not None else cols) != cols:
        raise SystemFileError(f"{where}: expected {cols} columns, found {width}")
    # parse_payload returns canonical payloads, so nothing is reduced twice
    return RingMatrix(ring, len(data), width if data else (cols or 0), tuple(entries))


def _named_map(data: dict, key: str) -> dict:
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise SystemFileError(f"{key}: expected an object mapping names to entries")
    return value


def _decode(text: str) -> tuple[RingDescriptor, dict, dict]:
    """The ring and the raw system and certificate maps of a file's JSON
    text: the whole document decoded once, the ring block validated and
    both maps checked to be objects.  No entry is looked at."""
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
    return ring, _named_map(data, "systems"), _named_map(data, "certificates")


def _system_entry(ring: RingDescriptor, name: str, spec, memo: _Literals) -> LinearSystem:
    where = f"systems.{name}"
    if not isinstance(spec, dict):
        raise SystemFileError(f"{where}: expected an object")
    n = spec.get("n")
    if type(n) is not int or n < 0:
        raise SystemFileError(f"{where}.n: missing or not a nonnegative integer")
    endo = _parse_matrix(ring, spec.get("endo"), f"{where}.endo", memo, rows=n, cols=n)
    gens = _parse_matrix(ring, spec.get("input_gens"), f"{where}.input_gens", memo, rows=n)
    return from_pair(endo, gens)


def _cert_entry(ring: RingDescriptor, name: str, spec, memo: _Literals, system_names) -> CertEntry:
    where = f"certificates.{name}"
    if not isinstance(spec, dict):
        raise SystemFileError(f"{where}: expected an object")
    for key in ("source", "target"):
        if not isinstance(spec.get(key), str) or spec[key] not in system_names:
            raise SystemFileError(f"{where}.{key}: must name a system in this file")
    mats = []
    for key in _CERT_FIELDS:
        if key not in spec:
            raise SystemFileError(f"{where}.{key}: missing matrix")
        mats.append(_parse_matrix(ring, spec[key], f"{where}.{key}", memo))
    return CertEntry(spec["source"], spec["target"], IsoCertificate(*mats))


def parse_text(text: str) -> SystemFile:
    """Parse and validate a system file from its JSON text."""
    return _build(text, None, None)


def parse(path, systems=None, certificates=None) -> SystemFile:
    """Parse a system file from disk (UTF-8).

    With no names, every entry is built and validated, as by parse_text.
    Given names of systems, of certificates or of both, the JSON text,
    the ring block and both entry maps are checked as by parse_text, and
    then only the named systems, the named certificates and the systems
    those certificates name are built and validated; an entry that no
    name reaches is never looked at.  So the first error reported is the one
    parse_text reports on the file cut down to the named entries, and a
    name the file lacks is reported after that.  The result then holds
    the named entries only.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SystemFileError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    return _build(text, systems, certificates)


def _build(text: str, systems, certificates) -> SystemFile:
    """The named entries of a file's JSON text (every entry when no name
    is given), built in document order, systems first, through one
    literal memo."""
    ring, system_specs, cert_specs = _decode(text)
    if systems is None and certificates is None:
        systems, certificates = system_specs, cert_specs
    systems, certificates = systems or (), certificates or ()
    named_certs = [name for name in cert_specs if name in certificates]
    wanted = set(systems)
    for name in named_certs:
        spec = cert_specs[name]
        if isinstance(spec, dict):
            wanted.update(spec.get(key) for key in ("source", "target") if isinstance(spec.get(key), str))
    memo = _Literals(ring)
    built = {name: _system_entry(ring, name, spec, memo) for name, spec in system_specs.items() if name in wanted}
    certs = {name: _cert_entry(ring, name, cert_specs[name], memo, system_specs) for name in named_certs}
    for name in systems:
        _check_known(system_specs, "system", name)
    for name in certificates:
        _check_known(cert_specs, "certificate", name)
    return SystemFile(ring, built, certs)


def emit(sf: SystemFile) -> str:
    """Deterministic JSON text; identical files emit identical bytes."""
    doc = {
        "ring": descriptor_to_dict(sf.ring),
        "systems": {
            name: {
                "n": sigma.state_rank,
                "endo": sigma.endo.to_str_rows(),
                "input_gens": sigma.generators.to_str_rows(),
            }
            for name, sigma in sf.systems.items()
        },
    }
    if sf.certificates:
        doc["certificates"] = {
            name: {
                "source": entry.source,
                "target": entry.target,
                **{key: m.to_str_rows() for key, m in zip(_CERT_FIELDS, entry.certificate.witnesses())},
            }
            for name, entry in sf.certificates.items()
        }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write(sf: SystemFile, path) -> None:
    Path(path).write_text(emit(sf), encoding="utf-8")
