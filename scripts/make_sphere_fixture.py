#!/usr/bin/env python3
"""Regenerate the packaged sphere-ring fixture.

Builds both system pairs over Q[x,y,z]/(x^2+y^2+z^2-1), assembles the
two enlargement certificates, verifies everything, and writes the
deterministic JSON to src/ringsys/data/sphere.json.  Emission is
byte-stable, so rerunning this script must reproduce the committed
file exactly.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ringsys import (
    IsoCertificate,
    LinearSystem,
    PolyQuotient,
    RingMatrix,
    det,
    dynamic_enlarge,
    from_pair,
    parse_polynomial,
    verify_certificate,
)
from ringsys.fixtures import sphere_fixture_path
from ringsys.sysfile import CertEntry, SystemFile, write

VARS = ("x", "y", "z")


def build() -> SystemFile:
    ring = PolyQuotient(VARS, parse_polynomial("x^2+y^2+z^2-1", VARS))
    mat = lambda rows: RingMatrix.from_rows(ring, rows)

    f = mat([["0"] * 4, ["0"] * 4, ["0"] * 4, ["1", "0", "0", "0"]])
    f_prime = mat([["0"] * 4, ["0"] * 4, ["0"] * 4, ["x", "y", "z", "0"]])

    # Input module making the lower-triangular certificate work: it must
    # contain e4 (the commutation defect is a multiple of e4) and the
    # image (x, y, z, 0) of the ancillary generator.
    b_cert = mat([["x", "0"], ["y", "0"], ["z", "0"], ["0", "1"]])
    # Free input module on the first three coordinates: the reachable,
    # locally Brunovsky variant whose Z-layers split off a stably free
    # non-free module.
    b_lb = mat([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]])

    systems: dict[str, LinearSystem] = {}

    def add_pair(name: str, endo: RingMatrix, gens: RingMatrix) -> None:
        sigma = systems[name] = from_pair(endo, gens)
        systems[f"G1+{name}"] = dynamic_enlarge(sigma, 1)

    add_pair("Sigma", f, b_cert)
    add_pair("SigmaPrime", f_prime, b_cert)
    add_pair("SigmaLB", f, b_lb)
    add_pair("SigmaPrimeLB", f_prime, b_lb)

    # Certificate with the unit lower-triangular state map.
    phi = mat(
        [
            ["1", "0", "0", "0", "0"],
            ["x", "1", "0", "0", "0"],
            ["y", "0", "1", "0", "0"],
            ["z", "0", "0", "1", "0"],
            ["0", "0", "0", "0", "1"],
        ]
    )
    psi = mat(
        [
            ["1", "0", "0", "0", "0"],
            ["-1*x", "1", "0", "0", "0"],
            ["-1*y", "0", "1", "0", "0"],
            ["-1*z", "0", "0", "1", "0"],
            ["0", "0", "0", "0", "1"],
        ]
    )
    u = mat([["1", "0", "0"], ["1", "1", "0"], ["0", "0", "1"]])
    v = mat([["1", "0", "0"], ["-1", "1", "0"], ["0", "0", "1"]])
    kw = mat([["0"] * 5, ["0"] * 5, ["1", "x - 1", "y", "z", "0"]])
    cert_main = IsoCertificate(phi, psi, u, v, kw)

    # Orthogonal state map from the quaternion completion of (0,x,y,z):
    # its columns are orthonormal over the sphere relation, so the
    # inverse is the transpose and the commutation defect vanishes.
    a4 = [
        ["x", "0", "y", "z"],
        ["0", "x", "z", "-1*y"],
        ["-1*z", "y", "0", "x"],
        ["y", "z", "-1*x", "0"],
    ]
    a4_t = [[a4[j][i] for j in range(4)] for i in range(4)]
    phi2 = mat([row + ["0"] for row in a4] + [["0", "0", "0", "0", "1"]])
    psi2 = mat([row + ["0"] for row in a4_t] + [["0", "0", "0", "0", "1"]])
    cert_orth = IsoCertificate(phi2, psi2, mat(a4), mat(a4_t), RingMatrix.zeros(ring, 4, 5))

    certificates = {
        "cert_main": CertEntry("G1+Sigma", "G1+SigmaPrime", cert_main),
        "cert_orth": CertEntry("G1+SigmaLB", "G1+SigmaPrimeLB", cert_orth),
    }

    sf = SystemFile(ring, systems, certificates)

    # Refuse to write anything that does not verify.
    for name, entry in certificates.items():
        result = verify_certificate(
            sf.system(entry.source), sf.system(entry.target), entry.certificate
        )
        if not result.accepted:
            raise SystemExit(f"{name} failed verification: {result}")
    for state_map in (phi, phi2):
        if str(det(state_map)) != "1":
            raise SystemExit("state map determinant is not 1")
    return sf


def main() -> None:
    sf = build()
    out = sphere_fixture_path()
    out.parent.mkdir(parents=True, exist_ok=True)
    write(sf, out)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
