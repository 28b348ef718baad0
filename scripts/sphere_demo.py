#!/usr/bin/env python3
"""Walk through the quotient-ring fixture.

Shows the ring, the two system pairs, and how certificate verification
plays out: both shipped certificates accept, and damaging one entry of
a state map gets caught by the first identity.  Exits 1 when a shipped
certificate is rejected or the damaged one is accepted.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ringsys import IsoCertificate, RingMatrix, det, verify_certificate
from ringsys.fixtures import sphere_fixture_path
from ringsys.sysfile import parse


def main() -> int:
    fixture = parse(sphere_fixture_path())
    ring = fixture.ring
    print(f"ring: {ring}")
    print(f"  x^2+y^2+z^2 reduces to {ring.element('x^2+y^2+z^2')}")
    for name in ("Sigma", "SigmaPrime", "SigmaLB", "SigmaPrimeLB"):
        entry = fixture.systems[name]
        print(f"system {name}: n={entry.n}, input generators {entry.input_gens}")
    ok = True
    for name, entry in fixture.certificates.items():
        src = fixture.system(entry.source)
        tgt = fixture.system(entry.target)
        result = verify_certificate(src, tgt, entry.certificate)
        print(f"certificate {name}: {entry.source} -> {entry.target}: {result}")
        ok = ok and result.accepted
        print(f"  det(phi) = {det(entry.certificate.phi)}")

    entry = fixture.certificates["cert_main"]
    cert = entry.certificate
    entries = list(cert.phi.entries)
    entries[6] = ring.add(entries[6], ring.one())
    damaged = RingMatrix(ring, 5, 5, tuple(entries))
    result = verify_certificate(
        fixture.system(entry.source),
        fixture.system(entry.target),
        IsoCertificate(damaged, cert.psi, cert.U, cert.V, cert.Kw),
    )
    print(f"cert_main with one damaged entry: {result}")
    return 0 if ok and not result.accepted else 1


if __name__ == "__main__":
    raise SystemExit(main())
