"""System file parsing, validation diagnostics, and round trips."""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringsys import (
    ElementSyntaxError,
    Integers,
    PrimeField,
    Rationals,
    RingMatrix,
    SystemFileError,
    from_pair,
)
from ringsys.equivalence import IsoCertificate
from ringsys.rings import MAX_REDUCE_COST, _parse_terms, descriptor_from_dict, parse_polynomial
from ringsys.sysfile import _CERT_FIELDS, CertEntry, SystemFile, emit, parse, parse_text, write
from util import fuzz_base_documents, mutated_document, rand_matrix

Q = Rationals()
SPHERE = {"kind": "poly_quotient", "vars": ["x", "y", "z"], "relation": "x^2 + y^2 + z^2 - 1"}


def small_file():
    m = lambda rows: RingMatrix.from_rows(Q, rows)
    return SystemFile(
        Q,
        {
            "S1": from_pair(m([[0, 0], [1, 0]]), m([[1], [0]])),
            "G1": from_pair(m([[0]]), m([[1]])),
        },
    )


def assert_same_file(got: SystemFile, want: SystemFile) -> None:
    """Equal files whose matrices are also written alike: systems compare
    by span, so equal emitted bytes pin the generator matrices too."""
    assert got == want
    assert emit(got) == emit(want)


class TestRoundTrip:
    def test_parse_emit_identity(self):
        sf = small_file()
        assert_same_file(parse_text(emit(sf)), sf)

    def test_emit_is_deterministic(self):
        sf = small_file()
        assert emit(sf) == emit(parse_text(emit(sf)))

    def test_disk_round_trip(self, tmp_path):
        sf = small_file()
        path = tmp_path / "f.json"
        write(sf, path)
        assert_same_file(parse(path), sf)

    @pytest.mark.parametrize("ring", [Q, PrimeField(7), Integers()], ids=str)
    def test_random_systems_round_trip(self, ring):
        rng = random.Random(50)
        systems = {}
        for idx in range(5):
            n = rng.randint(0, 4)
            systems[f"S{idx}"] = from_pair(rand_matrix(ring, n, n, rng), rand_matrix(ring, n, rng.randint(0, 3), rng))
        sf = SystemFile(ring, systems)
        assert_same_file(parse_text(emit(sf)), sf)

    def test_reduced_literals_round_trip(self):
        # emit writes normal forms: z^64 comes back as 561 terms, which
        # parse again to the same payload
        doc = {"ring": SPHERE, "systems": {"S": {"n": 1, "endo": [["z^64"]], "input_gens": [["x*z^33 - 1/2"]]}}}
        sf = parse_text(json.dumps(doc))
        text = emit(sf)
        assert len(parse_polynomial(json.loads(text)["systems"]["S"]["endo"][0][0], ("x", "y", "z")).terms) == 561
        assert_same_file(parse_text(text), sf)


class TestValidation:
    def test_bad_element_for_ring(self):
        text = json.dumps(
            {
                "ring": {"kind": "Q"},
                "systems": {"S": {"n": 1, "endo": [["x^2"]], "input_gens": [["1"]]}},
            }
        )
        with pytest.raises(SystemFileError) as err:
            parse_text(text)
        assert "systems.S.endo[0][0]" in str(err.value)

    def test_shape_mismatch(self):
        text = json.dumps(
            {
                "ring": {"kind": "Q"},
                "systems": {"S": {"n": 2, "endo": [["0"]], "input_gens": [["1"], ["0"]]}},
            }
        )
        with pytest.raises(SystemFileError) as err:
            parse_text(text)
        assert "expected 2 rows" in str(err.value)

    def test_unknown_ring_kind(self):
        with pytest.raises(SystemFileError):
            parse_text(json.dumps({"ring": {"kind": "R"}}))

    def test_duplicate_names(self):
        text = '{"ring": {"kind": "Q"}, "systems": {"S": {"n": 0, "endo": [], "input_gens": []}, "S": {"n": 0, "endo": [], "input_gens": []}}}'
        with pytest.raises(SystemFileError) as err:
            parse_text(text)
        assert "duplicate" in str(err.value)

    def test_json_error_carries_location(self):
        with pytest.raises(SystemFileError) as err:
            parse_text("{ not json }")
        assert "line 1" in str(err.value)

    def test_certificate_needs_known_endpoints(self):
        text = json.dumps(
            {
                "ring": {"kind": "Q"},
                "systems": {"S": {"n": 1, "endo": [["0"]], "input_gens": [["1"]]}},
                "certificates": {
                    "c": {
                        "source": "S",
                        "target": "missing",
                        "phi": [["1"]],
                        "psi": [["1"]],
                        "U": [["1"]],
                        "V": [["1"]],
                        "Kw": [["0"]],
                    }
                },
            }
        )
        with pytest.raises(SystemFileError) as err:
            parse_text(text)
        assert "target" in str(err.value)

    def test_missing_certificate_matrix(self):
        text = json.dumps(
            {
                "ring": {"kind": "Q"},
                "systems": {"S": {"n": 1, "endo": [["0"]], "input_gens": [["1"]]}},
                "certificates": {
                    "c": {"source": "S", "target": "S", "phi": [["1"]], "psi": [["1"]]}
                },
            }
        )
        with pytest.raises(SystemFileError) as err:
            parse_text(text)
        assert "missing matrix" in str(err.value)

    def test_unknown_names_reported_with_alternatives(self):
        sf = small_file()
        with pytest.raises(SystemFileError) as err:
            sf.system("nope")
        assert "G1" in str(err.value) and "S1" in str(err.value)

    def test_ragged_rows(self):
        text = json.dumps(
            {
                "ring": {"kind": "Q"},
                "systems": {"S": {"n": 2, "endo": [["0", "0"], ["1"]], "input_gens": [["1"], ["0"]]}},
            }
        )
        with pytest.raises(SystemFileError) as err:
            parse_text(text)
        assert "ragged" in str(err.value)

    def test_non_integer_residue_rejected(self):
        text = json.dumps(
            {
                "ring": {"kind": "GF", "p": 5},
                "systems": {"S": {"n": 1, "endo": [["1/2"]], "input_gens": [["1"]]}},
            }
        )
        with pytest.raises(SystemFileError):
            parse_text(text)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"ring": {"kind": "Z"}, "systems": []}, "systems: expected an object"),
            ({"ring": {"kind": "Z"}, "systems": {}, "certificates": [1]}, "certificates: expected an object"),
            ({"ring": "Z"}, "'ring' block"),
            (
                {"ring": {"kind": "Z"}, "systems": {"S": {"n": 1, "endo": [["7" * 5000]], "input_gens": [["1"]]}}},
                "systems.S.endo[0][0]: integer literal of 5000 digits is too long",
            ),
            ({"ring": {"kind": "Z"}, "systems": {"S": {"n": 1.5, "endo": [["0"]], "input_gens": []}}}, "systems.S.n"),
            ({"ring": {"kind": "Z"}, "systems": {"S": {"n": True, "endo": [["0"]], "input_gens": []}}}, "systems.S.n"),
            ({"ring": {"kind": "Z"}, "systems": {"S": {"n": -1, "endo": [], "input_gens": []}}}, "systems.S.n"),
            ({"ring": {"kind": "GF", "p": 10**30 + 57}}, "ring: GF(p) needs p below"),
            ({"ring": {"kind": "GF", "p": 561}}, "ring: 561 is not prime"),
            ({"ring": {"kind": "GF", "p": 7.5}}, "ring: GF needs an integer p"),
            ({"ring": {"kind": "poly_quotient", "vars": "xyz", "relation": "x^2+y^2+z^2-1"}}, "list 'vars'"),
            (
                {
                    "ring": {"kind": "Z"},
                    "systems": {"S": {"n": 0, "endo": [], "input_gens": []}},
                    "certificates": {"c": {"source": ["S"], "target": "S"}},
                },
                "certificates.c.source",
            ),
            (
                {"ring": SPHERE, "systems": {"S": {"n": 1, "endo": [["z^100000000"]], "input_gens": [["1"]]}}},
                "systems.S.endo[0][0]: monomial of total degree over MAX_DEGREE = 64",
            ),
            (
                {"ring": SPHERE, "systems": {"S": {"n": 1, "endo": [["1"]], "input_gens": [["x - x^33*y^31*z"]]}}},
                "systems.S.input_gens[0][0]: monomial of total degree over MAX_DEGREE = 64",
            ),
            (
                {
                    "ring": {
                        "kind": "poly_quotient",
                        "vars": list("abcdefghz"),
                        "relation": "z^2 - a^2 - b^2 - c^2 - d^2 - e^2 - f^2 - g^2 - h^2",
                    },
                    "systems": {"S": {"n": 1, "endo": [["z^64"]], "input_gens": [["1"]]}},
                },
                "systems.S.endo[0][0]: literal costs over MAX_REDUCE_COST = 30000 to reduce",
            ),
        ],
        ids=[
            "systems-list",
            "certificates-list",
            "ring-string",
            "long-literal",
            "float-rank",
            "bool-rank",
            "negative-rank",
            "huge-modulus",
            "carmichael",
            "float-modulus",
            "string-vars",
            "source-list",
            "huge-exponent",
            "degree-over-bound",
            "costly-reduction",
        ],
    )
    def test_malformed_documents(self, doc, message):
        with pytest.raises(SystemFileError) as err:
            parse_text(json.dumps(doc))
        assert message in str(err.value)

    def test_over_deep_json(self):
        with pytest.raises(SystemFileError, match="unreadable JSON"):
            parse_text("[" * 100_000 + "]" * 100_000)

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"ring": {"kind": "Q"}, "systems": {"\xe9": {}}}')
        with pytest.raises(SystemFileError, match="not UTF-8"):
            parse(path)

    def test_over_long_json_number(self):
        with pytest.raises(SystemFileError, match="unreadable JSON"):
            parse_text('{"ring": {"kind": "Z"}, "systems": {"S": {"n": ' + "9" * 5000 + "}}}")

    def test_large_prime_modulus_accepted(self):
        sf = parse_text(json.dumps({"ring": {"kind": "GF", "p": 2**61 - 1}}))
        assert sf.ring == PrimeField(2**61 - 1)


# Literals that differ as text but may share a payload ("0", "-0", "0/4";
# "5/10", "1/2"; " 1", "1 ", "8" in GF(7); "x*y - 1", "y*x - 1").  Each
# ring keeps the ones it accepts.
MEMO_POOL = ["0", "-0", "0/4", "5/10", "1/2", " 1", "1 ", "8", "-3", "x*y - 1", "y*x - 1", "z^2", "1 - x^2 - y^2"]
MEMO_RINGS = [{"kind": "Q"}, {"kind": "Z"}, {"kind": "GF", "p": 7}, SPHERE]


def _accepted(ring, pool):
    out = []
    for literal in pool:
        try:
            ring.parse_payload(literal)
        except ElementSyntaxError:
            continue
        out.append(literal)
    return out


def _memo_document(ring_doc, literal, dim):
    """A system file whose entries all come from literal(), repeated
    across systems and a certificate; dim(lo, hi) picks each size."""

    def mat(rows, cols):
        return [[literal() for _ in range(cols)] for _ in range(rows)]

    systems = {}
    for k in range(dim(1, 3)):
        n = dim(0, 3)
        systems[f"S{k}"] = {"n": n, "endo": mat(n, n), "input_gens": mat(n, dim(0, 2))}
    cert = {"source": "S0", "target": f"S{len(systems) - 1}"}
    cert.update((key, mat(dim(0, 3), dim(1, 3))) for key in _CERT_FIELDS)
    return {"ring": ring_doc, "systems": systems, "certificates": {"C": cert}}


def _check_per_entry(doc):
    """parse_text agrees with parsing every entry on its own."""
    ring = descriptor_from_dict(doc["ring"])
    sf = parse_text(json.dumps(doc))

    def each(rows):
        return [[ring.parse_payload(t) for t in r] for r in rows]

    def typed(rows):
        return [[(type(v), v) for v in r] for r in rows]

    def reference(rows):
        return RingMatrix._of_rows(ring, each(rows), len(rows[0]) if rows else 0)

    systems = {}
    for name, spec in doc["systems"].items():
        entry = sf.systems[name]
        assert typed(entry.endo.to_lists()) == typed(each(spec["endo"]))
        assert typed(entry.generators.to_lists()) == typed(each(spec["input_gens"]))
        systems[name] = from_pair(reference(spec["endo"]), reference(spec["input_gens"]))
    certificates = {}
    for name, spec in doc["certificates"].items():
        cert = sf.certificates[name].certificate
        for key in _CERT_FIELDS:
            assert typed(getattr(cert, key).to_lists()) == typed(each(spec[key]))
        witness = IsoCertificate(*(reference(spec[key]) for key in _CERT_FIELDS))
        certificates[name] = CertEntry(spec["source"], spec["target"], witness)
    expected = SystemFile(ring, systems, certificates)
    assert sf == expected
    assert emit(sf) == emit(expected)


def _count_parses(monkeypatch, ring):
    calls = Counter()
    original = type(ring).parse_payload

    def counting(self, text):
        calls[text] += 1
        return original(self, text)

    monkeypatch.setattr(type(ring), "parse_payload", counting)
    return calls


def _literals(doc):
    for spec in doc["systems"].values():
        yield from (t for key in ("endo", "input_gens") for row in spec[key] for t in row)
    for spec in doc["certificates"].values():
        yield from (t for key in _CERT_FIELDS for row in spec[key] for t in row)


# A sphere literal whose reduction costs just under MAX_REDUCE_COST: a
# 4101-bit coefficient costs 6 per rewrite of z^60.
COSTLY = f"{2**4100}*z^60"


class TestLiteralMemo:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), ring_doc=st.sampled_from(MEMO_RINGS))
    def test_repeated_literals_parse_as_each_alone(self, data, ring_doc):
        pool = _accepted(descriptor_from_dict(ring_doc), MEMO_POOL)
        doc = _memo_document(
            ring_doc, lambda: data.draw(st.sampled_from(pool)), lambda lo, hi: data.draw(st.integers(lo, hi))
        )
        _check_per_entry(doc)

    @pytest.mark.parametrize("ring_doc", MEMO_RINGS, ids=lambda d: d["kind"])
    def test_one_parse_per_distinct_literal(self, monkeypatch, ring_doc):
        ring = descriptor_from_dict(ring_doc)
        pool = _accepted(ring, MEMO_POOL)
        rng = random.Random(11)
        doc = _memo_document(ring_doc, lambda: rng.choice(pool), lambda lo, hi: hi)
        calls = _count_parses(monkeypatch, ring)
        parse_text(json.dumps(doc))
        literals = list(_literals(doc))
        assert len(literals) > len(set(literals))
        assert calls == Counter(set(literals))

    def test_costly_literal_repeated_in_every_entry_parses_once(self, monkeypatch):
        ring = descriptor_from_dict(SPHERE)
        terms = _parse_terms(COSTLY, ring.variables)
        ring.reduce(terms, MAX_REDUCE_COST)
        with pytest.raises(ElementSyntaxError):
            ring.reduce(terms, MAX_REDUCE_COST * 98 // 100)
        doc = _memo_document(SPHERE, lambda: COSTLY, lambda lo, hi: hi)
        calls = _count_parses(monkeypatch, ring)
        sf = parse_text(json.dumps(doc))
        assert calls == Counter([COSTLY])
        payload = ring.parse_payload(COSTLY)
        assert all(v == payload for entry in sf.systems.values() for v in entry.endo.entries)

    @pytest.mark.parametrize(
        "ring_doc, bad, message",
        [
            ({"kind": "Q"}, "1/0", "zero denominator"),
            ({"kind": "Z"}, "x", "bad integer literal"),
            ({"kind": "GF", "p": 7}, "1/2", "bad residue literal"),
            (SPHERE, "x^65", "monomial of total degree"),
        ],
        ids=["Q", "Z", "GF", "sphere"],
    )
    def test_repeated_bad_literal_names_first_position(self, ring_doc, bad, message):
        doc = {
            "ring": ring_doc,
            "systems": {"S": {"n": 2, "endo": [["1", "1"], ["1", bad]], "input_gens": [[bad], ["1"]]}},
        }
        for _ in range(2):  # nothing carries over from one call to the next
            with pytest.raises(SystemFileError) as err:
                parse_text(json.dumps(doc))
            assert str(err.value).startswith(f"systems.S.endo[1][1]: {message}")

    @pytest.mark.parametrize("entry", [["1"], {"1": "1"}, 1, None], ids=["list", "dict", "int", "null"])
    @pytest.mark.parametrize("ring_doc", MEMO_RINGS, ids=lambda d: d["kind"])
    def test_non_string_entry_among_repeats(self, ring_doc, entry):
        doc = {
            "ring": ring_doc,
            "systems": {"S": {"n": 2, "endo": [["1", "1"], ["1", entry]], "input_gens": [["1"], ["1"]]}},
        }
        with pytest.raises(SystemFileError, match=r"systems\.S\.endo\[1\]\[1\]: entries must be strings"):
            parse_text(json.dumps(doc))


BASE_DOCUMENTS = fuzz_base_documents()


@settings(max_examples=300)
@given(data=st.data())
def test_mutated_documents_parse_or_raise_system_file_error(data):
    """Random literals, wrong JSON types, missing or extra fields and
    ragged rows in valid files either parse or raise SystemFileError."""
    doc = mutated_document(data, data.draw(st.sampled_from(BASE_DOCUMENTS)))
    try:
        parse_text(json.dumps(doc))
    except SystemFileError:
        pass
