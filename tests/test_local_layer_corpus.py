"""valuation, residue_reduce and embed against a recorded corpus.

The corpus holds seeded K-elements at p = 2, 3 and 5, their valuations at
places of theta-degree 1 to 4 and at infinity, and their residues and
embeddings (precision 1 to 6) at places of theta-degree 1.  Each output is
an int, a pair of F_p[t] texts (numerator, denominator), a list of
(exponent, numerator, denominator) digits, or "ValueError".

Residues and embeddings are refused, with ValueError, at every place
but theta + g(t).

Re-record with ``PYTHONPATH=src python tests/test_local_layer_corpus.py``.
"""

import json
import pathlib
import random

import pytest

from drinfeldlab.base import RPoly, rpoly_to_str
from drinfeldlab.kfield import KElem, _bipoly_to_str, kelem_parse
from drinfeldlab.localfield import embed
from drinfeldlab.places import Place, residue_reduce, valuation

from helpers import bipoly_from_theta_coeffs, uniformizer

pytestmark = pytest.mark.golden

CORPUS = pathlib.Path(__file__).parent / "data" / "local_layer_corpus.json"
PRIMES = (2, 3, 5)
DEGREE_ONE = ("finite:theta", "finite:theta+1", "finite:theta+t",
              "finite:t*theta+1", "finite:theta+t^2+1")
HIGHER = ("finite:theta^2+t", "finite:theta^2+t*theta+t",
          "finite:theta^3+t", "finite:theta^3+t*theta+t",
          "finite:theta^4+t", "finite:theta^4+t*theta^2+t", "infinite")
PRECISIONS = range(1, 7)


def _rnd_bipoly(rng, p, theta_deg, t_deg):
    return bipoly_from_theta_coeffs(p, [
        RPoly.from_coeffs(p, [rng.randrange(p) for _ in range(t_deg + 1)])
        for _ in range(theta_deg + 1)])


def _rnd_fraction(rng, p):
    while True:
        den = _rnd_bipoly(rng, p, 2, 1)
        if not den.is_zero():
            break
    return KElem.from_bipoly(_rnd_bipoly(rng, p, 3, 2)) / KElem.from_bipoly(den)


def _elements(p, place_text):
    """Seeded K-elements for one place: shared ones, Frobenius-dilated and
    sparse ones, and multiples of the place's polynomial in both directions."""
    rng = random.Random(f"local-layer/{p}")
    theta, t = KElem.theta(p), KElem.t(p)
    out = [KElem.zero(p)] + [_rnd_fraction(rng, p) for _ in range(6)]
    out += [_rnd_fraction(rng, p).frob(2), _rnd_fraction(rng, p).frob(3),
            theta.frob(4) + t, t * theta.frob(3) + theta + KElem.one(p)]
    local = random.Random(f"local-layer/{p}/{place_text}")
    pi = uniformizer(Place.parse(p, place_text))
    out += [_rnd_fraction(local, p) * pi ** local.randint(1, 2),
            _rnd_fraction(local, p) / pi ** local.randint(1, 2),
            (pi * _rnd_fraction(local, p)).frob(4)]
    return out


def _felem(f):
    return [rpoly_to_str(f.num), rpoly_to_str(f.den)]


def _outcome(fn):
    try:
        return fn()
    except ValueError:
        return "ValueError"


def _embedding(x, v, n):
    z = embed(x, v, n)
    return [[e] + _felem(z.terms[e]) for e in sorted(z.terms)]


OPS = {
    "valuation": lambda x, v, n: valuation(x, v),
    "residue_reduce": lambda x, v, n: _felem(residue_reduce(x, v)),
    "embed": _embedding,
}


def record():
    cases = []
    for p in PRIMES:
        for place_text in DEGREE_ONE + HIGHER:
            v = Place.parse(p, place_text)
            for x in _elements(p, place_text):
                head = {"p": p, "place": place_text,
                        "x": [_bipoly_to_str(x.num), _bipoly_to_str(x.den)]}
                calls = [("valuation", None)]
                if place_text in DEGREE_ONE:
                    calls += [("residue_reduce", None)]
                    calls += [("embed", n) for n in PRECISIONS]
                for op, n in calls:
                    out = _outcome(lambda: OPS[op](x, v, n))
                    cases.append(head | {"op": op, "n": n, "out": out})
    return {"description": __doc__.split("\n\n")[1].replace("\n", " "),
            "cases": cases}


def _case_element(case):
    p = case["p"]
    num, den = (kelem_parse(p, text).num for text in case["x"])
    return KElem(num, den, _canonical=True)


def _cases():
    return json.loads(CORPUS.read_text())["cases"]


@pytest.mark.parametrize("p", PRIMES)
def test_outputs_equal_the_recorded_ones(p):
    for case in _cases():
        if case["p"] != p:
            continue
        x, v = _case_element(case), Place.parse(p, case["place"])
        got = _outcome(lambda: OPS[case["op"]](x, v, case["n"]))
        assert json.loads(json.dumps(got)) == case["out"], case


def test_corpus_shape():
    cases = _cases()
    ops = {op: sum(c["op"] == op for c in cases) for op in OPS}
    assert ops == {"valuation": 504, "residue_reduce": 210, "embed": 1260}


@pytest.mark.parametrize("place_text", ["finite:theta^2+t", "infinite"])
@pytest.mark.parametrize("op", ["residue_reduce", "embed"])
def test_refused_off_theta_degree_one(op, place_text):
    v = Place.parse(3, place_text)
    for x in (KElem.zero(3), KElem.one(3), kelem_parse(3, "theta/(theta+t)")):
        with pytest.raises(ValueError, match="theta-degree 1"):
            OPS[op](x, v, 3)


if __name__ == "__main__":
    corpus = record()
    lines = [json.dumps(case, sort_keys=True) for case in corpus["cases"]]
    CORPUS.write_text(
        f'{{"description": {json.dumps(corpus["description"])},\n'
        ' "cases": [\n' + ",\n".join(lines) + "\n]}\n")
