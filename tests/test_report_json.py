"""Every report class's JSON, pinned byte for byte.

Small fixed instances of every report class, built from the fixtures of
test_adelic.  The recorded file holds each instance's JSON as an object;
dumped again with sort_keys and indent=1 it is the text that
certificate_json(report, indent=1) gave before the encoder was shared
(the nested classes, which carry no schema of their own, go through
to_json).  Together the instances reach a Fraction, an RPoly,
a None, a MemberCertificate and every nested class.
"""

import json
import pathlib
from fractions import Fraction

import pytest

from drinfeldlab import experiments as ex
from drinfeldlab.adelic import (
    Report,
    certificate_json,
    closure_member,
    closure_torsion_check,
    discreteness_certificate,
    quotient_iso_check,
    standard_tracked_places,
    to_json,
)
from drinfeldlab.base import rpoly_parse
from drinfeldlab.kfield import KElem
from drinfeldlab.places import place_parse
from drinfeldlab.twisted import tp_eval, tp_parse

from test_adelic import carlitz_theta, drinfeld_one, special_theta

pytestmark = pytest.mark.golden

GOLDEN = pathlib.Path(__file__).parent / "data" / "report_json.json"
P = 3


def _instances():
    theta = KElem.theta(P)
    carlitz, special = carlitz_theta(), special_theta()
    places = standard_tracked_places(special)
    blocked = closure_member(special, (theta + KElem.one(P),), places)
    in_gamma = closure_member(special, (tp_eval(special.phi.phi_t, theta),),
                              places)
    iso = quotient_iso_check(special, rpoly_parse(P, "t"))
    cubic = ex.Hypersurface(ex.poly_parse(P, 1, "x^3 - theta^2*x"))
    table = ex.uniformity_probe(tp_parse(P, "[0, theta, 1]"), cubic,
                                [(KElem.zero(P),), (theta,)], (0, 1),
                                ex.theta_box(P, 1, 1))
    experiment = ex.generic_char_experiment(
        carlitz, ex.ZeroDim(1, [(theta,), (theta + KElem.one(P),)]),
        deg_bound=4, cutoff=4, precision=4)
    return {
        "discreteness": discreteness_certificate(
            drinfeld_one(), place_parse(P, "finite:theta+t+1")),
        "discreteness-zero-ideal": discreteness_certificate(
            carlitz, place_parse(P, "finite:theta+t")),
        "closure-blocked": blocked,
        "place-closeness": blocked.place_reports[0],
        "closure-in-gamma": in_gamma,
        "closure-torsion": closure_torsion_check(special, places),
        "quotient-iso": iso,
        "pair-separation": iso.separations[0],
        "experiment": experiment,
        "uniformity-table": table,
    }


def _text(report):
    if isinstance(report, Report):
        return certificate_json(report, indent=1)
    return json.dumps(to_json(report), sort_keys=True, indent=1)


RECORDED = json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def instances():
    return _instances()


def test_every_instance_recorded(instances):
    assert sorted(RECORDED) == sorted(instances)


@pytest.mark.parametrize("label", sorted(RECORDED))
def test_report_byte_for_byte(instances, label):
    want = json.dumps(RECORDED[label], sort_keys=True, indent=1)
    assert _text(instances[label]) == want


def test_to_json_rules():
    theta = KElem.theta(P)
    assert to_json((theta, KElem.zero(P))) == "(theta, 0)"
    assert to_json([theta]) == ["theta"]          # only a tuple is a point
    assert to_json(()) == []
    assert to_json({"v": (Fraction(1, 3), None, True)}) == \
        {"v": ["1/3", None, True]}
    with pytest.raises(TypeError):
        to_json(0.5)
