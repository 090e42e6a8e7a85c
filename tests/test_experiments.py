import pytest

from drinfeldlab import experiments as ex
from drinfeldlab.drinfeld import DrinfeldModule
from drinfeldlab.kfield import KElem, kelem_parse
from drinfeldlab.phimodule import (PhiModule, divisible_hull, is_full, member,
                                   member_many, point_to_str)
from drinfeldlab.twisted import tp_eval

P = 3


@pytest.fixture(scope="module")
def paper_hull():
    """The rank-3 special-characteristic hull of Phi_t(theta), phi_t = theta*tau + tau^2."""
    phi = DrinfeldModule.parse(P, "[0, theta, 1]")
    start = PhiModule(phi, 1, [(tp_eval(phi.phi_t, KElem.theta(P)),)])
    return divisible_hull(start, prime_bound=1)


class TestPaperInstance:
    def test_hull(self, paper_hull):
        assert [point_to_str(x) for x in paper_hull.gens] == [
            "(theta^9+theta^4)", "(theta)", "(1)"]

    def test_full_up_to_capped_bounds(self, paper_hull):
        rep = is_full(paper_hull)
        assert rep.kind == "full_up_to_bounds"
        assert rep.witness is None
        assert "theta-bound-capped" in rep.notes
        assert "denominator-profile-truncated" in rep.notes

    def test_zero_dim_sides(self, paper_hull):
        # the verdict itself is left open: a capped fullness scan should
        # weaken it, which zero_dim_intersection does not do yet
        theta = KElem.theta(P)
        points = [(theta,), (theta + KElem.one(P),)]
        rep = ex.zero_dim_intersection(paper_hull, ex.ZeroDim(1, points))
        k_side = {point_to_str(x) for x in rep.k_side}
        assert k_side == {point_to_str(x) for x in points}
        assert k_side <= {point_to_str(x) for x in rep.adelic_side}

    def test_batched_membership_matches_single(self, paper_hull):
        texts = ["theta", "theta+1", "theta^9+theta^4", "theta^2", "1/theta",
                 "0", "theta^3+2*theta", "t*theta"]
        ys = [(kelem_parse(P, s),) for s in texts]
        batched = member_many(paper_hull, ys)
        single = [member(paper_hull, y) for y in ys]
        assert [str(c) for c in batched] == [str(c) for c in single]
        assert any(c.found for c in single)
        assert any(not c.found for c in single)
